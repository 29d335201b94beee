"""Scenario corpus, JSON round-trip, and simulation assembly."""

from __future__ import annotations

import json
from pathlib import Path

from . import behaviors
from .crypto import Oracle
from .procs import Id, broker, client, server
from .protocol import BrokerMachine, ClientMachine, ServerMachine
from .simnet import ADVERSARIAL, GOOD_CASE, DelayPolicy, Scenario, Simulation
from .wire import Assignment, stmt_assignment


# ---------------------------------------------------------------------------
# JSON round-trip (the external scenario-file format)

def scenario_to_json(s: Scenario) -> str:
    doc = {
        "name": s.name,
        "servers": s.n_servers,
        "fault_bound": s.fault_bound,
        "brokers": s.n_brokers,
        "clients": s.n_clients,
        "synchrony": s.synchrony,
        "delay_policy": {
            "kind": s.delay_policy.kind,
            "value": s.delay_policy.value,
            "min_delay": s.delay_policy.min_delay,
            "max_delay": s.delay_policy.max_delay,
            "overrides": s.delay_policy.overrides,
        },
        "timer_policy": s.timer_policy,
        "timer_skew_max": s.timer_skew_max,
        "fault_script": s.fault_script,
        "seed": s.seed,
        "batching_window": s.batching_window,
        "preload_directory": s.preload_directory,
        "broadcasts": s.broadcasts,
        "broker_order": {str(k): v for k, v in s.broker_order.items()},
        "payload_bits": s.payload_bits,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def scenario_from_json(text: str) -> Scenario:
    """Parse a scenario file.

    Raises ValueError for a document that is not an object or that has fewer
    than one client: the report's bound, ceil(log2 C) + b bits, needs C >= 1.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("scenario document is not an object")
    if type(doc.get("clients")) is not int or doc["clients"] < 1:
        raise ValueError("clients must be an integer of at least 1")
    dp = doc.get("delay_policy", {})
    return Scenario(
        name=doc["name"],
        n_servers=doc["servers"],
        fault_bound=doc["fault_bound"],
        n_brokers=doc["brokers"],
        n_clients=doc["clients"],
        synchrony=doc.get("synchrony", GOOD_CASE),
        delay_policy=DelayPolicy(
            kind=dp.get("kind", "constant"),
            value=dp.get("value", 1),
            min_delay=dp.get("min_delay", 1),
            max_delay=dp.get("max_delay", 1),
            overrides=dp.get("overrides", {})),
        timer_policy=doc.get("timer_policy", "timeout"),
        timer_skew_max=doc.get("timer_skew_max", 8),
        fault_script=doc.get("fault_script", {}),
        seed=doc.get("seed", 0),
        batching_window=doc.get("batching_window", 0),
        preload_directory=doc.get("preload_directory", True),
        broadcasts=doc.get("broadcasts", []),
        broker_order={int(k): v
                      for k, v in doc.get("broker_order", {}).items()},
        payload_bits=doc.get("payload_bits", 64),
    )


# ---------------------------------------------------------------------------
# assembly

def dense_id(ordinal: int, n_servers: int) -> Id:
    """Steady-state preload: clients round-robin over server domains."""
    return (ordinal % n_servers, ordinal // n_servers)


def build_assignment(oracle: Oracle, scenario: Scenario,
                     ordinal: int) -> Assignment:
    ident = dense_id(ordinal, scenario.n_servers)
    keycard = oracle.keycard(client(ordinal))
    stmt = stmt_assignment(ident, keycard)
    shards = {o: oracle.multisign(server(o), stmt)
              for o in range(2 * scenario.fault_bound + 1)}
    return Assignment(ident, keycard, oracle.certify(shards))


def build_simulation(scenario: Scenario) -> Simulation:
    scenario.validate()
    oracle = Oracle(scenario.processes())
    preload_all: tuple = ()
    assignment_of: dict[int, Assignment] = {}
    if scenario.preload_directory:
        assignment_of = {j: build_assignment(oracle, scenario, j)
                         for j in range(scenario.n_clients)}
        preload_all = tuple(assignment_of[j]
                            for j in range(scenario.n_clients))

    plans: dict[int, list] = {}
    for entry in scenario.broadcasts:
        plans.setdefault(entry["client"], []).append(
            (entry.get("at", 0), bytes.fromhex(entry["context"]),
             bytes.fromhex(entry["message"])))

    machines = {}
    behavior_kwargs = {
        "n_servers": scenario.n_servers,
        "f": scenario.fault_bound,
        "batching_window": scenario.batching_window,
        "preloaded_all": preload_all,
    }
    for i in range(scenario.n_servers):
        pid = server(i)
        spec = scenario.fault_script.get(pid.label)
        if spec is None:
            machines[pid] = ServerMachine(scenario.n_servers,
                                          scenario.fault_bound, preload_all)
        else:
            machines[pid] = behaviors.build(spec, **behavior_kwargs)
    for i in range(scenario.n_brokers):
        pid = broker(i)
        spec = scenario.fault_script.get(pid.label)
        if spec is None:
            machines[pid] = BrokerMachine(scenario.n_servers,
                                          scenario.fault_bound,
                                          scenario.batching_window)
        else:
            machines[pid] = behaviors.build(spec, **behavior_kwargs)
    for j in range(scenario.n_clients):
        pid = client(j)
        spec = scenario.fault_script.get(pid.label)
        if spec is None:
            machines[pid] = ClientMachine(
                scenario.n_servers, scenario.n_brokers, scenario.fault_bound,
                scenario.batching_window, plans.get(j, []),
                scenario.broker_order.get(j), assignment_of.get(j))
        else:
            machines[pid] = behaviors.build(
                spec, preloaded=assignment_of.get(j), **behavior_kwargs)
    return Simulation(scenario, machines, oracle)


def run_scenario(scenario: Scenario, seed: int | None = None):
    if seed is not None:
        scenario.seed = seed
    sim = build_simulation(scenario)
    sim.run_to_quiescence()
    return sim


# ---------------------------------------------------------------------------
# corpus

def _payload(j: int, tweak: int = 0) -> tuple[str, str]:
    """4-byte context + 4-byte message (64-bit payloads)."""
    context = j.to_bytes(4, "big").hex()
    message = (j ^ 0x5A5A5A5A ^ tweak).to_bytes(4, "big").hex()
    return context, message


def _all_broadcast(n_clients: int, at: int = 0) -> list:
    out = []
    for j in range(n_clients):
        context, message = _payload(j)
        out.append({"client": j, "context": context, "message": message,
                    "at": at})
    return out


def good_case(n_clients: int = 8, name: str = "good_case") -> Scenario:
    return Scenario(name=name, n_servers=4, fault_bound=1, n_brokers=1,
                    n_clients=n_clients, synchrony=GOOD_CASE,
                    broadcasts=_all_broadcast(n_clients))


def batching_limit(m: int = 1024, n_clients: int = 1024) -> Scenario:
    """m broadcasters out of n_clients known clients, one batch."""
    stride = max(1, n_clients // m)
    broadcasters = [j * stride for j in range(m)]
    out = []
    for j in broadcasters:
        context, message = _payload(j)
        out.append({"client": j, "context": context, "message": message,
                    "at": 0})
    return Scenario(name=f"batching_limit_m{m}", n_servers=4, fault_bound=1,
                    n_brokers=1, n_clients=n_clients, synchrony=GOOD_CASE,
                    broadcasts=out)


def async_slow_server(n_clients: int = 4) -> Scenario:
    # the broker cannot reach S3 in time; S3 must deliver via totality
    overrides = {"B0->S3": 25, "S3->B0": 25}
    return Scenario(name="async_slow_server", n_servers=4, fault_bound=1,
                    n_brokers=1, n_clients=n_clients, synchrony=ADVERSARIAL,
                    delay_policy=DelayPolicy(kind="constant", value=1,
                                             overrides=overrides),
                    timer_policy="timeout",
                    broadcasts=_all_broadcast(n_clients))


def silent_broker(n_clients: int = 4) -> Scenario:
    return Scenario(name="silent_broker", n_servers=4, fault_bound=1,
                    n_brokers=2, n_clients=n_clients, synchrony=ADVERSARIAL,
                    delay_policy=DelayPolicy(kind="uniform", min_delay=1,
                                             max_delay=3),
                    timer_policy="timeout",
                    fault_script={"B0": {"behavior": "silent_broker"}},
                    broadcasts=_all_broadcast(n_clients))


def censoring_broker(n_clients: int = 4) -> Scenario:
    return Scenario(name="censoring_broker", n_servers=4, fault_bound=1,
                    n_brokers=2, n_clients=n_clients, synchrony=ADVERSARIAL,
                    delay_policy=DelayPolicy(kind="uniform", min_delay=1,
                                             max_delay=3),
                    timer_policy="timeout",
                    fault_script={"B0": {"behavior": "censoring_broker",
                                         "censored": [0]}},
                    broadcasts=_all_broadcast(n_clients))


def equivocating_client(n_clients: int = 4) -> Scenario:
    # client n-1 signs two messages for one context, one per broker;
    # correct clients are split across the two brokers
    equivocator = n_clients - 1
    context = (0xEE000000 + equivocator).to_bytes(4, "big").hex()
    broadcasts = _all_broadcast(n_clients - 1)
    order = {j: [j % 2, 1 - j % 2] for j in range(n_clients - 1)}
    return Scenario(name="equivocating_client", n_servers=4, fault_bound=1,
                    n_brokers=2, n_clients=n_clients, synchrony=ADVERSARIAL,
                    delay_policy=DelayPolicy(kind="constant", value=1),
                    timer_policy="timeout",
                    fault_script={f"C{equivocator}": {
                        "behavior": "equivocating_client",
                        "context": context,
                        "messages": ["aaaaaaaa", "bbbbbbbb"]}},
                    broadcasts=broadcasts, broker_order=order)


def byzantine_server_false_exception(n_clients: int = 4) -> Scenario:
    return Scenario(name="byzantine_server_false_exception", n_servers=4,
                    fault_bound=1, n_brokers=1, n_clients=n_clients,
                    synchrony=ADVERSARIAL,
                    delay_policy=DelayPolicy(kind="constant", value=1),
                    timer_policy="timeout",
                    fault_script={"S3": {"behavior": "false_exception_server",
                                         "target_id": [0, 0]}},
                    broadcasts=_all_broadcast(n_clients))


def mixed(n_clients: int = 6) -> Scenario:
    """f Byzantine servers plus f Byzantine clients, colluding flavors."""
    equivocator = n_clients - 1
    context = (0xEE000000 + equivocator).to_bytes(4, "big").hex()
    order = {j: [j % 2, 1 - j % 2] for j in range(n_clients - 1)}
    return Scenario(name="mixed", n_servers=4, fault_bound=1, n_brokers=2,
                    n_clients=n_clients, synchrony=ADVERSARIAL,
                    delay_policy=DelayPolicy(kind="uniform", min_delay=1,
                                             max_delay=3),
                    timer_policy="timeout",
                    fault_script={
                        "S3": {"behavior": "false_exception_server",
                               "target_id": [0, 0]},
                        f"C{equivocator}": {
                            "behavior": "equivocating_client",
                            "context": context,
                            "messages": ["aaaaaaaa", "bbbbbbbb"]},
                    },
                    broadcasts=_all_broadcast(n_clients - 1),
                    broker_order=order)


def concurrent_signup(n_clients: int = 6) -> Scenario:
    broadcasts = []
    for j in range(n_clients):
        context, message = _payload(j)
        broadcasts.append({"client": j, "context": context,
                           "message": message, "at": j % 3})
    return Scenario(name="concurrent_signup", n_servers=4,
                    fault_bound=1, n_brokers=1, n_clients=n_clients,
                    synchrony=ADVERSARIAL,
                    delay_policy=DelayPolicy(kind="uniform", min_delay=1,
                                             max_delay=3),
                    timer_policy="timeout",
                    preload_directory=False,
                    broadcasts=broadcasts)


CORPUS = {
    "good_case": good_case,
    "async_slow_server": async_slow_server,
    "silent_broker": silent_broker,
    "censoring_broker": censoring_broker,
    "equivocating_client": equivocating_client,
    "byzantine_server_false_exception": byzantine_server_false_exception,
    "mixed": mixed,
    "concurrent_signup": concurrent_signup,
}


def write_corpus(directory: str):
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    for name, factory in CORPUS.items():
        (path / f"{name}.json").write_text(scenario_to_json(factory()))
