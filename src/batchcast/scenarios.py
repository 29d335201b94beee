"""Scenario corpus, JSON round-trip, and simulation assembly."""

from __future__ import annotations

import json
from binascii import a2b_hex
from dataclasses import MISSING, fields
from functools import partial
from typing import NamedTuple

from . import behaviors
from .crypto import Oracle
from .procs import ProcessId, ProcessKind
from .protocol import (BatchCheck, BrokerMachine, ClientMachine,
                       ServerMachine)
from .simnet import (ADVERSARIAL, GOOD_CASE, DelayPolicy, Scenario,
                     Simulation, parse_json)
from .wire import Assignment, stmt_assignment


# ---------------------------------------------------------------------------
# key tables (the external scenario-file format)

class KeyTable(NamedTuple):
    """The keys of one JSON object, read into `target(**attributes)`.

    `rows` maps each key to (attribute, kind), a kind being `int`, `str`,
    `bool`, `dict` (any object), a one-item list (a list of that kind), a
    one-item dict {key type: kind}, or a KeyTable.  Required are all keys of
    a `dict` target, and of a dataclass those without default.
    """

    target: type
    rows: dict


_TYPE_NAMES = {int: "an integer", str: "a string", bool: "a boolean",
               dict: "an object", list: "a list"}

SCENARIO_KEYS = KeyTable(Scenario, {
    "name": ("name", str),
    "servers": ("n_servers", int),
    "fault_bound": ("fault_bound", int),
    "brokers": ("n_brokers", int),
    "clients": ("n_clients", int),
    "synchrony": ("synchrony", str),
    "delay_policy": ("delay_policy", KeyTable(DelayPolicy, {
        "kind": ("kind", str),
        "min_delay": ("min_delay", int),
        "max_delay": ("max_delay", int),
        "overrides": ("overrides", {str: int}),  # "B0->S3": delay
    })),
    "timer_policy": ("timer_policy", str),
    "fault_script": ("fault_script", {str: dict}),
    "seed": ("seed", int),
    "preload_directory": ("preload_directory", bool),
    "broadcasts": ("broadcasts", [KeyTable(dict, {
        "client": ("client", int),
        "context": ("context", str),  # hex, decoded when built
        "message": ("message", str),  # hex, decoded when built
        "at": ("at", int),
    })]),
    "broker_order": ("broker_order", {int: [int]}),
})


def read_keys(doc, table: KeyTable, what: str):
    """`doc`, decoded JSON, read through `table`.  Raises ValueError naming
    the first key that is unknown, missing or mistyped."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} is not an object")
    return _read("", doc, table)


def _read(where: str, value, kind):
    json_type = (kind if isinstance(kind, type)
                 else dict if isinstance(kind, KeyTable) else type(kind))
    if type(value) is not json_type:
        raise ValueError(f"{where} must be {_TYPE_NAMES[json_type]}")
    if type(kind) is list:
        return [_read(f"{where}[{i}]", v, kind[0])
                for i, v in enumerate(value)]
    if type(kind) is dict:
        (key_type, sub), = kind.items()
        if key_type is int and not all(map(str.isdecimal, value)):
            raise ValueError(f"{where} keys must be integers")
        return {key_type(k): _read(f"{where}.{k}", v, sub)
                for k, v in value.items()}
    if not isinstance(kind, KeyTable):
        return value
    prefix = f"{where}." if where else ""
    unknown = sorted(value.keys() - kind.rows)
    if unknown:
        raise ValueError(f"unknown key {prefix + unknown[0]!r}")
    required = ({attr for attr, _ in kind.rows.values()}
                if kind.target is dict else
                {f.name for f in fields(kind.target)
                 if f.default is MISSING and f.default_factory is MISSING})
    attrs = {}
    for key, (attr, sub) in kind.rows.items():
        if key in value:
            attrs[attr] = _read(prefix + key, value[key], sub)
        elif attr in required:
            raise ValueError(f"missing key {prefix + key!r}")
    return kind.target(**attrs)


def _read_behavior(pid: ProcessId, spec, s: Scenario) -> tuple:
    """The machine and keyword arguments of `pid`'s fault-script entry, read
    and bounded by its `behaviors.BEHAVIORS` row; ValueError names the key."""
    where = f"fault_script.{pid.label}"
    name = _read(where, spec, dict).get("behavior")
    kind, cls, keys, check = behaviors.BEHAVIORS.get(str(name), (None,) * 4)
    if kind is not pid.kind:
        raise ValueError(f"{where}.behavior: no {pid.kind.name.lower()} "
                         f"behavior is called {name!r}")
    table = {key: (key, sub) for key, (sub, _) in keys.items()}
    spec = _read(where, spec,
                 KeyTable(dict, {"behavior": ("behavior", str), **table}))
    kwargs = {key: _at(f"{where}.{key}", bound, spec[key], s)
              for key, (_, bound) in keys.items()}
    if check:
        _at(where, check, s, pid)
    return cls, kwargs


def _at(where: str, check, *args):
    """`check(*args)`, its ValueError prefixed with `where`."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _write(value, kind):
    """The JSON form of a value that `_read` gives for `kind`."""
    if isinstance(kind, KeyTable):
        get = value.get if kind.target is dict else partial(getattr, value)
        return {key: _write(get(attr), sub)
                for key, (attr, sub) in kind.rows.items()}
    if type(kind) is list:
        return [_write(v, kind[0]) for v in value]
    if type(kind) is dict:
        return {str(k): _write(v, *kind.values()) for k, v in value.items()}
    return value


def scenario_to_json(s: Scenario) -> str:
    return json.dumps(_write(s, SCENARIO_KEYS), indent=2, sort_keys=True)


def scenario_from_json(text: str) -> Scenario:
    """Parse a scenario file through `SCENARIO_KEYS` (see `read_keys`); its
    values are bounded when the simulation is built (`build_simulation`)."""
    return read_keys(parse_json(text), SCENARIO_KEYS, "scenario document")


# ---------------------------------------------------------------------------
# assembly

def preloaded_directory(oracle: Oracle,
                        scenario: Scenario) -> tuple[Assignment, ...]:
    """Each client's assignment by ordinal, all minted in one oracle call:
    client j round-robin over the server domains, at id (j % N, j // N),
    certified by servers 0 to 2f."""
    n, cards = scenario.n_servers, oracle.keycards(ProcessKind.CLIENT)
    idents = [(j % n, j // n) for j in range(scenario.n_clients)]
    keycards = [cards[j] for j in range(scenario.n_clients)]
    certs = oracle.certify_each(map(stmt_assignment, idents, keycards),
                                range(2 * scenario.fault_bound + 1))
    return tuple(map(Assignment, idents, keycards, certs))


def build_simulation(scenario: Scenario) -> Simulation:
    """Validate `scenario` and build its machines: the correct machine of
    each process's kind, or the behavior its fault-script entry names."""
    s = scenario
    s.validate()
    plans: dict[int, list] = {}
    bits = s.payload_bits
    for i, entry in enumerate(s.broadcasts):
        try:
            plan = (entry["at"], a2b_hex(entry["context"]),
                    a2b_hex(entry["message"]))
        except ValueError:
            raise ValueError(f"broadcasts[{i}]: context and message must be "
                             "hex") from None
        if 8 * (len(plan[1]) + len(plan[2])) != bits:
            raise ValueError(f"broadcasts[{i}]: context and message must be "
                             f"{bits} bits together, as in broadcasts[0]")
        plans.setdefault(entry["client"], []).append(plan)
    processes = s.processes()
    script = s.fault_script
    faulty = {pid: _read_behavior(pid, script[pid.label], s)
              for pid in (processes if script else ()) if pid.label in script}
    oracle = Oracle(processes)
    preloads = preloaded_directory(oracle, s) if s.preload_directory else ()
    common = {"n_servers": s.n_servers, "f": s.fault_bound}
    # one BatchCheck for all servers: they are sent the same batches
    server_kwargs = dict(common, preloaded=preloads, check_batch=BatchCheck())
    machines = {}
    for pid in processes:
        behavior = faulty.get(pid) if faulty else None
        if pid.kind is ProcessKind.SERVER:
            correct, kwargs = ServerMachine, server_kwargs
        elif pid.kind is ProcessKind.BROKER:
            correct, kwargs = BrokerMachine, common
        else:
            j = pid.ordinal
            plan, order = plans.get(j, []), s.broker_order.get(j)
            preloaded = preloads[j] if preloads else None
            if behavior is None:  # a correct client, built with no kwargs dict
                machines[pid] = ClientMachine(s.n_servers, s.n_brokers,
                                              s.fault_bound, plan, order,
                                              preloaded)
                continue
            correct, kwargs = ClientMachine, dict(
                common, n_brokers=s.n_brokers, plan=plan, broker_order=order,
                preloaded=preloaded)
        cls, spec_kwargs = behavior or (correct, {})
        machines[pid] = cls(**kwargs, **spec_kwargs)
    return Simulation(s, machines, oracle)


def run_scenario(scenario: Scenario, seed: int | None = None):
    if seed is not None:
        scenario.seed = seed
    sim = build_simulation(scenario)
    sim.run_to_quiescence()
    return sim


# ---------------------------------------------------------------------------
# corpus

def _broadcasts(clients) -> list:
    """One 64-bit payload per client, 4-byte context + 4-byte message."""
    return [{"client": j, "context": j.to_bytes(4, "big").hex(),
             "message": (j ^ 0x5A5A5A5A).to_bytes(4, "big").hex(), "at": 0}
            for j in clients]


def good_case(n_clients: int = 8) -> Scenario:
    return Scenario(name="good_case", n_servers=4, fault_bound=1, n_brokers=1,
                    n_clients=n_clients, synchrony=GOOD_CASE,
                    broadcasts=_broadcasts(range(n_clients)))


def batching_limit(m: int = 1024, n_clients: int = 1024) -> Scenario:
    """m broadcasters out of n_clients known clients, one batch."""
    stride = max(1, n_clients // m)
    return Scenario(name=f"batching_limit_m{m}", n_servers=4, fault_bound=1,
                    n_brokers=1, n_clients=n_clients, synchrony=GOOD_CASE,
                    broadcasts=_broadcasts(range(0, m * stride, stride)))


def _adversarial(name: str, n_clients: int, **kwargs) -> Scenario:
    """f = 1 (N = 4), one broker, adversarial scheduling with 1-3 tick
    delays and every client broadcasting, where `kwargs` say no other."""
    kwargs.setdefault("delay_policy", DelayPolicy(kind="uniform", min_delay=1,
                                                  max_delay=3))
    kwargs.setdefault("broadcasts", _broadcasts(range(n_clients)))
    kwargs.setdefault("n_brokers", 1)
    return Scenario(name=name, n_servers=4, fault_bound=1, n_clients=n_clients,
                    synchrony=ADVERSARIAL, **kwargs)


def _equivocation(n_clients: int) -> dict:
    """Client n-1 signs two messages for one context, one per broker; the
    correct clients are split across the two brokers."""
    j = n_clients - 1
    return {"n_brokers": 2, "broadcasts": _broadcasts(range(j)),
            "broker_order": {k: [k % 2, 1 - k % 2] for k in range(j)},
            "fault_script": {f"C{j}": {
                "behavior": "equivocating_client",
                "context": (0xEE000000 + j).to_bytes(4, "big").hex(),
                "messages": ["aaaaaaaa", "bbbbbbbb"]}}}


def async_slow_server(n_clients: int = 4) -> Scenario:
    # the broker cannot reach S3 in time; S3 must deliver via totality
    return _adversarial("async_slow_server", n_clients, delay_policy=(
        DelayPolicy(overrides={"B0->S3": 25, "S3->B0": 25})))


def silent_broker(n_clients: int = 4) -> Scenario:
    return _adversarial("silent_broker", n_clients, n_brokers=2,
                        fault_script={"B0": {"behavior": "silent_broker"}})


def censoring_broker(n_clients: int = 4) -> Scenario:
    return _adversarial("censoring_broker", n_clients, n_brokers=2,
                        fault_script={"B0": {"behavior": "censoring_broker",
                                             "censored": [0]}})


def equivocating_client(n_clients: int = 4) -> Scenario:
    return _adversarial("equivocating_client", n_clients,
                        delay_policy=DelayPolicy(),
                        **_equivocation(n_clients))


def byzantine_server_false_exception(n_clients: int = 4) -> Scenario:
    return _adversarial("byzantine_server_false_exception", n_clients,
                        delay_policy=DelayPolicy(),
                        fault_script={"S3": {
                            "behavior": "false_exception_server",
                            "target_id": [0, 0]}})


def mixed(n_clients: int = 6) -> Scenario:
    """f Byzantine servers plus f Byzantine clients, colluding flavors."""
    kwargs = _equivocation(n_clients)
    kwargs["fault_script"]["S3"] = {"behavior": "false_exception_server",
                                    "target_id": [0, 0]}
    return _adversarial("mixed", n_clients, **kwargs)


def concurrent_signup(n_clients: int = 6) -> Scenario:
    scenario = _adversarial("concurrent_signup", n_clients,
                            preload_directory=False)
    for entry in scenario.broadcasts:
        entry["at"] = entry["client"] % 3
    return scenario


CORPUS = {factory.__name__: factory for factory in (
    good_case, async_slow_server, silent_broker, censoring_broker,
    equivocating_client, byzantine_server_false_exception, mixed,
    concurrent_signup)}
