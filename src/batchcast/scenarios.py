"""Scenario files, the scenario rules, simulation assembly and the corpus.

`SCENARIO_KEYS` is the one place a scenario is typed: `_read` maps a file's
JSON onto a `Scenario`, and `_typed` types it through the same table, as
`validate` types a scenario built in Python before it bounds its values.
"""

from __future__ import annotations

import json
from binascii import a2b_hex
from collections import defaultdict
from dataclasses import MISSING, fields, replace
from functools import partial
from operator import itemgetter
from typing import NamedTuple

from . import behaviors
from .crypto import Oracle
from .procs import PROCESS_BOUNDS, PROCESS_LABEL, ProcessId, ProcessKind
from .protocol import BrokerMachine, ClientMachine, ServerMachine
from .simnet import (ADVERSARIAL, GOOD_CASE, TICK_BOUND, DelayPolicy,
                     Scenario, Simulation)
from .trace import parse_json
from .wire import Assignment, stmt_assignment


# ---------------------------------------------------------------------------
# key tables (the external scenario-file format)

class KeyTable(NamedTuple):
    """The keys of one JSON object, read into `target(**attributes)`.

    `rows` maps each key to (attribute, kind), a kind being `int`, `str`,
    `bool`, `dict` (any object), a one-item list (a list of that kind), a
    one-item dict {key type: kind}, or a KeyTable.  A `dict` target reads
    each key as itself, and requires all; a dataclass target requires the
    keys of the fields without default.
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


def read_keys(text: str, table: KeyTable, what: str):
    """The JSON document `text` read through `table` and typed by it.
    Raises ValueError naming the first key that is repeated in one object,
    unknown, missing or mistyped."""
    doc = parse_json(text)
    if type(doc) is not dict:
        raise ValueError(f"{what} is not an object")
    doc = _read("", doc, table)
    _typed("", doc, table)
    return doc


def _read(where: str, value, kind):
    """`value`, decoded JSON, with the object of a dataclass table (and of
    each such table among its rows) made its target, its unknown and missing
    keys named, and the keys of an object of integer keys made ints.  All
    else, a value of another JSON type included, is given back as it is,
    for `_typed` to check."""
    if type(kind) is dict and int in kind and type(value) is dict:
        return {_int_key(where, k): v for k, v in value.items()}
    if not (isinstance(kind, KeyTable) and kind.target is not dict
            and type(value) is dict):
        return value
    prefix = f"{where}." if where else ""
    _check_keys(prefix, value.keys(), kind, {
        f.name for f in fields(kind.target)
        if f.default is MISSING and f.default_factory is MISSING})
    return kind.target(**{attr: _read(prefix + key, value[key], sub)
                          for key, (attr, sub) in kind.rows.items()
                          if key in value})


def _int_key(where: str, key: str) -> int:
    """`key` as an int; ValueError unless it is that int's `str`."""
    try:
        if str(int(key)) == key:
            return int(key)
    except ValueError:
        pass
    raise ValueError(f"{where}.{key}: keys must be integers in canonical "
                     "form")


def _check_keys(prefix: str, given, table: KeyTable, required):
    """Raise ValueError naming the first of the keys `given` (sorted) that
    `table` lacks, or else the first key of a `required` attribute that is
    not given."""
    unknown = sorted(map(str, given - table.rows.keys()))
    if unknown:
        raise ValueError(f"unknown key {prefix + unknown[0]!r}")
    for key, (attr, _) in table.rows.items():
        if attr in required and key not in given:
            raise ValueError(f"missing key {prefix + key!r}")


def _typed(where: str, value, kind):
    """Raise ValueError naming the first part of `value` whose type is not
    the one `kind` gives, where a bool is no int and a table's value is its
    target, a dict holding exactly the table's keys."""
    target = (kind.target if isinstance(kind, KeyTable)
              else kind if isinstance(kind, type) else type(kind))
    if type(value) is not target:
        raise ValueError(f"{where} must be "
                         f"{_TYPE_NAMES.get(target, 'an object')}")
    if isinstance(kind, KeyTable):
        prefix = f"{where}." if where else ""
        if target is dict:
            _check_keys(prefix, value.keys(), kind, kind.rows)
        get = value.get if target is dict else partial(getattr, value)
        for key, (attr, sub) in kind.rows.items():
            if type(v := get(attr)) is not sub:  # else a plain kind's, typed
                _typed(prefix + key, v, sub)
    elif type(kind) is list and value and not _all_typed(value, kind[0]):
        for i, v in enumerate(value):
            _typed(f"{where}[{i}]", v, kind[0])
    elif type(kind) is dict and value:
        (key_type, sub), = kind.items()
        if {*map(type, value)} - {key_type}:
            raise ValueError(f"{where} keys must be " + {
                int: "integers", str: "strings"}[key_type])
        if not _all_typed(value.values(), sub):
            for k, v in value.items():
                _typed(f"{where}.{k}", v, sub)


def _all_typed(values, kind) -> bool:
    """Whether `kind` types each of `values`, checked column by column, in C,
    where `kind` is a plain type or a table of dicts of plain types; False
    leaves the values to be walked one by one."""
    if isinstance(kind, type):
        return {*map(type, values)} <= {kind}
    rows = (kind.rows if isinstance(kind, KeyTable) and kind.target is dict
            else {})
    if not (rows and {*map(type, values)} <= {dict}
            and {*map(len, values)} <= {len(rows)}
            and all(isinstance(sub, type) for _, sub in rows.values())):
        return False
    try:
        return all({*map(type, map(itemgetter(key), values))} <= {sub}
                   for key, (_, sub) in rows.items())
    except KeyError:
        return False


def _read_behavior(pid: ProcessId, spec, s: Scenario, plans: dict) -> tuple:
    """The machine and keyword arguments of `pid`'s fault-script entry, read
    and bounded by its `behaviors.BEHAVIORS` row; ValueError names the key."""
    where = f"fault_script.{pid.label}"
    name = spec.get("behavior")  # an object: `validate` typed it
    kind, cls, keys, check = behaviors.BEHAVIORS.get(str(name), (None,) * 4)
    if kind is not pid.kind:
        raise ValueError(f"{where}.behavior: no {pid.kind.name.lower()} "
                         f"behavior is called {name!r}")
    table = {key: (key, sub) for key, (sub, _) in keys.items()}
    _typed(where, spec, KeyTable(dict, {"behavior": ("behavior", str),
                                        **table}))
    kwargs = {key: _at(f"{where}.{key}", bound, spec[key], s)
              for key, (_, bound) in keys.items()}
    if check:
        _at(where, check, s, plans, pid)
    return cls, kwargs


def _at(where: str, check, *args):
    """`check(*args)`, its ValueError prefixed with `where`."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _write(value, kind):
    """The JSON form of a value that `_read` gives for `kind`."""
    if isinstance(kind, KeyTable) and kind.target is not dict:
        return {key: _write(getattr(value, attr), sub)
                for key, (attr, sub) in kind.rows.items()}
    if type(kind) is dict and int in kind:
        return {str(k): v for k, v in value.items()}
    return value


def scenario_to_json(s: Scenario) -> str:
    return json.dumps(_write(s, SCENARIO_KEYS), indent=2, sort_keys=True)


def scenario_from_json(text: str) -> Scenario:
    """Parse a scenario file through `SCENARIO_KEYS` (see `read_keys`); its
    values are bounded when the simulation is built (`build_simulation`)."""
    return read_keys(text, SCENARIO_KEYS, "scenario document")


# ---------------------------------------------------------------------------
# rules

def validate(s: Scenario) -> dict[int, list]:
    """Each client's broadcasts, {client: [(at, context, message)]}, hex
    decoded.  Types `s` through `SCENARIO_KEYS`, then raises ValueError
    naming the key of the first value out of its bounds or breaking a rule
    that joins keys."""
    _typed("", s, SCENARIO_KEYS)
    dp, bs, order = s.delay_policy, s.broadcasts, s.broker_order
    if "/" in s.name or "\0" in s.name:
        raise ValueError("name must be a string without '/' or NUL")
    if not s.name:
        raise ValueError("name must not be empty")
    if not 0 <= s.seed < 1 << 63:  # Random seeds with abs(seed); trace int64
        raise ValueError(f"seed must be an integer in 0..{(1 << 63) - 1}")
    f = s.fault_bound
    if f < 0 or s.n_servers != 3 * f + 1:
        raise ValueError("fault_bound must be at least 0, servers 3f + 1")
    counts = (s.n_servers, s.n_brokers, s.n_clients)
    for (key, bound), n in zip(PROCESS_BOUNDS.items(), counts):
        if not 1 <= n <= bound:
            raise ValueError(f"{key} must be an integer of at least 1 and "
                             f"at most {bound}")
    for key, value, allowed in (
            ("synchrony", s.synchrony, (GOOD_CASE, ADVERSARIAL)),
            ("timer_policy", s.timer_policy, ("timeout", "scheduler")),
            ("delay_policy.kind", dp.kind, ("constant", "uniform"))):
        if value not in allowed:
            raise ValueError(f"{key} must be one of {', '.join(allowed)}")
    delays = {"min_delay": dp.min_delay, "max_delay": dp.max_delay}
    delays.update((f"overrides.{k}", d) for k, d in dp.overrides.items())
    for key, delay in delays.items():
        if not 1 <= delay <= TICK_BOUND:
            raise ValueError(f"delay_policy.{key} not in 1..{TICK_BOUND}")
    if dp.min_delay > dp.max_delay or (dp.kind == "constant"
                                       and dp.max_delay != 1):
        raise ValueError("delay_policy needs min_delay <= max_delay, 1 if "
                         "constant")
    if s.synchrony == GOOD_CASE and (dp != DelayPolicy()
                                     or s.timer_policy != "timeout"):
        raise ValueError("good_case takes the default delay_policy and "
                         "timer_policy")
    labels = sorted(s.fault_script)
    if not _known_labels(labels, counts):
        raise ValueError(f"a fault_script label of {labels} is no process")
    if not all(len(e) == 2 and _known_labels(e, counts)
               for e in (link.split("->") for link in dp.overrides)):
        raise ValueError("a delay_policy.overrides link of "
                         f"{sorted(dp.overrides)} joins no two processes")
    if sum(label[0] == "S" for label in labels) > f:
        raise ValueError(f"fault_script: over f = {f} faulty servers")
    if sum(label[0] == "B" for label in labels) >= s.n_brokers:
        raise ValueError("brokers must be more than the faulty brokers")
    for j, order_j in order.items():
        if not 0 <= j < s.n_clients:
            raise ValueError("broker_order names a missing client")
        if sorted(order_j) != [*range(s.n_brokers)]:
            raise ValueError(f"broker_order.{j} must list each broker "
                             f"0..{s.n_brokers - 1} once")
    by_client = defaultdict(dict)  # client -> {context: plan entry}
    n, digits = s.n_clients, s.payload_bits // 4
    for i, (j, at, c, m) in enumerate(map(itemgetter(
            "client", "at", "context", "message"), bs)):
        if not 0 <= at <= TICK_BOUND:
            raise ValueError(f"broadcasts[{i}].at not in 0..{TICK_BOUND}")
        if not 0 <= j < n:
            raise ValueError(f"a broadcasts client is not < {n}")
        try:
            context = a2b_hex(c)
            by_client[j][context] = (at, context, a2b_hex(m))
        except ValueError:
            raise ValueError(f"broadcasts[{i}]: context and message must "
                             "be hex") from None
        if len(c) + len(m) != digits:
            raise ValueError(f"broadcasts[{i}]: context and message must "
                             f"be {s.payload_bits} bits together, as in "
                             "broadcasts[0]")
    if sum(map(len, by_client.values())) < len(bs):  # one overwrote another
        raise ValueError("broadcasts repeat a client and context")
    return {j: [*plan.values()] for j, plan in by_client.items()}


def _known_labels(labels, counts: tuple) -> bool:
    """Whether each of `labels` names one of (servers, brokers, clients)."""
    return all(m is not None and int(m[2]) < counts["SBC".index(m[1])]
               for m in map(PROCESS_LABEL.fullmatch, labels))


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
    plans = validate(s)
    processes = s.processes()
    script = s.fault_script
    faulty = {pid: _read_behavior(pid, script[pid.label], s, plans)
              for pid in (processes if script else ()) if pid.label in script}
    oracle = Oracle(processes)
    preloads = preloaded_directory(oracle, s) if s.preload_directory else ()
    machines = {}
    for pid in processes:
        behavior = faulty.get(pid) if faulty else None
        if pid.kind is ProcessKind.SERVER:
            correct, kwargs = ServerMachine, {"preloaded": preloads}
        elif pid.kind is ProcessKind.BROKER:
            correct, kwargs = BrokerMachine, {}
        else:
            j = pid.ordinal
            plan, order = plans.get(j, []), s.broker_order.get(j)
            preloaded = preloads[j] if preloads else None
            if behavior is None:  # a correct client, built with no kwargs dict
                machines[pid] = ClientMachine(plan, order, preloaded)
                continue
            correct, kwargs = ClientMachine, dict(
                plan=plan, broker_order=order, preloaded=preloaded)
        cls, spec_kwargs = behavior or (correct, {})
        machines[pid] = cls(**kwargs, **spec_kwargs)
    return Simulation(s, machines, oracle)


def run_scenario(scenario: Scenario, seed: int | None = None):
    """Build and run `scenario`, or a copy of it with `seed`."""
    if seed is not None:
        scenario = replace(scenario, seed=seed)
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
