"""Seeded inputs of the three workloads and the pinned expected verdicts.

Everything a run sends to the system is generated here from the workload
seed; the daemon only ever receives the generated payloads.  The seed fixes
the instance order of a cold pass, the inline-spec subset and its order,
each client's key order and each session's delta trace.  Verdicts of every
key a seed can select are pinned in ``expected.json`` (written by
``pin.py``), so a run checks each answer against a table it did not
compute itself.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from harness import encode_line

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

#: The scenarios a ``sweep-cold`` pass builds fresh and decides.
SWEEP_SCENARIOS = ("separations", "coloring-cycles", "fagin", "locality")
#: The scenario whose instances ``serve-hot`` queries by index.
HOT_SCENARIO = "separations"
#: The opening address of every dynamic session (sequential ids, so
#: identifier uniqueness never blocks an edge insert).
SESSION_SPEC = {"arbiter": "2-colorable", "family": "cycle", "n": 12, "scheme": "sequential"}

#: Working-set sizes at full and tiny (self-test) scale.
SIZES = {
    "full": {"hot_specs": 48, "store_specs": 400, "probe_deltas": 128},
    "tiny": {"hot_specs": 6, "store_specs": 24, "probe_deltas": 8},
}
#: Reads between two mutates of a session.
HOT_READS_PER_MUTATE = 32
STORE_READS_PER_MUTATE = 16


def spec_token(spec: Dict[str, Any]) -> str:
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))


def hot_spec_universe() -> List[Dict[str, Any]]:
    """Inline cycle specs ``serve-hot`` draws its subset from."""
    return [
        {"arbiter": arbiter, "family": "cycle", "n": n, "scheme": scheme}
        for arbiter in ("2-colorable", "3-colorable")
        for n in range(3, 41)
        for scheme in ("sequential", "random")
    ]


def store_spec_universe() -> List[Dict[str, Any]]:
    """Inline rule-kernel specs ``serve-store-rw`` fills its store from.

    Globally unique identifier schemes only: every spec lands on the
    compiled rule kernel (direct path), so the fill never reaches the
    message-passing simulator.
    """
    families: List[Dict[str, Any]] = []
    families += [{"family": "cycle", "n": n} for n in range(3, 41)]
    families += [{"family": "path", "n": n} for n in range(2, 41)]
    families += [
        {"family": "grid", "rows": rows, "cols": cols}
        for rows in range(2, 6)
        for cols in range(rows, 9)
    ]
    families += [
        {"family": "tree", "n": n, "seed": seed}
        for n in (6, 9, 12, 16, 20)
        for seed in range(3)
    ]
    families += [{"family": "star", "n": n} for n in range(3, 12)]
    return [
        {"arbiter": arbiter, **family, "scheme": scheme}
        for arbiter in ("2-colorable", "3-colorable", "eulerian", "all-selected")
        for family in families
        for scheme in ("sequential", "random")
    ]


def load_expected() -> Dict[str, Dict[str, bool]]:
    """The pinned verdict table (see ``pin.py``)."""
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


def pinned(universe: List[Dict[str, Any]], expected) -> List[Dict[str, Any]]:
    """The specs of *universe* with a pinned verdict (one per distinct key)."""
    return [spec for spec in universe if spec_token(spec) in expected["specs"]]


@dataclass
class Session:
    """One client's dynamic session and its seeded delta trace (wire form)."""

    name: str
    deltas: List[Dict[str, Any]]


@dataclass
class Op:
    """One request a client sends, pre-encoded, with what it must answer."""

    kind: str  # "read", "mutate" or "session"
    line: bytes
    expected: Any = None  # the verdict a read must answer


@dataclass
class ServeInputs:
    """Everything one serving run sends, derived from the seed."""

    warm: List[Tuple[bytes, bool]]  # set-up requests and their verdicts
    clients: List[List[Op]]  # each client's cyclic op list
    sessions: List[Session] = field(default_factory=list)


def seeded_sweep_order(count: int, seed: int, pass_index: int) -> List[int]:
    order = list(range(count))
    random.Random(f"sweep/{seed}/{pass_index}").shuffle(order)
    return order


def session_trace(seed: int, client: int, steps: int) -> List[Dict[str, Any]]:
    """A valid seeded delta trace over :data:`SESSION_SPEC`, in wire form."""
    from repro.engine.dynamic import delta_to_wire, random_trace
    from repro.graphs import generators

    graph = generators.cycle_graph(SESSION_SPEC["n"])
    trace = random_trace(
        graph, seed=seed * 1000 + client, steps=steps, kinds=("label", "edge")
    )
    return [delta_to_wire(delta, graph.nodes) for delta in trace]


def _query_line(body: Dict[str, Any]) -> bytes:
    return encode_line({"op": "query", **body})


def _client_ops(
    reads: Sequence[Op], session: Session, reads_per_mutate: int,
    with_session_query: bool, rng: random.Random,
) -> List[Op]:
    """A seeded permutation of *reads* with a mutate every few reads.

    Mutate ops carry no payload yet: deltas are consumed in trace order at
    send time, because a delta is only valid after the ones before it.
    """
    order = list(reads)
    rng.shuffle(order)
    every = min(reads_per_mutate, len(order))
    ops: List[Op] = []
    for position, op in enumerate(order, start=1):
        ops.append(op)
        if position % every == 0:
            ops.append(Op("mutate", b""))
            if with_session_query:
                ops.append(Op("session", encode_line(
                    {"op": "query", "session": session.name})))
    return ops


def serve_hot_inputs(seed: int, size: str, clients: int, delta_budget: int) -> ServeInputs:
    from repro.sweep.scenarios import build_instances

    expected = load_expected()
    rng = random.Random(f"serve-hot/{seed}")
    specs = rng.sample(pinned(hot_spec_universe(), expected), SIZES[size]["hot_specs"])
    reads: List[Op] = []
    count = len(build_instances(HOT_SCENARIO))
    for index in range(count):
        verdict = expected["sweep"][f"{HOT_SCENARIO}#{index}"]
        reads.append(Op("read", _query_line({"scenario": HOT_SCENARIO, "index": index}), verdict))
    for spec in specs:
        reads.append(Op("read", _query_line({"spec": spec}), expected["specs"][spec_token(spec)]))
    sessions = [
        Session(f"hot-{seed}-{client}", session_trace(seed, client, delta_budget))
        for client in range(clients)
    ]
    return ServeInputs(
        warm=[(op.line, op.expected) for op in reads],
        clients=[
            _client_ops(reads, sessions[client], HOT_READS_PER_MUTATE, False,
                        random.Random(f"serve-hot/{seed}/client{client}"))
            for client in range(clients)
        ],
        sessions=sessions,
    )


def serve_store_inputs(seed: int, size: str, clients: int, delta_budget: int) -> ServeInputs:
    expected = load_expected()
    rng = random.Random(f"serve-store-rw/{seed}")
    specs = rng.sample(pinned(store_spec_universe(), expected), SIZES[size]["store_specs"])
    reads = [
        Op("read", _query_line({"spec": spec}), expected["specs"][spec_token(spec)])
        for spec in specs
    ]
    sessions = [
        Session(f"rw-{seed}-{client}", session_trace(seed, client, delta_budget))
        for client in range(clients)
    ]
    return ServeInputs(
        warm=[(op.line, op.expected) for op in reads],
        clients=[
            _client_ops(reads, sessions[client], STORE_READS_PER_MUTATE, True,
                        random.Random(f"serve-store-rw/{seed}/client{client}"))
            for client in range(clients)
        ],
        sessions=sessions,
    )


def open_session_line(session: Session) -> bytes:
    return encode_line({"op": "mutate", "session": session.name,
                        "spec": SESSION_SPEC, "deltas": []})


def mutate_line(session: Session, index: int) -> bytes:
    return encode_line({"op": "mutate", "session": session.name,
                        "deltas": [session.deltas[index]]})


def serve_inputs(workload: str, seed: int, size: str, clients: int, seconds: float) -> ServeInputs:
    """The inputs of a serving workload, with delta traces long enough for
    *seconds* of mutates (several times what a client sends)."""
    make = serve_store_inputs if workload == "serve-store-rw" else serve_hot_inputs
    return make(seed, size, clients, int(seconds * 300) + 64)
