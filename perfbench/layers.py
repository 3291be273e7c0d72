"""The traced run: where each workload's time goes, layer by layer.

The run replays the workload's seeded inputs in this process, calling the
public function of each layer in the order the daemon (or the sweep)
does.  Phases alternate untraced and traced; in a traced phase
:func:`patches` wraps every layer function in a span of the
:class:`~harness.Tracer`, which yields calls, total and self time per
layer.  Nothing under ``src/`` is modified: the wrappers replace module
and class attributes for the traced phases only.

Serving workloads also start the real daemon once, for the figures only it
has: its coalescer statistics after the fill, and the end-to-end read p50
that the replay's read p50 is subtracted from (``transport.us``: socket,
event loop and client).
"""

from __future__ import annotations

import itertools
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import inputs
import workloads
from harness import Tracer, install, percentile, span_costs
from repro.engine import compiled, dynamic
from repro.engine.canonical import CanonicalVerdictCache
from repro.service import cache, protocol, resolver
from repro.service.protocol import QueryRequest
from repro.sweep import executor, fingerprint, scenarios, store

ENGINE_SPANS = ("engine.kernel", "engine.direct", "engine.simulate")


def encode_answer(build, *args, **kwargs) -> str:
    """``encode_response(build(...))``: the wire-encode layer of one answer."""
    return protocol.encode_response(build(*args, **kwargs))


def engine_span(args: tuple) -> str:
    """Which engine path a ``CompiledGameEngine.eve_wins`` call takes,
    by the public ``CompiledInstance.rule`` / ``.direct`` attributes."""
    compiled = args[0].compiled
    if compiled.rule is not None:
        return "engine.kernel"
    return "engine.direct" if compiled.direct else "engine.simulate"


def _count_hit(name: str):
    def on_result(tracer: Tracer, args: tuple, result: Any) -> None:
        tracer.count(f"{name}.lookups")
        if result is not None:
            tracer.count(f"{name}.hits")
    return on_result


def _count_dirty(tracer: Tracer, args: tuple, reports: Any) -> None:
    tracer.count("repair.dirty", sum(len(report.dirty) for report in reports))


def _keep_compiled(tracer: Tracer, args: tuple, compiled: Any) -> None:
    tracer.keep("compiled", compiled)


def _keep_sweep(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.keep("sweep", result)


def patches() -> List[tuple]:
    """Every layer function the traced phases wrap, with its span name.

    Functions imported by name into another module are patched in that
    module too, because the caller's binding is what runs.
    """
    layers = sys.modules[__name__]
    table = [
        (scenarios, "build_instances", "scenario.build"),
        (executor, "run_instances", "executor", _keep_sweep),
        (executor, "evaluate_timed", "compute"),
        (compiled, "compile_instance", "compile", _keep_compiled),
        (compiled.CompiledGameEngine, "eve_wins", engine_span),
        (compiled, "execute", "simulator"),
        (fingerprint, "game_instance_key", "fingerprint"),
        (resolver, "game_instance_key", "fingerprint"),
        (executor, "game_instance_key", "fingerprint"),
        (protocol, "parse_request", "wire.decode"),
        (dynamic, "delta_from_wire", "wire.delta"),
        (layers, "encode_answer", "wire.encode"),
        (resolver.Resolver, "resolve", "resolve"),
        (cache.TieredVerdictCache, "lookup_lru", "lru", _count_hit("lru")),
        (cache.TieredVerdictCache, "lookup_store", "tier.store", _count_hit("tier.store")),
        (cache.TieredVerdictCache, "insert", "tier.insert"),
        (dynamic.MutableInstance, "apply_batch", "repair", _count_dirty),
        (dynamic.MutableInstance, "verdict", "session.verdict"),
    ]
    for method in ("get", "get_many", "put", "put_many", "journal_append",
                   "get_node", "get_node_many", "put_node_many"):
        table.append((store.SQLiteVerdictStore, method, f"store.{method}"))
    return table


@dataclass
class Phases:
    """Alternating untraced/traced phases of one replay."""

    tracer: Tracer = field(default_factory=Tracer)
    passes: Dict[bool, int] = field(default_factory=lambda: {False: 0, True: 0})
    wall: Dict[bool, float] = field(default_factory=lambda: {False: 0.0, True: 0.0})
    ops: Dict[bool, int] = field(default_factory=lambda: {False: 0, True: 0})
    #: Per-read seconds of the untraced phases (the replay's read latency).
    reads: List[float] = field(default_factory=list)

    def run(self, one_pass, phase_seconds: float, rounds: int) -> None:
        """One uncounted warm-up pass, then *rounds* x (untraced phase,
        traced phase), each of whole passes lasting at least
        *phase_seconds*; ``one_pass(traced)`` returns the number of
        operations it replayed."""
        one_pass(False)
        for _ in range(rounds):
            for traced in (False, True):
                restore = install(self.tracer, patches()) if traced else None
                try:
                    start = time.perf_counter()
                    deadline = start + phase_seconds
                    while True:
                        self.ops[traced] += one_pass(traced)
                        self.passes[traced] += 1
                        if time.perf_counter() >= deadline:
                            break
                    self.wall[traced] += time.perf_counter() - start
                finally:
                    if restore is not None:
                        restore()

    def per_pass_ms(self, name: str) -> float:
        return self.tracer.total(name) * 1000.0 / self.passes[True]

    def per_pass(self, amount: float) -> float:
        return amount / self.passes[True]

    def coverage(self) -> float:
        """Layer time over the traced phases' wall time, with the
        calibrated cost of every span taken off both sides."""
        spans = sum(record[0] for record in self.tracer.spans.values())
        recorded, wall = span_costs()
        layer_seconds = self.tracer.self_total() - spans * recorded
        return layer_seconds / (self.wall[True] - spans * wall)

    def overhead(self) -> float:
        untraced = self.wall[False] / self.ops[False]
        return (self.wall[True] / self.ops[True]) / untraced


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    phases: Phases, fill: Optional[Tracer] = None, extra: Optional[Dict[str, float]] = None
) -> Dict[str, float]:
    """Every per-layer metric from the traced phases (and the fill)."""
    t = phases.tracer
    fill = fill or Tracer()
    compiled = {id(obj): obj for obj in t.kept.get("compiled", [])}.values()
    memo_hits = sum(obj.memo_info()["hits"] for obj in compiled)
    memo_misses = sum(obj.memo_info()["misses"] for obj in compiled)
    canonical = [result.canonical or {} for result in t.kept.get("sweep", [])]
    canonical_answered = sum(info.get("hits", 0) + info.get("store_hits", 0) for info in canonical)
    canonical_lookups = canonical_answered + sum(info.get("misses", 0) for info in canonical)
    engine_seconds = t.total("compile") + sum(t.total(name) for name in ENGINE_SPANS)
    store_calls = sum(record[0] for name, record in t.spans.items() if name.startswith("store."))
    metrics = {
        "compile.ms": phases.per_pass_ms("compile"),
        "compile.calls": phases.per_pass(t.calls("compile")),
        "memo.hit_rate": _ratio(memo_hits, memo_hits + memo_misses),
        "simulator.execute.calls": phases.per_pass(t.calls("simulator")),
        "simulator.execute.ms": phases.per_pass_ms("simulator"),
        "canonical.lookups": phases.per_pass(canonical_lookups),
        "canonical.hit_rate": _ratio(canonical_answered, canonical_lookups),
        "wire.decode.us": t.mean_us("wire.decode"),
        "wire.encode.us": t.mean_us("wire.encode"),
        "resolve.us": t.mean_us("resolve"),
        "lru.us": t.mean_us("lru"),
        "lru.hit_rate": _ratio(t.counts.get("lru.hits", 0), t.counts.get("lru.lookups", 0)),
        "transport.us": 0.0,
        "store.calls": phases.per_pass(store_calls),
        "store.get.us": t.mean_us("tier.store"),
        "store.hit_rate": _ratio(t.counts.get("tier.store.hits", 0), t.counts.get("tier.store.lookups", 0)),
        "journal.append.us": t.mean_us("store.journal_append"),
        "fill.put_many.us": fill.mean_us("store.put_many"),
        "repair.us": t.mean_us("repair"),
        "repair.dirty_nodes": _ratio(t.counts.get("repair.dirty", 0), t.calls("repair")),
        "session.verdict.us": t.mean_us("session.verdict"),
        "fill.compute.ms": fill.total("compute") * 1000.0,
        "fingerprint.us": fill.mean_us("fingerprint"),
        "coalesce.batch_size": 0.0,
        "coalesce.deduped": 0.0,
        "replay.pass.ms": phases.wall[True] * 1000.0 / phases.passes[True],
        "engine.share": engine_seconds / phases.wall[True],
        "layers.coverage": phases.coverage(),
        "tracing.overhead": phases.overhead(),
    }
    for name in ENGINE_SPANS:
        metrics[f"{name}.ms"] = phases.per_pass_ms(name)
        metrics[f"{name}.instances"] = phases.per_pass(t.calls(name))
    metrics.update(extra or {})
    return metrics


# ----------------------------------------------------------------------
# sweep-cold
# ----------------------------------------------------------------------
def trace_sweep(seed: int, seconds: float, size: str) -> workloads.Outcome:
    checker = workloads.Checker()
    expected = inputs.load_expected()["sweep"]
    workloads.sweep_pass_instances()  # lazy imports, untimed
    steps = inputs.SIZES[size]["probe_deltas"]
    counter = itertools.count()

    def one_pass(traced: bool) -> int:
        index = next(counter)
        result, _ = workloads.sweep_pass(seed, index, expected, checker)
        workloads.mutate_probe(seed, index, steps, checker)
        return len(result.results) + steps

    phases = Phases()
    # One pass per phase: a cold pass takes about a second.
    phases.run(one_pass, phase_seconds=0.0, rounds=2)
    notes = {"passes": phases.passes, "ops": phases.ops}
    return workloads.Outcome(layer_metrics(phases), checker, notes)


# ----------------------------------------------------------------------
# Serving workloads
# ----------------------------------------------------------------------
class Replay:
    """The daemon's request path, called function by function in-process."""

    def __init__(self, plan: inputs.ServeInputs, store_url: Optional[str], lru_size: int) -> None:
        self.plan = plan
        self.store = store.open_store(store_url) if store_url else None
        self.cache = cache.TieredVerdictCache(self.store, lru_size=lru_size)
        self.resolver = resolver.Resolver()
        self.checker = workloads.Checker()
        opening = self.resolver.resolve(QueryRequest(spec=inputs.SESSION_SPEC)).instance
        self.sessions = [
            dynamic.MutableInstance.from_game_instance(
                opening, canonical=CanonicalVerdictCache(store=self.store, max_entries=65536))
            for _ in plan.sessions
        ]
        # Request lines as the daemon's reader hands them over (decoded
        # once here, so the replay's own cost stays out of its wall time).
        self.texts = [[op.line.decode() for op in ops] for ops in plan.clients]
        self.mutates = [
            [inputs.mutate_line(session, index).decode() for index in range(len(session.deltas))]
            for session in plan.sessions
        ]
        self.applied = [0] * len(plan.sessions)
        self.answers: List[List[tuple]] = [[] for _ in plan.sessions]
        if self.store is not None:
            for session in plan.sessions:
                self.store.journal_append(session.name, 0, {
                    "kind": "open", "address": {"spec": dict(inputs.SESSION_SPEC)}})

    def close(self) -> None:
        if self.store is not None:
            self.store.close()

    def fill(self, batch: int) -> None:
        """Answer every set-up read once: misses computed in micro-batches,
        as the coalescer groups concurrent clients' misses."""
        warm = self.plan.warm
        for start in range(0, len(warm), batch):
            pending = []
            for line, verdict in warm[start:start + batch]:
                request = protocol.parse_request(line.decode())
                resolved = self.resolver.resolve(request)
                hit = self.cache.lookup_lru(resolved.key)
                if hit is None and self.store is not None:
                    hit = self.cache.lookup_store(resolved.key)
                pending.append((request, resolved, verdict, hit))
            misses = [item for item in pending if item[3] is None]
            verdicts, seconds = executor.evaluate_timed([item[1].instance for item in misses])
            records = []
            for (request, resolved, _, _), answer, spent in zip(misses, verdicts, seconds):
                self.cache.insert(resolved.key, answer, name=resolved.name, seconds=spent, persist=False)
                records.append((resolved.key, bool(answer), resolved.name, spent))
            if self.store is not None and records:
                self.store.put_many(records)
            computed = iter(verdicts)
            for request, resolved, verdict, hit in pending:
                answer, source = hit if hit is not None else (next(computed), "compute")
                encode_answer(protocol.query_response, request.id, answer, source,
                              resolved.key, resolved.name)
                self.checker.attempted += 1
                if answer != verdict:
                    self.checker.mismatch(f"replay fill {resolved.name} answered {answer}")

    def read(self, op: inputs.Op, text: str) -> None:
        request = protocol.parse_request(text)
        resolved = self.resolver.resolve(request)
        hit = self.cache.lookup_lru(resolved.key)
        if hit is None and self.store is not None:
            hit = self.cache.lookup_store(resolved.key)
        self.checker.attempted += 1
        if hit is None:
            self.checker.fail(f"replay read {resolved.name} missed every tier")
            return
        verdict, source = hit
        encode_answer(protocol.query_response, request.id, verdict, source,
                      resolved.key, resolved.name)
        if verdict != op.expected:
            self.checker.mismatch(f"replay read {resolved.name} answered {verdict}")

    def mutate(self, client: int) -> None:
        session = self.plan.sessions[client]
        if self.applied[client] >= len(session.deltas):
            return
        mutable = self.sessions[client]
        request = protocol.parse_request(self.mutates[client][self.applied[client]])
        deltas = [dynamic.delta_from_wire(body, mutable.nodes) for body in request.deltas]
        reports = mutable.apply_batch(deltas)
        dirty = sum(len(report.dirty) for report in reports)
        self.applied[client] += 1
        if self.store is not None:
            self.store.journal_append(session.name, self.applied[client], {
                "kind": "deltas", "deltas": [dict(body) for body in request.deltas],
                "applied": len(reports), "dirty": dirty})
        encode_answer(protocol.mutate_response, request.id, session.name, len(reports),
                      dirty, mutable.compiled.generation)
        self.checker.attempted += 1

    def session_query(self, client: int, text: str) -> None:
        mutable = self.sessions[client]
        request = protocol.parse_request(text)
        key = mutable.key()
        hit = self.cache.lookup_lru(key)
        if hit is None and self.store is not None:
            hit = self.cache.lookup_store(key)
        if hit is not None:
            verdict, source = hit
            mutable.note_verdict(verdict)
        else:
            verdict, source = mutable.verdict(), "dynamic"
            self.cache.insert(key, verdict, name=mutable.name)
            mutable.compiled.canonical.flush()
        encode_answer(protocol.query_response, request.id, verdict, source, key, mutable.name)
        self.answers[client].append((self.applied[client], verdict))
        self.checker.attempted += 1

    def one_pass(self, reads: Optional[List[float]]) -> int:
        """Every client's op list once, interleaved op by op."""
        ops, texts = self.plan.clients, self.texts
        for position in range(max(len(client_ops) for client_ops in ops)):
            for client, client_ops in enumerate(ops):
                index = position % len(client_ops)
                op = client_ops[index]
                if op.kind == "read":
                    if reads is None:
                        self.read(op, texts[client][index])
                    else:
                        start = time.perf_counter()
                        self.read(op, texts[client][index])
                        reads.append(time.perf_counter() - start)
                elif op.kind == "mutate":
                    self.mutate(client)
                else:
                    self.session_query(client, texts[client][index])
        return sum(len(client_ops) for client_ops in ops)

    def verify(self) -> None:
        for session, answers in zip(self.plan.sessions, self.answers):
            workloads.verify_session(session, answers, self.checker)


def trace_serve(name: str, root: str, workdir: str, seed: int, seconds: float, size: str) -> workloads.Outcome:
    store = name == "serve-store-rw"
    plan = inputs.serve_inputs(name, seed, size, workloads.CLIENTS, seconds)
    checker = workloads.Checker()

    # The daemon: coalescer statistics after the fill, end-to-end read p50.
    daemon, _ = workloads.start_daemon(root, workdir, plan, store, 0, checker)
    try:
        client = daemon.client()
        try:
            coalescer = client.request({"op": "stats"})["stats"]["coalescer"]
        finally:
            client.close()
        logs, _, _ = workloads.measure(daemon, plan, max(0.5, seconds * 0.3))
    finally:
        daemon.stop()
    for log in logs:
        checker.merge(log.checker)
    e2e_reads = [value for log in logs for value in log.reads]

    replay = Replay(plan, f"sqlite://{workdir}/replay.sqlite" if store else None,
                    workloads.STORE_LRU_SIZE if store else 4096)
    try:
        fill = Tracer()
        restore = install(fill, patches())
        try:
            replay.fill(batch=workloads.CLIENTS)
        finally:
            restore()
        phases = Phases()
        phases.run(lambda traced: replay.one_pass(None if traced else phases.reads),
                   phase_seconds=max(0.1, seconds * 0.05), rounds=4)
        replay.verify()
    finally:
        replay.close()
    checker.merge(replay.checker)
    batches = coalescer.get("batches") or 0
    extra = {
        "transport.us": (percentile(e2e_reads, 50) - percentile(phases.reads, 50)) * 1e6,
        "coalesce.batch_size": _ratio(coalescer.get("batched", 0), batches),
        "coalesce.deduped": float(coalescer.get("deduped", 0)),
    }
    notes = {
        "passes": phases.passes, "ops": phases.ops, "e2e_samples": len(e2e_reads),
        "replay_read_samples": len(phases.reads),
        "replay_read_p50_us": percentile(phases.reads, 50) * 1e6,
    }
    return workloads.Outcome(layer_metrics(phases, fill, extra), checker, notes)


def traced(name: str, root: str, workdir: str, seed: int, seconds: float, size: str) -> workloads.Outcome:
    if name == "sweep-cold":
        return trace_sweep(seed, seconds, size)
    return trace_serve(name, root, workdir, seed, seconds, size)
