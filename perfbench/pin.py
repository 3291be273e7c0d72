"""Pin the expected-verdict table the benchmark checks every answer against.

    python3 perfbench/pin.py            # (re)write perfbench/expected.json
    python3 perfbench/pin.py --check    # recompute and compare, write nothing

Specs that resolve to an already pinned key are left out; the workloads
draw only from pinned specs.  Verdicts come from the compiled engine (``run_instances`` for the sweep
scenarios, ``evaluate_timed`` for inline specs); every instance of at most
:data:`ORACLE_MAX_NODES` nodes is cross-checked against the exhaustive
game solver ``repro.hierarchy.game.eve_wins`` before anything is written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402

ORACLE_MAX_NODES = 7
#: Skip the oracle where the certificate product would make it slow.
ORACLE_MAX_ASSIGNMENTS = 50_000


def _oracle_size(instance) -> int:
    from repro.hierarchy.certificate_spaces import materialize_space

    total = 1
    for space in instance.spaces:
        materialized = materialize_space(space, instance.graph, instance.ids)
        for candidates in materialized.per_node:
            total *= max(1, len(candidates))
    return total


def _oracle_check(labelled: List[Tuple[str, object, bool]]) -> int:
    """Compare each small instance's pinned verdict with the oracle."""
    from repro.hierarchy.game import eve_wins

    checked = 0
    for label, instance, verdict in labelled:
        if len(instance.graph.nodes) > ORACLE_MAX_NODES:
            continue
        if _oracle_size(instance) > ORACLE_MAX_ASSIGNMENTS:
            continue
        oracle = eve_wins(instance.machine, instance.graph, instance.ids,
                          instance.spaces, instance.prefix)
        if oracle != verdict:
            raise SystemExit(f"engine and oracle disagree on {label}: {verdict} vs {oracle}")
        checked += 1
    return checked


def compute_table() -> Tuple[Dict[str, Dict[str, bool]], int]:
    from repro.service.protocol import QueryRequest
    from repro.service.resolver import Resolver
    from repro.sweep.executor import evaluate_timed, run_instances
    from repro.sweep.scenarios import build_instances

    table: Dict[str, Dict[str, bool]] = {"sweep": {}, "specs": {}}
    labelled: List[Tuple[str, object, bool]] = []
    for name in inputs.SWEEP_SCENARIOS:
        instances = build_instances(name)
        result = run_instances(instances, jobs=0, store=None)
        for index, (instance, verdict) in enumerate(zip(instances, result.verdicts)):
            table["sweep"][f"{name}#{index}"] = verdict
            labelled.append((f"{name}#{index}", instance, verdict))

    resolver = Resolver()
    seen_keys: Dict[str, str] = {}
    for spec in inputs.hot_spec_universe() + inputs.store_spec_universe():
        token = inputs.spec_token(spec)
        if token in table["specs"]:
            continue
        resolved = resolver.resolve(QueryRequest(spec=spec))
        if resolved.key in seen_keys:
            # Same game under another spelling (e.g. "random" ids that
            # happen to be sequential): keep one, so working sets hold
            # distinct keys.
            continue
        seen_keys[resolved.key] = token
        (verdict,), _ = evaluate_timed([resolved.instance])
        table["specs"][token] = verdict
        labelled.append((token, resolved.instance, verdict))
    return table, _oracle_check(labelled)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare with the pinned table")
    args = parser.parse_args(argv)
    table, checked = compute_table()
    counts = {section: len(entries) for section, entries in table.items()}
    if args.check:
        if table != inputs.load_expected():
            print("expected.json differs from freshly computed verdicts", file=sys.stderr)
            return 1
        print(f"expected.json matches ({counts}; {checked} oracle-checked)")
        return 0
    with open(inputs.EXPECTED_PATH, "w") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {inputs.EXPECTED_PATH} ({counts}; {checked} oracle-checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
