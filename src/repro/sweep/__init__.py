"""Sweep orchestrator: in-process game evaluation over a scenario registry.

Every result in the paper is answered by sweeping one question -- *who wins
the certificate game?* -- across families of graphs, identifier assignments
and arbiters.  This package turns such sweeps into first-class objects on
top of :mod:`repro.engine`:

* :mod:`repro.sweep.scenarios` -- a registry where a sweep is *declared* as
  a cross-product of graph families x identifier schemes x arbiter specs x
  quantifier prefixes, with the paper's workloads (separations, locality,
  fagin) registered out of the box alongside new graph families (random
  regular, grids, trees, gadgets);
* :mod:`repro.sweep.executor` -- an executor that answers what the store
  holds, decides the rest in instance order in-process (instances sharing
  a compiled instance share its per-node verdict memo), and merges fresh
  verdicts back;
* :mod:`repro.sweep.store` -- the persistent SQLite verdict store, keyed
  by the content-addressed fingerprints of
  :mod:`repro.sweep.fingerprint`, making re-runs across sessions
  incremental;
* :mod:`repro.sweep.cli` -- ``python -m repro sweep <scenario>
  [--store PATH] [--json OUT] [--limit N]``.
"""

from repro.sweep.fingerprint import (
    game_instance_key,
    instance_key,
    machine_fingerprint,
    structural_fingerprint,
)
from repro.sweep.store import SQLiteVerdictStore, VerdictStore, open_store
from repro.sweep.scenarios import (
    IDENTIFIER_SCHEMES,
    Scenario,
    all_scenarios,
    build_instances,
    fixed_certificate_space,
    get_scenario,
    instances_for_spec,
    register_scenario,
    scenario_names,
)
from repro.sweep.executor import (
    InstanceResult,
    SweepResult,
    evaluate_timed,
    evaluator_sharing_key,
    run_instances,
    run_scenario,
)

__all__ = [
    "game_instance_key",
    "instance_key",
    "machine_fingerprint",
    "structural_fingerprint",
    "SQLiteVerdictStore",
    "VerdictStore",
    "open_store",
    "IDENTIFIER_SCHEMES",
    "Scenario",
    "all_scenarios",
    "build_instances",
    "fixed_certificate_space",
    "get_scenario",
    "instances_for_spec",
    "register_scenario",
    "scenario_names",
    "InstanceResult",
    "SweepResult",
    "evaluate_timed",
    "evaluator_sharing_key",
    "run_instances",
    "run_scenario",
]
