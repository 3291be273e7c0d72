"""Fast certificate-game engine: one compiled engine beside the exhaustive oracle.

The exhaustive solver :func:`repro.hierarchy.game.eve_wins` defines the
game value of Section 4 and stays the reference oracle: it re-runs the full
LOCAL-model simulator at every leaf of the quantifier tree.  The engine
reaches the same values through three observations:

1. **Verdicts are local.**  A node's accept/reject verdict depends only on
   the certificate restriction to its dependency ball (the gathering radius
   for neighborhood-gather algorithms, the round bound for arbitrary
   machines).
2. **Leaves repeat locally.**  Adjacent leaves of the quantifier tree differ
   in few certificates, so most per-node verdicts recur; they are memoized
   by restriction key and a leaf short-circuits on the first rejection.
3. **The innermost level need not be enumerated.**  It is solved by
   pruned search (backtracking for ∃, per-ball decomposition for ∀)
   instead of flat enumeration; the outer levels are an odometer that
   visits each partial assignment once, so no game value is cached.

:mod:`repro.engine.compiled` implements all three on flat integer arrays:
an instance is lowered once to index adjacency rows, interned certificate codes
and dependency balls as index arrays, and the game runs on packed integer
restriction keys maintained *incrementally* under assignment deltas, with
table-driven leaf kernels for machines that declare a
:mod:`repro.machines.rules` rule.  For pairwise rules,
:mod:`repro.engine.bitset` packs per-node acceptance over the whole
interned code alphabet into single integers emitted by the rules
themselves, so the innermost search prunes whole code-blocks with a few
``&`` operations; star rules take the generic memoized search.  A
quantifier *collapse* skips subtrees that cannot change the verdict.
:class:`~repro.engine.compiled.CompiledGameEngine` is the only fast path;
machines without a rule fall back to local views rebuilt from the
instance's own balls or to ball-subgraph simulation, under the same memo.
:mod:`repro.engine.canonical` complements it on those rule-less paths:
verdicts are shared under a canonical ball signature across nodes,
instances and (through the verdict store's node table) sessions.

For graphs that mutate over time, :mod:`repro.engine.dynamic` adds the
incremental-scenario subsystem: :class:`~repro.engine.dynamic.MutableInstance`
applies edge/label/identifier deltas to a compiled instance in place,
repairing only the dirty dependency balls while untouched verdicts survive
in the memo, canonical and store tiers.

Every path is checked against the oracle by randomized tests
(``tests/test_engine.py``, ``tests/test_compiled.py``,
``tests/test_bitset.py`` and ``tests/test_dynamic.py``).
"""

from repro.engine.bitset import BitsetKernel
from repro.engine.caching import LRUCache
from repro.engine.canonical import CanonicalVerdictCache, node_ball_signature
from repro.engine.compiled import (
    CodedState,
    CompiledGameEngine,
    CompiledInstance,
    compile_instance,
)
from repro.engine.dynamic import (
    Delta,
    DeltaError,
    EdgeDelete,
    EdgeInsert,
    MutableInstance,
    RepairReport,
    SetIdentifier,
    SetLabel,
    delta_from_wire,
    delta_to_wire,
    random_trace,
    recompute_verdict,
)
from repro.engine.batch import GameInstance, IdentityKey

__all__ = [
    "BitsetKernel",
    "CanonicalVerdictCache",
    "node_ball_signature",
    "LRUCache",
    "CodedState",
    "CompiledGameEngine",
    "CompiledInstance",
    "compile_instance",
    "Delta",
    "DeltaError",
    "EdgeDelete",
    "EdgeInsert",
    "MutableInstance",
    "RepairReport",
    "SetIdentifier",
    "SetLabel",
    "delta_from_wire",
    "delta_to_wire",
    "random_trace",
    "recompute_verdict",
    "GameInstance",
    "IdentityKey",
]
