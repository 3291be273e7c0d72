"""The Eve/Adam certificate game (Section 4): reference solver and fast front.

For a fixed arbiter ``M``, graph ``G``, identifier assignment ``id`` and a
quantifier prefix ``Q_1 ... Q_l`` over certificate spaces, the game value is

    Q_1 kappa_1  Q_2 kappa_2  ...  Q_l kappa_l :  M(G, id, kappa_1 ... kappa_l) ≡ accept

with existential quantifiers belonging to Eve and universal ones to Adam.
``G`` has the arbitrated property iff Eve wins, i.e. iff the quantified
statement is true.

Two solvers live behind this interface:

* :func:`eve_wins` is the **exhaustive reference oracle**: it expands the
  quantifiers with short-circuiting and re-runs the full LOCAL-model
  simulator at every leaf.  Its cost is the product of the assignment-space
  sizes times a full simulation -- keep it for tiny instances and for
  cross-checking.
* :func:`sigma_membership`, :func:`pi_membership` and
  :func:`winning_first_move` route through the compiled
  :class:`~repro.engine.compiled.CompiledGameEngine` (memoized per-node
  verdicts, leaf short-circuiting, pruned innermost search), which is
  observationally equivalent and orders of magnitude faster.  Randomized
  tests (``tests/test_engine.py``) assert the equivalence.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.graphs.certificates import CertificateList
from repro.graphs.labeled_graph import LabeledGraph, Node
from repro.hierarchy.certificate_spaces import CertificateSpace
from repro.machines.interface import NodeMachine
from repro.machines.simulator import execute


class Quantifier(str, Enum):
    """A quantifier of the game prefix: Eve's ∃ or Adam's ∀."""

    EXISTS = "E"
    FORALL = "A"


def sigma_prefix(level: int) -> List[Quantifier]:
    """The Sigma^lp_level prefix: Eve moves first, strictly alternating."""
    return [Quantifier.EXISTS if i % 2 == 0 else Quantifier.FORALL for i in range(level)]


def pi_prefix(level: int) -> List[Quantifier]:
    """The Pi^lp_level prefix: Adam moves first, strictly alternating."""
    return [Quantifier.FORALL if i % 2 == 0 else Quantifier.EXISTS for i in range(level)]


def enumerate_assignments(
    space: CertificateSpace, graph: LabeledGraph, ids: Mapping[Node, str]
) -> Iterator[Dict[Node, str]]:
    """All certificate assignments of *space* on ``(graph, ids)``."""
    return space.assignments(graph, ids)


def eve_wins(
    arbiter: NodeMachine,
    graph: LabeledGraph,
    ids: Mapping[Node, str],
    spaces: Sequence[CertificateSpace],
    prefix: Sequence[Quantifier],
    fixed: Optional[Sequence[Mapping[Node, str]]] = None,
) -> bool:
    """Whether Eve has a winning strategy in the certificate game.

    Parameters
    ----------
    arbiter:
        The locally polynomial machine determining the winner.
    graph, ids:
        The input graph and its identifier assignment.
    spaces:
        One certificate space per quantifier level (``len(spaces) == len(prefix)``).
    prefix:
        The quantifier prefix, e.g. ``[EXISTS, FORALL]`` for Sigma^lp_2.
    fixed:
        Certificate assignments already chosen for the leading levels (used by
        the recursion; callers normally omit it).
    """
    if len(spaces) != len(prefix):
        raise ValueError("there must be exactly one certificate space per quantifier")
    chosen: List[Mapping[Node, str]] = list(fixed or [])
    depth = len(chosen)

    if depth == len(prefix):
        certificates = CertificateList(chosen)
        return execute(arbiter, graph, ids, certificates).accepts()

    quantifier = prefix[depth]
    space = spaces[depth]
    outcomes = (
        eve_wins(arbiter, graph, ids, spaces, prefix, chosen + [assignment])
        for assignment in enumerate_assignments(space, graph, ids)
    )
    if quantifier is Quantifier.EXISTS:
        return any(outcomes)
    return all(outcomes)


def sigma_membership(
    arbiter: NodeMachine,
    graph: LabeledGraph,
    ids: Mapping[Node, str],
    spaces: Sequence[CertificateSpace],
) -> bool:
    """Game value with Eve moving first (membership under a Sigma^lp_l arbiter).

    Solved through the fast :class:`~repro.engine.compiled.CompiledGameEngine`;
    use :func:`eve_wins` directly for the exhaustive reference path.
    """
    from repro.engine import CompiledGameEngine

    return CompiledGameEngine(arbiter, graph, ids, spaces).sigma_value()


def pi_membership(
    arbiter: NodeMachine,
    graph: LabeledGraph,
    ids: Mapping[Node, str],
    spaces: Sequence[CertificateSpace],
) -> bool:
    """Game value with Adam moving first (membership under a Pi^lp_l arbiter).

    Solved through the fast :class:`~repro.engine.compiled.CompiledGameEngine`;
    use :func:`eve_wins` directly for the exhaustive reference path.
    """
    from repro.engine import CompiledGameEngine

    return CompiledGameEngine(arbiter, graph, ids, spaces).pi_value()


def winning_first_move(
    arbiter: NodeMachine,
    graph: LabeledGraph,
    ids: Mapping[Node, str],
    spaces: Sequence[CertificateSpace],
    prefix: Sequence[Quantifier],
) -> Optional[Dict[Node, str]]:
    """A winning first move for the player owning the first quantifier, if any.

    For an existential first quantifier this is a certificate assignment that
    keeps Eve winning; for a universal one it is a *refuting* assignment that
    makes Eve lose (i.e. a winning move for Adam).  Returns ``None`` when the
    first player has no winning move.

    Solved through the fast :class:`~repro.engine.compiled.CompiledGameEngine`,
    whose enumeration order matches the exhaustive solver's, so both return
    the same move.
    """
    from repro.engine import CompiledGameEngine

    return CompiledGameEngine(arbiter, graph, ids, spaces).winning_first_move(prefix)
