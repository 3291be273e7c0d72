"""Game-instance descriptions and the identity keys under which they share state.

The separations, the locality comparison, the sweeps and the online
service all ask the same shape of question many times over: *for each of
these graphs (or identifier assignments, or properties), who wins the
game?*  A :class:`GameInstance` describes one such question, and
:class:`IdentityKey` compares machines by identity without letting their
ids alias.  :func:`repro.sweep.executor.evaluate_timed` answers a batch of
instances, one engine each, sharing one compiled instance per
:func:`~repro.sweep.executor.evaluator_sharing_key`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.graphs.labeled_graph import LabeledGraph, Node
from repro.hierarchy.certificate_spaces import CertificateSpace
from repro.hierarchy.game import Quantifier
from repro.machines.interface import NodeMachine


class IdentityKey:
    """A hashable identity key that keeps its referents alive.

    Sharing keys compare machines by identity, but raw ``id`` values may
    alias: once an object is garbage collected its address can be handed
    to a brand-new object, so a caller that builds instances lazily
    (letting machines die between iterations) could silently inherit
    another instance's compiled instance -- and its memoized verdicts.
    This wrapper hashes and compares by identity but
    holds strong references, so any object participating in a live cache key
    cannot be collected and its identity cannot be reused.
    """

    __slots__ = ("objects", "_hash")

    def __init__(self, *objects: object) -> None:
        self.objects = objects
        self._hash = hash(tuple(id(obj) for obj in objects))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IdentityKey):
            return NotImplemented
        return len(self.objects) == len(other.objects) and all(
            mine is theirs for mine, theirs in zip(self.objects, other.objects)
        )

    def __repr__(self) -> str:
        return f"IdentityKey({', '.join(type(obj).__name__ for obj in self.objects)})"


@dataclass
class GameInstance:
    """One certificate-game question: a full ``(M, G, id, spaces, prefix)`` tuple.

    Attributes
    ----------
    machine:
        The arbiter deciding the leaves.
    graph, ids:
        The input graph and its identifier assignment.
    spaces:
        One certificate space per quantifier level.
    prefix:
        The quantifier prefix (``len(prefix) == len(spaces)``).
    name:
        Optional tag carried through to results and error messages.
    """

    machine: NodeMachine
    graph: LabeledGraph
    ids: Mapping[Node, str]
    spaces: Sequence[CertificateSpace]
    prefix: Sequence[Quantifier]
    name: str = ""

