"""Game-instance descriptions.

The separations, the locality comparison, the sweeps and the online
service all ask the same shape of question many times over: *for each of
these graphs (or identifier assignments, or properties), who wins the
game?*  A :class:`GameInstance` describes one such question.
:func:`repro.sweep.executor.evaluate_timed` answers a batch of instances,
one engine each, sharing one compiled instance per
:func:`~repro.sweep.executor.evaluator_sharing_key`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.graphs.labeled_graph import LabeledGraph, Node
from repro.hierarchy.certificate_spaces import CertificateSpace
from repro.hierarchy.game import Quantifier
from repro.machines.interface import NodeMachine


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

