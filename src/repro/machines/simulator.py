"""The synchronous execution engine of the LOCAL model (Section 4).

The simulator drives any :class:`~repro.machines.interface.NodeMachine` over a
labeled graph: in every round each node receives the messages its neighbors
sent in the previous round (sorted by the senders' identifiers, as in the
paper), computes, and emits new messages.  The execution terminates when all
nodes have stopped or the machine's round bound is reached.

The result of an execution is the relabeled graph ``M(G, id, certs)`` together
with per-node verdicts, message statistics and step counts, so that the
resource constraints of locally polynomial machines (constant round time,
polynomial step time, polynomially bounded messages) can be checked by tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from repro.graphs.certificates import CertificateList
from repro.graphs.identifiers import identifier_key, is_locally_unique
from repro.graphs.labeled_graph import LabeledGraph, Node
from repro.machines.interface import NodeInput, NodeMachine, verdict_of


@dataclass
class ExecutionResult:
    """The outcome of executing a node machine on a graph."""

    graph: LabeledGraph
    outputs: Dict[Node, str]
    rounds_used: int
    message_volume: int
    max_message_length: int
    messages_per_round: List[int] = field(default_factory=list)

    def verdicts(self) -> Dict[Node, bool]:
        """Per-node accept/reject verdicts (accept iff the output label is ``"1"``)."""
        return {u: verdict_of(label) for u, label in self.outputs.items()}

    def accepts(self) -> bool:
        """Acceptance by unanimity: every node must accept."""
        return all(self.verdicts().values())

    def rejects(self) -> bool:
        """At least one node rejects."""
        return not self.accepts()

    def result_graph(self) -> LabeledGraph:
        """The graph ``M(G, id, certs)``: same topology, output labels."""
        cleaned = {u: "".join(ch for ch in label if ch in "01") for u, label in self.outputs.items()}
        return self.graph.relabel(cleaned)


def _neighbor_order(
    graph: LabeledGraph, ids: Mapping[Node, str], position: Mapping[Node, int], node: Node
) -> List[Node]:
    """The node's neighbors sorted by ascending identifier order.

    Neighbors sharing an identifier (possible only outside the paper's
    1-locally unique schemes) are ordered by their *position* in
    ``graph.nodes``, so the order never depends on set iteration.
    """
    return sorted(
        graph.neighbors(node), key=lambda v: (identifier_key(ids[v]), position[v])
    )


def execute(
    machine: NodeMachine,
    graph: LabeledGraph,
    ids: Mapping[Node, str],
    certificates: Optional[CertificateList | Sequence[Mapping[Node, str]]] = None,
    check_local_uniqueness_radius: Optional[int] = None,
    max_rounds: Optional[int] = None,
) -> ExecutionResult:
    """Execute *machine* on *graph* under the given identifier assignment.

    Parameters
    ----------
    machine:
        Any object implementing the node-machine protocol.
    graph, ids:
        The input graph and its identifier assignment.
    certificates:
        A :class:`CertificateList` or sequence of certificate assignments
        (``kappa_1, ..., kappa_l``); defaults to none.
    check_local_uniqueness_radius:
        If given, raise ``ValueError`` unless *ids* is locally unique for this
        radius (the paper requires at least 1-local uniqueness).
    max_rounds:
        Override for the machine's own round bound (mainly for tests).
    """
    if check_local_uniqueness_radius is not None:
        if not is_locally_unique(graph, ids, check_local_uniqueness_radius):
            raise ValueError(
                f"identifier assignment is not {check_local_uniqueness_radius}-locally unique"
            )

    if certificates is None:
        cert_list = CertificateList()
    elif isinstance(certificates, CertificateList):
        cert_list = certificates
    else:
        cert_list = CertificateList(list(certificates))

    rounds_bound = max_rounds if max_rounds is not None else machine.max_rounds()

    # Initialize per-node state and the neighbor orderings.
    states: Dict[Node, object] = {}
    stopped: Dict[Node, bool] = {}
    neighbor_order: Dict[Node, List[Node]] = {}
    position = {u: i for i, u in enumerate(graph.nodes)}
    for u in graph.nodes:
        node_input = NodeInput(
            node=u,
            label=graph.label(u),
            identifier=ids[u],
            certificates=tuple(
                cert_list.certificate(i, u) for i in range(len(cert_list))
            ),
            degree=graph.degree(u),
        )
        states[u] = machine.initial_state(node_input)
        stopped[u] = False
        neighbor_order[u] = _neighbor_order(graph, ids, position, u)

    # outbox[u][v] = message from u to v computed in the previous round.
    outbox: Dict[Node, Dict[Node, str]] = {u: {v: "" for v in graph.neighbors(u)} for u in graph.nodes}

    message_volume = 0
    max_message_length = 0
    messages_per_round: List[int] = []
    rounds_used = 0

    for round_index in range(1, rounds_bound + 1):
        if all(stopped.values()):
            break
        rounds_used = round_index
        round_volume = 0
        new_outbox: Dict[Node, Dict[Node, str]] = {}
        for u in graph.nodes:
            received = [outbox[v][u] for v in neighbor_order[u]]
            state, outgoing, has_stopped = machine.round(states[u], received, round_index)
            states[u] = state
            stopped[u] = has_stopped
            targets = neighbor_order[u]
            messages = {v: "" for v in graph.neighbors(u)}
            for index, v in enumerate(targets):
                text = outgoing[index] if index < len(outgoing) else ""
                messages[v] = text
                round_volume += len(text)
                max_message_length = max(max_message_length, len(text))
            new_outbox[u] = messages
        outbox = new_outbox
        message_volume += round_volume
        messages_per_round.append(round_volume)

    outputs = {u: machine.output(states[u]) for u in graph.nodes}
    return ExecutionResult(
        graph=graph,
        outputs=outputs,
        rounds_used=rounds_used,
        message_volume=message_volume,
        max_message_length=max_message_length,
        messages_per_round=messages_per_round,
    )


def accepts(
    machine: NodeMachine,
    graph: LabeledGraph,
    ids: Mapping[Node, str],
    certificates: Optional[CertificateList | Sequence[Mapping[Node, str]]] = None,
) -> bool:
    """Convenience wrapper: whether ``M(G, id, certs) ≡ accept``."""
    return execute(machine, graph, ids, certificates).accepts()


def result_graph(
    machine: NodeMachine,
    graph: LabeledGraph,
    ids: Mapping[Node, str],
    certificates: Optional[CertificateList | Sequence[Mapping[Node, str]]] = None,
) -> LabeledGraph:
    """Convenience wrapper: the relabeled graph computed by the machine."""
    return execute(machine, graph, ids, certificates).result_graph()
