"""Concrete proof-labeling schemes (the LCP side of Figure 7).

A proof-labeling scheme for a property consists of a *prover* that, on every
yes-instance, produces a certificate assignment, and a constant-round
*verifier* that accepts the prover's certificates on yes-instances
(completeness) and rejects every certificate assignment on no-instances
(soundness).  The asymptotic certificate length is the LCP measure of
locality used by Göös-Suomela and, as Figure 7 of the paper shows, it aligns
with the alternation measure of the locally bounded hierarchy.

Schemes implemented here (with their certificate-size class):

=======================  =================  =====================================
Property                 Certificate size   Construction
=======================  =================  =====================================
eulerian                 0                  no certificate, degree parity check
3-colorable              O(1)               the color of the node
acyclic                  O(log n)           distance to a root
odd                      O(log n)           spanning tree + subtree parities
non-2-colorable          O(log n)           spanning tree + odd cycle with parities
automorphic              O(n^2)             full adjacency list + the automorphism
=======================  =================  =====================================

Certificates are bit strings; structured contents are packed as ASCII text
via :func:`repro.boolsat.encoding.encode_text` (an 8x constant factor that
does not affect the asymptotic class).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.boolsat.encoding import decode_text, encode_text
from repro.graphs.identifiers import sequential_identifier_assignment
from repro.graphs.labeled_graph import LabeledGraph, Node
from repro.machines.builtin import eulerian_decider, star_predicate_verifier, three_colorability_verifier
from repro.machines.interface import NodeMachine
from repro.machines.rules import StarView
from repro.machines.simulator import execute
from repro.properties import coloring, cycles, misc

Prover = Callable[[LabeledGraph, Mapping[Node, str]], Optional[Dict[Node, str]]]


@dataclass
class ProofLabelingScheme:
    """A locally checkable proof: prover, verifier and metadata."""

    name: str
    property_name: str
    decide: Callable[[LabeledGraph], bool]
    prover: Prover
    verifier: NodeMachine
    size_class: str

    def prove_and_verify(self, graph: LabeledGraph, ids: Optional[Mapping[Node, str]] = None) -> bool:
        """Run the prover and then the verifier (completeness check on yes-instances)."""
        if ids is None:
            ids = sequential_identifier_assignment(graph)
        certificates = self.prover(graph, ids)
        if certificates is None:
            return False
        return self.verify(graph, certificates, ids)

    def verify(self, graph: LabeledGraph, certificates: Mapping[Node, str],
               ids: Optional[Mapping[Node, str]] = None) -> bool:
        """Run only the verifier on the given certificates.

        Each call compiles a fresh
        :class:`~repro.engine.compiled.CompiledInstance` and reads every
        node's verdict off it; no verdict is shared between calls.
        """
        from repro.engine import compile_instance

        if ids is None:
            ids = sequential_identifier_assignment(graph)
        instance = compile_instance(self.verifier, graph, ids)
        return instance.accepts_dicts([dict(certificates)])

    def max_certificate_length(self, graph: LabeledGraph, ids: Optional[Mapping[Node, str]] = None) -> int:
        """The longest certificate the prover assigns on *graph* (0 if it cannot prove)."""
        if ids is None:
            ids = sequential_identifier_assignment(graph)
        certificates = self.prover(graph, ids)
        if certificates is None:
            return 0
        return max(len(value) for value in certificates.values())


# ----------------------------------------------------------------------
# Helpers: packing structured certificates and reading them back
# ----------------------------------------------------------------------
def _pack(fields: Mapping[str, str]) -> str:
    return encode_text("|".join(f"{key}={value}" for key, value in sorted(fields.items())))


def _unpack(bits: str) -> Optional[Dict[str, str]]:
    try:
        text = decode_text(bits)
    except ValueError:
        return None
    result: Dict[str, str] = {}
    if not text:
        return result
    for part in text.split("|"):
        key, _, value = part.partition("=")
        result[key] = value
    return result


def spanning_tree_certificates(
    graph: LabeledGraph, ids: Mapping[Node, str], root: Optional[Node] = None
) -> Dict[Node, Dict[str, str]]:
    """Per-node spanning-tree fields: root id, parent id, distance (as decimal text)."""
    if root is None:
        root = graph.nodes[0]
    distances = graph.distances_from(root)
    parents: Dict[Node, Node] = {root: root}
    for u in graph.nodes:
        if u == root:
            continue
        parents[u] = min(
            (v for v in graph.neighbors(u) if distances[v] == distances[u] - 1), key=lambda v: ids[v]
        )
    return {
        u: {
            "root": ids[root],
            "parent": ids[parents[u]],
            "dist": str(distances[u]),
        }
        for u in graph.nodes
    }


def _center_fields(star: StarView) -> Optional[Dict[str, str]]:
    """The unpacked certificate fields of the star's center (``None`` if unreadable)."""
    return _unpack(star.certificate) if star.certificate else None


def _fields_by_id(star: StarView) -> Dict[str, Optional[Dict[str, str]]]:
    """Unpacked certificate fields of every neighbor, keyed by identifier."""
    return {
        identifier: (_unpack(certificate) if certificate else None)
        for identifier, _, certificate in star.neighbors
    }


def _tree_fields_valid(star: StarView, fields: Dict[str, str]) -> bool:
    """Local validity of the spanning-tree fields at the star's center."""
    center = star.identifier
    if not {"root", "parent", "dist"} <= set(fields):
        return False
    try:
        distance = int(fields["dist"])
    except ValueError:
        return False
    neighbor_fields_by_id = _fields_by_id(star)
    # All neighbors must agree on the root identifier.
    for neighbor_fields in neighbor_fields_by_id.values():
        if not neighbor_fields or neighbor_fields.get("root") != fields["root"]:
            return False
    if distance == 0:
        # The root must be the node whose identifier equals the claimed root id.
        return fields["root"] == center and fields["parent"] == center
    parent = fields["parent"]
    if parent not in neighbor_fields_by_id:
        return False
    parent_fields = neighbor_fields_by_id[parent]
    if not parent_fields:
        return False
    try:
        parent_distance = int(parent_fields.get("dist", ""))
    except ValueError:
        return False
    return parent_distance == distance - 1


def _children(star: StarView, fields_by_id: Dict[str, Optional[Dict[str, str]]]) -> List[str]:
    """The neighbors that claim the center as their parent."""
    result = []
    for identifier, _, _ in star.neighbors:
        neighbor_fields = fields_by_id[identifier]
        if neighbor_fields and neighbor_fields.get("parent") == star.identifier:
            result.append(identifier)
    return result


# ----------------------------------------------------------------------
# The schemes
# ----------------------------------------------------------------------
def eulerian_scheme() -> ProofLabelingScheme:
    """Eulerianness needs no certificates at all: LCP(0)."""

    def prover(graph: LabeledGraph, ids: Mapping[Node, str]) -> Optional[Dict[Node, str]]:
        if not cycles.eulerian(graph):
            return None
        return {u: "" for u in graph.nodes}

    return ProofLabelingScheme(
        name="eulerian/LCP(0)",
        property_name="eulerian",
        decide=cycles.eulerian,
        prover=prover,
        verifier=eulerian_decider(),
        size_class="0",
    )


def three_colorability_scheme() -> ProofLabelingScheme:
    """3-colorability with constant-size certificates: the node's color."""

    def prover(graph: LabeledGraph, ids: Mapping[Node, str]) -> Optional[Dict[Node, str]]:
        assignment = coloring.find_proper_coloring(graph, 3)
        if assignment is None:
            return None
        return {u: format(color, "b").zfill(2) for u, color in assignment.items()}

    return ProofLabelingScheme(
        name="3-colorable/LCP(O(1))",
        property_name="3-colorable",
        decide=coloring.three_colorable,
        prover=prover,
        verifier=three_colorability_verifier(),
        size_class="O(1)",
    )


def acyclicity_scheme() -> ProofLabelingScheme:
    """Acyclicity with O(log n) certificates: the distance to a root.

    Verification: the (unique) node at distance 0 sees only distance-1
    neighbors; every other node has exactly one neighbor at distance one less
    and all other neighbors at distance one more.  Any cycle makes the
    maximal-distance node on it see two closer neighbors, so the scheme is
    sound.
    """

    def prover(graph: LabeledGraph, ids: Mapping[Node, str]) -> Optional[Dict[Node, str]]:
        if not cycles.acyclic(graph):
            return None
        distances = graph.distances_from(graph.nodes[0])
        return {u: _pack({"dist": str(distances[u])}) for u in graph.nodes}

    def predicate(star: StarView) -> bool:
        fields = _center_fields(star)
        if not fields or "dist" not in fields:
            return False
        try:
            distance = int(fields["dist"])
        except ValueError:
            return False
        neighbor_distances = []
        for neighbor_fields in _fields_by_id(star).values():
            if not neighbor_fields or "dist" not in neighbor_fields:
                return False
            try:
                neighbor_distances.append(int(neighbor_fields["dist"]))
            except ValueError:
                return False
        if distance == 0:
            return all(d == 1 for d in neighbor_distances)
        closer = sum(1 for d in neighbor_distances if d == distance - 1)
        farther = sum(1 for d in neighbor_distances if d == distance + 1)
        return closer == 1 and closer + farther == len(neighbor_distances)

    return ProofLabelingScheme(
        name="acyclic/LCP(O(log n))",
        property_name="acyclic",
        decide=cycles.acyclic,
        prover=prover,
        verifier=star_predicate_verifier(1, predicate, name="acyclic-pls"),
        size_class="O(log n)",
    )


def odd_scheme() -> ProofLabelingScheme:
    """Odd node count with O(log n) certificates: spanning tree plus subtree parities."""

    def prover(graph: LabeledGraph, ids: Mapping[Node, str]) -> Optional[Dict[Node, str]]:
        if not cycles.odd(graph):
            return None
        root = graph.nodes[0]
        tree = spanning_tree_certificates(graph, ids, root)
        # Subtree parities bottom-up.
        distances = graph.distances_from(root)
        order = sorted(graph.nodes, key=lambda u: -distances[u])
        parity: Dict[Node, int] = {}
        children: Dict[Node, List[Node]] = {u: [] for u in graph.nodes}
        for u in graph.nodes:
            if u != root:
                parent_id = tree[u]["parent"]
                parent = next(v for v in graph.neighbors(u) if ids[v] == parent_id)
                children[parent].append(u)
        for u in order:
            parity[u] = (1 + sum(parity[c] for c in children[u])) % 2
        certificates = {}
        for u in graph.nodes:
            fields = dict(tree[u])
            fields["parity"] = str(parity[u])
            certificates[u] = _pack(fields)
        return certificates

    def predicate(star: StarView) -> bool:
        fields = _center_fields(star)
        if not fields or not _tree_fields_valid(star, fields):
            return False
        fields_by_id = _fields_by_id(star)
        try:
            own_parity = int(fields.get("parity", ""))
            child_sum = sum(
                int((fields_by_id[child] or {}).get("parity", "x"))
                for child in _children(star, fields_by_id)
            )
        except ValueError:
            return False
        if own_parity != (1 + child_sum) % 2:
            return False
        if fields["dist"] == "0" and own_parity != 1:
            return False
        return True

    return ProofLabelingScheme(
        name="odd/LCP(O(log n))",
        property_name="odd",
        decide=cycles.odd,
        prover=prover,
        verifier=star_predicate_verifier(1, predicate, name="odd-pls"),
        size_class="O(log n)",
    )


def non_two_colorability_scheme() -> ProofLabelingScheme:
    """Non-2-colorability with O(log n) certificates: spanning tree plus an odd cycle.

    The prover marks an odd cycle, orients it with successor pointers, and
    colors it alternately; the root of the spanning tree lies on the cycle and
    checks that its predecessor carries the *same* parity bit, which forces
    the cycle length to be odd.
    """

    def find_odd_cycle(graph: LabeledGraph) -> Optional[List[Node]]:
        # Deterministic search only: nodes in graph order, neighbors in a
        # sorted order.  (``nx.cycle_basis`` and raw frozenset iteration
        # depend on the process hash seed; certificate contents -- and with
        # them the sweep store's content-addressed keys -- must not.)
        for start in graph.nodes:
            colors = {start: 0}
            stack = [start]
            parent = {start: None}
            while stack:
                u = stack.pop()
                for v in sorted(graph.neighbors(u), key=repr):
                    if v not in colors:
                        colors[v] = 1 - colors[u]
                        parent[v] = u
                        stack.append(v)
                    elif colors[v] == colors[u]:
                        # Reconstruct the odd cycle through u and v.
                        path_u, path_v = [u], [v]
                        seen_u = {u}
                        node = u
                        while parent[node] is not None:
                            node = parent[node]
                            path_u.append(node)
                            seen_u.add(node)
                        node = v
                        while node not in seen_u:
                            node = parent[node]
                            path_v.append(node)
                        meet = path_v[-1]
                        cycle = path_u[: path_u.index(meet) + 1] + list(reversed(path_v[:-1]))
                        if len(cycle) % 2 == 1:
                            return cycle
        return None

    def prover(graph: LabeledGraph, ids: Mapping[Node, str]) -> Optional[Dict[Node, str]]:
        if coloring.two_colorable(graph):
            return None
        odd_cycle = find_odd_cycle(graph)
        if odd_cycle is None:
            return None
        root = odd_cycle[0]
        tree = spanning_tree_certificates(graph, ids, root)
        on_cycle = set(odd_cycle)
        successor: Dict[Node, Node] = {}
        for index, node in enumerate(odd_cycle):
            successor[node] = odd_cycle[(index + 1) % len(odd_cycle)]
        parity = {node: index % 2 for index, node in enumerate(odd_cycle)}
        certificates = {}
        for u in graph.nodes:
            fields = dict(tree[u])
            if u in on_cycle:
                fields["cyc"] = "1"
                fields["succ"] = ids[successor[u]]
                fields["par"] = str(parity[u])
            else:
                fields["cyc"] = "0"
            certificates[u] = _pack(fields)
        return certificates

    def predicate(star: StarView) -> bool:
        fields = _center_fields(star)
        if not fields or not _tree_fields_valid(star, fields):
            return False
        fields_by_id = _fields_by_id(star)
        is_root = fields.get("dist") == "0"
        on_cycle = fields.get("cyc") == "1"
        if is_root and not on_cycle:
            return False
        if not on_cycle:
            return True
        # The successor must be an on-cycle neighbor; exactly one on-cycle
        # neighbor must claim the center as its successor (the predecessor).
        successor = fields.get("succ")
        if successor not in fields_by_id:
            return False
        successor_fields = fields_by_id[successor]
        if not successor_fields or successor_fields.get("cyc") != "1":
            return False
        predecessors = [
            identifier
            for identifier, _, _ in star.neighbors
            if (fields_by_id[identifier] or {}).get("cyc") == "1"
            and (fields_by_id[identifier] or {}).get("succ") == star.identifier
        ]
        if len(predecessors) != 1:
            return False
        predecessor_fields = fields_by_id[predecessors[0]] or {}
        if is_root:
            return predecessor_fields.get("par") == fields.get("par")
        return predecessor_fields.get("par") != fields.get("par")

    return ProofLabelingScheme(
        name="non-2-colorable/LCP(O(log n))",
        property_name="non-2-colorable",
        decide=coloring.non_two_colorable,
        prover=prover,
        verifier=star_predicate_verifier(1, predicate, name="non2col-pls"),
        size_class="O(log n)",
    )


def automorphism_scheme() -> ProofLabelingScheme:
    """Nontrivial automorphism with quadratic certificates: map plus adjacency list.

    Every node receives the full edge list (by identifiers) and the claimed
    automorphism; it checks that its own incident edges match the list, that
    its neighbors carry the same certificate, that the permutation preserves
    the listed edges and labels, and that it is not the identity.
    """

    def prover(graph: LabeledGraph, ids: Mapping[Node, str]) -> Optional[Dict[Node, str]]:
        automorphism = graph.nontrivial_automorphism()
        if automorphism is None:
            return None
        edges_text = ",".join(
            sorted(f"{min(ids[u], ids[v])}-{max(ids[u], ids[v])}" for u, v in graph.edge_pairs())
        )
        mapping_text = ",".join(sorted(f"{ids[u]}>{ids[v]}" for u, v in automorphism.items()))
        labels_text = ",".join(sorted(f"{ids[u]}:{graph.label(u)}" for u in graph.nodes))
        certificate = _pack({"edges": edges_text, "map": mapping_text, "labels": labels_text})
        return {u: certificate for u in graph.nodes}

    def predicate(star: StarView) -> bool:
        own_certificate = star.certificate
        fields = _center_fields(star)
        if not fields or not {"edges", "map", "labels"} <= set(fields):
            return False
        # Certificates must agree with all neighbors.
        for _, _, neighbor_certificate in star.neighbors:
            if neighbor_certificate is None or neighbor_certificate != own_certificate:
                return False
        edges = set(filter(None, fields["edges"].split(",")))
        mapping = dict(item.split(">") for item in fields["map"].split(",") if item)
        labels = dict(item.split(":") if ":" in item else (item, "") for item in fields["labels"].split(",") if item)
        center = star.identifier
        # The center's incident edges must be exactly those listed for it.
        listed_incident = {e for e in edges if center in e.split("-")}
        actual_incident = {
            f"{min(center, nb)}-{max(center, nb)}" for nb, _, _ in star.neighbors
        }
        if listed_incident != actual_incident:
            return False
        # The center's label must match the list.
        if labels.get(center, "") != star.label:
            return False
        # The mapping must be a label-preserving automorphism of the listed graph.
        if set(mapping) != set(labels) or set(mapping.values()) != set(labels):
            return False
        if all(mapping[x] == x for x in mapping):
            return False
        for edge in edges:
            a, b = edge.split("-")
            image = f"{min(mapping[a], mapping[b])}-{max(mapping[a], mapping[b])}"
            if image not in edges:
                return False
        for x, y in mapping.items():
            if labels.get(x, "") != labels.get(y, ""):
                return False
        return True

    return ProofLabelingScheme(
        name="automorphic/LCP(poly(n))",
        property_name="automorphic",
        decide=misc.automorphic,
        prover=prover,
        verifier=star_predicate_verifier(1, predicate, name="automorphic-pls"),
        size_class="O(n^2)",
    )


def all_schemes() -> List[ProofLabelingScheme]:
    """Every proof-labeling scheme implemented in this module."""
    return [
        eulerian_scheme(),
        three_colorability_scheme(),
        acyclicity_scheme(),
        odd_scheme(),
        non_two_colorability_scheme(),
        automorphism_scheme(),
    ]
