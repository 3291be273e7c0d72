"""Declarative local rules: the compilable fragment of gather machines.

Most verifiers in the paper are radius-``<=1`` *star predicates*: a node's
verdict depends only on its own label, degree and certificate plus the
``(identifier, label, certificate)`` triples of its direct neighbors --
never on edges among the neighbors or anything further out.  A machine that
says so explicitly (by carrying a rule object in its ``local_rule``
attribute) can be *compiled*: the engine's compiled core
(:mod:`repro.engine.compiled`) evaluates the rule over integer code arrays
with memoized lookup tables instead of rebuilding a
:class:`~repro.machines.local_algorithm.LocalView` per cache miss.

Two rule shapes are provided:

* :class:`PairwiseRule` -- ``verdict(u) = own_ok(u) AND pair_ok(u, v)`` for
  every neighbor ``v``.  The compiled core turns this into per-node own
  tables and a shared pair table indexed by certificate codes (the
  table-driven fast path: coloring-style verifiers become a handful of
  integer lookups per node).
* :class:`StarRule` -- an arbitrary predicate over the :class:`StarView`.
  Evaluated once per distinct certificate restriction and memoized; the
  win over the generic path is skipping the LocalView reconstruction.

A rule must be *verdict-equivalent* to its machine's compute function
whenever every node carries a certificate at the rule's level; the
randomized equivalence suite (``tests/test_compiled.py``) pits every ruled
builtin against the uncompiled machine and the exhaustive oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.machines.local_algorithm import LocalView

#: One neighbor as a rule sees it: ``(identifier, label, certificate)``.
#: The certificate is the string at the rule's level, or ``None`` when the
#: game has no certificates at that level.
NeighborTriple = Tuple[str, str, Optional[str]]


@dataclass(frozen=True)
class StarView:
    """What a radius-1 star predicate may read: the center and its neighbors.

    Attributes
    ----------
    identifier, label, degree:
        The center's identifier, label and number of neighbors.
    certificate:
        The center's certificate at the rule's level (``None`` when the
        game carries no certificate level for the rule to read).
    neighbors:
        ``(identifier, label, certificate)`` per neighbor, sorted by
        identifier so rule evaluation is deterministic.
    """

    identifier: str
    label: str
    degree: int
    certificate: Optional[str]
    neighbors: Tuple[NeighborTriple, ...]

    def certificates_by_id(self) -> dict:
        """Neighbor certificates keyed by identifier (helper for tree rules)."""
        return {identifier: certificate for identifier, _, certificate in self.neighbors}


@dataclass(frozen=True)
class PairwiseRule:
    """``own_ok`` on the center plus ``pair_ok`` against every neighbor.

    ``own_ok(label, degree, certificate)`` gates the node itself;
    ``pair_ok(own_label, own_certificate, neighbor_label,
    neighbor_certificate)`` must hold for every neighbor (``None`` skips the
    neighbor check entirely -- e.g. degree-parity rules).  ``level`` is the
    certificate level the rule reads; ``radius`` must equal the machine's
    gathering radius.
    """

    own_ok: Callable[[str, int, Optional[str]], bool]
    pair_ok: Optional[Callable[[str, Optional[str], str, Optional[str]], bool]] = None
    level: int = 0
    radius: int = 1
    #: Whether the rule actually reads certificates.  ``False`` (constant,
    #: label and degree rules) lets the compiled core apply the rule even in
    #: games with no certificate level to read; the callables then receive
    #: ``None`` certificates and must ignore them.
    needs_certificate: bool = True

    def accepts(self, star: StarView) -> bool:
        """Reference evaluation on a :class:`StarView` (the compiled core uses tables)."""
        if not self.own_ok(star.label, star.degree, star.certificate):
            return False
        if self.pair_ok is None:
            return True
        own_label, own_certificate = star.label, star.certificate
        return all(
            self.pair_ok(own_label, own_certificate, neighbor_label, neighbor_certificate)
            for _, neighbor_label, neighbor_certificate in star.neighbors
        )

    # ------------------------------------------------------------------
    # Mask-table emission (the bitset kernel's primitives)
    # ------------------------------------------------------------------
    def own_code_mask(self, label: str, degree: int, alphabet) -> int:
        """``own_ok`` over a whole code alphabet, as a packed-int bitmask.

        Bit ``c`` is set iff ``own_ok(label, degree, alphabet[c])`` holds, so
        the engine's bitset kernels (:mod:`repro.engine.bitset`) answer "which
        certificates could this node even carry?" with one integer instead of
        one predicate call per candidate.
        """
        own_ok = self.own_ok
        mask = 0
        for code, certificate in enumerate(alphabet):
            if own_ok(label, degree, certificate):
                mask |= 1 << code
        return mask

    def mutual_pair_mask(
        self, label_a: str, label_b: str, certificate_b: Optional[str], alphabet
    ) -> int:
        """The mutually-acceptable certificates of an ``a``--``b`` edge, as a bitmask.

        Bit ``c`` is set iff a node labeled *label_a* carrying ``alphabet[c]``
        and a neighbor labeled *label_b* carrying *certificate_b* accept each
        other in **both** orientations of ``pair_ok``.  ``pair_ok is None``
        yields the all-ones mask (no neighbor constraint).
        """
        pair_ok = self.pair_ok
        if pair_ok is None:
            return (1 << len(alphabet)) - 1
        mask = 0
        for code, certificate in enumerate(alphabet):
            if pair_ok(label_a, certificate, label_b, certificate_b) and pair_ok(
                label_b, certificate_b, label_a, certificate
            ):
                mask |= 1 << code
        return mask


@dataclass(frozen=True)
class StarRule:
    """An arbitrary star predicate (tree-field verifiers and the like)."""

    predicate: Callable[[StarView], bool]
    level: int = 0
    radius: int = 1
    #: Star predicates normally read certificates; see :class:`PairwiseRule`.
    needs_certificate: bool = True

    def accepts(self, star: StarView) -> bool:
        return self.predicate(star)


LocalRule = (PairwiseRule, StarRule)


def star_view_of(view: LocalView, level: int = 0) -> StarView:
    """Project a full :class:`LocalView` down to the star a rule may read.

    Used by machines built from a star predicate so that the simulated and
    compiled evaluations read exactly the same information.
    """
    labels = dict(view.labels)
    certificates = dict(view.certificates)

    def certificate_at(identifier: str) -> Optional[str]:
        certs = certificates[identifier]
        return certs[level] if level < len(certs) else None

    center = view.center
    neighbor_ids = sorted(view.neighbors_of(center))
    return StarView(
        identifier=center,
        label=labels[center],
        degree=len(neighbor_ids),
        certificate=certificate_at(center),
        neighbors=tuple(
            (identifier, labels[identifier], certificate_at(identifier))
            for identifier in neighbor_ids
        ),
    )


def attach_rule(machine, rule) -> object:
    """Attach *rule* to *machine* (returns the machine, for factory chaining).

    The rule rides along as the ``local_rule`` attribute; the compiled core
    checks it with :func:`rule_of`.  Attaching a rule is a *promise* that
    the rule is verdict-equivalent to the machine's own computation.
    """
    machine.local_rule = rule
    return machine


def rule_of(machine) -> Optional[object]:
    """The machine's declared local rule, if any."""
    rule = getattr(machine, "local_rule", None)
    if rule is not None and not isinstance(rule, LocalRule):
        return None
    return rule
