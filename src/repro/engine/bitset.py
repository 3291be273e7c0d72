"""Bitset leaf kernels: per-node acceptance tables as packed-int masks.

The compiled core's generic search evaluates one node under one candidate
certificate code at a time: it assigns a code, then asks the per-node
memo (or the table-driven rule kernel) for a verdict, candidate by
candidate.  This module vectorizes that loop.  For a machine carrying a
declarative :mod:`repro.machines.rules` rule, the acceptance of *every*
code of the interned alphabet is packed into one Python integer -- bit ``c``
answers "does this node accept carrying ``alphabet[c]``?" -- so the engine
prunes whole code-blocks with a few ``&`` operations before it descends:

* **Pairwise rules** decompose completely.  ``own_masks[u]`` packs
  ``own_ok`` over the alphabet; :meth:`BitsetKernel.pair_mask` packs the
  *mutually* acceptable codes of an edge given one endpoint's code (both
  orientations of ``pair_ok`` at once).  The viable codes of a search
  position are then ``own & candidates & AND(pair masks of assigned
  neighbors)`` -- one table lookup and one intersection per neighbor, no
  per-candidate predicate calls, no packed-key maintenance and no memo
  traffic at all.
* **Star rules** do not decompose over edges, so the kernel memoizes
  *slot masks* instead: for a node ``u`` whose dependency ball is fully
  assigned except for one slot, the acceptance of every candidate code at
  that slot is evaluated once (through the rule predicate on a
  :class:`~repro.machines.rules.StarView`) and cached as a bitmask under
  the ball's slot-reduced packed restriction key.  Revisiting the same
  neighborhood configuration -- the common case in backtracking search --
  is a dict lookup plus an ``&``.

Masks are valid for one ``(generation, alphabet length)`` snapshot of the
compiled instance; the engine refreshes the kernel (cheap compare) before
each innermost search, so alphabet growth or a packing rebase can never
serve a stale mask.  ``tests/test_bitset.py`` checks the mask searches
against the exhaustive oracle.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.machines.rules import PairwiseRule

#: Bound on the total number of cached star slot masks per kernel.  Each
#: entry is two ints; the cap only matters for pathological sweeps that
#: enumerate millions of distinct neighborhood configurations.
STAR_TABLE_CAP = 1 << 18


class BitsetKernel:
    """Packed-int acceptance masks for one compiled instance's rule.

    A kernel is a *snapshot*: it is built against the instance's current
    certificate alphabet and packing generation, and must be discarded
    (``fresh()`` is False) once either moves.  The engine obtains kernels
    through :meth:`repro.engine.compiled.CompiledInstance.bitset_kernel`,
    which rebuilds on staleness.
    """

    __slots__ = (
        "instance",
        "rule",
        "pairwise",
        "generation",
        "alphabet_len",
        "own_masks",
        "has_pair",
        "_pair",
        "_pair_uniform",
        "_uniform_label",
        "_star_tables",
        "_slot_amounts",
        "star_entries",
        "evaluations",
    )

    def __init__(self, instance) -> None:
        rule = instance.rule
        if rule is None:
            raise ValueError("bitset kernels require a compiled rule")
        self.instance = instance
        self.rule = rule
        self.pairwise = isinstance(rule, PairwiseRule)
        self.generation = instance.generation
        self.alphabet_len = len(instance.alphabet)
        self.evaluations = 0

        if self.pairwise:
            alphabet = instance.alphabet
            labels = instance.labels
            degrees = instance.degrees
            self.own_masks: List[int] = [
                rule.own_code_mask(labels[u], degrees[u], alphabet)
                for u in range(instance.n)
            ]
            self.evaluations += instance.n * self.alphabet_len
            self.has_pair = rule.pair_ok is not None
        else:
            self.own_masks = []
            self.has_pair = False
        #: Mutual pair masks keyed ``(label_a, label_b, code_b)``.
        self._pair: Dict[tuple, int] = {}
        #: Fast path when every node carries the same label: a plain list
        #: indexed by the neighbor's code (``None`` = not built yet).
        self._pair_uniform: List[Optional[int]] = [None] * self.alphabet_len
        self._uniform_label = instance.labels[0] if instance.labels else ""
        #: Per node: slot-reduced packed key -> [evaluated_mask, accept_mask].
        self._star_tables: List[Dict[int, list]] = [{} for _ in range(instance.n)]
        #: Per node: ball member -> packed shift amount at the rule's level.
        self._slot_amounts: List[Optional[Dict[int, int]]] = [None] * instance.n
        self.star_entries = 0

    def fresh(self) -> bool:
        """Whether the masks still describe the instance's alphabet/packing."""
        instance = self.instance
        return (
            self.generation == instance.generation
            and self.alphabet_len == len(instance.alphabet)
        )

    # ------------------------------------------------------------------
    # Pairwise masks
    # ------------------------------------------------------------------
    def pair_mask(self, label_a: str, label_b: str, code_b: int) -> int:
        """Mutually acceptable codes of an ``a``--``b`` edge (cached).

        Bit ``c``: a *label_a* node carrying ``alphabet[c]`` and a *label_b*
        neighbor carrying ``alphabet[code_b]`` accept each other under both
        orientations of ``pair_ok``.
        """
        key = (label_a, label_b, code_b)
        mask = self._pair.get(key)
        if mask is None:
            alphabet = self.instance.alphabet
            mask = self.rule.mutual_pair_mask(
                label_a, label_b, alphabet[code_b], alphabet
            )
            self.evaluations += self.alphabet_len
            self._pair[key] = mask
        return mask

    def pair_mask_uniform(self, code_b: int) -> int:
        """:meth:`pair_mask` for uniformly labeled graphs (list-indexed)."""
        mask = self._pair_uniform[code_b]
        if mask is None:
            label = self._uniform_label
            mask = self.pair_mask(label, label, code_b)
            self._pair_uniform[code_b] = mask
        return mask

    # ------------------------------------------------------------------
    # Star slot masks
    # ------------------------------------------------------------------
    def star_slot_mask(
        self, u: int, slot: int, state, candidates: Sequence[int], stats=None
    ) -> int:
        """Acceptance of node *u* as a bitmask over the codes of ball slot *slot*.

        Every ball member of *u* except *slot* must be meaningfully assigned
        in *state* (the engine guarantees this via its ``checkable_at``
        schedule).  The mask is cached under the slot-reduced packed
        restriction key of *u*; unevaluated candidate codes are evaluated
        lazily through the rule predicate and folded into the cached entry.
        """
        instance = self.instance
        rule = self.rule
        level = rule.level
        codes = state.codes[level]
        amounts = self._slot_amounts[u]
        if amounts is None:
            shift = instance.shift
            base = level * instance.ball_sizes[u]
            amounts = {
                v: (position + base) * shift
                for position, v in enumerate(instance.balls[u])
            }
            self._slot_amounts[u] = amounts
        reduced = state.keys[u] - (codes[slot] << amounts[slot])
        table = self._star_tables[u]
        entry = table.get(reduced)
        if entry is None:
            if self.star_entries >= STAR_TABLE_CAP:
                for other in self._star_tables:
                    other.clear()
                self.star_entries = 0
                table = self._star_tables[u]
            entry = [0, 0]
            table[reduced] = entry
            self.star_entries += 1
        evaluated, accepted = entry
        missing = [c for c in candidates if not (evaluated >> c) & 1]
        if missing:
            saved = codes[slot]
            predicate = rule.predicate
            for code in missing:
                codes[slot] = code
                if predicate(instance._star_view(rule, u, codes)):
                    accepted |= 1 << code
                evaluated |= 1 << code
            codes[slot] = saved
            self.evaluations += len(missing)
            if stats is not None:
                stats.bitset_evaluations += len(missing)
            entry[0] = evaluated
            entry[1] = accepted
        return accepted

    # ------------------------------------------------------------------
    def info(self) -> Dict[str, int]:
        """Occupancy and build counters, for stats endpoints and tests."""
        return {
            "pairwise": int(self.pairwise),
            "alphabet": self.alphabet_len,
            "pair_masks": len(self._pair),
            "star_entries": self.star_entries,
            "evaluations": self.evaluations,
        }

    def __repr__(self) -> str:
        kind = "pairwise" if self.pairwise else "star"
        return (
            f"BitsetKernel({kind}, alphabet={self.alphabet_len}, "
            f"pair_masks={len(self._pair)}, star_entries={self.star_entries})"
        )


def mask_of_codes(codes: Sequence[int]) -> int:
    """The bitmask with exactly the given code bits set."""
    mask = 0
    for code in codes:
        mask |= 1 << code
    return mask
