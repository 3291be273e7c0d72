"""Bitset leaf kernels: pairwise acceptance tables as packed-int masks.

The compiled core's generic search evaluates one node under one candidate
certificate code at a time: it assigns a code, then asks the per-node
memo (or the table-driven rule kernel) for a verdict, candidate by
candidate.  This module vectorizes that loop for machines carrying a
declarative :class:`~repro.machines.rules.PairwiseRule`, whose acceptance
decomposes completely over nodes and edges.  The acceptance of *every*
code of the interned alphabet is packed into one Python integer -- bit
``c`` answers "does this node accept carrying ``alphabet[c]``?" -- so the
engine prunes whole code-blocks with a few ``&`` operations before it
descends:

* ``own_masks[u]`` packs ``own_ok`` over the alphabet;
* :meth:`BitsetKernel.pair_mask` packs the *mutually* acceptable codes of
  an edge given one endpoint's code (both orientations of ``pair_ok`` at
  once).

The viable codes of a search position are then ``own & candidates &
AND(pair masks of assigned neighbors)`` -- one table lookup and one
intersection per neighbor, no per-candidate predicate calls, no
packed-key maintenance and no memo traffic at all.  Star rules do not
decompose over edges; they take the engine's generic memoized search.

Masks are valid for one ``(generation, alphabet length)`` snapshot of the
compiled instance; the instance rebuilds the kernel when either moves
(a cheap compare before each innermost search), so alphabet growth or a
packing rebase can never serve a stale mask.  ``tests/test_bitset.py``
checks the mask searches against the exhaustive oracle.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.machines.rules import PairwiseRule


class BitsetKernel:
    """Packed-int acceptance masks for one compiled instance's pairwise rule.

    A kernel is a *snapshot*: it is built against the instance's current
    certificate alphabet and packing generation, and must be discarded once
    either moves.  The engine obtains kernels through
    :meth:`repro.engine.compiled.CompiledInstance.bitset_kernel`, which
    rebuilds on staleness.  The kernel keeps the instance's alphabet list
    (append-only) but no reference to the instance itself, so an instance
    and its kernel form no reference cycle and are freed as soon as their
    last holder drops them.
    """

    __slots__ = (
        "alphabet",
        "rule",
        "generation",
        "alphabet_len",
        "own_masks",
        "has_pair",
        "uniform",
        "_label",
        "_pair",
        "_pair_uniform",
    )

    def __init__(self, instance) -> None:
        rule = instance.rule
        if not isinstance(rule, PairwiseRule):
            raise ValueError("bitset kernels require a compiled pairwise rule")
        self.rule = rule
        self.generation = instance.generation
        alphabet = self.alphabet = instance.alphabet
        self.alphabet_len = len(alphabet)
        labels = instance.labels
        degrees = instance.degrees
        self.own_masks: List[int] = [
            rule.own_code_mask(labels[u], degrees[u], alphabet) for u in range(instance.n)
        ]
        self.has_pair = rule.pair_ok is not None
        #: Whether every node carries the same label, so that a pair mask
        #: depends on the neighbor's code alone (:meth:`pair_mask_uniform`).
        self.uniform = len(set(labels)) <= 1
        self._label = labels[0] if labels else ""
        #: Mutual pair masks keyed ``(label_a, label_b, code_b)``.
        self._pair: Dict[tuple, int] = {}
        #: The uniform-label fast path: a plain list indexed by the
        #: neighbor's code (``None`` = not built yet).
        self._pair_uniform: List[Optional[int]] = [None] * self.alphabet_len

    def pair_mask(self, label_a: str, label_b: str, code_b: int) -> int:
        """Mutually acceptable codes of an ``a``--``b`` edge (cached).

        Bit ``c``: a *label_a* node carrying ``alphabet[c]`` and a *label_b*
        neighbor carrying ``alphabet[code_b]`` accept each other under both
        orientations of ``pair_ok``.
        """
        key = (label_a, label_b, code_b)
        mask = self._pair.get(key)
        if mask is None:
            alphabet = self.alphabet
            mask = self.rule.mutual_pair_mask(
                label_a, label_b, alphabet[code_b], alphabet
            )
            self._pair[key] = mask
        return mask

    def pair_mask_uniform(self, code_b: int) -> int:
        """:meth:`pair_mask` for uniformly labeled graphs (list-indexed)."""
        mask = self._pair_uniform[code_b]
        if mask is None:
            label = self._label
            mask = self.pair_mask(label, label, code_b)
            self._pair_uniform[code_b] = mask
        return mask

    def __repr__(self) -> str:
        return (
            f"BitsetKernel(alphabet={self.alphabet_len}, "
            f"pair_masks={len(self._pair)}, uniform={self.uniform})"
        )


def mask_of_codes(codes: Sequence[int]) -> int:
    """The bitmask with exactly the given code bits set."""
    mask = 0
    for code in codes:
        mask |= 1 << code
    return mask
