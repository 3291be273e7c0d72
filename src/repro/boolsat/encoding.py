"""Bit-string encoding of Boolean formulas.

The paper fixes "some unspecified encoding of finite objects as binary
strings" (Section 3).  We make one concrete choice here: the textual
representation of a formula is encoded byte-wise as 8-bit ASCII.  Node labels
of Boolean graphs are exactly these encodings, so a Boolean graph is an
ordinary :class:`~repro.graphs.labeled_graph.LabeledGraph`.
"""

from __future__ import annotations

from repro.boolsat.formulas import BooleanFormula, parse_formula


def encode_text(text: str) -> str:
    """Encode arbitrary ASCII text as a bit string (8 bits per character)."""
    try:
        raw = text.encode("ascii")
    except UnicodeEncodeError as exc:
        raise ValueError(f"only ASCII text can be encoded: {text!r}") from exc
    return "".join(format(byte, "08b") for byte in raw)


def decode_text(bits: str) -> str:
    """Decode a bit string produced by :func:`encode_text`."""
    if len(bits) % 8 != 0:
        raise ValueError("encoded text must have a length divisible by 8")
    if bits.strip("01"):  # some character is neither "0" nor "1"
        chunk = next(
            bits[i : i + 8] for i in range(0, len(bits), 8) if bits[i : i + 8].strip("01")
        )
        raise ValueError(f"invalid bit chunk {chunk!r}")
    return int(bits or "0", 2).to_bytes(len(bits) // 8, "big").decode("latin-1")


def encode_formula_text(text: str) -> str:
    """Encode a formula given as text; validates that it parses first."""
    parse_formula(text)
    return encode_text(text)


def encode_formula(formula: BooleanFormula) -> str:
    """Encode a formula AST as a bit string."""
    return encode_text(str(formula))


def decode_formula_text(bits: str) -> str:
    """Decode a node label back into formula text."""
    return decode_text(bits)


def decode_formula(bits: str) -> BooleanFormula:
    """Decode a node label back into a formula AST."""
    return parse_formula(decode_text(bits))
