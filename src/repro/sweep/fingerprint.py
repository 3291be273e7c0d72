"""Content-addressed fingerprints for game instances (the store's key scheme).

The persistent verdict store must answer "have I solved *this exact game*
before?" across process boundaries, so its keys cannot involve object
identities or memory addresses.  Everything that determines a game value is
folded into a SHA-256 digest instead:

* the **machine** is fingerprinted structurally: class name plus every
  attribute, with functions reduced to their bytecode, constants, names and
  (recursively, to any depth) closure cells and defaults.  Two separately
  constructed machines with the same code and parameters therefore share a
  fingerprint, while any change to the compute function's body, a captured
  constant (e.g. the number of colors) or a numeric parameter such as the
  radius produces a fresh key -- a changed machine is a cache miss, never a
  stale hit.  Source locations (file names, line numbers) are deliberately
  excluded so that moving code around does not invalidate the store.
* the **graph** contributes its nodes, edges and labels; the **identifier
  assignment** contributes the identifiers in node order.
* each **certificate space** contributes its *materialized* per-node
  candidate lists on the instance's ``(graph, ids)`` -- the semantics of the
  space on this instance, independent of how the space object is
  implemented.  It is the same
  :class:`~repro.hierarchy.certificate_spaces.MaterializedSpace` form the
  compiled engine core interns into its integer alphabet.
* the **prefix** contributes its quantifier string (e.g. ``"EA"``).

Bytecode is version-specific, so stores are effectively partitioned by
Python version for code-defined machines; re-running a sweep under a new
interpreter recomputes rather than risking a false hit.
"""

from __future__ import annotations

import hashlib
import json
from types import CodeType, FunctionType, MethodType
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.graphs.labeled_graph import LabeledGraph, Node
from repro.hierarchy.certificate_spaces import CertificateSpace, materialize_space
from repro.hierarchy.game import Quantifier

_PRIMITIVES = (str, bytes, int, float, bool, complex, type(None))


def _code_tokens(code: CodeType, out: List[str], seen: set) -> None:
    out.append(f"code:{code.co_argcount}:{code.co_kwonlyargcount}")
    out.append(code.co_code.hex())
    out.append(f"names:{code.co_names!r}")
    for const in code.co_consts:
        _tokens(const, out, seen)


def _function_tokens(func: FunctionType, out: List[str], seen: set) -> None:
    out.append(f"function:{func.__qualname__.rsplit('.<locals>.', 1)[-1]}")
    _code_tokens(func.__code__, out, seen)
    for cell in func.__closure__ or ():
        try:
            contents = cell.cell_contents
        except ValueError:  # empty cell (still being initialized)
            out.append("cell:empty")
            continue
        _tokens(contents, out, seen)
    for default in func.__defaults__ or ():
        _tokens(default, out, seen)


def _tokens(obj: object, out: List[str], seen: set) -> None:
    """Append canonical tokens describing *obj* to *out* (recursive).

    There is no depth bound: *seen* cuts cycles, and a truncated walk would
    give machines that differ only below the bound one key.  An object
    nested past the interpreter's recursion limit raises ``RecursionError``.
    """
    if isinstance(obj, _PRIMITIVES):
        out.append(repr(obj))
        return
    if id(obj) in seen:
        out.append("cycle")
        return
    seen = seen | {id(obj)}
    if isinstance(obj, (list, tuple, frozenset, set)):
        items = list(obj)
        if isinstance(obj, (frozenset, set)):
            items = sorted(items, key=repr)
        out.append(f"{type(obj).__name__}[{len(items)}]")
        for item in items:
            _tokens(item, out, seen)
        return
    if isinstance(obj, Mapping):
        out.append(f"mapping[{len(obj)}]")
        for key in sorted(obj, key=repr):
            out.append(repr(key))
            _tokens(obj[key], out, seen)
        return
    if isinstance(obj, MethodType):
        out.append("method")
        _tokens(obj.__self__, out, seen)
        _function_tokens(obj.__func__, out, seen)
        return
    if isinstance(obj, FunctionType):
        _function_tokens(obj, out, seen)
        return
    if isinstance(obj, CodeType):
        _code_tokens(obj, out, seen)
        return
    if callable(obj) and not hasattr(obj, "__dict__") and not hasattr(obj, "__slots__"):
        out.append(f"callable:{getattr(obj, '__qualname__', type(obj).__name__)}")
        return
    # Generic object: class name plus structural state.
    cls = type(obj)
    out.append(f"object:{cls.__module__}.{cls.__qualname__}")
    state = getattr(obj, "__dict__", None)
    if state is None and hasattr(cls, "__slots__"):
        state = {
            slot: getattr(obj, slot)
            for slot in cls.__slots__
            if hasattr(obj, slot)
        }
    if state:
        for key in sorted(state, key=repr):
            out.append(repr(key))
            _tokens(state[key], out, seen)
    elif type(obj).__repr__ is not object.__repr__:
        out.append(repr(obj))
    else:
        # No structural state and only the default repr, whose memory
        # address would poison the key with per-process noise; the class
        # name appended above already identifies the object.
        out.append("stateless")


def structural_fingerprint(obj: object) -> str:
    """A stable SHA-256 fingerprint of an object's structure and code."""
    out: List[str] = []
    _tokens(obj, out, set())
    out.append("")  # every token, the last one too, ends in a NUL byte
    return hashlib.sha256("\x00".join(out).encode("utf-8", "backslashreplace")).hexdigest()


def machine_fingerprint(machine: object) -> str:
    """The fingerprint of an arbiter machine (see module docstring)."""
    return structural_fingerprint(machine)


def _node_token(node: Node) -> str:
    return repr(node)


def graph_payload(graph: LabeledGraph) -> dict:
    """The JSON-ready description of a labeled graph."""
    return {
        "nodes": [_node_token(u) for u in graph.nodes],
        "edges": sorted(sorted(_node_token(v) for v in edge) for edge in graph.edges),
        "labels": [graph.label(u) for u in graph.nodes],
    }


def instance_key(
    machine: object,
    graph: LabeledGraph,
    ids: Mapping[Node, str],
    spaces: Sequence[CertificateSpace],
    prefix: Iterable[Quantifier],
    machine_digest: Optional[str] = None,
) -> str:
    """The content-addressed store key of one game instance.

    Equal keys mean "same machine code and parameters, same graph, same
    identifiers, same per-node candidate certificates at every level, same
    quantifier prefix" -- everything the game value depends on.
    *machine_digest* is ``machine_fingerprint(machine)`` when the caller
    already has it.
    """
    payload = {
        "v": 1,
        "machine": machine_digest or machine_fingerprint(machine),
        "graph": graph_payload(graph),
        "ids": [ids[u] for u in graph.nodes],
        "spaces": [
            [list(candidates) for candidates in materialize_space(space, graph, ids).per_node]
            for space in spaces
        ],
        "prefix": "".join(q.value for q in prefix),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def game_instance_key(instance, fingerprints: Optional[Dict[int, str]] = None) -> str:
    """:func:`instance_key` for a :class:`repro.engine.batch.GameInstance`.

    *fingerprints* memoizes machine fingerprints by ``id(machine)`` across
    the calls that pass the same dict, so a batch fingerprints each distinct
    machine once.  Keep one dict for one batch only: its instances hold
    their machines (no id is recycled meanwhile), and a machine changed
    after its fingerprint (say, by ``attach_rule``) would get a stale key.
    """
    machine = instance.machine
    digest = None
    if fingerprints is not None:
        digest = fingerprints.get(id(machine))
        if digest is None:
            digest = fingerprints[id(machine)] = machine_fingerprint(machine)
    return instance_key(
        machine, instance.graph, instance.ids, instance.spaces, instance.prefix, digest
    )
