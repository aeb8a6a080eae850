"""JSON element format shared with the command line.

{ "base": {"kind", "resolution", "involution", "basepoint", "pinned"},
  "dim": n,
  "values": [[...[re, im]...]] }   # per grid point, dim x dim of pairs

Optional "alg" block carries the algebra's scalar block size, structure
matrix, and label: {"dim_alg", "struct", "label"}, written for every algebra
but the scalar one, which a document without the block has.  A label that
names an algebra of basespace.ALGEBRAS reads as that algebra, and its dim_alg
and struct must be that algebra's; any other label reads as a new algebra,
which the invariant catalog has no rows for.  Shift-algebra elements use the
exact format from tenfold.toeplitz.  element_doc holds the pairs as float
arrays, which dumps writes as the text of element_to_json's nested lists.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import chain
import json
from json.encoder import encode_basestring_ascii
import math

import numpy as np

from .basespace import (ALGEBRAS, SCALAR, SPACES, Algebra, BaseSpace, FnElement,
                        grid_shape, sample_space)


def _resolution_of(base: BaseSpace):
    """The grid's shape less its poles: 0 for a kind without resolution
    axes, an integer for one axis, a list for more."""
    sizes = [m - ax.pole for m, ax in zip(base.shape, SPACES[base.kind].axes)]
    return sizes[0] if len(sizes) == 1 else sizes or 0


def base_to_json(base: BaseSpace) -> dict:
    return {
        "kind": base.kind,
        "resolution": _resolution_of(base),
        "involution": base.involution,
        "basepoint": base.basepoint,
        "pinned": list(base.pinned),
    }


def _finite_int(v, what: str) -> int:
    """A JSON integer, or a float of integral value, as an int; int() would
    truncate a fraction, parse a string, take a bool and overflow on Infinity."""
    if type(v) is int or type(v) is float and v.is_integer():
        return int(v)
    raise ValueError(f"{what} must be an integer, not {v!r}")


def _resolution(obj: dict):
    res = obj.get("resolution", 64)
    if isinstance(res, list):
        return tuple(_finite_int(r, "resolution") for r in res)
    return _finite_int(res, "resolution")


def _point_count(obj) -> int:
    """Points of the grid a base object describes, counted without sampling
    it, so that a huge resolution is refused before anything is allocated."""
    if not isinstance(obj, dict):
        raise ValueError("base must be a JSON object")
    return math.prod(grid_shape(obj["kind"], _resolution(obj)))


def base_from_json(obj: dict) -> BaseSpace:
    base = sample_space(obj["kind"], _resolution(obj), obj.get("involution", "id"))
    pinned = tuple(obj.get("pinned", ()))
    # bool is an int subclass, and a bool array indexes as a mask
    if not all(type(p) is int and 0 <= p < base.npoints for p in pinned):
        raise ValueError(f"pinned indices must lie in [0, {base.npoints})")
    return replace(base, pinned=pinned)


def _pairs(m: np.ndarray) -> np.ndarray:
    """[re, im] pairs in place of the complex entries of an array: a float
    array with one more axis, of length 2."""
    return np.stack([m.real, m.imag], -1)


def _number(x):
    """A JSON number as it is; complex() would read true and false as 1 and 0."""
    if isinstance(x, (bool, np.bool_)):
        word = "true" if x else "false"
        raise ValueError(f"matrix entries must be numbers, not {word}")
    return x


def _cpx_matrix_from_json(rows) -> np.ndarray:
    """complex() raises OverflowError on a JSON integer beyond the range of
    a float, which is malformed input like an infinite entry."""
    try:
        return np.array([[complex(_number(re), _number(im)) for re, im in row]
                         for row in rows])
    except OverflowError as exc:
        raise ValueError(f"matrix entries must be finite: {exc}") from None


def _values_per_entry(values) -> np.ndarray:
    return np.stack([_cpx_matrix_from_json(v) for v in values])


def _cpx_array(obj, axes: int, per_entry) -> np.ndarray:
    """The complex array, `axes` deep, of the nested [re, im] pairs in obj.
    A regular array of JSON numbers is read by one np.array call, its float
    pairs viewed as complex (bit for bit, -0.0 kept); any other input goes
    to per_entry(obj), whose errors and messages are the contract.  np.array
    reads true and false as 1 and 0, so obj is scanned for them too."""
    try:
        a = np.array(obj)
    except (TypeError, ValueError, OverflowError):
        return per_entry(obj)
    # an integer past int64 gives uint64 or object; a string or None, object;
    # all true and false, bool
    if a.dtype.type not in (np.float64, np.int64) \
            or a.ndim != axes + 1 or a.shape[-1] != 2 \
            or _holds_bool(obj, axes):
        return per_entry(obj)
    return a.astype(float, copy=False).view(complex).reshape(a.shape[:-1])


def _holds_bool(obj, axes: int) -> bool:
    """Whether a regular nested list of numbers, axes + 1 deep, holds a
    true or false."""
    leaves = obj
    for _ in range(axes):
        leaves = chain.from_iterable(leaves)
    return not {bool, np.bool_}.isdisjoint(map(type, leaves))


def _finite(m: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def _element(u: FnElement, algebra: Algebra, pairs) -> dict:
    """The element's JSON document, each complex array written by pairs."""
    out = {
        "base": base_to_json(u.base),
        "dim": u.dim,
        "values": pairs(u.values),
    }
    if algebra.label != "scalar":
        out["alg"] = {
            "dim_alg": algebra.dim_alg,
            "struct": pairs(algebra.struct),
            "label": algebra.label,
        }
    return out


def element_doc(u: FnElement, algebra: Algebra = SCALAR) -> dict:
    """The element's JSON document with values and alg.struct as (..., 2)
    float arrays, which dumps writes as the text of element_to_json's lists."""
    return _element(u, algebra, _pairs)


def element_to_json(u: FnElement, algebra: Algebra = SCALAR) -> dict:
    """The element's JSON document with values and alg.struct as nested
    lists of [re, im] pairs."""
    return _element(u, algebra, lambda m: _pairs(m).tolist())


def element_from_json(obj: dict):
    vals = _finite(_cpx_array(obj["values"], 3, _values_per_entry))
    if _point_count(obj["base"]) != len(vals):
        raise ValueError(f"base resolution does not match the {len(vals)} values")
    base = base_from_json(obj["base"])
    u = FnElement(base, vals)
    # bool is an int subclass
    if "dim" in obj and (type(obj["dim"]) is not int or obj["dim"] != u.dim):
        raise ValueError(f"dim must be {u.dim}, the size of the value matrices")
    alg = SCALAR
    if "alg" in obj:
        dim_alg = _finite_int(obj["alg"]["dim_alg"], "alg.dim_alg")
        struct = _finite(_cpx_array(obj["alg"]["struct"], 2, _cpx_matrix_from_json))
        label = obj["alg"].get("label", "custom")
        square = struct.ndim == 2 and struct.shape[0] == struct.shape[1] > 0
        if dim_alg < 1 or not square or not isinstance(label, str):
            raise ValueError("alg needs a positive dim_alg, a square struct "
                             "and a string label")
        alg = ALGEBRAS.get(label)
        if alg is None:
            alg = Algebra(dim_alg, struct, label)
        elif alg.dim_alg != dim_alg or not np.array_equal(alg.struct, struct):
            raise ValueError(f"alg {label!r} differs from the named algebra's "
                             f"dim_alg {alg.dim_alg} or struct")
    return u, alg


# -- JSON text -------------------------------------------------------------------

# Not one-shot, so iterencode runs json's pure-Python encoder, the one
# json.dumps(indent=...) runs: scalar text and error messages are its own.
_SCALAR = json.JSONEncoder(allow_nan=False)
# The text json writes for a leaf of each exact type (a float once finite)
_LEAF = {float: float.__repr__, int: int.__repr__, str: encode_basestring_ascii,
         bool: {False: "false", True: "true"}.get, type(None): {None: "null"}.get}


def dumps(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=1, allow_nan=False), byte for
    byte and with the same errors, written without json's generator per
    node; an ndarray is written as its tolist() would be, a non-empty finite
    float64 one (the element arrays) by one join of its leaves.  A container
    that holds itself raises RecursionError, where json raises ValueError."""
    return _dump(obj, 0)


def _dump(obj, level: int) -> str:
    leaf = _LEAF.get(type(obj))
    if leaf is not None and (leaf is not float.__repr__ or math.isfinite(obj)):
        return leaf(obj)
    if type(obj) is np.ndarray:
        if obj.dtype == np.float64 and obj.size and np.isfinite(obj).all():
            return _array(obj, level)
        return _dump(obj.tolist(), level)
    pad = "\n" + " " * level
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        # json sorts the items by their keys, then writes each key as text
        return "{" + pad + " " + ("," + pad + " ").join(
            f"{encode_basestring_ascii(k if type(k) is str else _key(k))}: "
            f"{_dump(v, level + 1)}" for k, v in sorted(obj.items())) + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + pad + " " + ("," + pad + " ").join(
            _dump(v, level + 1) for v in obj) + pad + "]"
    return "".join(_SCALAR.iterencode(obj))


def _key(k) -> str:
    if isinstance(k, str):
        return k
    if k is None or isinstance(k, (int, float)):
        return "".join(_SCALAR.iterencode(k))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _array(a: np.ndarray, level: int) -> str:
    """The text of a.tolist() for a non-empty finite float64 array.  Each
    distinct 64-bit pattern gets one float repr (so 0.0 and -0.0 stay
    apart), gathered to the leaves; the separator after a leaf is set by
    how many trailing axes roll over there."""
    distinct, where = np.unique(a.reshape(-1).view(np.int64), return_inverse=True)
    reprs = np.array([*map(float.__repr__, distinct.view(np.float64).tolist())],
                     dtype=object)
    depth = a.ndim
    pads = ["\n" + " " * (level + d) for d in range(depth + 1)]
    # closes[j] ends the j innermost lists, opens[j] starts them again
    closes = ["".join(pads[depth - 1 - m] + "]" for m in range(j))
              for j in range(depth + 1)]
    opens = ["".join("[" + pads[d + 1] for d in range(depth - j, depth))
             for j in range(depth + 1)]
    seps = []
    for j, n in enumerate(reversed(a.shape)):
        seps += ([closes[j] + "," + pads[depth - j] + opens[j]] + seps) * (n - 1)
    parts = [None] * (2 * a.size - 1)
    parts[::2] = reprs[where].tolist()
    parts[1::2] = seps
    return opens[depth] + "".join(parts) + closes[depth]
