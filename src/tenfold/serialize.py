"""JSON element format shared with the command line.

{ "base": {"kind", "resolution", "involution", "basepoint", "pinned"},
  "dim": n,
  "values": [[...[re, im]...]] }   # per grid point, dim x dim of pairs

Optional "alg" block carries the algebra's scalar block size, structure
matrix, and label for non-scalar algebras.  Shift-algebra elements use the
exact format from tenfold.toeplitz.
"""

from __future__ import annotations

import numpy as np

from .basespace import Algebra, BaseSpace, FnElement, sample_space


def _resolution_of(base: BaseSpace):
    if base.kind in ("point", "twopoints"):
        return 0
    if base.kind == "interval":
        return base.shape[0] - 1
    if base.kind == "circle":
        return base.shape[0]
    if base.kind == "disk":
        return [base.shape[0], base.shape[1]]
    if base.kind == "sphere2":
        return [base.shape[0] - 1, base.shape[1]]
    if base.kind == "sphere3":
        return [base.shape[0] - 1, base.shape[1] - 1, base.shape[2]]
    if base.kind == "torus2":
        return [base.shape[0], base.shape[1]]
    raise KeyError(base.kind)


def base_to_json(base: BaseSpace) -> dict:
    return {
        "kind": base.kind,
        "resolution": _resolution_of(base),
        "involution": base.involution,
        "basepoint": base.basepoint,
        "pinned": list(base.pinned),
    }


def base_from_json(obj: dict) -> BaseSpace:
    res = obj.get("resolution", 64)
    if isinstance(res, list):
        res = tuple(res)
    base = sample_space(obj["kind"], res, obj.get("involution", "id"))
    pinned = tuple(obj.get("pinned", ()))
    if not all(isinstance(p, int) and 0 <= p < base.npoints for p in pinned):
        raise ValueError(f"pinned indices must lie in [0, {base.npoints})")
    if pinned:
        base = type(base)(base.kind, base.involution, base.shape, base.points,
                          base.inv_perm, base.basepoint, pinned)
    return base


def _cpx_matrix_to_json(m: np.ndarray):
    return [[[float(np.real(m[i, j])), float(np.imag(m[i, j]))]
             for j in range(m.shape[1])] for i in range(m.shape[0])]


def _cpx_matrix_from_json(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def _finite(m: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def element_to_json(u: FnElement, algebra: Algebra = None) -> dict:
    out = {
        "base": base_to_json(u.base),
        "dim": u.dim,
        "values": [_cpx_matrix_to_json(u.values[p]) for p in range(u.base.npoints)],
    }
    if algebra is not None and algebra.label != "scalar":
        out["alg"] = {
            "dim_alg": algebra.dim_alg,
            "struct": _cpx_matrix_to_json(algebra.struct),
            "label": algebra.label,
        }
    return out


def element_from_json(obj: dict):
    base = base_from_json(obj["base"])
    vals = _finite(np.stack([_cpx_matrix_from_json(v) for v in obj["values"]]))
    u = FnElement(base, vals)
    alg = Algebra(base)
    if "alg" in obj:
        alg = Algebra(base, int(obj["alg"]["dim_alg"]),
                      _finite(_cpx_matrix_from_json(obj["alg"]["struct"])),
                      obj["alg"].get("label", "custom"))
    return u, alg
