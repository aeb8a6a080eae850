"""The ten symmetry classes: membership, neutral elements, group operations,
the forgetful map to the complex classes.

Class conventions (structure matrices act on the outer legs; an algebra
with inner block dimension d contributes its own structure on the last
leg).  The point column names the invariant over a point, KO_i(R) or KU_i,
and -- where that group is zero.  The index map sends class i to its target; an
odd row's rotation, matcore conjugators on d/2 or d/4 blocks multiplied left to
right, moves a 2d x 2d index unitary onto the target's neutral stack:

  id   size  relation                  neutral block    point              target  rotation
  -1    1    u^t = u                   [1]              --                   6     V W
   0    2    u = u*, u^t = u*          diag(1,-1)       half_trace (Z)      -1
   1    1    u^t = u*                  [1]              det_parity (Z2)      0     V
   2    2    u = u*, u^t = -u          [[0,i],[-i,0]]   pf_parity (Z2)       1
   3    2    u^{s(x)t} = u             1_2              --                   2     V Q W
   4    4    u = u*, u^{s(x)t} = u*    diag(1,1,-1,-1)  quarter_trace (Z)    3
   5    2    u^{s(x)t} = u*            1_2              --                   4     X
   6    2    u = u*, u^{s(x)t} = -u    [[0,i],[-i,0]]   --                   5
  KU0   2    u = u*                    diag(1,-1)       half_trace (Z)     KU1
  KU1   1    --                        [1]              --                 KU0     V
"""

from __future__ import annotations

from dataclasses import dataclass, field
import functools
import numpy as np

from . import matcore
from .basespace import (SCALAR, Algebra, BaseSpace, FnElement, apply_full_involution,
                        block_diag_elements, constant_element, lambda_eval,
                        pinned_residual)

CLASS_IDS = (-1, 0, 1, 2, 3, 4, 5, 6, "KU0", "KU1")

# a member's basepoint trace per class block is an integer, 0 when trivial
BASEPOINT_TRACE_GUARD = 0.25

_I2 = np.array([[0.0, 1j], [-1j, 0.0]])
_V, _W, _Q, _X = (matcore.conjugator_v, matcore.conjugator_w, matcore.conjugator_q,
                  matcore.conjugator_x)

_TABLE = {
    -1: dict(mult=1, sa=False, sharp=False, sign=+1, star=False, target=6, point=None,
             neutral=np.array([[1.0 + 0j]]), rotation=((_V, 2), (_W, 2))),
    0: dict(mult=2, sa=True, sharp=False, sign=+1, star=True, target=-1, rotation=None,
            point=("half_trace", "Z"), neutral=np.diag([1.0 + 0j, -1.0])),
    1: dict(mult=1, sa=False, sharp=False, sign=+1, star=True, target=0,
            point=("det_parity", "Z2"), neutral=np.array([[1.0 + 0j]]), rotation=((_V, 2),)),
    2: dict(mult=2, sa=True, sharp=False, sign=-1, star=False, target=1, rotation=None,
            point=("pf_parity", "Z2"), neutral=_I2),
    3: dict(mult=2, sa=False, sharp=True, sign=+1, star=False, target=2, point=None,
            neutral=np.eye(2, dtype=complex), rotation=((_V, 2), (_Q, 4), (_W, 2))),
    4: dict(mult=4, sa=True, sharp=True, sign=+1, star=True, target=3, rotation=None,
            point=("quarter_trace", "Z"), neutral=np.diag([1.0 + 0j, 1.0, -1.0, -1.0])),
    5: dict(mult=2, sa=False, sharp=True, sign=+1, star=True, target=4, point=None,
            neutral=np.eye(2, dtype=complex), rotation=((_X, 4),)),
    6: dict(mult=2, sa=True, sharp=True, sign=-1, star=False, target=5, rotation=None,
            point=None, neutral=_I2),
    "KU0": dict(mult=2, sa=True, sharp=False, sign=None, star=None, target="KU1",
                rotation=None, point=("half_trace", "Z"), neutral=np.diag([1.0 + 0j, -1.0])),
    "KU1": dict(mult=1, sa=False, sharp=False, sign=None, star=None, target="KU0",
                point=None, neutral=np.array([[1.0 + 0j]]), rotation=((_V, 2),)),
}


def class_spec(i) -> dict:
    if i not in _TABLE:
        raise KeyError(f"unknown symmetry class {i!r}")
    return _TABLE[i]


def parse_class(token):
    """Class id from its serialized form: integers -1..6 or 'KU0'/'KU1'."""
    if isinstance(token, str) and token.upper() in ("KU0", "KU1"):
        return token.upper()
    try:
        i = int(token)
    except (TypeError, ValueError):
        i = None
    if i not in _TABLE:
        raise ValueError(f"unknown symmetry class {token!r}; the classes are "
                         + ", ".join(map(str, CLASS_IDS)))
    return i


def class_to_json(i):
    """The serialized form of a class id, read back by parse_class."""
    return i if isinstance(i, str) else int(i)


@functools.lru_cache(maxsize=64)
def neutral(i, copies: int) -> np.ndarray:
    """Block-diagonal stack of `copies` neutral blocks of class i; built
    once per (class, copies) and returned read-only."""
    if copies < 1:
        raise ValueError("copies must be >= 1")
    m = np.kron(np.eye(copies, dtype=complex), class_spec(i)["neutral"])
    m.flags.writeable = False
    return m


@functools.lru_cache(maxsize=64)
def neutral_pfaffian(i, copies: int) -> complex:
    """matcore.pfaffian of neutral(i, copies), computed once per (class, copies)."""
    return matcore.pfaffian(neutral(i, copies))


def class_structure(i, dim: int, algebra: Algebra = SCALAR) -> np.ndarray:
    """Structure matrix of the class-i symmetry on dim x dim values; built
    once per structure and returned read-only."""
    spec = class_spec(i)
    if spec["sign"] is None:
        return None
    s_alg = np.asarray(algebra.struct)
    k, rem = divmod(dim, s_alg.shape[0])
    if rem:
        raise ValueError("element dimension is not a multiple of the structure size")
    if spec["sharp"] and k % 2:
        raise ValueError(f"class {i} needs an even number of structure columns")
    # keyed on the contents of struct: Algebra's eq and hash ignore it
    return _structure(spec["sharp"], k, s_alg.dtype.str, s_alg.shape, s_alg.tobytes())


@functools.lru_cache(maxsize=256)
def _structure(sharp: bool, k: int, dtype: str, shape: tuple, data: bytes) -> np.ndarray:
    s_alg = np.frombuffer(data, dtype).reshape(shape)
    if sharp:
        s = np.kron(np.kron(np.eye(k // 2, dtype=complex), matcore.J2), s_alg)
    else:
        s = np.kron(np.eye(k, dtype=complex), s_alg)
    s.flags.writeable = False
    return s


class MembershipError(ValueError):
    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals or {}


@dataclass
class KOClassRep:
    element: FnElement
    class_id: object
    algebra: Algebra
    ok: bool = True
    residuals: dict = field(default_factory=dict)
    # orthonormal (npoints, dim, rank) frames of the ranges of (element+1)/2,
    # set only by a producer that built the element from them
    frames: np.ndarray = field(default=None, compare=False, repr=False)

    @property
    def base(self) -> BaseSpace:
        return self.element.base

    def catalog_key(self):
        base = self.base
        return (base.kind, base.involution, base.pinned_label, self.algebra.label,
                self.class_id)


def check_membership(u: FnElement, i, algebra: Algebra = SCALAR,
                     tol: float = matcore.DEFAULT_TOL) -> KOClassRep:
    """Test the class-i symmetry relations; residuals are always reported."""
    return _membership(u, i, algebra, tol, None)


def classify(u: FnElement, algebra: Algebra = SCALAR, tol: float = matcore.DEFAULT_TOL,
             classes=CLASS_IDS) -> dict:
    """check_membership of u in each of `classes` from one pass: class id ->
    its KOClassRep, or the ValueError (a MembershipError among them) that
    refuses the class.  What the classes share is computed once."""
    shared, out = {}, {}
    for i in classes:
        try:
            out[i] = _membership(u, i, algebra, tol, shared)
        except ValueError as exc:
            out[i] = exc
    return out


# a finite entry past 1e154 overflows a product: its residual is inf or nan,
# which refuses the class, and no warning is printed
@np.errstate(over="ignore", invalid="ignore")
def _membership(u: FnElement, i, algebra: Algebra, tol: float,
                shared: dict | None) -> KOClassRep:
    """Membership of u in class i.  `shared` keeps the pieces every class
    of u may reuse: the adjoint, the unitary and self-adjoint residuals, the
    involuted values per structure, the symmetry residual per (structure,
    star, sign), the pinned residual and the basepoint value.  It is None
    in a call on one class, which keeps nothing.

    The grid-sized stacks that `shared` lacks are formed in one
    (k, npoints, dim, dim) buffer: the adjoint, the involuted values and
    the residual stacks, which are read with one frobenius_norms call.  A
    call on one class writes its symmetry residual over the involuted
    values it reads; classify keeps them for the classes that share them."""
    one = shared is None
    if one:
        shared = {}

    def get(key, make):
        if key not in shared:
            shared[key] = make()
        return shared[key]

    spec = class_spec(i)
    d = algebra.dim_alg
    k, rem = divmod(u.dim, d)
    if rem or k % spec["mult"]:
        raise MembershipError(
            f"dimension {u.dim} is not a multiple of {spec['mult']}*{d} for class {i}")
    if u.dim % algebra.struct.shape[0]:
        raise MembershipError("dimension incompatible with the algebra structure")

    # residual name -> its key in `shared`
    keys = {"unitary": "unitary"}
    if spec["sa"]:
        keys["self_adjoint"] = "self_adjoint"
    s = class_structure(i, u.dim, algebra)
    if s is not None:
        keys["symmetry"] = ("symmetry", spec["sharp"], spec["star"], spec["sign"])
    missing = [key for key in keys.values() if key not in shared]
    if missing:
        # One buffer, not one array per stack: glibc serves a block past its
        # mmap threshold by mmap and, when such a block is freed, raises the
        # threshold to its size and the heap-top trim threshold to twice
        # that.  At dim 8 on the 544-point disk the buffer holds 4 stacks
        # (2.2 MB), so the trim threshold rises past what a disk operation
        # holds at its peak (3.9 MB), and the heap top is no longer given
        # back to the kernel after each operation and faulted in again.
        v = u.values
        involute = ("involute", spec["sharp"])
        adjoint = "adjoint" not in shared
        keep = not one and keys.get("symmetry") in missing and involute not in shared
        lead = adjoint + keep
        buf = np.empty((lead + len(missing),) + v.shape, dtype=complex)
        if adjoint:
            # u's conjugate read transposed: for C-ordered values, the
            # memory order np.conj(np.swapaxes(v, 1, 2)) gives
            shared["adjoint"] = np.swapaxes(np.conj(v, out=buf[0]), 1, 2)
        if keep:
            shared[involute] = apply_full_involution(u, s, buf[int(adjoint)]).values
        ua, stacks = shared["adjoint"], buf[lead:]
        for key, out in zip(missing, stacks):
            if key == "unitary":
                matcore.sub_identity(np.matmul(ua, v, out=out))
            elif key == "self_adjoint":
                np.subtract(v, ua, out=out)
            else:
                lhs = apply_full_involution(u, s, out).values if one else shared[involute]
                combine = np.subtract if spec["sign"] > 0 else np.add
                combine(lhs, ua if spec["star"] else v, out=out)
        norms = matcore.frobenius_norms(stacks.reshape(-1, u.dim, u.dim))
        for key, row in zip(missing, norms.reshape(len(missing), -1)):
            shared[key] = float(row.max())
    res = {name: shared[key] for name, key in keys.items()}

    ok = all(v <= tol for v in res.values())
    if u.base.pinned:
        res["scalar_pinning"] = get("pinned", lambda: pinned_residual(u, algebra))
        lam = get("lambda", lambda: lambda_eval(u, algebra))
        triv, detail = _lambda_trivial(lam, i)
        res["lambda_class"] = 0.0 if triv else 1.0
        res["lambda_detail"] = detail
        ok = ok and res["scalar_pinning"] <= tol and triv
    return KOClassRep(u, i, algebra, ok=ok, residuals=res)


def require_membership(u, i, algebra=SCALAR, tol=matcore.DEFAULT_TOL) -> KOClassRep:
    rep = check_membership(u, i, algebra, tol)
    if not rep.ok:
        raise MembershipError(f"element fails class-{i} membership", rep.residuals)
    return rep


def _lambda_trivial(lam: np.ndarray, i):
    """Weak basepoint condition: the scalar part represents the trivial class."""
    spec = class_spec(i)
    if spec["point"] is None:
        return True, "free"
    kind = spec["point"][0]
    if kind == "det_parity":
        dt = np.linalg.det(lam)
        return np.real(dt) > 0, f"det={_rounded(dt):.3f}"
    if kind == "pf_parity":
        try:
            pf = matcore.pfaffian(lam)
        except ValueError as exc:  # a value that is not skew has no Pfaffian
            return False, f"pf_ratio undefined: {exc}"
        ratio = pf / neutral_pfaffian(i, lam.shape[0] // 2)
        return np.real(ratio) > 0, f"pf_ratio={_rounded(ratio):.3f}"
    t = np.real(np.trace(lam)) / spec["mult"]
    return abs(t) < BASEPOINT_TRACE_GUARD, f"{kind}={_rounded(t):.3f}"


def _rounded(x):
    """x with each real part rounded to 3 decimals, + 0.0 turning a rounded
    -0.0 into 0.0: a printed zero does not carry the sign of roundoff."""
    if isinstance(x, complex):
        z = complex(x)
        return complex(round(z.real, 3) + 0.0, round(z.imag, 3) + 0.0)
    return round(float(x), 3) + 0.0


def add(u: FnElement, v: FnElement, i, algebra: Algebra = SCALAR) -> FnElement:
    """[u] + [v] as diag(u, v); outer blocks concatenate so the class's
    2x2 sharp blocks stay intact."""
    return block_diag_elements(u, v)


def stabilize(u: FnElement, i, algebra: Algebra = SCALAR, copies: int = 1) -> FnElement:
    pad = np.kron(neutral(i, copies), np.eye(algebra.dim_alg, dtype=complex))
    return block_diag_elements(u, constant_element(u.base, pad))


def inverse(u: FnElement, i, algebra: Algebra = SCALAR) -> FnElement:
    """u* for odd classes, -u for even ones; the classes of sign -1 (2 and 6)
    need an even number of neutral blocks for -u to invert."""
    spec = class_spec(i)
    if not spec["sa"]:
        return u.adjoint()
    if spec["sign"] == -1:
        blocks = u.dim // (algebra.dim_alg * 2)
        if blocks % 2:
            raise ValueError(
                f"class-{i} negation inverts only an even number of blocks; stabilize first")
    return u.scaled(-1.0)


def complex_class(i):
    """The complex class a class-i element forgets to: KU0 for the
    self-adjoint classes, KU1 for the others."""
    return "KU0" if class_spec(i)["sa"] else "KU1"


def forget_to_ku(rep: KOClassRep, tol: float = matcore.DEFAULT_TOL) -> KOClassRep:
    """Forget the real symmetry: same element, its complex class."""
    target = complex_class(rep.class_id)
    if target == rep.class_id:
        return rep
    return check_membership(rep.element, target, rep.algebra, tol)


def symmetrize(x, i, s):
    """Project an FnElement or ShiftAlgElement x onto the class-i lift
    relation, s the structure matrix in x's arithmetic; fixed points stay.
    Odd classes (sign +1) average x with x^{tau(*)}; even ones hermitize and
    average with sign * x^tau, as x^{tau*} = x^tau for self-adjoint x."""
    spec = class_spec(i)
    if spec["sa"]:
        x = (x + x.adjoint()) / 2
    if spec["sign"] is None:
        return x
    t = x.involute(s)
    if spec["sa"]:
        t = t.scaled(spec["sign"])
    elif spec["star"]:
        t = t.adjoint()
    return (x + t) / 2


# ---------------------------------------------------------------------------
# qC-style relations

def build_u(h: FnElement, x: FnElement, k: FnElement) -> FnElement:
    """U(h,x,k) = [[1-2h, 2x*],[2x, 2k-1]], pointwise."""
    n = h.dim
    eye = np.eye(n)
    out = np.zeros((h.base.npoints, 2 * n, 2 * n), dtype=complex)
    out[:, :n, :n] = eye - 2.0 * h.values
    out[:, :n, n:] = 2.0 * np.conj(np.swapaxes(x.values, 1, 2))
    out[:, n:, :n] = 2.0 * x.values
    out[:, n:, n:] = 2.0 * k.values - eye
    return FnElement(h.base, out)


def check_qc_relations(h: FnElement, x: FnElement, k: FnElement,
                       tol: float = matcore.CONSTRUCTION_TOL) -> bool:
    """h*h + x*x = h, k*k + xx* = k, kx = xh, hk = 0, at every grid point."""
    ha, xa, ka = h.values, x.values, k.values
    hs = np.conj(np.swapaxes(ha, 1, 2))
    xs = np.conj(np.swapaxes(xa, 1, 2))
    ks = np.conj(np.swapaxes(ka, 1, 2))
    checks = [
        hs @ ha + xs @ xa - ha,
        ks @ ka + xa @ xs - ka,
        ka @ xa - xa @ ha,
        ha @ ka,
    ]
    return all(float(np.max(np.abs(c))) <= tol for c in checks)
