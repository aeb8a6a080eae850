"""The ten symmetry classes: membership, neutral elements, group operations,
basepoint normalization, conversions to the complex classes.

Class conventions (structure matrices act on the outer legs; an algebra
with inner block dimension d contributes its own structure on the last
leg).  The point column names the invariant over a point, KO_i(R) or KU_i,
and -- where that group is zero:

  id   size  relation                     neutral block      point
  -1    1    u^t = u                      [1]                --
   0    2    u = u*, u^t = u*             diag(1,-1)         half_trace (Z)
   1    1    u^t = u*                     [1]                det_parity (Z2)
   2    2    u = u*, u^t = -u             [[0,i],[-i,0]]     pf_parity (Z2)
   3    2    u^{s(x)t} = u                1_2                --
   4    4    u = u*, u^{s(x)t} = u*       diag(1,1,-1,-1)    quarter_trace (Z)
   5    2    u^{s(x)t} = u*               1_2                --
   6    2    u = u*, u^{s(x)t} = -u       [[0,i],[-i,0]]     --
  KU0   2    u = u*                       diag(1,-1)         half_trace (Z)
  KU1   1    --                           [1]                --
"""

from __future__ import annotations

from dataclasses import dataclass, field
import functools
import numpy as np

from . import matcore
from .basespace import (Algebra, BaseSpace, FnElement, apply_full_involution,
                        block_diag_elements, constant_element, lambda_eval,
                        pinned_residual, sample_space, scalar_algebra)

CLASS_IDS = (-1, 0, 1, 2, 3, 4, 5, 6, "KU0", "KU1")

# a member's basepoint trace per class block is an integer, 0 when trivial
BASEPOINT_TRACE_GUARD = 0.25
# a self-adjoint unitary's trace is an integer: this admits trace 0 only
ZERO_TRACE_GUARD = 0.5
# eigenvalues of a Hermitian part this close are one degenerate cluster
EIG_CLUSTER_TOL = 1e-8

_I2 = np.array([[0.0, 1j], [-1j, 0.0]])

_TABLE = {
    -1: dict(mult=1, sa=False, sharp=False, sign=+1, star=False, point=None,
             neutral=np.array([[1.0 + 0j]])),
    0: dict(mult=2, sa=True, sharp=False, sign=+1, star=True,
            point=("half_trace", "Z"), neutral=np.diag([1.0 + 0j, -1.0])),
    1: dict(mult=1, sa=False, sharp=False, sign=+1, star=True,
            point=("det_parity", "Z2"), neutral=np.array([[1.0 + 0j]])),
    2: dict(mult=2, sa=True, sharp=False, sign=-1, star=False,
            point=("pf_parity", "Z2"), neutral=_I2),
    3: dict(mult=2, sa=False, sharp=True, sign=+1, star=False, point=None,
            neutral=np.eye(2, dtype=complex)),
    4: dict(mult=4, sa=True, sharp=True, sign=+1, star=True,
            point=("quarter_trace", "Z"), neutral=np.diag([1.0 + 0j, 1.0, -1.0, -1.0])),
    5: dict(mult=2, sa=False, sharp=True, sign=+1, star=True, point=None,
            neutral=np.eye(2, dtype=complex)),
    6: dict(mult=2, sa=True, sharp=True, sign=-1, star=False, point=None, neutral=_I2),
    "KU0": dict(mult=2, sa=True, sharp=False, sign=None, star=None,
                point=("half_trace", "Z"), neutral=np.diag([1.0 + 0j, -1.0])),
    "KU1": dict(mult=1, sa=False, sharp=False, sign=None, star=None, point=None,
                neutral=np.array([[1.0 + 0j]])),
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


def neutral(i, copies: int) -> np.ndarray:
    """Block-diagonal stack of `copies` neutral blocks of class i."""
    if copies < 1:
        raise ValueError("copies must be >= 1")
    blk = class_spec(i)["neutral"]
    return np.kron(np.eye(copies, dtype=complex), blk)


_SCALAR_STRUCT = np.eye(1, dtype=complex)


def class_structure(i, dim: int, algebra: Algebra = None) -> np.ndarray:
    """Structure matrix of the class-i symmetry on dim x dim values; built
    once per structure and returned read-only."""
    spec = class_spec(i)
    if spec["sign"] is None:
        return None
    s_alg = _SCALAR_STRUCT if algebra is None else np.asarray(algebra.struct)
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

    @property
    def base(self) -> BaseSpace:
        return self.element.base

    def catalog_key(self):
        return self.algebra.key() + (self.class_id,)


def _default_algebra(u: FnElement, algebra):
    return scalar_algebra(u.base) if algebra is None else algebra


def check_membership(u: FnElement, i, algebra: Algebra = None,
                     tol: float = matcore.DEFAULT_TOL) -> KOClassRep:
    """Test the class-i symmetry relations; residuals are always reported."""
    return _membership(u, i, _default_algebra(u, algebra), tol, {})


def classify(u: FnElement, algebra: Algebra = None, tol: float = matcore.DEFAULT_TOL,
             classes=CLASS_IDS) -> dict:
    """check_membership of u in each of `classes` from one pass: class id ->
    its KOClassRep, or the ValueError (a MembershipError among them) that
    refuses the class.  What the classes share is computed once."""
    algebra = _default_algebra(u, algebra)
    shared, out = {}, {}
    for i in classes:
        try:
            out[i] = _membership(u, i, algebra, tol, shared)
        except ValueError as exc:
            out[i] = exc
    return out


def _membership(u: FnElement, i, algebra: Algebra, tol: float,
                shared: dict) -> KOClassRep:
    """Membership of u in class i.  `shared` keeps the pieces every class
    of u may reuse: the adjoint, the unitary and self-adjoint residuals, the
    involuted element per structure, the symmetry residual per (structure,
    star, sign), the pinned residual and the basepoint value."""
    def get(key, make):
        if key not in shared:
            shared[key] = make()
        return shared[key]

    def worst(m):
        return float(np.max(np.linalg.norm(m, axis=(1, 2))))

    spec = class_spec(i)
    res = {}
    d = algebra.dim_alg
    k, rem = divmod(u.dim, d)
    if rem or k % spec["mult"]:
        raise MembershipError(
            f"dimension {u.dim} is not a multiple of {spec['mult']}*{d} for class {i}")
    if u.dim % algebra.struct.shape[0]:
        raise MembershipError("dimension incompatible with the algebra structure")

    ua = get("adjoint", u.adjoint)
    res["unitary"] = get("unitary", lambda: worst(ua.values @ u.values - np.eye(u.dim)))
    if spec["sa"]:
        res["self_adjoint"] = get("self_adjoint", lambda: worst(u.values - ua.values))
    s = class_structure(i, u.dim, algebra)
    if s is not None:
        sharp, star, sign = spec["sharp"], spec["star"], spec["sign"]
        lhs = get(("involute", sharp), lambda: apply_full_involution(u, s))
        rhs = ua if star else u
        res["symmetry"] = get(("symmetry", sharp, star, sign),
                              lambda: worst(lhs.values - sign * rhs.values))

    ok = all(v <= tol for v in res.values())
    if u.base.pinned:
        res["scalar_pinning"] = get("pinned", lambda: pinned_residual(u, algebra))
        lam = get("lambda", lambda: lambda_eval(u, algebra))
        triv, detail = _lambda_trivial(lam, i)
        res["lambda_class"] = 0.0 if triv else 1.0
        res["lambda_detail"] = detail
        ok = ok and res["scalar_pinning"] <= tol and triv
    return KOClassRep(u, i, algebra, ok=ok, residuals=res)


def require_membership(u, i, algebra=None, tol=matcore.DEFAULT_TOL) -> KOClassRep:
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
        return np.real(dt) > 0, f"det={dt:.3f}"
    if kind == "pf_parity":
        try:
            pf = matcore.pfaffian(lam)
        except ValueError as exc:  # a value that is not skew has no Pfaffian
            return False, f"pf_ratio undefined: {exc}"
        ratio = pf / matcore.pfaffian(neutral(i, lam.shape[0] // 2))
        return np.real(ratio) > 0, f"pf_ratio={ratio:.3f}"
    t = np.real(np.trace(lam)) / spec["mult"]
    return abs(t) < BASEPOINT_TRACE_GUARD, f"{kind}={t:.3f}"


def add(u: FnElement, v: FnElement, i, algebra: Algebra = None) -> FnElement:
    """[u] + [v] as diag(u, v); outer blocks concatenate so the class's
    2x2 sharp blocks stay intact."""
    return block_diag_elements(u, v)


def stabilize(u: FnElement, i, algebra: Algebra = None, copies: int = 1) -> FnElement:
    algebra = _default_algebra(u, algebra)
    pad = np.kron(neutral(i, copies), np.eye(algebra.dim_alg, dtype=complex))
    return block_diag_elements(u, constant_element(u.base, pad))


def inverse(u: FnElement, i, algebra: Algebra = None) -> FnElement:
    """u* for odd classes, -u for even ones; classes 2 and 6 need an even
    number of neutral blocks for -u to invert."""
    algebra = _default_algebra(u, algebra)
    if not class_spec(i)["sa"]:
        return u.adjoint()
    if i in (2, 6):
        blocks = u.dim // (algebra.dim_alg * 2)
        if blocks % 2:
            raise ValueError(
                f"class-{i} negation inverts only an even number of blocks; stabilize first")
    return u.scaled(-1.0)


def to_projection(u: FnElement, tol: float = matcore.DEFAULT_TOL) -> FnElement:
    """p = (u + 1)/2 for a self-adjoint unitary u."""
    res = float(np.max(np.linalg.norm(u.values - np.conj(np.swapaxes(u.values, 1, 2)),
                                      axis=(1, 2))))
    if res > tol:
        raise ValueError(f"not self-adjoint (residual {res:.3e})")
    eye = np.eye(u.dim)
    return FnElement(u.base, (u.values + eye) / 2.0)


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
# lambda normalization

def normalize_lambda(u: FnElement, i, algebra: Algebra = None,
                     tol: float = matcore.DEFAULT_TOL) -> FnElement:
    """Move a representative so its basepoint value is the neutral stack.

    Uses constant conjugations (or one-sided multiplications for the
    unitary-only classes) that stay inside the class's connected symmetry
    group, so the invariant signature is unchanged.  Raises when the
    basepoint value represents a nontrivial class.
    """
    algebra = _default_algebra(u, algebra)
    d = algebra.dim_alg
    if not np.array_equal(algebra.struct, np.eye(algebra.struct.shape[0])):
        raise ValueError("lambda normalization supports plain-involution algebras only")
    lam = lambda_eval(u, algebra)
    k = lam.shape[0]
    spec = class_spec(i)
    if k % spec["mult"]:
        raise ValueError("outer dimension is not a multiple of the class size")
    target = neutral(i, k // spec["mult"])
    if np.linalg.norm(lam - target) <= tol:
        return u.copy()

    if i in (0, "KU0"):
        x = _frame_class0(lam, i, tol)
        return u.conjugated(np.kron(x, np.eye(d)))
    if i == 2:
        x = _frame_class2(lam, tol)
        return u.conjugated(np.kron(x, np.eye(d)))
    if i in (4, 6):
        x = _frame_quaternionic(lam, i, tol)
        return u.conjugated(np.kron(x, np.eye(d)))
    if i in (-1, 3):
        s = class_structure(i, k)
        y = _sqrt_unitary(lam)
        a = np.kron(s @ y.conj() @ s.conj().T, np.eye(d))  # sigma(y*)
        b = np.kron(y.conj().T, np.eye(d))
        return FnElement(u.base, a @ u.values @ b)
    if i in (1, 5, "KU1"):
        if i == 1 and np.real(np.linalg.det(lam)) < 0:
            raise ValueError("basepoint value has determinant -1: nontrivial class")
        c = np.kron(lam.conj().T, np.eye(d))
        return FnElement(u.base, u.values @ c)
    raise KeyError(i)


def _frame_class0(lam, i, tol):
    herm_res = np.linalg.norm(lam - lam.conj().T)
    if herm_res > tol:
        raise ValueError("basepoint value is not self-adjoint")
    k = lam.shape[0]
    if abs(np.real(np.trace(lam))) > ZERO_TRACE_GUARD:
        raise ValueError("basepoint value has nonzero half trace: nontrivial class")
    if i == 0:
        real_res = np.linalg.norm(np.imag(lam))
        if real_res > tol:
            raise ValueError("class-0 basepoint value must be real symmetric")
        w, f = np.linalg.eigh(np.real(lam))
        f = f.astype(complex)
    else:
        w, f = np.linalg.eigh(lam)
    n = k // 2
    perm = np.empty(k, dtype=int)
    perm[0::2] = np.arange(n, k)   # +1 eigenvectors (ascending order)
    perm[1::2] = np.arange(0, n)
    x = f[:, perm].conj().T
    if i == 0 and np.real(np.linalg.det(x)) < 0:
        x[0, :] = -x[0, :]
    return x


def _frame_class2(lam, tol):
    k = lam.shape[0]
    if np.linalg.norm(lam - lam.conj().T) > tol or np.linalg.norm(lam + lam.T) > tol:
        raise ValueError("class-2 basepoint value must be self-adjoint and skew")
    w, f = np.linalg.eigh(lam)
    plus = f[:, w > 0]
    cols = []
    for j in range(plus.shape[1]):
        v = plus[:, j]
        cols.append(np.sqrt(2.0) * np.imag(v))
        cols.append(np.sqrt(2.0) * np.real(v))
    g = np.array(cols, dtype=complex).T
    x = g.conj().T
    if np.real(np.linalg.det(x)) < 0:
        raise ValueError("basepoint value has nontrivial Pfaffian sign")
    return x


def _kramers_pairs(space, s):
    """Orthonormal columns (v, S conj(v), ...) spanning `space`."""
    cols = []
    rem = space.copy()
    while rem.shape[1] > 0:
        v = rem[:, 0]
        v = v / np.linalg.norm(v)
        w = s @ v.conj()
        cols.extend([v, w])
        basis = np.column_stack([v, w])
        proj = rem - basis @ (basis.conj().T @ rem)
        q, r = np.linalg.qr(proj)
        keep = np.abs(np.diagonal(r)) > matcore.DEFAULT_TOL  # not yet in the span
        rem = q[:, keep]
    return cols


def _frame_quaternionic(lam, i, tol):
    k = lam.shape[0]
    s = np.real(class_structure(i, k))
    if np.linalg.norm(lam - lam.conj().T) > tol:
        raise ValueError("basepoint value is not self-adjoint")
    if i == 4 and abs(np.real(np.trace(lam))) > ZERO_TRACE_GUARD:
        raise ValueError("basepoint value has nonzero quarter trace: nontrivial class")
    w, f = np.linalg.eigh(lam)
    plus, minus = f[:, w > 0], f[:, w < 0]
    if plus.shape[1] != minus.shape[1]:
        raise ValueError("basepoint value has unbalanced spectrum")
    sc = s.astype(complex)
    if i == 4:
        fcols = _kramers_pairs(plus, sc) + _kramers_pairs(minus, sc)
        tcols = []
        n = k // 4
        for j in range(n):
            e = np.zeros(k, dtype=complex)
            e[4 * j] = 1.0
            tcols.extend([e, sc @ e.conj()])
        for j in range(n):
            e = np.zeros(k, dtype=complex)
            e[4 * j + 2] = 1.0
            tcols.extend([e, sc @ e.conj()])
    else:  # class 6: the antiunitary swaps the eigenspaces
        fcols = []
        for j in range(plus.shape[1]):
            v = plus[:, j]
            fcols.extend([v, sc @ v.conj()])
        tcols = []
        for j in range(k // 2):
            t = np.zeros(k, dtype=complex)
            t[2 * j] = 1.0 / np.sqrt(2.0)
            t[2 * j + 1] = -1j / np.sqrt(2.0)
            tcols.extend([t, sc @ t.conj()])
    fmat = np.column_stack(fcols)
    tmat = np.column_stack(tcols)
    return tmat @ fmat.conj().T


def _normal_eig(m):
    """Spectral decomposition of a normal matrix via its commuting
    Hermitian parts; returns (eigenvalues, orthonormal frame)."""
    h1 = (m + m.conj().T) / 2.0
    h2 = (m - m.conj().T) / 2.0j
    w1, v = np.linalg.eigh(h1)
    mu = np.zeros(m.shape[0], dtype=complex)
    j = 0
    while j < len(w1):
        jj = j
        while jj < len(w1) and abs(w1[jj] - w1[j]) < EIG_CLUSTER_TOL:
            jj += 1
        block = v[:, j:jj]
        w2, q = np.linalg.eigh(block.conj().T @ h2 @ block)
        v[:, j:jj] = block @ q
        mu[j:jj] = w1[j:jj] + 1j * w2
        j = jj
    return mu, v


def _sqrt_unitary(m):
    """Principal square root of a unitary matrix (functions of m, so any
    structural symmetry of m is inherited)."""
    mu, v = _normal_eig(m)
    half = np.exp(0.5j * np.angle(mu))
    return (v * half) @ v.conj().T


# ---------------------------------------------------------------------------
# complex-to-real doubling

def gamma_double(u: FnElement, i, algebra: Algebra = None,
                 tol: float = matcore.DEFAULT_TOL) -> KOClassRep:
    """Send a complex-class element to the class-i element (x, partner(x))
    over the doubled algebra; over a point the result lives on the
    two-point space with the swap involution."""
    algebra = _default_algebra(u, algebra)
    spec = class_spec(i)
    wrap = class_structure(i, u.dim, algebra)
    if wrap is None:
        raise ValueError("gamma_double targets a real class")
    partner = apply_full_involution(u, wrap)
    if spec["star"]:
        partner = partner.adjoint()
    if spec["sign"] < 0:
        partner = partner.scaled(-1.0)

    if u.base.kind == "point":
        base2 = sample_space("twopoints", involution="swap")
        vals = np.stack([u.values[0], partner.values[0]])
        elem = FnElement(base2, vals)
        return check_membership(elem, i, Algebra(base2, algebra.dim_alg,
                                                 algebra.struct, algebra.label), tol)

    d = algebra.struct.shape[0]
    k = u.dim // d
    dbl = Algebra(u.base, 2 * algebra.dim_alg,
                  np.kron(matcore.SWAP2, algebra.struct), "double:" + algebra.label)
    vals = np.zeros((u.base.npoints, 2 * u.dim, 2 * u.dim), dtype=complex)
    v0 = u.values.reshape(-1, k, d, k, d)
    v1 = partner.values.reshape(-1, k, d, k, d)
    out = vals.reshape(-1, k, 2, d, k, 2, d)
    out[:, :, 0, :, :, 0, :] = v0
    out[:, :, 1, :, :, 1, :] = v1
    elem = FnElement(u.base, vals)
    return check_membership(elem, i, dbl, tol)


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
