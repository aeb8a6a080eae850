"""Sampled involutive base spaces and matrix-valued function elements.

Grids are chosen symmetric so every supported involution is an exact
index permutation.  A nonunital algebra C0(X \\ F) is modeled by its
unitization: functions on all of X whose values on the pinned set F
equal a common scalar block; lambda is evaluation there.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
import numpy as np

from . import matcore

SPACE_KINDS = ("point", "twopoints", "interval", "circle", "disk",
               "sphere2", "sphere3", "torus2")
INVOLUTION_NAMES = ("id", "zeta", "sigma", "swap")
# the largest roundoff by which a contraction's computed norm may exceed 1
EXTEND_NORM_TOL = 1e-8


@dataclass(frozen=True)
class BaseSpace:
    kind: str
    involution: str
    shape: tuple
    points: np.ndarray = field(repr=False, compare=False)
    inv_perm: np.ndarray = field(repr=False, compare=False)
    basepoint: int = 0
    pinned: tuple = ()

    @property
    def npoints(self) -> int:
        return int(np.prod(self.shape))

    @property
    def pinned_label(self) -> str:
        return _pinned_label(self)

    def flat(self, *idx) -> int:
        return int(np.ravel_multi_index(idx, self.shape))


def _pinned_label(base: BaseSpace) -> str:
    if not base.pinned:
        return ""
    if base.kind == "circle":
        n = base.shape[0]
        if set(base.pinned) == {0, n // 2}:
            return "@pm1"
        if set(base.pinned) == {0}:
            return "@1"
    if base.kind == "disk":
        nr, nt = base.shape
        if set(base.pinned) == {base.flat(nr - 1, k) for k in range(nt)}:
            return "@boundary"
    if base.kind == "interval" and set(base.pinned) == {0}:
        return "@0"
    if set(base.pinned) == {base.basepoint}:
        return "@1"
    return "@custom"


def sample_space(kind: str, resolution=64, involution: str = "id") -> BaseSpace:
    """Build a symmetric grid on which the involution is an exact permutation."""
    if kind not in SPACE_KINDS:
        raise ValueError(f"unknown space kind {kind!r}")
    if involution not in INVOLUTION_NAMES:
        raise ValueError(f"unknown involution {involution!r}")

    if kind == "point":
        if involution != "id":
            raise ValueError("point supports only the identity involution")
        pts = np.zeros((1, 1))
        return BaseSpace(kind, involution, (1,), pts, np.array([0]), 0)

    if kind == "twopoints":
        pts = np.array([[1.0], [-1.0]])
        if involution == "id":
            perm = np.array([0, 1])
        elif involution == "swap":
            perm = np.array([1, 0])
        else:
            raise ValueError("twopoints supports id or swap")
        return BaseSpace(kind, involution, (2,), pts, perm, 0)

    if kind == "interval":
        n = int(resolution)
        if n < 8:
            raise ValueError("resolution must be >= 8")
        if involution != "id":
            raise ValueError("interval supports only the identity involution")
        ts = np.linspace(0.0, 1.0, n + 1)
        pts = ts.reshape(-1, 1)
        return BaseSpace(kind, involution, (n + 1,), pts, np.arange(n + 1), 0)

    if kind == "circle":
        n = int(resolution)
        if n < 8 or n % 2:
            raise ValueError("circle resolution must be even and >= 8")
        theta = 2.0 * np.pi * np.arange(n) / n
        pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        if involution == "id":
            perm = np.arange(n)
        elif involution == "zeta":
            perm = (-np.arange(n)) % n
        elif involution == "sigma":
            perm = (np.arange(n) + n // 2) % n
        else:
            raise ValueError("circle supports id, zeta, sigma")
        return BaseSpace(kind, involution, (n,), pts, perm, 0)

    if kind == "disk":
        nr, nt = _pair(resolution)
        if nt % 2 or nr < 4 or nt < 8:
            raise ValueError("disk needs radial >= 4 and even angular >= 8 resolution")
        theta = 2.0 * np.pi * np.arange(nt) / nt
        rr = np.linspace(0.0, 1.0, nr)[:, None]
        pts = np.stack([rr * np.cos(theta), rr * np.sin(theta)], -1).reshape(-1, 2)
        idx = np.arange(nr * nt).reshape(nr, nt)
        if involution == "id":
            perm = idx.copy()
        elif involution == "zeta":
            perm = idx[:, (-np.arange(nt)) % nt]
        else:
            raise ValueError("disk supports id, zeta")
        bp = int(idx[nr - 1, 0])
        return BaseSpace(kind, involution, (nr, nt), pts, perm.ravel(), bp)

    if kind == "sphere2":
        nl, nt = _pair(resolution)
        if nl % 2 or nt % 2 or nl < 8 or nt < 8:
            raise ValueError("sphere2 needs even resolutions >= 8")
        lat = np.pi * np.arange(nl + 1) / nl
        lon = 2.0 * np.pi * np.arange(nt) / nt
        s, c = np.sin(lat)[:, None], np.cos(lat)[:, None]
        pts = np.stack([s * np.cos(lon), s * np.sin(lon),
                        np.broadcast_to(c, (nl + 1, nt))], -1).reshape(-1, 3)
        idx = np.arange((nl + 1) * nt).reshape(nl + 1, nt)
        if involution == "id":
            perm = idx.copy()
        elif involution == "zeta":
            perm = idx[:, (-np.arange(nt)) % nt]
        else:
            raise ValueError("sphere2 supports id, zeta")
        bp = int(idx[nl // 2, 0])
        return BaseSpace(kind, involution, (nl + 1, nt), pts, perm.ravel(), bp)

    if kind == "sphere3":
        n1, n2, nt = _triple(resolution)
        if involution != "id":
            raise ValueError("sphere3 supports only the identity involution")
        if n1 % 2 or n2 % 2 or nt % 2 or min(n1, n2, nt) < 8:
            raise ValueError("sphere3 needs even resolutions >= 8")
        psi = np.pi * np.arange(n1 + 1) / n1
        phi = np.pi * np.arange(n2 + 1) / n2
        th = 2.0 * np.pi * np.arange(nt) / nt
        shape = (n1 + 1, n2 + 1, nt)
        sp, cp = np.sin(psi)[:, None, None], np.cos(psi)[:, None, None]
        sf, cf = np.sin(phi)[:, None], np.cos(phi)[:, None]
        pts = np.stack([sp * sf * np.cos(th), sp * sf * np.sin(th),
                        np.broadcast_to(sp * cf, shape),
                        np.broadcast_to(cp, shape)], -1).reshape(-1, 4)
        bp = int(np.ravel_multi_index((n1 // 2, n2 // 2, 0), shape))
        return BaseSpace(kind, involution, shape, pts,
                         np.arange(pts.shape[0]), bp)

    if kind == "torus2":
        n1, n2 = _pair(resolution)
        if n1 < 8 or n2 < 8:
            raise ValueError("torus2 needs resolutions >= 8")
        if involution != "id":
            raise ValueError("torus2 supports only the identity involution")
        t1 = 2.0 * np.pi * np.arange(n1) / n1
        t2 = 2.0 * np.pi * np.arange(n2) / n2
        pts = np.stack(np.meshgrid(t1, t2, indexing="ij"), -1).reshape(-1, 2)
        return BaseSpace(kind, involution, (n1, n2), pts, np.arange(n1 * n2), 0)

    raise AssertionError


def _pair(resolution):
    if isinstance(resolution, (tuple, list)):
        return int(resolution[0]), int(resolution[1])
    return int(resolution), int(resolution)


def _triple(resolution):
    if isinstance(resolution, (tuple, list)):
        return tuple(int(r) for r in resolution)
    return int(resolution), int(resolution), int(resolution)


def with_pinned(base: BaseSpace, where: str) -> BaseSpace:
    """Return a copy marking the closed set where unitized values are scalar."""
    if where == "basepoint":
        return replace(base, pinned=(base.basepoint,))
    if where == "pm1":
        if base.kind != "circle":
            raise ValueError("pm1 pinning is a circle notion")
        return replace(base, pinned=(0, base.shape[0] // 2))
    if where == "boundary":
        if base.kind != "disk":
            raise ValueError("boundary pinning is a disk notion")
        nr, nt = base.shape
        return replace(base, pinned=tuple(base.flat(nr - 1, k) for k in range(nt)))
    raise ValueError(f"unknown pinning {where!r}")


@dataclass
class FnElement:
    """Matrix-valued function on a base space grid; values[p] is dim x dim."""
    base: BaseSpace
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.ndim != 3 or self.values.shape[0] != self.base.npoints \
                or self.values.shape[1] != self.values.shape[2]:
            raise ValueError("values must have shape (npoints, dim, dim)")

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def copy(self) -> "FnElement":
        return FnElement(self.base, self.values.copy())

    def adjoint(self) -> "FnElement":
        return FnElement(self.base, np.conj(np.swapaxes(self.values, 1, 2)))

    def matmul(self, other: "FnElement") -> "FnElement":
        _same_base(self, other)
        return FnElement(self.base, self.values @ other.values)

    def __add__(self, other):
        _same_base(self, other)
        return FnElement(self.base, self.values + other.values)

    def __sub__(self, other):
        _same_base(self, other)
        return FnElement(self.base, self.values - other.values)

    def scaled(self, c) -> "FnElement":
        return FnElement(self.base, c * self.values)

    def __truediv__(self, c) -> "FnElement":
        return FnElement(self.base, self.values / c)

    def involute(self, struct) -> "FnElement":
        return apply_full_involution(self, struct)

    def conjugated(self, x: np.ndarray) -> "FnElement":
        """x u x* pointwise for a constant matrix x."""
        x = np.asarray(x, dtype=complex)
        return FnElement(self.base, np.einsum("ab,pbc,dc->pad",
                                              x, self.values, x.conj()))


def _same_base(u: FnElement, v: FnElement):
    if u.base != v.base:
        raise ValueError("elements live over different base spaces")
    if u.dim != v.dim:
        raise ValueError("dimension mismatch")


def constant_element(base: BaseSpace, m: np.ndarray) -> FnElement:
    m = np.asarray(m, dtype=complex)
    return FnElement(base, np.broadcast_to(m, (base.npoints,) + m.shape).copy())


def block_diag_elements(u: FnElement, v: FnElement) -> FnElement:
    _same_base(u, FnElement(u.base, u.values))
    if u.base != v.base:
        raise ValueError("elements live over different base spaces")
    n = u.base.npoints
    d = u.dim + v.dim
    out = np.zeros((n, d, d), dtype=complex)
    out[:, :u.dim, :u.dim] = u.values
    out[:, u.dim:, u.dim:] = v.values
    return FnElement(u.base, out)


@dataclass(frozen=True)
class Algebra:
    """A function algebra over a base space.

    dim_alg is the block size of the algebra's values: unitization scalars
    are multiples of the dim_alg identity, and basepoint compression works
    per block.  struct is the structure matrix of the algebra's involution
    on the value legs; its size may exceed dim_alg when the algebra carries
    extra tensor factors (quaternionic legs) of its own.
    """
    base: BaseSpace
    dim_alg: int = 1
    struct: np.ndarray = field(default_factory=lambda: np.eye(1, dtype=complex),
                               compare=False)
    label: str = "scalar"

    def key(self):
        return (self.base.kind, self.base.involution, self.base.pinned_label,
                self.label)


def scalar_algebra(base: BaseSpace) -> Algebra:
    return Algebra(base)


def apply_full_involution(u: FnElement, minv, algebra: Algebra = None) -> FnElement:
    """(u^tau)(p) = S u(inv(p))^T S^{-1}: point permutation plus structure."""
    if isinstance(minv, str):
        s = matcore.involution_matrix(minv, u.dim)
    else:
        s = np.asarray(minv, dtype=complex)
    if s.shape[0] != u.dim:
        raise ValueError("structure matrix does not match element dimension")
    pulled = u.values[u.base.inv_perm]
    return FnElement(u.base, s @ np.swapaxes(pulled, 1, 2) @ s.conj().T)


def lambda_eval(u: FnElement, algebra: Algebra = None):
    """Value at the basepoint, compressed over the algebra's inner block
    structure when dim_alg > 1: returns the outer matrix of scalars."""
    v = u.values[u.base.basepoint]
    d = 1 if algebra is None else algebra.dim_alg
    if d == 1:
        return v.copy()
    k = u.dim // d
    blocks = v.reshape(k, d, k, d)
    return np.einsum("aibi->ab", blocks) / d


def scalar_block_residual(v: np.ndarray, d: int) -> float:
    """How far a matrix is from (outer matrix) kron identity_d."""
    k = v.shape[0] // d
    m = np.einsum("aibi->ab", v.reshape(k, d, k, d)) / d
    return float(np.linalg.norm(v - np.kron(m, np.eye(d))))


def pinned_residual(u: FnElement, algebra: Algebra = None) -> float:
    """Residual of the unitization condition: all pinned values equal one
    common scalar block."""
    base = u.base
    if not base.pinned:
        return 0.0
    d = 1 if algebra is None else algebra.dim_alg
    ref = u.values[base.pinned[0]]
    res = scalar_block_residual(ref, d)
    for p in base.pinned[1:]:
        res = max(res, float(np.linalg.norm(u.values[p] - ref)))
        res = max(res, scalar_block_residual(u.values[p], d))
    return res


# ---------------------------------------------------------------------------
# Short exact sequences 0 -> C0(X \ F) -> C(X) -> C(F) -> 0

@dataclass(frozen=True)
class SESDescriptor:
    name: str
    total: BaseSpace
    closed_flat: tuple
    quotient: BaseSpace
    quotient_map: tuple  # quotient flat index -> total flat index


def ses_registry(name: str, resolution=None) -> SESDescriptor:
    """Fixed registry of supported short exact sequences."""
    if name == "circle-sigma":
        n = int(resolution or 64)
        total = sample_space("circle", n, "sigma")
        quot = sample_space("twopoints", involution="swap")
        return SESDescriptor(name, total, (0, n // 2), quot, (0, n // 2))
    if name == "circle-zeta":
        n = int(resolution or 64)
        total = sample_space("circle", n, "zeta")
        quot = sample_space("twopoints", involution="id")
        return SESDescriptor(name, total, (0, n // 2), quot, (0, n // 2))
    if name == "circle-id":
        n = int(resolution or 64)
        total = sample_space("circle", n, "id")
        quot = sample_space("point")
        return SESDescriptor(name, total, (0,), quot, (0,))
    if name in ("disk-id", "disk-zeta"):
        inv = "id" if name == "disk-id" else "zeta"
        nr, nt = _pair(resolution or (33, 64))
        total = sample_space("disk", (nr, nt), inv)
        quot = sample_space("circle", nt, inv)
        ring = tuple(total.flat(nr - 1, k) for k in range(nt))
        return SESDescriptor(name, total, ring, quot, ring)
    raise KeyError(f"unsupported SES {name!r}")


SES_NAMES = ("circle-sigma", "circle-zeta", "circle-id", "disk-id",
             "disk-zeta", "toeplitz")


def ideal_base(ses: SESDescriptor) -> BaseSpace:
    """Total space with the closed set pinned: where boundary images live."""
    return replace(ses.total, pinned=tuple(ses.closed_flat))


def restrict(u: FnElement, ses: SESDescriptor) -> FnElement:
    """Restriction to the closed set, as an element over the quotient space."""
    if u.base.kind != ses.total.kind or u.base.shape != ses.total.shape:
        raise ValueError("element does not live over the SES total space")
    vals = u.values[np.array(ses.quotient_map)]
    return FnElement(ses.quotient, vals)


def extend_contraction(b: FnElement, ses: SESDescriptor,
                       strategy: str = "natural") -> FnElement:
    """Extend a contraction on the closed set to one on the total space.

    Strategies: 'natural' (radial on disks, arc-linear on circles),
    'radial', 'arclinear' (aliases of natural where they apply), and
    'taper0' (natural extension scaled to 0 away from the closed set).
    Restriction of the result equals b exactly on grid points.
    """
    norms = np.linalg.norm(b.values, ord=2, axis=(1, 2))
    if np.max(norms) > 1.0 + EXTEND_NORM_TOL:
        raise ValueError("input values must be contractions")
    if strategy in ("natural", "radial", "arclinear"):
        return _natural_extension(b, ses)
    if strategy == "taper0":
        ext = _natural_extension(b, ses)
        g = 1.0 - 2.0 * _closed_set_distance(ses)
        g = np.clip(g, 0.0, 1.0)
        return FnElement(ext.base, ext.values * g[:, None, None])
    raise ValueError(f"unknown extension strategy {strategy!r}")


def _natural_extension(b: FnElement, ses: SESDescriptor) -> FnElement:
    total = ses.total
    if total.kind == "disk":
        nr, nt = total.shape
        if b.base.kind != "circle" or b.base.shape[0] != nt:
            raise ValueError("disk extension needs a matching circle element")
        r = (np.arange(nr) / (nr - 1))[:, None, None, None]
        return FnElement(total, (r * b.values).reshape(-1, b.dim, b.dim))
    if total.kind == "circle":
        n = total.shape[0]
        closed = sorted(ses.closed_flat)
        if b.base.npoints != len(closed):
            raise ValueError("closed-set values do not match the SES")
        out = np.zeros((n, b.dim, b.dim), dtype=complex)
        vals = {c: b.values[i] for i, c in enumerate(ses.quotient_map)}
        arcs = list(zip(closed, closed[1:] + [closed[0] + n]))
        for lo, hi in arcs:
            k = np.arange(lo, hi + 1)
            s = ((k - lo) / (hi - lo))[:, None, None]
            out[k % n] = (1.0 - s) * vals[lo % n] + s * vals[hi % n]
        return FnElement(total, out)
    raise ValueError(f"no extension strategy for total space {total.kind!r}")


def _closed_set_distance(ses: SESDescriptor) -> np.ndarray:
    """Normalized distance from the closed set: 1 at the farthest points."""
    total = ses.total
    if total.kind == "disk":
        nr, nt = total.shape
        return np.repeat(1.0 - np.arange(nr) / (nr - 1), nt)
    if total.kind == "circle":
        n = total.shape[0]
        closed = np.array(sorted(ses.closed_flat))
        idx = np.arange(n)
        dist = np.min(np.minimum((idx[:, None] - closed) % n,
                                 (closed - idx[:, None]) % n), axis=1)
        gaps = np.diff(np.concatenate([closed, [closed[0] + n]]))
        return dist / (np.max(gaps) / 2.0)
    raise ValueError(f"no distance profile for {total.kind!r}")
