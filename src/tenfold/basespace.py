"""Sampled involutive base spaces and matrix-valued function elements.

Grids are chosen symmetric so every supported involution is an exact
index permutation.  A nonunital algebra C0(X \\ F) is modeled by its
unitization: functions on all of X whose values on the pinned set F
equal a common scalar block; lambda is evaluation there.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
import functools
import math
from typing import Callable, NamedTuple

import numpy as np

from . import matcore

# the largest roundoff by which a contraction's computed norm may exceed 1
EXTEND_NORM_TOL = 1e-8


class _Axis(NamedTuple):
    """One resolution axis: at resolution n it has n + pole grid points."""
    pole: int  # the far pole or endpoint, a point beyond the n steps
    minimum: int
    even: bool
    at: int  # the basepoint's place: 0 first, 1 middle, 2 last point (halves)
    coords: Callable  # number of grid points -> their coordinates


# a full turn in n steps; even, so that zeta and sigma pair grid points
_TURN = _Axis(0, 8, True, 0, lambda m: 2.0 * np.pi * np.arange(m) / m)
# pole to pole in n steps, basepoint on the equator
_POLAR = _Axis(1, 8, True, 1, lambda m: np.pi * np.arange(m) / (m - 1))
_UNIT = _Axis(1, 8, False, 0, lambda m: np.linspace(0.0, 1.0, m))
# n radii from the center to the rim, basepoint on the rim
_RADIUS = _Axis(0, 4, False, 2, _UNIT.coords)


# A collar rule gives each SES total point closed-set (quotient) indices and
# weights, a column per term, and its normalized distance from the closed set

def _radial_collar(total, closed):
    """Radial on the disk, whose closed set is its rim in angle order: point
    (i, j) takes radius i / (nr - 1) times the rim value at angle j."""
    nr, nt = total.shape
    r = np.arange(nr) / (nr - 1)
    return np.tile(np.arange(nt), nr)[:, None], np.repeat(r, nt)[:, None], \
        np.repeat(1.0 - r, nt)


def _arc_collar(total, closed):
    """Linear along each arc between consecutive closed points.  A closed
    point takes the arc that starts there, but the first takes the arc that
    wraps around onto it; both terms are kept there, one of weight 0."""
    n = total.shape[0]
    order = np.argsort(closed, kind="stable")
    lo = np.asarray(closed)[order]
    hi = np.append(lo[1:], lo[0] + n)
    k = np.arange(n) + n * (np.arange(n) <= lo[0])  # unwrapped onto (lo[0], lo[0] + n]
    arc = np.searchsorted(lo, k, side="right") - 1
    s = (k - lo[arc]) / (hi[arc] - lo[arc])
    index = np.stack([order[arc], order[(arc + 1) % len(lo)]], 1)
    return index, np.stack([1.0 - s, s], 1), \
        np.minimum(k - lo[arc], hi[arc] - k) / (np.max(hi - lo) / 2.0)


class _Kind(NamedTuple):
    involutions: tuple
    axes: tuple  # an _Axis per resolution axis
    points: Callable  # axis coordinates, as an open mesh -> point coordinates
    fixed: tuple = ()  # the grid shape of a kind without resolution axes
    pins: dict = {"basepoint": "@1"}  # with_pinned names it has -> labels
    collar: Callable = None  # on an SES's total space: the rule of its collar


SPACES = {
    "point": _Kind(("id",), (), lambda: (np.zeros(1),), fixed=(1,)),
    "twopoints": _Kind(("id", "swap"), (), lambda: (np.array([1.0, -1.0]),),
                       fixed=(2,)),
    "interval": _Kind(("id",), (_UNIT,), lambda t: (t,), pins={"basepoint": "@0"}),
    "circle": _Kind(("id", "zeta", "sigma"), (_TURN,),
                    lambda t: (np.cos(t), np.sin(t)),
                    pins={"pm1": "@pm1", "basepoint": "@1"}, collar=_arc_collar),
    "disk": _Kind(("id", "zeta"), (_RADIUS, _TURN),
                  lambda r, t: (r * np.cos(t), r * np.sin(t)),
                  pins={"boundary": "@boundary", "basepoint": "@1"},
                  collar=_radial_collar),
    "sphere2": _Kind(("id", "zeta"), (_POLAR, _TURN),
                     lambda a, t: (np.sin(a) * np.cos(t), np.sin(a) * np.sin(t),
                                   np.cos(a))),
    "sphere3": _Kind(("id",), (_POLAR, _POLAR, _TURN),
                     lambda a, b, t: (np.sin(a) * np.sin(b) * np.cos(t),
                                      np.sin(a) * np.sin(b) * np.sin(t),
                                      np.sin(a) * np.cos(b), np.cos(a))),
    # no involution acts on the torus angles, so they may be odd
    "torus2": _Kind(("id",), (_TURN._replace(even=False),) * 2, lambda s, t: (s, t)),
}
SPACE_KINDS = tuple(SPACES)


def _half_turn(m):
    return (np.arange(m) + m // 2) % m


# each involution permutes the last grid axis, of m points
_LAST_AXIS = {"id": np.arange, "zeta": lambda m: (-np.arange(m)) % m,
              "sigma": _half_turn, "swap": _half_turn}


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
        return math.prod(self.shape)

    @property
    def pinned_label(self) -> str:
        return _pinned_label(self)


def _pinned_label(base: BaseSpace) -> str:
    """The label of the named closed set the pinned set is, else @custom."""
    if not base.pinned:
        return ""
    for where, label in SPACES[base.kind].pins.items():
        if set(_PINNED[where](base)) == set(base.pinned):
            return label
    return "@custom"


def grid_shape(kind: str, resolution) -> tuple:
    """The shape of a kind's grid.  The resolution is an integer for every
    axis or a list or tuple of one per axis; each axis holds its
    resolution's steps plus its pole."""
    if kind not in SPACE_KINDS:
        raise ValueError(f"unknown space kind {kind!r}")
    row = SPACES[kind]
    if not isinstance(resolution, (tuple, list)):
        resolution = (resolution,) * len(row.axes)
    sizes = tuple(int(n) for n in resolution)
    if len(sizes) != len(row.axes):
        raise ValueError(f"{kind} resolution needs {len(row.axes)} axes, not {len(sizes)}")
    for n, ax in zip(sizes, row.axes):
        if n < ax.minimum or ax.even and n % 2:
            raise ValueError(f"{kind} resolution {n} must be "
                             f"{'even and ' * ax.even}>= {ax.minimum}")
    return row.fixed + tuple(n + ax.pole for n, ax in zip(sizes, row.axes))


def sample_space(kind: str, resolution=64, involution: str = "id") -> BaseSpace:
    """Build a symmetric grid on which the involution is an exact permutation."""
    shape = grid_shape(kind, resolution)
    row = SPACES[kind]
    if involution not in row.involutions:
        raise ValueError(f"{kind} supports the involutions "
                         f"{', '.join(row.involutions)}, not {involution!r}")
    xs = row.points(*np.ix_(*(ax.coords(m) for m, ax in zip(shape, row.axes))))
    pts = np.stack([np.broadcast_to(x, shape) for x in xs], -1).reshape(-1, len(xs))
    grid = np.arange(math.prod(shape)).reshape(shape)
    perm = grid[..., _LAST_AXIS[involution](shape[-1])].ravel()
    # a kind without axes has its basepoint at 0 too
    at = tuple((m - 1) * ax.at // 2 for m, ax in zip(shape, row.axes)) or 0
    return BaseSpace(kind, involution, shape, pts, perm, int(grid[at]))


# the closed sets with_pinned names, as flat indices of a base's grid
_PINNED = {
    "basepoint": lambda b: (b.basepoint,),
    "pm1": lambda b: (0, b.shape[0] // 2),  # z = 1 and z = -1 on the circle
    # the disk's boundary circle r = 1, its last ring of grid points
    "boundary": lambda b: tuple(range(b.npoints - b.shape[1], b.npoints)),
}


def with_pinned(base: BaseSpace, where: str) -> BaseSpace:
    """Return a copy marking the closed set where unitized values are scalar."""
    if where not in SPACES[base.kind].pins:
        raise ValueError(f"{base.kind} has no pinning {where!r}")
    return replace(base, pinned=_PINNED[where](base))


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


def _same_base(u: FnElement, v: FnElement):
    if u.base != v.base:
        raise ValueError("elements live over different base spaces")
    if u.dim != v.dim:
        raise ValueError("dimension mismatch")


def constant_element(base: BaseSpace, m: np.ndarray) -> FnElement:
    m = np.asarray(m, dtype=complex)
    return FnElement(base, np.broadcast_to(m, (base.npoints,) + m.shape).copy())


def block_diag_elements(u: FnElement, v: FnElement) -> FnElement:
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
    """The algebra on the value legs of a function element.

    dim_alg is the block size of the algebra's values: unitization scalars
    are multiples of the dim_alg identity, and basepoint compression works
    per block.  struct is the structure matrix of the algebra's involution
    on the value legs; its size may exceed dim_alg when the algebra carries
    extra tensor factors (quaternionic legs) of its own.  The algebra does
    not depend on the base space, which the element carries.
    """
    dim_alg: int
    struct: np.ndarray = field(compare=False)
    label: str


def _named(dim_alg: int, struct, label: str) -> Algebra:
    s = np.array(struct, dtype=complex)
    s.flags.writeable = False
    return Algebra(dim_alg, s, label)


# the algebras the invariant catalog keys on, by label; structs are read-only
ALGEBRAS = {a.label: a for a in (
    _named(1, np.eye(1), "scalar"),
    _named(2, matcore.J2, "m2"),
    _named(2, np.eye(2), "qc2-tr"),
    _named(2, matcore.J2, "qc2-sharp"),
    _named(2, matcore.SWAP2, "qc2-trt"),
    _named(2, np.kron(matcore.J2, np.eye(2)), "m2qc2"),
)}
SCALAR = ALGEBRAS["scalar"]


def apply_full_involution(u: FnElement, minv, out: np.ndarray = None) -> FnElement:
    """(u^tau)(p) = S u(inv(p))^T S^{-1} for the structure matrix S: point
    permutation plus structure.  With `out`, a C-contiguous complex array
    of u's values shape, the values are written there (the same bits) and
    the returned element holds `out`."""
    s = np.asarray(minv, dtype=complex)
    if s.shape[0] != u.dim:
        raise ValueError("structure matrix does not match element dimension")
    gather = _signed_permutation(s)
    if gather is None:
        pulled = u.values[u.base.inv_perm]
        return FnElement(u.base, np.matmul(s @ np.swapaxes(pulled, 1, 2), s.conj().T,
                                           out=out))
    # one take from the flat stack, at inv(p) * d*d plus the structure's offsets;
    # "clip" because take buffers its out= under the default "raise", and
    # these indices are in range by construction
    offsets, signs = gather
    d = u.dim
    out = np.take(u.values, (u.base.inv_perm * (d * d))[:, None, None] + offsets,
                  out=out, mode="clip")
    out *= signs
    out += 0.0  # -0.0 to +0.0, which the product gives where u vanishes
    return FnElement(u.base, out)


def _signed_permutation(s: np.ndarray):
    """(offsets, signs) if s is a real signed permutation matrix, else None:
    S = diag(sign) P gives (S m^T S^-1)[a, b] = sign_a sign_b m[perm_b, perm_a],
    so offsets[a, b] = perm_b d + perm_a indexes a C-ordered d x d matrix m and
    signs[a, b] = sign_a sign_b.  Both are d x d, built once per structure
    and returned read-only."""
    return _signed_gather(s.dtype.str, s.shape, s.tobytes())


@functools.lru_cache(maxsize=256)
def _signed_gather(dtype: str, shape: tuple, data: bytes):
    s = np.frombuffer(data, dtype).reshape(shape)
    n = len(s)
    if s.shape != (n, n) or s.imag.any():
        return None
    perm = np.abs(s.real).argmax(axis=1)
    sign = s.real[np.arange(n), perm]
    if (np.count_nonzero(s) != n or (np.abs(sign) != 1.0).any()
            or np.bincount(perm, minlength=n).max() > 1):
        return None
    offsets, signs = perm * n + perm[:, None], sign[:, None] * sign
    offsets.flags.writeable = signs.flags.writeable = False
    return offsets, signs


def block_compress(v: np.ndarray, d: int) -> np.ndarray:
    """The outer matrix m of v = m kron identity_d: each d x d block's
    trace over d.  v may be a stack of matrices."""
    k = v.shape[-1] // d
    return np.einsum("...aibi->...ab", v.reshape(v.shape[:-2] + (k, d, k, d))) / d


def lambda_eval(u: FnElement, algebra: Algebra = SCALAR):
    """Value at the basepoint, compressed over the algebra's inner block
    structure when dim_alg > 1: returns the outer matrix of scalars."""
    v = u.values[u.base.basepoint]
    d = algebra.dim_alg
    return v.copy() if d == 1 else block_compress(v, d)


def scalar_block_residuals(vals: np.ndarray, d: int) -> np.ndarray:
    """How far each matrix of a (k, n, n) stack is from (outer matrix) kron
    identity_d: the bits of block_compress, np.kron and np.linalg.norm per
    matrix."""
    kron = block_compress(vals, d)[:, :, None, :, None] * np.eye(d)[:, None, :]
    return matcore.frobenius_norms(vals - kron.reshape(vals.shape))


def pinned_residual(u: FnElement, algebra: Algebra = SCALAR) -> float:
    """Residual of the unitization condition: all pinned values equal one
    common scalar block; NaN if any pinned value is not finite."""
    if not u.base.pinned:
        return 0.0
    vals = u.values[list(u.base.pinned)]
    if not np.isfinite(vals).all():
        return math.nan
    # one pinned point leaves an empty stack of differences
    res = matcore.frobenius_norms(vals[1:] - vals[0]).max(initial=0.0)
    if algebra.dim_alg > 1:  # every matrix is a scalar block of size 1
        res = max(res, scalar_block_residuals(vals, algebra.dim_alg).max())
    return float(res)


# ---------------------------------------------------------------------------
# Short exact sequences 0 -> C0(X \ F) -> C(X) -> C(F) -> 0

@dataclass(frozen=True)
class SESDescriptor:
    name: str
    total: BaseSpace
    closed_flat: tuple  # quotient flat index -> total flat index
    quotient: BaseSpace
    # the collar rule's indices and weights, and the taper0 profile
    collar: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rule = SPACES[self.total.kind].collar
        if rule is None:
            raise ValueError(f"no contraction extends over a {self.total.kind}")
        index, weight, dist = rule(self.total, self.closed_flat)
        object.__setattr__(self, "collar", (index, weight,
                                            np.clip(1.0 - 2.0 * dist, 0.0, 1.0)))


# name -> the total space's kind and involution, the closed set (a
# with_pinned name), the quotient's kind and involution, default resolution
_SES = {
    "circle-sigma": ("circle", "sigma", "pm1", "twopoints", "swap", 64),
    "circle-zeta": ("circle", "zeta", "pm1", "twopoints", "id", 64),
    "circle-id": ("circle", "id", "basepoint", "point", "id", 64),
    "disk-id": ("disk", "id", "boundary", "circle", "id", (33, 64)),
    "disk-zeta": ("disk", "zeta", "boundary", "circle", "zeta", (33, 64)),
}
SES_NAMES = (*_SES, "toeplitz")
LIFT_STRATEGIES = ("natural", "taper0")


def ses_registry(name: str, resolution=None) -> SESDescriptor:
    """Fixed registry of supported short exact sequences."""
    if name not in _SES:
        raise KeyError(f"unsupported SES {name!r}")
    kind, involution, pin, qkind, qinvolution, default = _SES[name]
    total = sample_space(kind, default if resolution is None else resolution,
                         involution)
    closed = with_pinned(total, pin).pinned
    quotient = sample_space(qkind, len(closed), qinvolution)
    return SESDescriptor(name, total, closed, quotient)


def ideal_base(ses: SESDescriptor) -> BaseSpace:
    """Total space with the closed set pinned: where boundary images live."""
    return replace(ses.total, pinned=tuple(ses.closed_flat))


def restrict(u: FnElement, ses: SESDescriptor) -> FnElement:
    """Restriction to the closed set, as an element over the quotient space."""
    if u.base.kind != ses.total.kind or u.base.shape != ses.total.shape:
        raise ValueError("element does not live over the SES total space")
    vals = u.values[np.array(ses.closed_flat)]
    return FnElement(ses.quotient, vals)


def extend_contraction(b: FnElement, ses: SESDescriptor,
                       strategy: str = "natural") -> FnElement:
    """Extend a contraction on the closed set to one on the total space.

    Strategies: 'natural' (the SES collar's weighted sum: radial on disks,
    arc-linear on circles) and 'taper0' (natural scaled to 0 away from the
    closed set).  Restriction of the result equals b exactly on grid points.
    """
    require_contraction(b)
    return collar_extension(b, ses, strategy)


def require_contraction(b: FnElement):
    """Refuse values whose 2-norm exceeds 1 by more than EXTEND_NORM_TOL."""
    if np.max(np.linalg.norm(b.values, ord=2, axis=(1, 2))) > 1.0 + EXTEND_NORM_TOL:
        raise ValueError("input values must be contractions")


def _check_strategy(strategy: str):
    if strategy not in LIFT_STRATEGIES:
        raise ValueError(f"unknown extension strategy {strategy!r}")


def collar_profile(ses: SESDescriptor, strategy: str = "natural"):
    """(rho, k) with collar_extension(b, ses, strategy) at total point p equal
    to the real multiple rho[p] b[k[p]], up to roundoff, where the collar has
    one term per point (the disk's radial collar); None where it has more."""
    _check_strategy(strategy)
    index, weight, taper = ses.collar
    if index.shape[1] != 1:
        return None
    rho = weight[:, 0] * taper if strategy == "taper0" else weight[:, 0]
    return rho, index[:, 0]


def collar_extension(b: FnElement, ses: SESDescriptor,
                     strategy: str = "natural") -> FnElement:
    """extend_contraction without its 2-norm check, for values already known
    to be contractions within EXTEND_NORM_TOL."""
    _check_strategy(strategy)
    if b.base != ses.quotient:
        raise ValueError("values are not over the SES quotient")
    index, weight, taper = ses.collar
    terms = weight[:, :, None, None] * b.values[index]
    # summed from the first term, not from 0, which would turn -0.0 to +0.0
    out = functools.reduce(np.add, terms.swapaxes(0, 1))
    if strategy == "taper0":
        out = out * taper[:, None, None]
    return FnElement(ses.total, out)
