"""Named constructors for the cataloged generators: every explicit unitary
the library ships, each returned as a checked class representative with a
frozen expected signature.

One registry, `ENTRIES`: each row names its class, its space and its
builder.  A grid row's space `kind[/involution][@1|@0]` is the base its
builder evaluates on (`_base`); the four Calkin-picture rows
(`shift-algebra`) and the four shift-class rows (`calkin-quotient`) are
exact and build without a grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable
import numpy as np

from . import matcore, toeplitz
from .basespace import ALGEBRAS, SCALAR, BaseSpace, FnElement, sample_space, with_pinned
from .invariants import ALGEBRA_FRAMES, signature
from .symclass import check_membership

DEFAULT_RES = 64
# an integer resolution on the 3-sphere means this many steps per angle: the
# winding integral costs the cube of it, and 20 already reads the degree
SPHERE3_RES = 20
# residuals of the generators are roundoff; anything above this is a defect
MEMBERSHIP_TOL = 1e-10
# exact space -> (membership check, what the check is called)
_EXACT_CHECKS = {
    "shift-algebra": (toeplitz.check_membership_exact, "exact membership"),
    "calkin-quotient": (toeplitz.check_membership_quotient,
                        "exact quotient membership"),
}


@dataclass
class CatalogEntry:
    name: str
    class_id: object
    space: str
    build: Callable  # grid rows: base -> (values, ALGEBRAS entry); exact: () -> element
    description: str
    expected: tuple
    torsion: bool = False

    @property
    def exact(self) -> bool:
        return self.space in _EXACT_CHECKS


def _base(space: str, resolution) -> BaseSpace:
    """The grid a row's space names; an @ suffix pins the basepoint (t = 0
    on the interval, hence @0 there)."""
    kind, _, pin = space.partition("@")
    kind, _, involution = kind.partition("/")
    if kind == "sphere3" and not isinstance(resolution, tuple):
        resolution = SPHERE3_RES
    base = sample_space(kind, resolution, involution or "id")
    return with_pinned(base, "basepoint") if pin else base


def _zvals(base):
    return base.points[:, 0] + 1j * base.points[:, 1]


def _constant(m):
    m = np.asarray(m, dtype=complex)
    return lambda base: (np.broadcast_to(m, (base.npoints,) + m.shape).copy(), SCALAR)


# -- interval (cone-algebra) generators ---------------------------------------

def _x0_values(base):
    t = base.points[:, 0]
    root = 2.0 * np.sqrt(t - t * t)
    vals = np.zeros((base.npoints, 4, 4), dtype=complex)
    vals[:, 0, 0] = 1.0 - 2.0 * t
    vals[:, 0, 3] = root
    vals[:, 1, 1] = 1.0
    vals[:, 2, 2] = -1.0
    vals[:, 3, 0] = root
    vals[:, 3, 3] = 2.0 * t - 1.0
    return vals


def qc_generators(resolution: int = DEFAULT_RES):
    """The canonical (h, x, k) triple satisfying the cone-algebra relations."""
    base = _base("interval@0", resolution)
    t = base.points[:, 0]
    h = np.zeros((base.npoints, 2, 2), dtype=complex)
    k = np.zeros((base.npoints, 2, 2), dtype=complex)
    x = np.zeros((base.npoints, 2, 2), dtype=complex)
    h[:, 0, 0] = t
    k[:, 1, 1] = t
    x[:, 1, 0] = np.sqrt(t - t * t)
    return FnElement(base, h), FnElement(base, x), FnElement(base, k)


def _x0(base):
    return _x0_values(base), ALGEBRAS["qc2-tr"]


def _x2(base):
    w = ALGEBRA_FRAMES["qc2-sharp"]
    return w @ _x0_values(base) @ w.conj().T, ALGEBRAS["qc2-sharp"]


def _x6(base):
    return _x0_values(base), ALGEBRAS["qc2-trt"]


def _x4(base):
    x0 = _x0_values(base)
    pad = np.diag([1.0 + 0j, 1.0, -1.0, -1.0])
    vals = np.zeros((base.npoints, 8, 8), dtype=complex)
    vals[:, :4, :4] = x0
    vals[:, 4:, 4:] = pad
    qhat = ALGEBRA_FRAMES["m2qc2"]
    vals = qhat @ vals @ qhat.conj().T
    return vals, ALGEBRAS["m2qc2"]


# -- circle generators ------------------------------------------------------------

def _identity_loop(base):
    return _zvals(base)[:, None, None] * np.eye(1)[None], SCALAR


def _quaternionic_loop(base):
    q = matcore.conjugator_q(1)
    vals = np.zeros((base.npoints, 4, 4), dtype=complex)
    vals[:] = np.eye(4)
    vals[:, 0, 0] = _zvals(base)
    return q @ vals @ q.conj().T, ALGEBRAS["m2"]


def _double_loop(base):
    return (_zvals(base) ** 2)[:, None, None] * np.eye(1)[None], SCALAR


def _diag_z(low):
    def build(base):
        z = _zvals(base)
        vals = np.zeros((base.npoints, 2, 2), dtype=complex)
        vals[:, 0, 0] = z
        vals[:, 1, 1] = low(z)
        return vals, SCALAR
    return build


def _reflection_block(base):
    x, y = base.points[:, 0], base.points[:, 1]
    vals = np.zeros((base.npoints, 4, 4), dtype=complex)
    vals[:, 0, 0] = 1.0
    vals[:, 1, 1] = 1.0
    vals[:, 2, 2] = x
    vals[:, 2, 3] = y
    vals[:, 3, 2] = y
    vals[:, 3, 3] = -x
    return vals, SCALAR


def _imaginary_reflection(s):
    # paper prints both corner entries as +y, which is not unitary off the
    # fixed points; the trace-free version is
    def build(base):
        x, y = base.points[:, 0], base.points[:, 1]
        vals = np.zeros((base.npoints, 2, 2), dtype=complex)
        vals[:, 0, 0] = y
        vals[:, 0, 1] = s * 1j * x
        vals[:, 1, 0] = -s * 1j * x
        vals[:, 1, 1] = -y
        return vals, SCALAR
    return build


def _half_arc(low):
    def build(base):
        n = base.npoints
        top = np.arange(n) <= n // 2
        zz = _zvals(base) ** 2
        vals = np.zeros((n, 2, 2), dtype=complex)
        vals[:, 0, 0] = np.where(top, zz, 1.0)
        vals[:, 1, 1] = np.where(top, 1.0, low(zz))
        return vals, SCALAR
    return build


# -- sphere and torus generators ---------------------------------------------------

def _band_flattening(base):
    x, y, z = base.points.T
    vals = np.array([[z, x - 1j * y], [x + 1j * y, -z]], dtype=complex)
    return vals.transpose(2, 0, 1).copy(), SCALAR


def _sphere3_loop(base):
    x, y, z, w = base.points.T
    vals = np.array([[1j * z - w, 1j * x + y], [1j * x - y, -1j * z - w]])
    return vals.transpose(2, 0, 1).copy(), SCALAR


def _torus_bott(base):
    """A traceless self-adjoint unitary whose off-diagonal profile is carried
    by a bump on one half of the first circle and by a conj(w)-twisted bump
    on the other, so its projection has unit Chern number."""
    t1 = base.points[:, 0]
    w = np.exp(1j * base.points[:, 1])
    alpha = np.cos(t1)
    g = np.where(t1 <= np.pi, np.sin(t1), 0.0)
    h = np.where(t1 > np.pi, -np.sin(t1), 0.0)
    gamma = g + h * np.conj(w)
    vals = np.zeros((base.npoints, 2, 2), dtype=complex)
    vals[:, 0, 0] = alpha
    vals[:, 0, 1] = gamma
    vals[:, 1, 0] = np.conj(gamma)
    vals[:, 1, 1] = -alpha
    return vals, SCALAR


# -- exact Calkin-picture and shift-class generators --------------------------------

def _calkin_parts():
    """1, 2e and 0 of the shift algebra, e the rank-one projection."""
    return (toeplitz.one(1), toeplitz.rank_one_e().scaled(toeplitz.FC(2)),
            toeplitz.zero(1))


def _calkin_k0():
    one, e2, z0 = _calkin_parts()
    return toeplitz.from_blocks([[one, z0], [z0, e2 - one]])


def _calkin_k1():
    one, e2, _ = _calkin_parts()
    return one - e2


def _calkin_k2():
    one, e2, z0 = _calkin_parts()
    i = toeplitz.FC_I
    return toeplitz.from_blocks([[z0, (one - e2).scaled(i)],
                                 [(e2 - one).scaled(i), z0]])


def _calkin_k4():
    one, e2, z0 = _calkin_parts()
    return toeplitz.from_blocks([[one, z0, z0, z0], [z0, one, z0, z0],
                                 [z0, z0, e2 - one, z0], [z0, z0, z0, e2 - one]])


def _shift_k2():
    s, z0 = toeplitz.shift(), toeplitz.zero(1)
    return toeplitz.from_blocks([[z0, s.scaled(toeplitz.FC_I)],
                                 [s.adjoint().scaled(toeplitz.FC(0, -1)), z0]])


def _shift_k3():
    s, z0 = toeplitz.shift(), toeplitz.zero(1)
    return toeplitz.from_blocks([[s, z0], [z0, s.adjoint()]])


def _shift_k5():
    s, z0 = toeplitz.shift(), toeplitz.zero(1)
    return toeplitz.from_blocks([[s, z0], [z0, s]])


# -- registry ----------------------------------------------------------------------

_E = CatalogEntry
ENTRIES = {e.name: e for e in (
    _E("x-1", -1, "circle/id@1", _identity_loop, "identity loop", (1,)),
    _E("x0", 0, "interval@0", _x0, "cone-relation unitary", (-1,)),
    _E("x1", 1, "circle/zeta@1", _identity_loop, "identity loop", (1,)),
    _E("x2", 2, "interval@0", _x2, "frame-rotated cone unitary", (-1,)),
    _E("x3", 3, "circle/id@1", _quaternionic_loop, "quaternionic-frame loop",
       (1,)),
    _E("x4", 4, "interval@0", _x4, "quaternionic cone unitary", (-1,)),
    _E("x5", 5, "circle/zeta@1", _quaternionic_loop, "quaternionic-frame loop",
       (1,)),
    _E("x6", 6, "interval@0", _x6, "cone unitary, swapped-transpose form",
       (-1,)),
    _E("const_k0", 0, "point", _constant(np.eye(2)), "constant 1_2", (1,)),
    _E("const_k1", 1, "point", _constant([[-1.0]]), "constant -1", (1,),
       torsion=True),
    _E("const_k2", 2, "point", _constant([[0, -1j], [1j, 0]]), "constant -I2",
       (1,), torsion=True),
    _E("const_k4", 4, "point", _constant(np.eye(4)), "constant 1_4", (1,)),
    _E("sphere_ko0", 0, "sphere2/zeta@1", _band_flattening,
       "degree-one band flattening", (-1, 0)),
    _E("sphere_ko6", 6, "sphere2/id@1", _band_flattening,
       "degree-one band flattening", (-1,)),
    _E("sphere3_ko5", 5, "sphere3/id@1", _sphere3_loop,
       "degree-one 3-sphere loop (derived invariant)", (-1,)),
    # antipodal involution
    _E("circle_sigma_km1", -1, "circle/sigma", _double_loop,
       "antipodally even double loop", (1,)),
    _E("circle_sigma_k0", 0, "circle/sigma", _constant(np.eye(2)),
       "constant 1_2", (1,)),
    _E("circle_sigma_k1", 1, "circle/sigma", _constant([[-1.0]]),
       "constant -1", (1,), torsion=True),
    _E("circle_sigma_k3", 3, "circle/sigma", _diag_z(np.negative),
       "diag(z, -z)", (1,)),
    _E("circle_sigma_k4", 4, "circle/sigma", _reflection_block,
       "reflection-block unitary", (1,)),
    # paper prints diag(z, conj(z)), which misses the symmetry by a sign;
    # diag(z, -conj(z)) satisfies it exactly
    _E("circle_sigma_k5", 5, "circle/sigma", _diag_z(lambda z: -np.conj(z)),
       "diag(z, -conj(z)) (sign-corrected)", (1,), torsion=True),
    # conjugation involution
    _E("circle_zeta_k0", 0, "circle/zeta", _constant(np.eye(2)),
       "constant 1_2", (1,)),
    _E("circle_zeta_k1", 1, "circle/zeta", _identity_loop, "identity loop",
       (1, 0)),
    _E("circle_zeta_k1_torsion", 1, "circle/zeta", _constant([[-1.0]]),
       "constant -1", (0, 1), torsion=True),
    _E("circle_zeta_k2", 2, "circle/zeta", _imaginary_reflection(1.0),
       "imaginary reflection loop", (0, 1), torsion=True),
    _E("circle_zeta_k2b", 2, "circle/zeta", _imaginary_reflection(-1.0),
       "imaginary reflection loop, reversed", (1, 0), torsion=True),
    _E("circle_zeta_k3", 3, "circle/zeta", _half_arc(np.conj),
       "half-arc double loop", (1,), torsion=True),
    _E("circle_zeta_k4", 4, "circle/zeta", _constant(np.eye(4)),
       "constant 1_4", (1,)),
    _E("circle_zeta_k5", 5, "circle/zeta", _half_arc(lambda zz: zz),
       "half-arc double loop", (1,)),
    _E("torus_bott", 6, "torus2", _torus_bott, "torus Bott-type generator",
       (1,)),
    _E("calkin_k0", 0, "shift-algebra", _calkin_k0, "diag(1, 2e-1)", (-1,)),
    _E("calkin_k1", 1, "shift-algebra", _calkin_k1, "1-2e", (1,), torsion=True),
    _E("calkin_k2", 2, "shift-algebra", _calkin_k2, "off-diagonal i(1-2e)",
       (1,), torsion=True),
    _E("calkin_k4", 4, "shift-algebra", _calkin_k4, "diag(1,1,2e-1,2e-1)",
       (-1,)),
    _E("shift_u_k1", 1, "calkin-quotient", toeplitz.shift, "shift symbol",
       (1, 0)),
    _E("shift_u_k2", 2, "calkin-quotient", _shift_k2, "off-diagonal i*shift",
       (0, 1), torsion=True),
    _E("shift_u_k3", 3, "calkin-quotient", _shift_k3, "diag(shift, shift*)",
       (1,), torsion=True),
    _E("shift_u_k5", 5, "calkin-quotient", _shift_k5, "diag(shift, shift)",
       (1,)),
)}


def names():
    return sorted(ENTRIES)


def entry(name: str) -> CatalogEntry:
    if name not in ENTRIES:
        raise KeyError(f"unknown catalog name {name!r}")
    return ENTRIES[name]


def generator(name: str, resolution: int = DEFAULT_RES):
    """Build a catalog element: a checked KOClassRep for grid entries, an
    exact shift-algebra element for the exact ones."""
    ent = entry(name)
    if ent.exact:
        check, what = _EXACT_CHECKS[ent.space]
        el = ent.build()
        if not check(el, ent.class_id):
            raise AssertionError(f"{name} failed {what}")
        return el
    base = _base(ent.space, resolution)
    vals, alg = ent.build(base)
    rep = check_membership(FnElement(base, vals), ent.class_id, alg,
                           MEMBERSHIP_TOL)
    if not rep.ok:
        raise AssertionError(f"{name} failed membership: {rep.residuals}")
    return rep


def _exact_signature(ent: CatalogEntry, el, resolution: int) -> tuple:
    """Signature values of an exact element of an entry's space: the exact
    invariant in the shift algebra, the symbol's signature in the quotient."""
    if ent.space == "shift-algebra":
        return (toeplitz.exact_invariant(el, ent.class_id)[1],)
    rep = check_membership(toeplitz.symbol_map(el, resolution), ent.class_id)
    if not rep.ok:
        raise AssertionError(f"{ent.name} symbol failed circle membership")
    return signature(rep).values()


def generator_signature(name: str, resolution: int = DEFAULT_RES):
    """Computed signature values of a catalog element."""
    ent = entry(name)
    obj = generator(name, resolution)
    return _exact_signature(ent, obj, resolution) if ent.exact else signature(obj).values()
