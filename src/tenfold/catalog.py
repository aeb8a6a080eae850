"""Named constructors for the cataloged generators: every explicit unitary
the library ships, each returned as a checked class representative with a
frozen expected signature.

Grid entries are validated through membership plus signature; the four
Calkin-picture entries and the four shift-class entries are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from . import matcore, toeplitz
from .basespace import Algebra, FnElement, sample_space, with_pinned
from .invariants import signature
from .symclass import KOClassRep, check_membership

DEFAULT_RES = 64


@dataclass
class CatalogEntry:
    name: str
    class_id: object
    space: str
    description: str
    expected: tuple
    torsion: bool = False
    exact: bool = False


def _circle(involution, resolution, pinned=None):
    base = sample_space("circle", resolution, involution)
    if pinned:
        base = with_pinned(base, pinned)
    return base


def _interval(resolution):
    return with_pinned(sample_space("interval", resolution), "basepoint")


def _zvals(base):
    return base.points[:, 0] + 1j * base.points[:, 1]


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
    base = _interval(resolution)
    t = base.points[:, 0]
    h = np.zeros((base.npoints, 2, 2), dtype=complex)
    k = np.zeros((base.npoints, 2, 2), dtype=complex)
    x = np.zeros((base.npoints, 2, 2), dtype=complex)
    h[:, 0, 0] = t
    k[:, 1, 1] = t
    x[:, 1, 0] = np.sqrt(t - t * t)
    return FnElement(base, h), FnElement(base, x), FnElement(base, k)


def _build_x0(resolution):
    base = _interval(resolution)
    alg = Algebra(base, 2, np.eye(2, dtype=complex), "qc2-tr")
    return FnElement(base, _x0_values(base)), 0, alg


def _build_x2(resolution):
    base = _interval(resolution)
    w = matcore.conjugator_w(2)
    vals = w @ _x0_values(base) @ w.conj().T
    alg = Algebra(base, 2, matcore.J2, "qc2-sharp")
    return FnElement(base, vals), 2, alg


def _build_x6(resolution):
    base = _interval(resolution)
    alg = Algebra(base, 2, matcore.SWAP2, "qc2-trt")
    return FnElement(base, _x0_values(base)), 6, alg


def _build_x4(resolution):
    base = _interval(resolution)
    x0 = _x0_values(base)
    pad = np.diag([1.0 + 0j, 1.0, -1.0, -1.0])
    vals = np.zeros((base.npoints, 8, 8), dtype=complex)
    vals[:, :4, :4] = x0
    vals[:, 4:, 4:] = pad
    qhat = np.kron(matcore.conjugator_q(1), np.eye(2, dtype=complex))
    vals = qhat @ vals @ qhat.conj().T
    alg = Algebra(base, 2, np.kron(matcore.J2, np.eye(2, dtype=complex)), "m2qc2")
    return FnElement(base, vals), 4, alg


def _build_x_odd_scalar(resolution, involution, class_id):
    base = _circle(involution, resolution, "basepoint")
    z = _zvals(base)
    return (FnElement(base, z[:, None, None] * np.eye(1)[None]), class_id,
            Algebra(base))


def _build_x_odd_quaternionic(resolution, involution, class_id):
    base = _circle(involution, resolution, "basepoint")
    z = _zvals(base)
    q = matcore.conjugator_q(1)
    vals = np.zeros((base.npoints, 4, 4), dtype=complex)
    vals[:] = np.eye(4)
    vals[:, 0, 0] = z
    vals = q @ vals @ q.conj().T
    alg = Algebra(base, 2, matcore.J2, "m2")
    return FnElement(base, vals), class_id, alg


# -- constant generators over a point ------------------------------------------

def _build_const(m, class_id):
    base = sample_space("point")
    return (FnElement(base, np.asarray(m, dtype=complex)[None]), class_id,
            Algebra(base))


# -- sphere generators ----------------------------------------------------------

def _build_sphere(class_id, involution, resolution):
    base = with_pinned(sample_space("sphere2", resolution, involution), "basepoint")
    x, y, z = base.points.T
    vals = np.array([[z, x - 1j * y], [x + 1j * y, -z]], dtype=complex)
    return FnElement(base, vals.transpose(2, 0, 1).copy()), class_id, Algebra(base)


def _build_sphere3(resolution):
    base = with_pinned(sample_space("sphere3", resolution), "basepoint")
    x, y, z, w = base.points.T
    vals = np.array([[1j * z - w, 1j * x + y], [1j * x - y, -1j * z - w]])
    return FnElement(base, vals.transpose(2, 0, 1).copy()), 5, Algebra(base)


# -- circle generators, antipodal involution ------------------------------------

def _build_sigma(resolution, which):
    base = _circle("sigma", resolution)
    z = _zvals(base)
    n = base.npoints
    if which == -1:
        vals = (z ** 2)[:, None, None] * np.eye(1)[None]
        cls = -1
    elif which == 0:
        vals = np.broadcast_to(np.eye(2, dtype=complex), (n, 2, 2)).copy()
        cls = 0
    elif which == 1:
        vals = np.full((n, 1, 1), -1.0 + 0j)
        cls = 1
    elif which == 3:
        vals = np.zeros((n, 2, 2), dtype=complex)
        vals[:, 0, 0] = z
        vals[:, 1, 1] = -z
        cls = 3
    elif which == 4:
        x, y = base.points[:, 0], base.points[:, 1]
        vals = np.zeros((n, 4, 4), dtype=complex)
        vals[:, 0, 0] = 1.0
        vals[:, 1, 1] = 1.0
        vals[:, 2, 2] = x
        vals[:, 2, 3] = y
        vals[:, 3, 2] = y
        vals[:, 3, 3] = -x
        cls = 4
    elif which == 5:
        # paper prints diag(z, conj(z)), which misses the symmetry by a
        # sign; diag(z, -conj(z)) satisfies it exactly
        vals = np.zeros((n, 2, 2), dtype=complex)
        vals[:, 0, 0] = z
        vals[:, 1, 1] = -np.conj(z)
        cls = 5
    else:
        raise KeyError(which)
    return FnElement(base, vals), cls, Algebra(base)


# -- circle generators, conjugation involution -----------------------------------

def _build_zeta(resolution, which):
    base = _circle("zeta", resolution)
    z = _zvals(base)
    n = base.npoints
    top = np.arange(n) <= n // 2
    if which == "k0":
        return (FnElement(base, np.broadcast_to(np.eye(2, dtype=complex),
                                                (n, 2, 2)).copy()), 0,
                Algebra(base))
    if which == "k1":
        return FnElement(base, z[:, None, None] * np.eye(1)[None]), 1, Algebra(base)
    if which == "k1t":
        return FnElement(base, np.full((n, 1, 1), -1.0 + 0j)), 1, Algebra(base)
    if which in ("k2", "k2b"):
        # paper prints both corner entries as +y, which is not unitary off
        # the fixed points; the trace-free version is
        s = 1.0 if which == "k2" else -1.0
        x, y = base.points[:, 0], base.points[:, 1]
        vals = np.zeros((n, 2, 2), dtype=complex)
        vals[:, 0, 0] = y
        vals[:, 0, 1] = s * 1j * x
        vals[:, 1, 0] = -s * 1j * x
        vals[:, 1, 1] = -y
        return FnElement(base, vals), 2, Algebra(base)
    if which in ("k3", "k5"):
        vals = np.zeros((n, 2, 2), dtype=complex)
        zz = z ** 2
        low = np.conj(zz) if which == "k3" else zz
        vals[:, 0, 0] = np.where(top, zz, 1.0)
        vals[:, 1, 1] = np.where(top, 1.0, low)
        return (FnElement(base, vals), 3 if which == "k3" else 5, Algebra(base))
    if which == "k4":
        return (FnElement(base, np.broadcast_to(np.eye(4, dtype=complex),
                                                (n, 4, 4)).copy()), 4,
                Algebra(base))
    raise KeyError(which)


# -- torus generator --------------------------------------------------------------

def torus_bott(resolution=DEFAULT_RES) -> KOClassRep:
    """Two-torus Bott-type generator: a traceless self-adjoint unitary whose
    off-diagonal profile is carried by a bump on one half of the first
    circle and by a conj(w)-twisted bump on the other, so its projection
    has unit Chern number."""
    base = sample_space("torus2", resolution)
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
    rep = check_membership(FnElement(base, vals), 6, Algebra(base))
    if not rep.ok:
        raise AssertionError("torus generator failed its membership check")
    return rep


# -- exact Calkin-picture generators ----------------------------------------------

def _calkin_w(which):
    tp = toeplitz
    one, e, z0 = tp.one(1), tp.rank_one_e(), tp.zero(1)
    two = tp.FC(2)
    i = tp.FC_I
    if which == 0:
        return tp.from_blocks([[one, z0], [z0, e.scaled(two) - one]])
    if which == 1:
        return one - e.scaled(two)
    if which == 2:
        return tp.from_blocks([[z0, (one - e.scaled(two)).scaled(i)],
                               [(e.scaled(two) - one).scaled(i), z0]])
    if which == 4:
        return tp.from_blocks(
            [[one, z0, z0, z0], [z0, one, z0, z0],
             [z0, z0, e.scaled(two) - one, z0],
             [z0, z0, z0, e.scaled(two) - one]])
    raise KeyError(which)


def _shift_v(which):
    tp = toeplitz
    s, z0 = tp.shift(), tp.zero(1)
    i = tp.FC_I
    if which == 1:
        return s
    if which == 2:
        return tp.from_blocks([[z0, s.scaled(i)],
                               [s.adjoint().scaled(tp.FC(0, -1)), z0]])
    if which == 3:
        return tp.from_blocks([[s, z0], [z0, s.adjoint()]])
    if which == 5:
        return tp.from_blocks([[s, z0], [z0, s]])
    raise KeyError(which)


# -- registry ----------------------------------------------------------------------

_GRID_BUILDERS = {
    "x-1": lambda r: _build_x_odd_scalar(r, "id", -1),
    "x0": _build_x0,
    "x1": lambda r: _build_x_odd_scalar(r, "zeta", 1),
    "x2": _build_x2,
    "x3": lambda r: _build_x_odd_quaternionic(r, "id", 3),
    "x4": _build_x4,
    "x5": lambda r: _build_x_odd_quaternionic(r, "zeta", 5),
    "x6": _build_x6,
    "const_k0": lambda r: _build_const(np.eye(2), 0),
    "const_k1": lambda r: _build_const([[-1.0]], 1),
    "const_k2": lambda r: _build_const([[0, -1j], [1j, 0]], 2),
    "const_k4": lambda r: _build_const(np.eye(4), 4),
    "sphere_ko0": lambda r: _build_sphere(0, "zeta", r),
    "sphere_ko6": lambda r: _build_sphere(6, "id", r),
    "sphere3_ko5": lambda r: _build_sphere3(r if isinstance(r, tuple) else 20),
    "circle_sigma_km1": lambda r: _build_sigma(r, -1),
    "circle_sigma_k0": lambda r: _build_sigma(r, 0),
    "circle_sigma_k1": lambda r: _build_sigma(r, 1),
    "circle_sigma_k3": lambda r: _build_sigma(r, 3),
    "circle_sigma_k4": lambda r: _build_sigma(r, 4),
    "circle_sigma_k5": lambda r: _build_sigma(r, 5),
    "circle_zeta_k0": lambda r: _build_zeta(r, "k0"),
    "circle_zeta_k1": lambda r: _build_zeta(r, "k1"),
    "circle_zeta_k1_torsion": lambda r: _build_zeta(r, "k1t"),
    "circle_zeta_k2": lambda r: _build_zeta(r, "k2"),
    "circle_zeta_k2b": lambda r: _build_zeta(r, "k2b"),
    "circle_zeta_k3": lambda r: _build_zeta(r, "k3"),
    "circle_zeta_k4": lambda r: _build_zeta(r, "k4"),
    "circle_zeta_k5": lambda r: _build_zeta(r, "k5"),
}

ENTRIES = {
    "x-1": CatalogEntry("x-1", -1, "circle/id@1", "identity loop", (1,)),
    "x0": CatalogEntry("x0", 0, "interval@0", "cone-relation unitary", (-1,)),
    "x1": CatalogEntry("x1", 1, "circle/zeta@1", "identity loop", (1,)),
    "x2": CatalogEntry("x2", 2, "interval@0",
                       "frame-rotated cone unitary", (-1,)),
    "x3": CatalogEntry("x3", 3, "circle/id@1",
                       "quaternionic-frame loop", (1,)),
    "x4": CatalogEntry("x4", 4, "interval@0",
                       "quaternionic cone unitary", (-1,)),
    "x5": CatalogEntry("x5", 5, "circle/zeta@1",
                       "quaternionic-frame loop", (1,)),
    "x6": CatalogEntry("x6", 6, "interval@0",
                       "cone unitary, swapped-transpose form", (-1,)),
    "const_k0": CatalogEntry("const_k0", 0, "point", "constant 1_2", (1,)),
    "const_k1": CatalogEntry("const_k1", 1, "point", "constant -1", (1,),
                             torsion=True),
    "const_k2": CatalogEntry("const_k2", 2, "point", "constant -I2", (1,),
                             torsion=True),
    "const_k4": CatalogEntry("const_k4", 4, "point", "constant 1_4", (1,)),
    "sphere_ko0": CatalogEntry("sphere_ko0", 0, "sphere2/zeta@1",
                               "degree-one band flattening", (-1, 0)),
    "sphere_ko6": CatalogEntry("sphere_ko6", 6, "sphere2/id@1",
                               "degree-one band flattening", (-1,)),
    "sphere3_ko5": CatalogEntry("sphere3_ko5", 5, "sphere3/id@1",
                                "degree-one 3-sphere loop (derived invariant)",
                                (-1,)),
    "circle_sigma_km1": CatalogEntry("circle_sigma_km1", -1, "circle/sigma",
                                     "antipodally even double loop", (1,)),
    "circle_sigma_k0": CatalogEntry("circle_sigma_k0", 0, "circle/sigma",
                                    "constant 1_2", (1,)),
    "circle_sigma_k1": CatalogEntry("circle_sigma_k1", 1, "circle/sigma",
                                    "constant -1", (1,), torsion=True),
    "circle_sigma_k3": CatalogEntry("circle_sigma_k3", 3, "circle/sigma",
                                    "diag(z, -z)", (1,)),
    "circle_sigma_k4": CatalogEntry("circle_sigma_k4", 4, "circle/sigma",
                                    "reflection-block unitary", (1,)),
    "circle_sigma_k5": CatalogEntry("circle_sigma_k5", 5, "circle/sigma",
                                    "diag(z, -conj(z)) (sign-corrected)", (1,),
                                    torsion=True),
    "circle_zeta_k0": CatalogEntry("circle_zeta_k0", 0, "circle/zeta",
                                   "constant 1_2", (1,)),
    "circle_zeta_k1": CatalogEntry("circle_zeta_k1", 1, "circle/zeta",
                                   "identity loop", (1, 0)),
    "circle_zeta_k1_torsion": CatalogEntry("circle_zeta_k1_torsion", 1,
                                           "circle/zeta", "constant -1",
                                           (0, 1), torsion=True),
    "circle_zeta_k2": CatalogEntry("circle_zeta_k2", 2, "circle/zeta",
                                   "imaginary reflection loop", (0, 1),
                                   torsion=True),
    "circle_zeta_k2b": CatalogEntry("circle_zeta_k2b", 2, "circle/zeta",
                                    "imaginary reflection loop, reversed",
                                    (1, 0), torsion=True),
    "circle_zeta_k3": CatalogEntry("circle_zeta_k3", 3, "circle/zeta",
                                   "half-arc double loop", (1,), torsion=True),
    "circle_zeta_k4": CatalogEntry("circle_zeta_k4", 4, "circle/zeta",
                                   "constant 1_4", (1,)),
    "circle_zeta_k5": CatalogEntry("circle_zeta_k5", 5, "circle/zeta",
                                   "half-arc double loop", (1,)),
    "torus_bott": CatalogEntry("torus_bott", 6, "torus2",
                               "torus Bott-type generator", (1,)),
    "calkin_k0": CatalogEntry("calkin_k0", 0, "shift-algebra",
                              "diag(1, 2e-1)", (-1,), exact=True),
    "calkin_k1": CatalogEntry("calkin_k1", 1, "shift-algebra",
                              "1-2e", (1,), torsion=True, exact=True),
    "calkin_k2": CatalogEntry("calkin_k2", 2, "shift-algebra",
                              "off-diagonal i(1-2e)", (1,), torsion=True,
                              exact=True),
    "calkin_k4": CatalogEntry("calkin_k4", 4, "shift-algebra",
                              "diag(1,1,2e-1,2e-1)", (-1,), exact=True),
    "shift_u_k1": CatalogEntry("shift_u_k1", 1, "calkin-quotient",
                               "shift symbol", (1, 0), exact=True),
    "shift_u_k2": CatalogEntry("shift_u_k2", 2, "calkin-quotient",
                               "off-diagonal i*shift", (0, 1), torsion=True,
                               exact=True),
    "shift_u_k3": CatalogEntry("shift_u_k3", 3, "calkin-quotient",
                               "diag(shift, shift*)", (1,), torsion=True,
                               exact=True),
    "shift_u_k5": CatalogEntry("shift_u_k5", 5, "calkin-quotient",
                               "diag(shift, shift)", (1,), exact=True),
}


def names():
    return sorted(ENTRIES)


def entry(name: str) -> CatalogEntry:
    if name not in ENTRIES:
        raise KeyError(f"unknown catalog name {name!r}")
    return ENTRIES[name]


def generator(name: str, resolution: int = DEFAULT_RES, tol: float = 1e-10):
    """Build a catalog element: a checked KOClassRep for grid entries, an
    exact shift-algebra element for the Calkin-picture ones."""
    ent = entry(name)
    if name.startswith("calkin_"):
        el = _calkin_w(ent.class_id)
        if not toeplitz.check_membership_exact(el, ent.class_id):
            raise AssertionError(f"{name} failed exact membership")
        return el
    if name.startswith("shift_u_"):
        el = _shift_v(ent.class_id)
        if not toeplitz.check_membership_quotient(el, ent.class_id):
            raise AssertionError(f"{name} failed exact quotient membership")
        return el
    if name == "torus_bott":
        return torus_bott(resolution)
    u, cls, alg = _GRID_BUILDERS[name](resolution)
    rep = check_membership(u, cls, alg, tol)
    if not rep.ok:
        raise AssertionError(f"{name} failed membership: {rep.residuals}")
    return rep


def generator_signature(name: str, resolution: int = DEFAULT_RES):
    """Computed signature values of a catalog element."""
    ent = entry(name)
    obj = generator(name, resolution)
    if name.startswith("calkin_"):
        _, val = toeplitz.exact_invariant(obj, ent.class_id)
        return (val,)
    if name.startswith("shift_u_"):
        sym = toeplitz.symbol_map(obj, resolution)
        rep = check_membership(sym, ent.class_id)
        if not rep.ok:
            raise AssertionError(f"{name} symbol failed circle membership")
        return signature(rep).values()
    return signature(obj).values()
