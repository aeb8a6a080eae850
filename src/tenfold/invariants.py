"""Complete discrete invariants per (symmetry class, base space) pair.

The signature catalog is a closed list: asking for the signature of an
uncataloged pair is a hard error, never a guess.  Values are integers;
each coordinate is tagged with its group (Z or Z2) so signatures add
the way the classes do.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from . import matcore
from .basespace import SCALAR, Algebra, FnElement, block_compress
from .symclass import CLASS_IDS, KOClassRep, class_spec, neutral_pfaffian


class InvariantError(ValueError):
    pass


# integers, +-1 signs and scalars read off a member miss by roundoff only
ROUND_GUARD = 1e-6
# the half-turn parities add eigenvalue phases, which eigvals gives less exactly
PARITY_GUARD = 1e-4
# a plaquette flux this close to pi may have wrapped round to -pi
FLUX_MARGIN = 1e-9
# the 3-sphere degree is a finite-difference quadrature, not an exact sum
WINDING3_GUARD = 0.2
# a link this short joins nearly orthogonal frames: the grid is too coarse
LINK_FLOOR = 0.1
# a det phase step above this may have wrapped past pi between grid points
PHASE_STEP_MAX = np.pi / 2


# interval-algebra label -> the constant conjugation of its catalog generator
ALGEBRA_FRAMES = {"qc2-sharp": matcore.conjugator_w(2),
                  "m2qc2": np.kron(matcore.conjugator_q(1), np.eye(2, dtype=complex))}


def _round_int(x: float, what: str, guard: float = ROUND_GUARD) -> int:
    r = int(np.rint(x))
    if abs(x - r) > guard:
        raise InvariantError(f"{what} = {x:.6f} is not within {guard} of an integer")
    return r


def _sign_of_unit_real(z: complex, what: str) -> int:
    if abs(abs(z) - 1.0) > ROUND_GUARD or abs(np.imag(z)) > ROUND_GUARD:
        raise InvariantError(f"{what} {z:.6f} is not near +-1")
    return 1 if np.real(z) > 0 else -1


def _outer_value(u: FnElement, algebra: Algebra, p: int) -> np.ndarray:
    v = u.values[p]
    d = algebra.dim_alg
    return v if d == 1 else block_compress(v, d)


def _trace_part(m: np.ndarray, part: float, what: str) -> int:
    return _round_int(part * float(np.real(np.trace(m))), what)


def half_trace(u: FnElement, p: int, algebra: Algebra = SCALAR) -> int:
    return _trace_part(_outer_value(u, algebra, p), 0.5, "half trace")


def quarter_trace(u: FnElement, p: int, algebra: Algebra = SCALAR) -> int:
    return _trace_part(_outer_value(u, algebra, p), 0.25, "quarter trace")


def det_sign(u: FnElement, p: int, algebra: Algebra = SCALAR) -> int:
    """+1 or -1; the determinant must be within tolerance of a unit real."""
    m = _outer_value(u, algebra, p)
    return _sign_of_unit_real(complex(np.linalg.det(m)), "determinant")


def pf_sign(u: FnElement, p: int, algebra: Algebra = SCALAR) -> int:
    """Pfaffian sign relative to the same-size neutral block stack."""
    m = _outer_value(u, algebra, p)
    if np.linalg.norm(m + m.T) > ROUND_GUARD * max(1.0, np.linalg.norm(m)):
        raise InvariantError("value is not skew under transpose")
    ratio = matcore.pfaffian(m) / neutral_pfaffian(2, m.shape[0] // 2)
    return _sign_of_unit_real(ratio, "pfaffian ratio")


def _dets_on_circle(u: FnElement) -> np.ndarray:
    if u.base.kind != "circle":
        raise InvariantError("winding invariants need a circle base")
    return np.linalg.det(u.values)


@np.errstate(all="ignore")  # a zero or overflowing step is refused below
def _phase_sum(dets: np.ndarray, path) -> float:
    """Sum of det's phase steps along `path`, grid point indices in order,
    each step the angle of a determinant over the one before it.  A
    vanishing determinant, or a step that is not finite (a determinant of
    5e-324 before one near 1), has no phase and is refused at its grid
    point."""
    seg = dets[path]
    steps = seg[1:] / seg[:-1]
    if not (seg.all() and np.isfinite(steps).all()):
        zero = np.flatnonzero(seg == 0)
        if zero.size:
            raise InvariantError(f"determinant vanishes at grid point {path[zero[0]]}")
        k = np.flatnonzero(~np.isfinite(steps))[0]
        raise InvariantError("determinant phase step is not finite from grid point "
                             f"{path[k]} to {path[k + 1]}")
    inc = np.angle(steps)
    if np.max(np.abs(inc)) > PHASE_STEP_MAX:
        raise InvariantError("determinant phase step exceeds pi/2: resolution too coarse "
                             f"(largest step {np.max(np.abs(inc)):.4f} on {len(dets)} grid points)")
    return float(np.sum(inc))


def _top_arc(u: FnElement):
    """det u, and its phase summed over the top arc from 1 to -1 through i."""
    dets = _dets_on_circle(u)
    return dets, _phase_sum(dets, np.arange(u.base.npoints // 2 + 1))


def winding_det(u: FnElement) -> int:
    """Winding number of det(u) around the circle."""
    n = u.base.npoints
    total = _phase_sum(_dets_on_circle(u), np.arange(n + 1) % n)
    return _round_int(total / (2.0 * np.pi), "winding")


def winding_half(u: FnElement, arc: str = "top") -> int:
    """Winding of det over one half-circle between the +-1 endpoints,
    corrected to an integer using the (scalar) endpoint values.  The top
    arc is traversed from -1 back to 1 through i."""
    dets = _dets_on_circle(u)
    n = u.base.shape[0]
    if arc == "top":
        idx = np.arange(0, n // 2 + 1)
    elif arc == "bottom":
        idx = np.concatenate([np.arange(n // 2, n), [0]])
    else:
        raise ValueError("arc must be 'top' or 'bottom'")
    for v in (u.values[0], u.values[n // 2]):
        if np.linalg.norm(v - np.trace(v) / v.shape[0] * np.eye(v.shape[0])) > ROUND_GUARD:
            raise InvariantError("arc endpoint value is not scalar")
    raw = _phase_sum(dets, idx)
    defect = float(np.angle(dets[idx[-1]] * np.conj(dets[idx[0]])))
    return -_round_int((raw - defect) / (2.0 * np.pi), "half winding")


def arc_winding_even(u: FnElement) -> int:
    """Winding of det over the top arc for elements whose det is even under
    the antipodal map (det values at +-1 agree)."""
    _, raw = _top_arc(u)
    return _round_int(raw / (2.0 * np.pi), "even arc winding")


def half_turn_parity(u: FnElement) -> int:
    """Z2 invariant of the antipodally conjugate-paired unitary classes on
    the circle: parity of the det phase carried from 1 to -1 over the top
    arc, closed up through the eigenvalue phases at z = 1."""
    _, raw = _top_arc(u)
    mu = np.linalg.eigvals(u.values[0])
    nu = raw / (2.0 * np.pi) + float(np.sum(np.angle(mu))) / np.pi
    return _round_int(nu, "half-turn parity", PARITY_GUARD) % 2


def _kramers_phase_sum(v: np.ndarray) -> float:
    """Sum of eigenvalue phases / 2pi for a matrix with doubly degenerate
    spectrum, evaluated per pair so branch cuts flip in pairs."""
    mu = np.linalg.eigvals(v)
    order = np.argsort(np.angle(mu))
    mu = list(mu[order])
    total = 0.0
    while mu:
        m0 = mu.pop(0)
        j = int(np.argmin([abs(m0 - m) for m in mu]))
        m1 = mu.pop(j)
        if abs(m0 - m1) > ROUND_GUARD:
            raise InvariantError("fixed-point value is not Kramers degenerate")
        total += 2.0 * float(np.angle((m0 + m1) / 2.0))
    return total / (2.0 * np.pi)


def sp_half_turn_parity(u: FnElement) -> int:
    """Z2 invariant of the quaternionic-symmetric circle classes with
    conjugation involution: det phase over the top arc, closed through
    the (Kramers-paired) eigenvalue phases at the fixed points."""
    _, raw = _top_arc(u)
    mid = u.base.shape[0] // 2
    nu = (raw / (2.0 * np.pi) + _kramers_phase_sum(u.values[0])
          - _kramers_phase_sum(u.values[mid]))
    return _round_int(nu, "quaternionic half-turn parity", PARITY_GUARD) % 2


def arc_winding_det1(u: FnElement) -> int:
    """Winding of det over the top arc for classes whose fixed-point values
    are quaternionic unitaries (det 1 there), so the arc phase is integral."""
    dets, raw = _top_arc(u)
    if np.any(np.abs(dets[[0, u.base.shape[0] // 2]] - 1.0) > ROUND_GUARD):
        raise InvariantError("fixed-point determinant is not 1")
    return _round_int(raw / (2.0 * np.pi), "arc winding")


def winding_pairs(u: FnElement) -> int:
    """Half the full det winding; integral when det is antipodally even."""
    w = winding_det(u)
    if w % 2:
        raise InvariantError("det winding is odd; element breaks the pairing symmetry")
    return w // 2


# bound on the spectral distance of p = (u+1)/2 from a projection: each
# eigenvalue from its target, 1 for the rank largest and 0 for the rest.  It
# vanishes up to roundoff on a projection, and p within e of one is about e
# away (||p^2 - p|| = ||u^2 - 1||/4), so an element whose unitarity residual
# is a few 1e-2 still reads; diag(0.6, -0.6), gapped but not unitary, is 0.2
FRAME_PROJECTION_TOL = 0.05


def _occupied_rank(u: FnElement) -> int:
    """rint(trace p) of p = (u+1)/2, from one trace of u per grid point; the
    occupied rank must be the same at every grid point."""
    ranks = np.rint(0.5 * (np.einsum("pii->p", u.values).real + u.dim)).astype(int)
    if np.any(ranks != ranks[0]):
        raise InvariantError("occupied rank is not constant over the grid")
    return max(int(ranks[0]), 0)


def _occupied_frames(u: FnElement) -> np.ndarray:
    """(npoints, dim, rank) orthonormal frames of the ranges of p = (u+1)/2:
    the eigenvectors of its rank = rint(trace p) largest eigenvalues."""
    n = u.dim
    rank = _occupied_rank(u)
    w, v = np.linalg.eigh(0.5 * (u.values + np.eye(n)))
    distance = np.abs(w - (np.arange(n) >= n - rank)).max()
    if distance > FRAME_PROJECTION_TOL:
        raise InvariantError(f"(u+1)/2 is {distance:.3g} from a projection "
                             f"(bound {FRAME_PROJECTION_TOL})")
    return v[:, :, n - rank:]


def _unit_links(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Phases of det(a^H b) over stacks of (..., dim, rank) frames."""
    return _unit(matcore._dets(np.conj(np.swapaxes(a, -1, -2)) @ b))


def _unit(z: np.ndarray) -> np.ndarray:
    """Link determinants over their moduli, each modulus at least LINK_FLOOR."""
    modulus = np.abs(z)
    if np.min(modulus) < LINK_FLOOR:
        raise InvariantError("frame overlap nearly singular: resolution too coarse")
    return z / modulus


def chern_of_projection(u: FnElement, frames=None) -> int:
    """First Chern number of p = (u+1)/2 by plaquette flux summation.

    Links are determinants of frame overlaps, so the total is an exact
    multiple of 2*pi whenever every plaquette flux stays below pi
    (Fukui-Hatsugai-Suzuki).  Columns always wrap; rows wrap on the torus
    only, since the first and last rows of a disk or sphere are not
    neighbours.  The flux sum is the same for any orthonormal frames of the
    range of p: the frames an odd disk boundary image was built from
    (boundary.RimFrames) give their link determinants (`frames.link_dets()`)
    and are read only over u's base, at u's dim and occupied rank; without
    them p is factored (`_occupied_frames`).  Both link sources meet the same
    guards: every link determinant passes `_unit` (LINK_FLOOR on its modulus)
    and every plaquette flux `_link_fluxes` (FLUX_MARGIN).
    """
    if u.base.kind not in ("disk", "sphere2", "torus2"):
        raise InvariantError(f"no plaquette decomposition for {u.base.kind!r}")
    if frames is None:
        flux = _plaquette_fluxes(u.base, _occupied_frames(u))
    else:
        rank = _occupied_rank(u)
        if frames.base != u.base:
            raise InvariantError("frames built over another base than the element's")
        if (frames.dim, frames.rank) != (u.dim, rank):
            raise InvariantError(f"rank-{frames.rank} frames of dim {frames.dim} do not span "
                                 f"the rank-{rank} ranges of a dim-{u.dim} element")
        flux = _link_fluxes(*map(_unit, frames.link_dets()))
    return _round_int(float(np.sum(flux)) / (2.0 * np.pi), "chern number")


def _plaquette_fluxes(base, frames: np.ndarray) -> np.ndarray:
    """Flux through each plaquette of the grid, from (npoints, dim, rank)
    frames; the same for every choice of frames with the same ranges."""
    f = frames.reshape(base.shape + frames.shape[1:])
    if base.kind == "torus2":
        f = np.concatenate([f, f[:1]])
    nt = f.shape[1]
    return _link_fluxes(_unit_links(f, f[:, np.arange(1, nt + 1) % nt]),
                        _unit_links(f[:-1], f[1:]))


def _link_fluxes(across: np.ndarray, along: np.ndarray) -> np.ndarray:
    """Flux through each plaquette from its unit links: across[i, k] joins
    (i, k) to (i, k+1), columns wrapping, and along[i, k] joins (i, k) to
    (i+1, k).  A flux this close to pi may have wrapped, and is refused."""
    nt = along.shape[1]
    flux = np.angle(across[:-1] * along[:, np.arange(1, nt + 1) % nt]
                    * np.conj(across[1:]) * np.conj(along))
    if np.max(np.abs(flux)) > np.pi - FLUX_MARGIN:
        raise InvariantError("plaquette flux at pi: resolution too coarse")
    return flux


def winding3(u: FnElement) -> int:
    """Degree of a unitary-valued map on the 3-sphere via the discretized
    winding-density integral.  Reported as a derived invariant."""
    base = u.base
    if base.kind != "sphere3":
        raise InvariantError("winding3 needs a sphere3 base")
    na, nb, nc = base.shape
    vals = u.values.reshape(na, nb, nc, u.dim, u.dim)
    h1 = np.pi / (na - 1)
    h2 = np.pi / (nb - 1)
    h3 = 2.0 * np.pi / nc
    total = 0.0
    inv = np.conj(np.swapaxes(vals, 3, 4))
    for a in range(1, na - 1):
        da = (vals[a + 1] - vals[a - 1]) / (2 * h1)
        db = (vals[a, 2:] - vals[a, :-2]) / (2 * h2)
        dc = (np.roll(vals[a], -1, axis=1) - np.roll(vals[a], 1, axis=1)) / (2 * h3)
        ia = inv[a]
        a1 = ia[1:-1] @ da[1:-1]
        a2 = ia[1:-1] @ db
        a3 = ia[1:-1] @ dc[1:-1]
        dens = np.einsum("bcij,bcji->bc", a1, a2 @ a3 - a3 @ a2)
        total += float(np.sum(np.real(dens)))
    deg = 3.0 * total * h1 * h2 * h3 / (24.0 * np.pi ** 2)
    return _round_int(np.real(deg), "three-sphere winding", WINDING3_GUARD)


def qc_half_trace(u: FnElement, deconjugate: np.ndarray = None) -> int:
    """Endpoint compression invariant for interval algebras whose values
    carry 2x2 inner blocks diagonal at t=1: half trace of the matrix of
    leading block entries at the endpoint."""
    v = u.values[-1]
    if deconjugate is not None:
        v = deconjugate.conj().T @ v @ deconjugate
    k = v.shape[0] // 2
    blocks = v.reshape(k, 2, k, 2)
    phi = blocks[:, 0, :, 0]
    off = blocks[:, 0, :, 1]
    if np.linalg.norm(off) > ROUND_GUARD:
        raise InvariantError("endpoint value is not block diagonal")
    return _trace_part(phi, 0.5, "endpoint half trace")


# ---------------------------------------------------------------------------
# signatures

@dataclass(frozen=True)
class InvariantSignature:
    entries: tuple  # of (name, group, value); group in ("Z", "Z2")

    def __add__(self, other: "InvariantSignature") -> "InvariantSignature":
        if [e[:2] for e in self.entries] != [e[:2] for e in other.entries]:
            raise ValueError("signatures of different catalog entries")
        out = []
        for (n, g, a), (_, _, b) in zip(self.entries, other.entries):
            out.append((n, g, (a + b) % 2 if g == "Z2" else a + b))
        return InvariantSignature(tuple(out))

    @property
    def is_zero(self) -> bool:
        return all(v == 0 for _, _, v in self.entries)

    def values(self) -> tuple:
        return tuple(v for _, _, v in self.entries)

    def as_dict(self) -> dict:
        return {n: v for n, _, v in self.entries}


def _z2(sign: int) -> int:
    return (1 - sign) // 2


def _read_at(read, place):
    return lambda rep: read(rep.element, place(rep), rep.algebra)


# the class table's point invariants: name -> (reader of one grid value, the
# places the catalog reads it at); a place is a name suffix and its grid point
_PLACES = {"": lambda rep: rep.base.basepoint, "_0": lambda rep: 0,
           "_1": lambda rep: 1, "_mid": lambda rep: rep.base.shape[0] // 2}
_POINT_READERS = {
    "half_trace": (half_trace, ("", "_0", "_1")),
    "quarter_trace": (quarter_trace, ("", "_0", "_1")),
    "det_parity": (lambda u, p, alg: _z2(det_sign(u, p, alg)), ("", "_0", "_1")),
    "pf_parity": (lambda u, p, alg: _z2(pf_sign(u, p, alg)), ("", "_0", "_1", "_mid")),
}
_POINT_GROUPS = dict(p for p in (class_spec(i)["point"] for i in CLASS_IDS) if p)

# invariant name -> (group, reader)
_D = {
    **{name + at: (_POINT_GROUPS[name], _read_at(read, _PLACES[at]))
       for name, (read, places) in _POINT_READERS.items() for at in places},
    "winding": ("Z", lambda rep: winding_det(rep.element)),
    "winding_half": ("Z", lambda rep: winding_half(rep.element, "top")),
    "winding_half_bottom": ("Z", lambda rep: winding_half(rep.element, "bottom")),
    "arc_winding": ("Z", lambda rep: arc_winding_even(rep.element)),
    "arc_winding_det1": ("Z", lambda rep: arc_winding_det1(rep.element)),
    "half_turn_parity": ("Z2", lambda rep: half_turn_parity(rep.element)),
    "sp_half_turn_parity": ("Z2", lambda rep: sp_half_turn_parity(rep.element)),
    "winding_pairs": ("Z", lambda rep: winding_pairs(rep.element)),
    "chern": ("Z", lambda rep: chern_of_projection(rep.element, rep.frames)),
    "winding3": ("Z", lambda rep: winding3(rep.element)),
    "endpoint_half_trace": ("Z", lambda rep: qc_half_trace(
        rep.element, _deconjugator(rep))),
}


def _deconjugator(rep):
    """Per-block undo of the algebra's defining constant conjugation;
    block-diagonal sums undo blockwise."""
    frame = ALGEBRA_FRAMES.get(rep.algebra.label)
    if frame is None:
        return None
    return np.kron(np.eye(rep.element.dim // frame.shape[0], dtype=complex), frame)


def _entry(*names):
    """(name, group, reader) triples of a row's invariants."""
    return tuple((n,) + _D[n] for n in names)


def _at_points(i, suffixes):
    """The class table's point invariant of class i, read at each point."""
    point = class_spec(i)["point"]
    return () if point is None else _entry(*(point[0] + s for s in suffixes))


CATALOG = {
    # one point, and two points with the trivial involution
    **{("point", "id", "", "scalar", i): _at_points(i, ("",)) for i in CLASS_IDS},
    **{("twopoints", "id", "", "scalar", i): _at_points(i, ("_0", "_1"))
       for i in CLASS_IDS},
    # two points, swap involution
    ("twopoints", "swap", "", "scalar", 0): _entry("half_trace_0"),
    ("twopoints", "swap", "", "scalar", 2): _entry("half_trace_0"),
    ("twopoints", "swap", "", "scalar", 4): _entry("half_trace_0"),
    ("twopoints", "swap", "", "scalar", 6): _entry("half_trace_0"),
    ("twopoints", "swap", "", "scalar", "KU0"): _entry("half_trace_0",
                                                       "half_trace_1"),
    # circle, identity involution
    ("circle", "id", "", "scalar", -1): _entry("winding"),
    ("circle", "id", "", "scalar", "KU1"): _entry("winding"),
    ("circle", "id", "", "scalar", "KU0"): _entry("half_trace"),
    ("circle", "id", "@1", "scalar", -1): _entry("winding"),
    ("circle", "id", "@1", "scalar", "KU1"): _entry("winding"),
    ("circle", "id", "@1", "m2", 3): _entry("winding"),
    # circle, conjugation involution
    ("circle", "zeta", "", "scalar", 0): _entry("half_trace"),
    ("circle", "zeta", "", "scalar", 1): _entry("winding", "det_parity"),
    ("circle", "zeta", "", "scalar", 2): _entry("pf_parity", "pf_parity_mid"),
    ("circle", "zeta", "", "scalar", 3): _entry("sp_half_turn_parity"),
    ("circle", "zeta", "", "scalar", 4): _entry("quarter_trace"),
    ("circle", "zeta", "", "scalar", 5): _entry("arc_winding_det1"),
    ("circle", "zeta", "", "scalar", "KU0"): _entry("half_trace"),
    ("circle", "zeta", "", "scalar", "KU1"): _entry("winding"),
    ("circle", "zeta", "@1", "scalar", 1): _entry("winding"),
    ("circle", "zeta", "@1", "scalar", "KU1"): _entry("winding"),
    ("circle", "zeta", "@1", "m2", 5): _entry("winding"),
    ("circle", "zeta", "@pm1", "scalar", -1): _entry("winding_half"),
    ("circle", "zeta", "@pm1", "scalar", 1): _entry("winding_half"),
    ("circle", "zeta", "@pm1", "scalar", 3): _entry("winding_half"),
    ("circle", "zeta", "@pm1", "scalar", 5): _entry("winding_half"),
    ("circle", "zeta", "@pm1", "scalar", "KU1"): _entry("winding_half",
                                                        "winding_half_bottom"),
    # circle, antipodal involution
    ("circle", "sigma", "", "scalar", -1): _entry("winding_pairs"),
    ("circle", "sigma", "", "scalar", 0): _entry("half_trace"),
    ("circle", "sigma", "", "scalar", 1): _entry("half_turn_parity"),
    ("circle", "sigma", "", "scalar", 3): _entry("arc_winding"),
    ("circle", "sigma", "", "scalar", 4): _entry("half_trace"),
    ("circle", "sigma", "", "scalar", 5): _entry("half_turn_parity"),
    ("circle", "sigma", "", "scalar", "KU0"): _entry("half_trace"),
    ("circle", "sigma", "", "scalar", "KU1"): _entry("winding"),
    ("circle", "sigma", "@pm1", "scalar", -1): _entry("winding_half"),
    ("circle", "sigma", "@pm1", "scalar", 1): _entry("winding_half"),
    ("circle", "sigma", "@pm1", "scalar", 3): _entry("winding_half"),
    ("circle", "sigma", "@pm1", "scalar", 5): _entry("winding_half"),
    ("circle", "sigma", "@pm1", "scalar", "KU1"): _entry("winding_half",
                                                         "winding_half_bottom"),
    # disk interiors
    ("disk", "id", "@boundary", "scalar", 6): _entry("chern"),
    ("disk", "id", "@boundary", "scalar", 2): _entry("chern"),
    ("disk", "id", "@boundary", "scalar", "KU0"): _entry("chern"),
    ("disk", "zeta", "@boundary", "scalar", 0): _entry("chern"),
    ("disk", "zeta", "@boundary", "scalar", 6): _entry("chern"),
    ("disk", "zeta", "@boundary", "scalar", "KU0"): _entry("chern"),
    # spheres
    ("sphere2", "zeta", "@1", "scalar", 0): _entry("chern", "half_trace"),
    ("sphere2", "zeta", "@1", "scalar", "KU0"): _entry("chern"),
    ("sphere2", "id", "@1", "scalar", 6): _entry("chern"),
    ("sphere2", "id", "@1", "scalar", "KU0"): _entry("chern"),
    ("sphere3", "id", "@1", "scalar", 5): _entry("winding3"),
    ("sphere3", "id", "@1", "scalar", "KU1"): _entry("winding3"),
    # torus
    ("torus2", "id", "", "scalar", 6): _entry("chern"),
    ("torus2", "id", "", "scalar", "KU0"): _entry("chern", "half_trace"),
    # interval algebras with 2x2 inner blocks
    ("interval", "id", "@0", "qc2-tr", 0): _entry("endpoint_half_trace"),
    ("interval", "id", "@0", "qc2-tr", "KU0"): _entry("endpoint_half_trace"),
    ("interval", "id", "@0", "qc2-sharp", 2): _entry("endpoint_half_trace"),
    ("interval", "id", "@0", "qc2-sharp", "KU0"): _entry("endpoint_half_trace"),
    ("interval", "id", "@0", "qc2-trt", 6): _entry("endpoint_half_trace"),
    ("interval", "id", "@0", "qc2-trt", "KU0"): _entry("endpoint_half_trace"),
    ("interval", "id", "@0", "m2qc2", 4): _entry("endpoint_half_trace"),
    ("interval", "id", "@0", "m2qc2", "KU0"): _entry("endpoint_half_trace"),
}

# Classes whose group is trivial over a space: cataloged, with no coordinates.
_TRIVIAL = {
    ("twopoints", "swap", "", "scalar"): (-1, 1, 3, 5, "KU1"),
    ("circle", "zeta", "", "scalar"): (-1, 6),
    ("circle", "zeta", "@pm1", "scalar"): (0, 2, 4, 6, "KU0"),
    ("circle", "sigma", "", "scalar"): (2, 6),
    ("circle", "sigma", "@pm1", "scalar"): (0, 2, 4, 6, "KU0"),
}
CATALOG.update({space + (i,): () for space, ids in _TRIVIAL.items() for i in ids})


def catalog_has(rep: KOClassRep) -> bool:
    return rep.catalog_key() in CATALOG


def signature(rep: KOClassRep) -> InvariantSignature:
    """The complete invariant tuple for a cataloged (class, space) pair."""
    key = rep.catalog_key()
    if key not in CATALOG:
        raise KeyError(f"no invariant catalog entry for {key}")
    return InvariantSignature(tuple(
        (name, group, fn(rep)) for name, group, fn in CATALOG[key]))
