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
from .basespace import FnElement, Algebra
from .symclass import CLASS_IDS, KOClassRep, class_spec, neutral


class InvariantError(ValueError):
    pass


def _round_int(x: float, guard: float, what: str) -> int:
    r = int(np.rint(x))
    if abs(x - r) > guard:
        raise InvariantError(f"{what} = {x:.6f} is not within {guard} of an integer")
    return r


def _outer_value(u: FnElement, algebra: Algebra, p: int) -> np.ndarray:
    v = u.values[p]
    d = 1 if algebra is None else algebra.dim_alg
    if d == 1:
        return v
    k = v.shape[0] // d
    return np.einsum("aibi->ab", v.reshape(k, d, k, d)) / d


def half_trace(u: FnElement, p: int, algebra: Algebra = None) -> int:
    m = _outer_value(u, algebra, p)
    return _round_int(0.5 * float(np.real(np.trace(m))), 1e-6, "half trace")


def quarter_trace(u: FnElement, p: int, algebra: Algebra = None) -> int:
    m = _outer_value(u, algebra, p)
    return _round_int(0.25 * float(np.real(np.trace(m))), 1e-6, "quarter trace")


def det_sign(u: FnElement, p: int, algebra: Algebra = None) -> int:
    """+1 or -1; the determinant must be within tolerance of a unit real."""
    m = _outer_value(u, algebra, p)
    d = complex(np.linalg.det(m))
    if abs(abs(d) - 1.0) > 1e-6 or abs(np.imag(d)) > 1e-6:
        raise InvariantError(f"determinant {d:.6f} is not near +-1")
    return 1 if np.real(d) > 0 else -1


def pf_sign(u: FnElement, p: int, algebra: Algebra = None) -> int:
    """Pfaffian sign relative to the same-size neutral block stack."""
    m = _outer_value(u, algebra, p)
    if np.linalg.norm(m + m.T) > 1e-6 * max(1.0, np.linalg.norm(m)):
        raise InvariantError("value is not skew under transpose")
    ratio = matcore.pfaffian(m) / matcore.pfaffian(neutral(2, m.shape[0] // 2))
    if abs(abs(ratio) - 1.0) > 1e-6 or abs(np.imag(ratio)) > 1e-6:
        raise InvariantError(f"pfaffian ratio {ratio:.6f} is not near +-1")
    return 1 if np.real(ratio) > 0 else -1


def _dets_on_circle(u: FnElement) -> np.ndarray:
    if u.base.kind != "circle":
        raise InvariantError("winding invariants need a circle base")
    return np.linalg.det(u.values)


def _phase_sum(dets: np.ndarray, closed: bool) -> float:
    if closed:
        nxt = np.roll(dets, -1)
    else:
        nxt = dets[1:]
        dets = dets[:-1]
    inc = np.angle(nxt / dets)
    if np.max(np.abs(inc)) > np.pi / 2:
        raise InvariantError("determinant phase step exceeds pi/2: resolution too coarse")
    return float(np.sum(inc))


def winding_det(u: FnElement) -> int:
    """Winding number of det(u) around the circle."""
    total = _phase_sum(_dets_on_circle(u), closed=True)
    return _round_int(total / (2.0 * np.pi), 1e-6, "winding")


def _scalar_value(v: np.ndarray) -> complex:
    c = np.trace(v) / v.shape[0]
    if np.linalg.norm(v - c * np.eye(v.shape[0])) > 1e-6:
        raise InvariantError("arc endpoint value is not scalar")
    return complex(c)


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
    _scalar_value(u.values[0])
    _scalar_value(u.values[n // 2])
    seg = dets[idx]
    raw = _phase_sum(seg, closed=False)
    defect = float(np.angle(seg[-1] * np.conj(seg[0])))
    return -_round_int((raw - defect) / (2.0 * np.pi), 1e-6, "half winding")


def arc_winding_even(u: FnElement) -> int:
    """Winding of det over the top arc for elements whose det is even under
    the antipodal map (det values at +-1 agree)."""
    dets = _dets_on_circle(u)
    n = u.base.shape[0]
    raw = _phase_sum(dets[: n // 2 + 1], closed=False)
    return _round_int(raw / (2.0 * np.pi), 1e-6, "even arc winding")


def half_turn_parity(u: FnElement) -> int:
    """Z2 invariant of the antipodally conjugate-paired unitary classes on
    the circle: parity of the det phase carried from 1 to -1 over the top
    arc, closed up through the eigenvalue phases at z = 1."""
    dets = _dets_on_circle(u)
    n = u.base.shape[0]
    raw = _phase_sum(dets[: n // 2 + 1], closed=False)
    mu = np.linalg.eigvals(u.values[0])
    nu = raw / (2.0 * np.pi) + float(np.sum(np.angle(mu))) / np.pi
    return _round_int(nu, 1e-4, "half-turn parity") % 2


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
        if abs(m0 - m1) > 1e-6:
            raise InvariantError("fixed-point value is not Kramers degenerate")
        total += 2.0 * float(np.angle((m0 + m1) / 2.0))
    return total / (2.0 * np.pi)


def sp_half_turn_parity(u: FnElement) -> int:
    """Z2 invariant of the quaternionic-symmetric circle classes with
    conjugation involution: det phase over the top arc, closed through
    the (Kramers-paired) eigenvalue phases at the fixed points."""
    dets = _dets_on_circle(u)
    n = u.base.shape[0]
    raw = _phase_sum(dets[: n // 2 + 1], closed=False) / (2.0 * np.pi)
    nu = raw + _kramers_phase_sum(u.values[0]) - _kramers_phase_sum(u.values[n // 2])
    return _round_int(nu, 1e-4, "quaternionic half-turn parity") % 2


def arc_winding_det1(u: FnElement) -> int:
    """Winding of det over the top arc for classes whose fixed-point values
    are quaternionic unitaries (det 1 there), so the arc phase is integral."""
    dets = _dets_on_circle(u)
    n = u.base.shape[0]
    for p in (0, n // 2):
        if abs(dets[p] - 1.0) > 1e-6:
            raise InvariantError("fixed-point determinant is not 1")
    raw = _phase_sum(dets[: n // 2 + 1], closed=False)
    return _round_int(raw / (2.0 * np.pi), 1e-6, "arc winding")


def winding_pairs(u: FnElement) -> int:
    """Half the full det winding; integral when det is antipodally even."""
    w = winding_det(u)
    if w % 2:
        raise InvariantError("det winding is odd; element breaks the pairing symmetry")
    return w // 2


def _occupied_frames(u: FnElement) -> np.ndarray:
    """(npoints, dim, rank) orthonormal frames of the positive eigenspaces:
    the last rank eigenvector columns, since eigenvalues ascend."""
    w, v = np.linalg.eigh(u.values)
    if np.min(np.abs(w)) < 0.5:
        raise InvariantError("spectral gap at 0 closes on the grid")
    ranks = np.count_nonzero(w > 0, axis=1)
    if np.any(ranks != ranks[0]):
        raise InvariantError("occupied rank is not constant over the grid")
    return v[:, :, u.dim - ranks[0]:]


def _unit_links(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Phases of det(a^H b) over stacks of frames."""
    z = np.linalg.det(np.conj(np.swapaxes(a, -1, -2)) @ b)
    if np.min(np.abs(z)) < 0.1:
        raise InvariantError("frame overlap nearly singular: resolution too coarse")
    return z / np.abs(z)


def chern_of_projection(u: FnElement) -> int:
    """First Chern number of p = (u+1)/2 by plaquette flux summation.

    Links are determinants of frame overlaps, so the total is an exact
    multiple of 2*pi whenever every plaquette flux stays below pi
    (Fukui-Hatsugai-Suzuki).  Columns always wrap; rows wrap on the torus
    only, since the first and last rows of a disk or sphere are not
    neighbours.
    """
    base = u.base
    if base.kind not in ("disk", "sphere2", "torus2"):
        raise InvariantError(f"no plaquette decomposition for {base.kind!r}")
    f = _occupied_frames(u)
    f = f.reshape(base.shape + f.shape[1:])
    if base.kind == "torus2":
        f = np.concatenate([f, f[:1]])
    across = _unit_links(f, np.roll(f, -1, axis=1))
    along = _unit_links(f[:-1], f[1:])
    flux = np.angle(across[:-1] * np.roll(along, -1, axis=1)
                    * np.conj(across[1:]) * np.conj(along))
    if np.max(np.abs(flux)) > np.pi - 1e-9:
        raise InvariantError("plaquette flux at pi: resolution too coarse")
    return _round_int(float(np.sum(flux)) / (2.0 * np.pi), 1e-6, "chern number")


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
    return _round_int(np.real(deg), 0.2, "three-sphere winding")


def qc_half_trace(u: FnElement, algebra: Algebra = None,
                  deconjugate: np.ndarray = None) -> int:
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
    if np.linalg.norm(off) > 1e-6:
        raise InvariantError("endpoint value is not block diagonal")
    return _round_int(0.5 * float(np.real(np.trace(phi))), 1e-6,
                      "endpoint half trace")


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

    def __neg__(self) -> "InvariantSignature":
        return InvariantSignature(tuple(
            (n, g, v % 2 if g == "Z2" else -v) for n, g, v in self.entries))

    @property
    def is_zero(self) -> bool:
        return all(v == 0 for _, _, v in self.entries)

    def values(self) -> tuple:
        return tuple(v for _, _, v in self.entries)

    def as_dict(self) -> dict:
        return {n: v for n, _, v in self.entries}


def _z2(sign: int) -> int:
    return (1 - sign) // 2


def _mk(name, group, fn):
    return (name, group, fn)


def _bp(rep):
    return rep.base.basepoint


def _mid(rep):
    return rep.base.shape[0] // 2


_D = {
    "half_trace": lambda rep: half_trace(rep.element, _bp(rep), rep.algebra),
    "half_trace_0": lambda rep: half_trace(rep.element, 0, rep.algebra),
    "half_trace_1": lambda rep: half_trace(rep.element, 1, rep.algebra),
    "half_trace_mid": lambda rep: half_trace(rep.element, _mid(rep), rep.algebra),
    "quarter_trace": lambda rep: quarter_trace(rep.element, _bp(rep), rep.algebra),
    "quarter_trace_0": lambda rep: quarter_trace(rep.element, 0, rep.algebra),
    "quarter_trace_1": lambda rep: quarter_trace(rep.element, 1, rep.algebra),
    "det_parity": lambda rep: _z2(det_sign(rep.element, _bp(rep), rep.algebra)),
    "det_parity_0": lambda rep: _z2(det_sign(rep.element, 0, rep.algebra)),
    "det_parity_1": lambda rep: _z2(det_sign(rep.element, 1, rep.algebra)),
    "pf_parity": lambda rep: _z2(pf_sign(rep.element, _bp(rep), rep.algebra)),
    "pf_parity_0": lambda rep: _z2(pf_sign(rep.element, 0, rep.algebra)),
    "pf_parity_1": lambda rep: _z2(pf_sign(rep.element, 1, rep.algebra)),
    "pf_parity_mid": lambda rep: _z2(pf_sign(rep.element, _mid(rep), rep.algebra)),
    "winding": lambda rep: winding_det(rep.element),
    "winding_half": lambda rep: winding_half(rep.element, "top"),
    "winding_half_bottom": lambda rep: winding_half(rep.element, "bottom"),
    "winding_half_parity": lambda rep: winding_half(rep.element, "top") % 2,
    "arc_winding": lambda rep: arc_winding_even(rep.element),
    "arc_winding_det1": lambda rep: arc_winding_det1(rep.element),
    "half_turn_parity": lambda rep: half_turn_parity(rep.element),
    "sp_half_turn_parity": lambda rep: sp_half_turn_parity(rep.element),
    "winding_pairs": lambda rep: winding_pairs(rep.element),
    "chern": lambda rep: chern_of_projection(rep.element),
    "winding3": lambda rep: winding3(rep.element),
    "endpoint_half_trace": lambda rep: qc_half_trace(
        rep.element, rep.algebra, _deconjugator(rep)),
}


def _deconjugator(rep):
    """Per-block undo of a catalog entry's defining constant conjugation;
    block-diagonal sums undo blockwise."""
    if rep.algebra.label == "qc2-sharp":
        blocks = rep.element.dim // 4
        return np.kron(np.eye(blocks, dtype=complex), matcore.conjugator_w(2))
    if rep.algebra.label == "m2qc2":
        blocks = rep.element.dim // 8
        qhat = np.kron(matcore.conjugator_q(1), np.eye(2, dtype=complex))
        return np.kron(np.eye(blocks, dtype=complex), qhat)
    return None


def _entry(*names_groups):
    return tuple(_mk(n, g, _D[n]) for n, g in names_groups)


def _at_points(i, suffixes):
    """The class table's point invariant of class i, read at each point."""
    point = class_spec(i)["point"]
    return () if point is None else _entry(*((point[0] + s, point[1])
                                             for s in suffixes))


CATALOG = {
    # one point, and two points with the trivial involution
    **{("point", "id", "", "scalar", i): _at_points(i, ("",)) for i in CLASS_IDS},
    **{("twopoints", "id", "", "scalar", i): _at_points(i, ("_0", "_1"))
       for i in CLASS_IDS},
    # two points, swap involution
    ("twopoints", "swap", "", "scalar", 0): _entry(("half_trace_0", "Z")),
    ("twopoints", "swap", "", "scalar", 2): _entry(("half_trace_0", "Z")),
    ("twopoints", "swap", "", "scalar", 4): _entry(("half_trace_0", "Z")),
    ("twopoints", "swap", "", "scalar", 6): _entry(("half_trace_0", "Z")),
    ("twopoints", "swap", "", "scalar", "KU0"): _entry(("half_trace_0", "Z"),
                                                       ("half_trace_1", "Z")),
    # circle, identity involution
    ("circle", "id", "", "scalar", -1): _entry(("winding", "Z")),
    ("circle", "id", "", "scalar", "KU1"): _entry(("winding", "Z")),
    ("circle", "id", "", "scalar", "KU0"): _entry(("half_trace", "Z")),
    ("circle", "id", "@1", "scalar", -1): _entry(("winding", "Z")),
    ("circle", "id", "@1", "scalar", "KU1"): _entry(("winding", "Z")),
    ("circle", "id", "@1", "m2", 3): _entry(("winding", "Z")),
    # circle, conjugation involution
    ("circle", "zeta", "", "scalar", 0): _entry(("half_trace", "Z")),
    ("circle", "zeta", "", "scalar", 1): _entry(("winding", "Z"),
                                                ("det_parity", "Z2")),
    ("circle", "zeta", "", "scalar", 2): _entry(("pf_parity", "Z2"),
                                                ("pf_parity_mid", "Z2")),
    ("circle", "zeta", "", "scalar", 3): _entry(("sp_half_turn_parity", "Z2")),
    ("circle", "zeta", "", "scalar", 4): _entry(("quarter_trace", "Z")),
    ("circle", "zeta", "", "scalar", 5): _entry(("arc_winding_det1", "Z")),
    ("circle", "zeta", "", "scalar", "KU0"): _entry(("half_trace", "Z")),
    ("circle", "zeta", "", "scalar", "KU1"): _entry(("winding", "Z")),
    ("circle", "zeta", "@1", "scalar", 1): _entry(("winding", "Z")),
    ("circle", "zeta", "@1", "scalar", "KU1"): _entry(("winding", "Z")),
    ("circle", "zeta", "@1", "m2", 5): _entry(("winding", "Z")),
    ("circle", "zeta", "@pm1", "scalar", -1): _entry(("winding_half", "Z")),
    ("circle", "zeta", "@pm1", "scalar", 1): _entry(("winding_half", "Z")),
    ("circle", "zeta", "@pm1", "scalar", 3): _entry(("winding_half", "Z")),
    ("circle", "zeta", "@pm1", "scalar", 5): _entry(("winding_half", "Z")),
    ("circle", "zeta", "@pm1", "scalar", "KU1"): _entry(
        ("winding_half", "Z"), ("winding_half_bottom", "Z")),
    # circle, antipodal involution
    ("circle", "sigma", "", "scalar", -1): _entry(("winding_pairs", "Z")),
    ("circle", "sigma", "", "scalar", 0): _entry(("half_trace", "Z")),
    ("circle", "sigma", "", "scalar", 1): _entry(("half_turn_parity", "Z2")),
    ("circle", "sigma", "", "scalar", 3): _entry(("arc_winding", "Z")),
    ("circle", "sigma", "", "scalar", 4): _entry(("half_trace", "Z")),
    ("circle", "sigma", "", "scalar", 5): _entry(("half_turn_parity", "Z2")),
    ("circle", "sigma", "", "scalar", "KU0"): _entry(("half_trace", "Z")),
    ("circle", "sigma", "", "scalar", "KU1"): _entry(("winding", "Z")),
    ("circle", "sigma", "@pm1", "scalar", -1): _entry(("winding_half", "Z")),
    ("circle", "sigma", "@pm1", "scalar", 1): _entry(("winding_half", "Z")),
    ("circle", "sigma", "@pm1", "scalar", 3): _entry(("winding_half", "Z")),
    ("circle", "sigma", "@pm1", "scalar", 5): _entry(("winding_half", "Z")),
    ("circle", "sigma", "@pm1", "scalar", "KU1"): _entry(
        ("winding_half", "Z"), ("winding_half_bottom", "Z")),
    # disk interiors
    ("disk", "id", "@boundary", "scalar", 6): _entry(("chern", "Z")),
    ("disk", "id", "@boundary", "scalar", 2): _entry(("chern", "Z")),
    ("disk", "id", "@boundary", "scalar", "KU0"): _entry(("chern", "Z")),
    ("disk", "zeta", "@boundary", "scalar", 0): _entry(("chern", "Z")),
    ("disk", "zeta", "@boundary", "scalar", 6): _entry(("chern", "Z")),
    ("disk", "zeta", "@boundary", "scalar", "KU0"): _entry(("chern", "Z")),
    # spheres
    ("sphere2", "zeta", "@1", "scalar", 0): _entry(("chern", "Z"),
                                                   ("half_trace", "Z")),
    ("sphere2", "zeta", "@1", "scalar", "KU0"): _entry(("chern", "Z")),
    ("sphere2", "id", "@1", "scalar", 6): _entry(("chern", "Z")),
    ("sphere2", "id", "@1", "scalar", "KU0"): _entry(("chern", "Z")),
    ("sphere3", "id", "@1", "scalar", 5): _entry(("winding3", "Z")),
    ("sphere3", "id", "@1", "scalar", "KU1"): _entry(("winding3", "Z")),
    # torus
    ("torus2", "id", "", "scalar", 6): _entry(("chern", "Z")),
    ("torus2", "id", "", "scalar", "KU0"): _entry(("chern", "Z"),
                                                  ("half_trace", "Z")),
    # interval algebras with 2x2 inner blocks
    ("interval", "id", "@0", "qc2-tr", 0): _entry(("endpoint_half_trace", "Z")),
    ("interval", "id", "@0", "qc2-tr", "KU0"): _entry(("endpoint_half_trace", "Z")),
    ("interval", "id", "@0", "qc2-sharp", 2): _entry(("endpoint_half_trace", "Z")),
    ("interval", "id", "@0", "qc2-sharp", "KU0"): _entry(("endpoint_half_trace", "Z")),
    ("interval", "id", "@0", "qc2-trt", 6): _entry(("endpoint_half_trace", "Z")),
    ("interval", "id", "@0", "qc2-trt", "KU0"): _entry(("endpoint_half_trace", "Z")),
    ("interval", "id", "@0", "m2qc2", 4): _entry(("endpoint_half_trace", "Z")),
    ("interval", "id", "@0", "m2qc2", "KU0"): _entry(("endpoint_half_trace", "Z")),
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
