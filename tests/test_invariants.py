from copy import deepcopy
from dataclasses import replace
import re

import numpy as np
import pytest

from tenfold import catalog, invariants, serialize
from tenfold.basespace import (FnElement, constant_element,
                               sample_space, ses_registry, with_pinned)
from tenfold.boundary import RimFrames, boundary_map
from tenfold.invariants import (InvariantError, _link_fluxes, _occupied_frames,
                                _plaquette_fluxes, _unit, _unit_links,
                                arc_winding_det1,
                                chern_of_projection, det_sign, half_trace,
                                half_turn_parity, pf_sign, qc_half_trace,
                                quarter_trace, signature, sp_half_turn_parity,
                                winding_det, winding_half, winding_pairs)
from tenfold.symclass import add, check_membership, forget_to_ku, neutral
from tenfold.verify import random_class_element

from helpers import block_diag, chern_readings, rim_frames_stack

RNG = np.random.default_rng(31)
POINT = sample_space("point")


def const(m):
    return constant_element(POINT, np.asarray(m, dtype=complex))


def circle_elem(values, involution="zeta", res=64):
    base = sample_space("circle", res, involution)
    return FnElement(base, values(base))


def zfun(base):
    return base.points[:, 0] + 1j * base.points[:, 1]


def test_half_trace_examples():
    assert half_trace(const(neutral(0, 1)), 0) == 0
    assert half_trace(const(np.eye(2)), 0) == 1
    assert half_trace(const(np.diag([1.0, 1, 1, -1])), 0) == 1


def test_quarter_trace_examples():
    assert quarter_trace(const(neutral(4, 1)), 0) == 0
    assert quarter_trace(const(np.eye(4)), 0) == 1
    assert quarter_trace(const(np.eye(8)), 0) == 2


def test_det_sign_examples():
    assert det_sign(const(np.eye(3)), 0) == 1
    assert det_sign(const([[-1.0]]), 0) == -1
    assert det_sign(const(np.diag([-1.0, -1.0])), 0) == 1
    with pytest.raises(InvariantError):
        det_sign(const(np.diag([0.5, 1.0])), 0)
    with pytest.raises(InvariantError):
        det_sign(const(np.diag([1j, 1.0])), 0)


def test_pf_sign_examples():
    assert pf_sign(const(neutral(2, 1)), 0) == 1
    assert pf_sign(const(-neutral(2, 1)), 0) == -1
    assert pf_sign(const(block_diag(neutral(2, 1), -neutral(2, 1))), 0) == -1
    with pytest.raises(InvariantError):
        pf_sign(const(np.diag([1.0, -1.0])), 0)


def test_winding_det_examples():
    u = circle_elem(lambda b: zfun(b)[:, None, None] * np.eye(1))
    assert winding_det(u) == 1
    assert winding_det(circle_elem(
        lambda b: np.broadcast_to(np.eye(2), (b.npoints, 2, 2)).copy())) == 0
    u2 = circle_elem(lambda b: (zfun(b) ** 2)[:, None, None] * np.eye(1))
    assert winding_det(u2) == 2
    assert winding_det(u2.adjoint()) == -2


def test_winding_resolution_guard():
    u = circle_elem(lambda b: (zfun(b) ** 5)[:, None, None] * np.eye(1), res=16)
    with pytest.raises(InvariantError):
        winding_det(u)


def test_winding_half_examples():
    w3 = catalog.generator("circle_zeta_k3", 64).element
    assert winding_half(w3) % 2 == 1
    const2 = circle_elem(
        lambda b: np.broadcast_to(np.eye(2), (b.npoints, 2, 2)).copy())
    assert winding_half(const2) == 0
    # diag(v, v) built from the boundary pipeline is twice a generator
    ses = ses_registry("circle-sigma", 64)
    w = FnElement(ses.quotient,
                  np.stack([np.eye(2, dtype=complex), -np.eye(2, dtype=complex)]))
    out = boundary_map(w, 2, ses)
    assert winding_half(out.rep.element) == 2


def test_winding_half_needs_scalar_endpoints():
    base = sample_space("circle", 32, "zeta")
    vals = np.zeros((32, 2, 2), dtype=complex)
    z = zfun(base)
    vals[:, 0, 0] = z
    vals[:, 1, 1] = 1.0
    with pytest.raises(InvariantError):
        winding_half(FnElement(base, vals))


def test_quaternionic_circle_invariants():
    # the shift-pair symbol is the nontrivial torsion class
    base = sample_space("circle", 64, "zeta")
    z = zfun(base)
    vals = np.zeros((64, 2, 2), dtype=complex)
    vals[:, 0, 0] = z
    vals[:, 1, 1] = np.conj(z)
    assert sp_half_turn_parity(FnElement(base, vals)) == 1
    w3 = catalog.generator("circle_zeta_k3").element
    assert sp_half_turn_parity(w3) == 1
    one = constant_element(base, np.eye(2, dtype=complex))
    assert sp_half_turn_parity(one) == 0
    vals5 = np.zeros((64, 2, 2), dtype=complex)
    vals5[:, 0, 0] = z
    vals5[:, 1, 1] = z
    assert arc_winding_det1(FnElement(base, vals5)) == 1


def _constant_on_circle(m, involution="zeta", res=64):
    return circle_elem(lambda b: np.broadcast_to(np.asarray(m, dtype=complex),
                                                 (b.npoints,) + np.shape(m)).copy(),
                       involution, res)


def _non_scalar_endpoints():
    return circle_elem(lambda b: np.stack([np.diag([z, 1.0]) for z in zfun(b)]))


# each reader's refusal text, as it reaches stderr on exit 3
_REFUSALS = {
    "det": (lambda: det_sign(const(np.diag([0.5, 1.0])), 0),
            "determinant 0.500000+0.000000j is not near +-1"),
    "pf": (lambda: pf_sign(const(2 * neutral(2, 1)), 0),
           "pfaffian ratio 2.000000+0.000000j is not near +-1"),
    "skew": (lambda: pf_sign(const(np.diag([1.0, -1.0])), 0),
             "value is not skew under transpose"),
    "half_trace": (lambda: half_trace(const(np.diag([1.0, 0.5])), 0),
                   "half trace = 0.750000 is not within 1e-06 of an integer"),
    "quarter_trace": (lambda: quarter_trace(const(np.diag([1.0, 1.0, 1.0, 0.5])), 0),
                      "quarter trace = 0.875000 is not within 1e-06 of an integer"),
    "endpoint": (lambda: winding_half(_non_scalar_endpoints()),
                 "arc endpoint value is not scalar"),
    "parity": (lambda: half_turn_parity(_constant_on_circle([[np.exp(0.3j)]], "sigma")),
               "half-turn parity = 0.095493 is not within 0.0001 of an integer"),
    "kramers": (lambda: sp_half_turn_parity(_constant_on_circle(np.diag([1.0, 1j]))),
                "fixed-point value is not Kramers degenerate"),
    "det1": (lambda: arc_winding_det1(_constant_on_circle(np.diag([1.0, -1.0]))),
             "fixed-point determinant is not 1"),
    "pairs": (lambda: winding_pairs(circle_elem(lambda b: zfun(b)[:, None, None], "sigma")),
              "det winding is odd; element breaks the pairing symmetry"),
    "step": (lambda: winding_det(circle_elem(lambda b: (zfun(b) ** 5)[:, None, None],
                                             res=16)),
             "determinant phase step exceeds pi/2: resolution too coarse "
             "(largest step 1.9635 on 16 grid points)"),
    "circle": (lambda: winding_det(const(np.eye(1))), "winding invariants need a circle base"),
    "block": (lambda: qc_half_trace(FnElement(sample_space("interval", 8), np.broadcast_to(
        np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex), (9, 2, 2)).copy())),
        "endpoint value is not block diagonal"),
}


@pytest.mark.parametrize("name", _REFUSALS)
def test_reader_refusal_texts(name):
    read, text = _REFUSALS[name]
    with pytest.raises(InvariantError, match="^" + re.escape(text) + "$"):
        read()


def test_chern_examples():
    rep = catalog.generator("sphere_ko0", (16, 16))
    u = rep.element
    assert abs(chern_of_projection(u)) == 1
    base = u.base
    const0 = constant_element(base, neutral(0, 1))
    assert chern_of_projection(const0) == 0
    dbl = add(u, u, 0)
    assert chern_of_projection(dbl) == 2 * chern_of_projection(u)


def test_chern_grid_independence():
    c = [chern_of_projection(catalog.generator("sphere_ko0", (r, r)).element)
         for r in (16, 32)]
    assert c[0] == c[1]


def test_chern_gap_guard():
    base = sample_space("torus2", (8, 8))
    vals = np.zeros((64, 2, 2), dtype=complex)
    vals[:, 0, 0] = 0.1
    vals[:, 1, 1] = -0.1
    with pytest.raises(InvariantError):
        chern_of_projection(FnElement(base, vals))


def _disk_diag(signs):
    """Diagonal disk element whose per-point eigenvalues are signs(angle)."""
    base = sample_space("disk", (5, 16))
    angle = np.arange(base.npoints) % 16
    return FnElement(base, np.stack([np.diag(signs(k)) for k in angle]).astype(complex))


def test_chern_rank_guard():
    u = _disk_diag(lambda k: [1.0, 1.0 if k == 3 else -1.0])
    with pytest.raises(InvariantError, match="occupied rank is not constant"):
        chern_of_projection(u)


def test_chern_link_guard():
    u = _disk_diag(lambda k: [1.0, -1.0] if k < 8 else [-1.0, 1.0])
    with pytest.raises(InvariantError, match="frame overlap nearly singular"):
        chern_of_projection(u)


def _tilted_plaquette(theta):
    """(u, frames) on a (17, 32) disk: every frame is the north spinor but
    the four corners of one plaquette, tilted to polar angle theta at
    azimuths 0, pi/2, pi and 3pi/2 in the plaquette's order; u = 2ff* - 1."""
    base = sample_space("disk", (17, 32))
    f = np.zeros((base.npoints, 2, 1), dtype=complex)
    f[:, 0, 0] = 1.0
    corners = ((8, 10), (8, 11), (9, 11), (9, 10))
    for (row, col), phi in zip(corners, np.arange(4) * np.pi / 2):
        f[row * base.shape[1] + col, :, 0] = (np.cos(theta / 2),
                                             np.exp(1j * phi) * np.sin(theta / 2))
    return FnElement(base, 2.0 * f @ f.conj().swapaxes(1, 2) - np.eye(2)), f


def test_chern_flux_margin_sits_below_pi():
    """A plaquette flux of 2.47 is read (the fluxes cancel to 0), and a
    flux of exactly pi, the equator's half turn, is refused; the reader's
    own frames give the fluxes of the frames that built u."""
    u, f = _tilted_plaquette(1.4)
    flux = _plaquette_fluxes(u.base, _occupied_frames(u))
    assert 2.4 < np.abs(flux).max() < 2.5
    assert np.abs(flux - _plaquette_fluxes(u.base, f)).max() < 1e-12
    assert chern_of_projection(u) == 0
    u, f = _tilted_plaquette(np.pi / 2)
    for frames in (f, _occupied_frames(u)):
        with pytest.raises(InvariantError, match="plaquette flux at pi"):
            _plaquette_fluxes(u.base, frames)
    with pytest.raises(InvariantError, match="plaquette flux at pi"):
        chern_of_projection(u)


def test_winding3_guard_refuses_a_coarse_degree():
    """The squared 3-sphere generator reads -1.707 at (10, 10, 10), outside
    the guard, and -1.881 at (16, 16, 16), which rounds to -2."""
    for res, want in (((10, 10, 10), None), ((16, 16, 16), -2)):
        u = catalog.generator("sphere3_ko5", res).element
        square = FnElement(u.base, u.values @ u.values)
        if want is None:
            with pytest.raises(InvariantError, match=r"winding = -1\.707\d* is not within"):
                invariants.winding3(square)
        else:
            assert invariants.winding3(square) == want


@pytest.mark.parametrize("res", [16, (24, 16), 32])
def test_chern_torus_rows_wrap(res):
    assert chern_of_projection(catalog.generator("torus_bott", res).element) == 1


def _frames_reference(u):
    """Orthonormal frames of the positive eigenspaces of u by eigh of u
    itself, with the gap at 0 as the only guard: an independent reading of
    the frames that _occupied_frames takes from eigh of p = (u+1)/2."""
    w, v = np.linalg.eigh(u.values)
    if np.min(np.abs(w)) < 0.5:
        raise InvariantError("spectral gap at 0 closes on the grid")
    ranks = np.count_nonzero(w > 0, axis=1)
    if np.any(ranks != ranks[0]):
        raise InvariantError("occupied rank is not constant over the grid")
    return v[:, :, u.dim - ranks[0]:]


def _assert_frames_match_reference(u):
    """The reader's own frames are an orthonormal frame of the range of p,
    and give the reference frames' flux sum and Chern number."""
    f = _occupied_frames(u)
    fh = np.conj(np.swapaxes(f, 1, 2))
    assert np.abs(fh @ f - np.eye(f.shape[2])).max() < 1e-12
    assert np.abs(f @ fh - 0.5 * (u.values + np.eye(u.dim))).max() < 1e-12
    flux = float(np.sum(_plaquette_fluxes(u.base, f)))
    ref = float(np.sum(_plaquette_fluxes(u.base, _frames_reference(u))))
    assert abs(flux - ref) < 1e-9
    c = chern_of_projection(u)
    assert c == int(np.rint(ref / (2.0 * np.pi)))
    return c


_CHERN_GENERATORS = [name for name in catalog.names() if catalog.entry(name)
                     .space.split("/")[0] in ("disk", "sphere2", "torus2")]


@pytest.mark.parametrize("res", [16, 32])
@pytest.mark.parametrize("name", _CHERN_GENERATORS)
def test_chern_frames_match_eigh_on_generators(name, res):
    rep = catalog.generator(name, res)
    assert _assert_frames_match_reference(rep.element) == \
        catalog.entry(name).expected[0]


def _boundary_images(ses, i, lift, seed):
    """Images of seeded class-i inputs of dims 2 and 4; where the class
    allows, the input is twisted by z so its image has a nonzero Chern
    number.  Each image reads the same Chern number from the rim factors
    its rep carries as from the reader's own frames."""
    rng = np.random.default_rng(seed)
    z = ses.quotient.points[:, 0] + 1j * ses.quotient.points[:, 1]
    out = []
    for dim in (2, 4):
        u = random_class_element(ses.quotient, i, dim, rng, fourier=1)
        twisted = FnElement(ses.quotient, z[:, None, None] * u.values)
        if check_membership(twisted, i).ok:
            u = twisted
        rep = boundary_map(u, i, ses, lift).rep
        rim, own = chern_readings(rep)
        assert rim == own
        out.append(rep.element)
    return out


@pytest.mark.parametrize("lift", ["natural", "taper0"])
@pytest.mark.parametrize("i", [-1, 1, 3, "KU1"])
@pytest.mark.parametrize("ses_name", ["disk-id", "disk-zeta"])
def test_chern_frames_match_eigh_on_boundary_images(ses_name, i, lift):
    ses = ses_registry(ses_name, (17, 32))
    seed = 1400 + 10 * [-1, 1, 3, "KU1"].index(i) + (ses_name == "disk-zeta")
    small, large = _boundary_images(ses, i, lift, seed)
    cs = [_assert_frames_match_reference(e) for e in (small, large)]
    total = _assert_frames_match_reference(add(small, large, -1))  # block sum
    assert total == sum(cs)


def _boundary_frames_inputs(ses):
    """(name, class, input, Chern number of the image) over a disk SES's
    quotient: diag(z, ..., z) at ranks 1, 2 and 4 under class -1 and z under
    KU1 on disk-id; the class-1 generator and its two-copy sum on disk-zeta."""
    z = ses.quotient.points[:, 0] + 1j * ses.quotient.points[:, 1]
    if ses.name == "disk-id":
        return [(f"diag(z) x{k}", i, FnElement(ses.quotient, z[:, None, None] * np.eye(k)), -k)
                for i, k in ((-1, 1), (-1, 2), (-1, 4), ("KU1", 1))]
    k1 = catalog.generator("circle_zeta_k1", ses.quotient.shape[0]).element
    return [("circle_zeta_k1", 1, k1, -1), ("circle_zeta_k1 x2", 1, add(k1, k1, 1), -2)]


def _classified_from_json(rep):
    """The rep's element written as JSON, read back and checked in its class."""
    u, alg = serialize.element_from_json(serialize.element_to_json(rep.element, rep.algebra))
    return check_membership(u, rep.class_id, alg)


@pytest.mark.parametrize("lift", ["natural", "taper0"])
@pytest.mark.parametrize("res", [(17, 32), None])
@pytest.mark.parametrize("ses_name", ["disk-id", "disk-zeta"])
def test_chern_reads_boundary_frames(ses_name, res, lift):
    """An odd boundary image's rep carries the rim factors of its isometry
    as frames; the signature read from them equals the reader's own, with
    flux sums equal within 1e-12 (and so do the frames they form on first
    read), and so does a rep of the same element without frames (forgotten
    to KU0, or classified from its JSON)."""
    ses = ses_registry(ses_name, res)
    for name, i, u, want in _boundary_frames_inputs(ses):
        rep = boundary_map(u, i, ses, lift).rep
        elem = rep.element
        frames = rep.frames
        assert (frames.base, frames.dim, frames.rank) == (elem.base, elem.dim, elem.dim // 2), name
        assert signature(rep).as_dict() == {"chern": want}, name
        assert chern_of_projection(elem) == want, name
        ref = float(np.sum(_plaquette_fluxes(elem.base, _occupied_frames(elem))))
        for flux in (_rim_fluxes(frames),
                     _plaquette_fluxes(elem.base, rim_frames_stack(frames))):
            assert abs(float(np.sum(flux)) - ref) < 1e-12, name
        plain = [_classified_from_json(rep)]
        if rep.class_id != "KU0":
            plain.append(forget_to_ku(rep))
        for other in plain:
            assert other.ok and other.frames is None, name
            assert signature(other).as_dict() == {"chern": want}, name


def _rim_fluxes(frames):
    """The plaquette fluxes chern_of_projection reads from a RimFrames."""
    return _link_fluxes(*map(_unit, frames.link_dets()))


def _degree_loops(ses):
    """(name, values, Chern number of the image) over a disk SES's quotient:
    z^k at rank 1, whose image reads -k, and diag(z, z^2), which reads -3."""
    z = ses.quotient.points[:, 0] + 1j * ses.quotient.points[:, 1]
    loops = [(f"z^{k}", z[:, None, None] ** k, -k) for k in (1, -2, 3, 15)]
    pair = np.zeros((len(z), 2, 2), dtype=complex)
    pair[:, 0, 0], pair[:, 1, 1] = z, z * z
    return loops + [("diag(z, z^2)", pair, -3)]


@pytest.mark.parametrize("lift", ["natural", "taper0"])
@pytest.mark.parametrize("res", [(17, 32), (33, 64)])
@pytest.mark.parametrize("ses_name,i", [("disk-id", -1), ("disk-id", "KU1"),
                                        ("disk-zeta", 1)])
def test_chern_rim_links_read_known_degrees(ses_name, i, res, lift):
    """The images of loops of known degree read it from the rim factors as
    from the reader's own frames, with flux sums equal within 1e-12."""
    ses = ses_registry(ses_name, res)
    for name, values, want in _degree_loops(ses):
        rep = boundary_map(FnElement(ses.quotient, values), i, ses, lift).rep
        assert chern_readings(rep) == [want, want], name
        assert signature(rep).as_dict() == {"chern": want}, name
        rim = float(np.sum(_rim_fluxes(rep.frames)))
        own = float(np.sum(_plaquette_fluxes(rep.base, _occupied_frames(rep.element))))
        assert abs(rim - own) < 1e-12, name


@pytest.mark.parametrize("ses_name,i", [("disk-id", -1), ("disk-id", "KU1"),
                                        ("disk-zeta", 1)])
def test_chern_rim_links_keep_the_guards(ses_name, i):
    """At (17, 32) the image of z^16 is too coarse to read: LINK_FLOOR
    refuses it under the natural lift and FLUX_MARGIN under taper0, with
    the same message from the rim factors as from the reader's own frames."""
    ses = ses_registry(ses_name, (17, 32))
    z = ses.quotient.points[:, 0] + 1j * ses.quotient.points[:, 1]
    u = FnElement(ses.quotient, z[:, None, None] ** 16)
    for lift, message in (("natural", "frame overlap nearly singular"),
                          ("taper0", "plaquette flux at pi")):
        rep = boundary_map(u, i, ses, lift).rep
        want = f"{message}: resolution too coarse"
        assert chern_readings(rep) == [want, want], lift
        with pytest.raises(InvariantError, match=want):
            signature(rep)


def _disk_z_image(res, k):
    """The rep of the disk-id class -1 image of diag(z, ..., z) at rank k."""
    ses = ses_registry("disk-id", res)
    z = ses.quotient.points[:, 0] + 1j * ses.quotient.points[:, 1]
    return boundary_map(FnElement(ses.quotient, z[:, None, None] * np.eye(k)), -1, ses).rep


def test_chern_refuses_mismatched_frames():
    """RimFrames over another grid than the element's are refused by base,
    and RimFrames of another rank or dim by those; the trace of the element
    sets the rank: it must be the same at every point, with or without
    frames."""
    rep = _disk_z_image((9, 16), 2)
    assert chern_of_projection(rep.element, rep.frames) == -2
    with pytest.raises(InvariantError, match="^frames built over another base than the element's$"):
        chern_of_projection(rep.element, _disk_z_image((17, 32), 2).frames)
    nr, nt = rep.base.shape
    wrong = [RimFrames(rep.base, np.zeros((2, nt, k, n)), np.zeros((2, nt, k, nr)))
             for k, n in ((1, 4), (3, 4), (2, 8))]
    for bad in wrong + [_disk_z_image((9, 16), 1).frames]:
        with pytest.raises(InvariantError, match=re.escape(
                f"rank-{bad.rank} frames of dim {bad.dim} do not span the rank-2 ranges "
                f"of a dim-4 element")):
            chern_of_projection(rep.element, bad)
    u = _disk_diag(lambda k: [1.0, 1.0 if k == 3 else -1.0])
    for frames in (None, _disk_z_image((5, 16), 1).frames):
        with pytest.raises(InvariantError, match="occupied rank is not constant"):
            chern_of_projection(u, frames)


def test_chern_reads_frames_only_over_their_base():
    """The disk-id (9, 16) image of z reads -1 from its rim frames.  Its
    values put on a torus2 (9, 16) base, whose wrapped row the rim frames
    have no links for, are refused with those frames, by base, as the
    reader's own frames refuse them."""
    rep = _disk_z_image((9, 16), 1)
    assert chern_readings(rep) == [-1, -1]
    torus = FnElement(sample_space("torus2", (9, 16)), rep.element.values)
    with pytest.raises(InvariantError, match="^frames built over another base than the element's$"):
        chern_of_projection(torus, rep.frames)
    with pytest.raises(InvariantError, match="frame overlap nearly singular"):
        chern_of_projection(torus)


def test_reps_with_frames_compare_by_value():
    rep = _disk_z_image((9, 16), 1)
    copy = replace(rep, frames=deepcopy(rep.frames))
    bare = replace(rep, frames=None)
    assert rep == copy == bare
    assert repr(rep) == repr(copy) == repr(bare)
    assert "frames" not in repr(rep)


def _unit_links_reference(a, b):
    """det(a^H b) over its modulus, by matmul and a general determinant."""
    z = np.linalg.det(np.conj(np.swapaxes(a, -1, -2)) @ b)
    return z / np.abs(z)


def _orthonormal(m):
    return np.linalg.qr(m)[0]


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_unit_links_match_det(rank):
    """matcore._dets of the overlap matrix, by its rank-1 and rank-2 entry
    forms, the rank-4 Laplace expansion and the general path (rank 3),
    gives det(a^H b) to roundoff, on contiguous and on column-strided
    frames."""
    rng = np.random.default_rng(70 + rank)
    for dim in sorted({rank, rank + 1, 2 * rank}):
        shape = (5, 7, dim, rank)
        a = _orthonormal(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        b = _orthonormal(a + 0.2 * (rng.standard_normal(shape)
                                    + 1j * rng.standard_normal(shape)))
        want = _unit_links_reference(a, b)
        for layout in (np.ascontiguousarray, lambda f: np.ascontiguousarray(
                np.swapaxes(f, -1, -2)).swapaxes(-1, -2)):
            got = _unit_links(layout(a), layout(b))
            assert got.shape == want.shape
            assert np.abs(got - want).max() < 1e-12


def test_unit_links_of_rank_zero_frames_are_one():
    a = np.zeros((4, 6, 2, 0), dtype=complex)
    assert np.array_equal(_unit_links(a, a), np.ones((4, 6), dtype=complex))


@pytest.mark.parametrize("res", [16, 32])
def test_chern_links_keep_the_integers(res, monkeypatch):
    """The links from matcore._dets read the same Chern numbers and, to
    roundoff, the same flux sums as links from a general determinant, on the disk
    boundary images and the sphere and torus generators."""
    elements = [catalog.generator(name, res).element for name in _CHERN_GENERATORS]
    for seed, (ses_name, i) in enumerate((("disk-id", -1), ("disk-id", 3),
                                          ("disk-zeta", 1), ("disk-zeta", "KU1"))):
        ses = ses_registry(ses_name, (res // 2 + 1, res))
        elements += _boundary_images(ses, i, "natural", 1500 + seed)
    def fluxes():
        return [float(np.sum(_plaquette_fluxes(e.base, _occupied_frames(e))))
                for e in elements]

    flux, got = fluxes(), [chern_of_projection(e) for e in elements]
    monkeypatch.setattr(invariants, "_unit_links", _unit_links_reference)
    assert [chern_of_projection(e) for e in elements] == got
    assert np.abs(np.subtract(flux, fluxes())).max() < 1e-9
    assert any(got)


def _perturbed(u, size, seed):
    """u plus a seeded Hermitian field of spectral norm size at each point."""
    rng = np.random.default_rng(seed)
    h = rng.standard_normal(u.values.shape) + 1j * rng.standard_normal(u.values.shape)
    h = h + np.conj(np.swapaxes(h, 1, 2))
    h *= size / np.linalg.norm(h, ord=2, axis=(1, 2))[:, None, None]
    return FnElement(u.base, u.values + h)


@pytest.mark.parametrize("name", ["torus_bott", "sphere_ko0"])
def test_chern_reads_near_unitary_elements(name):
    u = catalog.generator(name, 16).element
    v = _perturbed(u, 5e-5, 7)
    residual = np.abs(np.conj(np.swapaxes(v.values, 1, 2)) @ v.values
                      - np.eye(v.dim)).max()
    assert 5e-5 < residual < 2e-4
    assert chern_of_projection(v) == chern_of_projection(u) != 0


def _unit_non_orthogonal():
    """2p - 1 for p = c1 c1* + c2 c2*, unit columns at angle arccos(0.548):
    every diagonal entry of p is at most 1 and its trace is 2, but its
    eigenvalues are 1 +- 0.548 and 0."""
    c1 = np.sqrt([0.7, 0.15, 0.15])
    c2 = np.sqrt([0.0, 0.5, 0.5])
    return 2.0 * (np.outer(c1, c1) + np.outer(c2, c2)) - np.eye(3)


# p = (u+1)/2 an eigenvalue away from its target of 1 or 0: 0.2 for
# diag(0.6, -0.6), 0.3 above target 0 (p = diag(1, 0.3)), 0.25 above
# target 1 (p = diag(1.25, 0)), and 0.548 for two non-orthogonal columns
@pytest.mark.parametrize("value", [np.diag([0.6, -0.6]), np.diag([1.0, -0.4]),
                                   np.diag([1.5, -1.0]), _unit_non_orthogonal()])
def test_chern_refuses_gapped_non_unitary(value):
    base = sample_space("torus2", (8, 8))
    u = constant_element(base, value.astype(complex))
    with pytest.raises(InvariantError, match=r"^\(u\+1\)/2 is 0\.[2-5]\d* from a projection "
                                             r"\(bound 0\.05\)$"):
        chern_of_projection(u)


def test_signature_catalog_dispatch():
    w2 = catalog.generator("circle_zeta_k2")
    assert signature(w2).as_dict() == {"pf_parity": 0, "pf_parity_mid": 1}
    neutral_rep = check_membership(
        constant_element(sample_space("circle", 32, "zeta"), neutral(2, 1)), 2)
    assert signature(neutral_rep).is_zero
    w1 = catalog.generator("circle_zeta_k1")
    assert signature(w1).values() == (1, 0)


def test_signature_uncataloged_is_hard_error():
    base = sample_space("torus2", (8, 8))
    rep = check_membership(constant_element(base, np.eye(1, dtype=complex)), -1)
    with pytest.raises(KeyError):
        signature(rep)


def test_signature_additive_and_neutral_zero():
    for name in ("circle_zeta_k1", "circle_sigma_k3", "const_k4"):
        rep = catalog.generator(name, 32)
        i = catalog.entry(name).class_id
        dbl = check_membership(add(rep.element, rep.element, i, rep.algebra),
                               i, rep.algebra)
        assert (signature(rep) + signature(rep)).values() == \
            signature(dbl).values()


def test_signature_stabilization_invariance():
    from tenfold.symclass import stabilize
    for name in ("circle_zeta_k1", "circle_zeta_k2", "circle_sigma_k5",
                 "const_k0"):
        rep = catalog.generator(name, 32)
        i = catalog.entry(name).class_id
        st = check_membership(stabilize(rep.element, i, rep.algebra), i,
                              rep.algebra)
        assert st.ok
        assert signature(st).values() == signature(rep).values()


def test_signature_neutral_zero_across_scalar_catalog():
    from tenfold.invariants import CATALOG
    done = 0
    for key in CATALOG:
        kind, inv, pin, label, cls = key
        if label != "scalar" or kind == "sphere3":
            continue
        res = {"point": 0, "twopoints": 0, "interval": 16, "circle": 32,
               "disk": (5, 16), "sphere2": (8, 16), "torus2": (8, 8)}[kind]
        base = sample_space(kind, res, inv) if res else sample_space(
            kind, involution=inv)
        if pin == "@1":
            base = with_pinned(base, "basepoint")
        elif pin == "@pm1":
            base = with_pinned(base, "pm1")
        elif pin == "@boundary":
            base = with_pinned(base, "boundary")
        elif pin == "@0":
            base = with_pinned(base, "basepoint")
        u = constant_element(base, neutral(cls, 2 if cls == -1 else 1))
        rep = check_membership(u, cls)
        assert rep.ok, (key, rep.residuals)
        assert signature(rep).is_zero, key
        done += 1
    assert done > 30


def test_catalog_keys_name_the_table_algebras():
    from tenfold.basespace import ALGEBRAS
    from tenfold.invariants import CATALOG
    assert {key[3] for key in CATALOG} == set(ALGEBRAS)


def test_point_invariant_groups_agree_with_the_class_table():
    from tenfold.invariants import CATALOG, _D
    from tenfold.symclass import CLASS_IDS, class_spec
    for i in CLASS_IDS:
        point = class_spec(i)["point"]
        if point is not None:
            assert _D[point[0]][0] == point[1]
    used = {name for row in CATALOG.values() for name, _, _ in row}
    assert used == set(_D)
    assert all(group == _D[name][0] for row in CATALOG.values()
               for name, group, _ in row)
