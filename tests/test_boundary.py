import re

import numpy as np
import pytest

from tenfold import matcore
from tenfold.basespace import (LIFT_STRATEGIES, SCALAR, SES_NAMES, FnElement,
                               apply_full_involution, collar_extension,
                               collar_profile, constant_element,
                               extend_contraction, ideal_base, restrict,
                               sample_space, ses_registry)
from tenfold.boundary import (EVEN_HERM_TOL, INDEX_SQRT_TOL, INDEX_ZERO_SNAP,
                              ODD_EIG_FLOOR, _collar_frames,
                              _odd_isometry, _odd_spectrum, _reflection,
                              _rim_reflection,
                              boundary_conjugator, boundary_map, exp_unitary,
                              index_unitary, retract_contraction, symmetrize_lift)
from tenfold.invariants import InvariantError, catalog_has, signature
from tenfold.symclass import (CLASS_IDS, MembershipError, add, class_spec, classify,
                              class_structure, neutral, require_membership)
from tenfold.verify import random_class_element

from helpers import (block_diag, chern_readings, even_retraction_per_point,
                     exp_unitary_per_point, random_unitary)

RNG = np.random.default_rng(41)
POINT = sample_space("point")


def pt(m):
    return constant_element(POINT, np.asarray(m, dtype=complex))


def rand(dim):
    return RNG.standard_normal((dim, dim)) + 1j * RNG.standard_normal((dim, dim))


def test_symmetrize_fixed_points():
    a = pt(np.diag([0.3, -0.7]))
    out = symmetrize_lift(a, 0)
    assert np.allclose(out.values, a.values)


def test_symmetrize_rules():
    x = pt(rand(2))
    y = symmetrize_lift(x, 1)
    tau = apply_full_involution(y, class_structure(1, 2))
    assert np.linalg.norm(tau.values - y.adjoint().values) < 1e-13
    h = rand(2)
    h = (h + h.conj().T) / 2
    out = symmetrize_lift(pt(h), 2)
    want = (h - h.T) / 2
    assert np.allclose(out.values[0], want)


def test_retract_examples():
    small = pt(0.5 * rand(3))
    small = FnElement(POINT, small.values / np.linalg.norm(small.values[0], 2))
    assert np.allclose(retract_contraction(small, "odd").values, small.values)
    two = pt([[2.0]])
    assert np.allclose(retract_contraction(two, "odd").values[0], [[1.0]])
    h = pt(np.diag([3.0, -0.5]))
    assert np.allclose(retract_contraction(h, "even").values[0],
                       np.diag([1.0, -0.5]))
    with pytest.raises(ValueError):
        retract_contraction(pt([[0.0, 1.0], [0.0, 0.0]]), "even")


# the documented values of EVEN_HERM_TOL and EXP_HERM_TOL, written out so
# that a moved constant fails here
@pytest.mark.parametrize("call, tol", [(lambda y: retract_contraction(y, "even"), 1e-6),
                                       (exp_unitary, 1e-7)],
                         ids=["retract_contraction-even", "exp_unitary"])
def test_even_hermitian_guards_sit_at_their_tolerance(call, tol):
    """An even lift whose Hermitian residual is twice the call's tolerance is
    refused, and one at half of it is taken."""
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])  # skew - skew* = 2 skew, of norm 2 sqrt(2)
    at = lambda factor: pt(np.diag([0.3, -0.5]) + factor * tol / (2.0 * np.sqrt(2.0)) * skew)
    m = at(2.0).values[0]
    assert np.linalg.norm(m - m.conj().T) == pytest.approx(2.0 * tol)
    with pytest.raises(ValueError, match="not Hermitian"):
        call(at(2.0))
    call(at(0.5))


@pytest.mark.parametrize("name, i", [("circle-zeta", 0), ("disk-id", -1)])
def test_lift_restriction_guard(name, i):
    """A class member moved off its class by 1e-5 noise (and scaled inside
    the unit ball) passes membership at tol 1e-3, but its symmetrized lift
    misses it by about that noise: refused.  At 1e-9 noise it is taken."""
    ses = ses_registry(name, (9, 16) if name.startswith("disk") else None)
    rng = np.random.default_rng(7)
    u = random_class_element(ses.quotient, i, 2, rng, fourier=2)
    noise = rng.standard_normal(u.values.shape) + 1j * rng.standard_normal(u.values.shape)
    spoilt = lambda eps: FnElement(u.base, (1.0 - 10.0 * eps) * u.values + eps * noise)
    with pytest.raises(MembershipError, match="no longer restricts to the input"):
        boundary_map(spoilt(1e-5), i, ses, tol=1e-3)
    out = boundary_map(spoilt(1e-9), i, ses, tol=1e-3)
    assert out.residuals["lift_restriction"] < 1e-8


EVEN_CLASSES = (0, 2, 4, 6, "KU0")


def _even_draws(ses, rng, per_class):
    """Seeded class-i elements over the quotient of a circle sequence."""
    for i in EVEN_CLASSES:
        for _ in range(per_class):
            try:
                yield i, random_class_element(ses.quotient, i, 4 if i == 4 else 2,
                                              rng, fourier=2)
            except RuntimeError:  # no gapped even-class draw
                continue


@pytest.mark.parametrize("ses_name", ["circle-zeta", "circle-sigma"])
def test_stacked_even_retraction_matches_per_point_bytes(ses_name):
    """One clamp_spectrum call on the whole stack equals a call per grid
    point byte for byte, on symmetrized lifts and on lifts scaled so the
    clamp acts."""
    ses = ses_registry(ses_name, 64)
    rng = np.random.default_rng(sum(map(ord, ses_name)))
    seen = 0
    for i, u in _even_draws(ses, rng, 2):
        for lift in LIFT_STRATEGIES:
            sym = symmetrize_lift(extend_contraction(u, ses, lift), i,
                                  SCALAR)
            for y in (sym, FnElement(sym.base, 1.5 * sym.values)):
                got = retract_contraction(y, "even").values
                assert got.tobytes() == even_retraction_per_point(y).tobytes()
                seen += 1
    assert seen >= 32


@pytest.mark.parametrize("ses_name", ["circle-zeta", "circle-sigma"])
def test_stacked_even_exponential_matches_per_point_bytes(ses_name):
    """One neg_exp_pi_i call on the whole stack equals a call per grid point
    byte for byte, on the retracted lifts of seeded draws and of the circle
    anchors, under both lift strategies."""
    ses = ses_registry(ses_name, 64)
    rng = np.random.default_rng(sum(map(ord, ses_name)))
    anchors = [(i, _circle_anchor(ses, a, b))
               for i, name, a, b in EVEN_ANCHORS if name == ses_name]
    seen = 0
    for i, u in [*_even_draws(ses, rng, 2), *anchors]:
        for lift in LIFT_STRATEGIES:
            sym = symmetrize_lift(extend_contraction(u, ses, lift), i,
                                  SCALAR)
            a = retract_contraction(sym, "even")
            assert exp_unitary(a).values.tobytes() == exp_unitary_per_point(a).tobytes()
            seen += 1
    assert seen >= 20


def _circle_anchor(ses, a, b):
    return FnElement(ses.quotient, np.stack([a, b]).astype(complex))


@pytest.mark.parametrize("ses_name", ["circle-zeta", "circle-sigma"])
def test_even_lift_strategies_share_signatures(ses_name):
    """Both lift strategies give every even class the same signature, on
    seeded draws and on the anchors of the circle tables."""
    ses = ses_registry(ses_name, 64)
    rng = np.random.default_rng(2018)
    e2 = np.eye(2)
    if ses_name == "circle-zeta":
        anchors = [(0, _circle_anchor(ses, e2, neutral(0, 1))),
                   (0, _circle_anchor(ses, neutral(0, 1), e2))]
    else:
        anchors = [(i, _circle_anchor(ses, e2, -e2)) for i in (2, 6)]
    nonzero = 0
    for i, u in [*_even_draws(ses, rng, 4), *anchors]:
        s1 = signature(boundary_map(u, i, ses, "natural").rep).values()
        s2 = signature(boundary_map(u, i, ses, "taper0").rep).values()
        assert s1 == s2, (i, s1, s2)
        nonzero += any(s1)
    assert nonzero >= 2


def test_class4_anchor_under_taper0_needs_resolution_128():
    """(1_4, neutral(4, 1)) reads winding_half 2 under taper0 at 128 points;
    at 64 its determinant phase steps past pi/2 and the reader refuses."""
    for res in (64, 128):
        ses = ses_registry("circle-zeta", res)
        u = _circle_anchor(ses, np.eye(4), neutral(4, 1))
        rep = boundary_map(u, 4, ses, "taper0").rep
        if res == 64:
            with pytest.raises(InvariantError, match="phase step exceeds"):
                signature(rep)
        else:
            assert signature(rep).values() == (2,)
        assert signature(boundary_map(u, 4, ses, "natural").rep).values() == (2,)


# (class, sequence, values at the two quotient points) of the even-class
# anchors of the circle tables, each of nonzero boundary signature
EVEN_ANCHORS = [(0, "circle-zeta", np.eye(2), neutral(0, 1)),
                ("KU0", "circle-zeta", np.eye(2), neutral("KU0", 1)),
                (4, "circle-zeta", np.eye(4), neutral(4, 1)),
                (2, "circle-sigma", np.eye(2), -np.eye(2)),
                (6, "circle-sigma", np.eye(2), -np.eye(2))]


# taper0 packs the exponential's winding into fewer grid points than the
# natural lift: at 64 points it refuses the class-4 anchor and the doubled
# class-0, 2, 6 and KU0 anchors, at 128 the doubled class-4 anchor
# (winding_half 4)
@pytest.mark.parametrize("lift,res", [("natural", 64), ("taper0", 256)])
def test_even_boundary_additivity_with_a_nonzero_summand(lift, res):
    """s(u) + s(v) = s(u + v) with s(u) != 0: each even-class anchor u
    against itself and against seeded draws v, whose own signatures are
    mostly 0."""
    rng = np.random.default_rng(1504)
    cases = 0
    for i, name, a, b in EVEN_ANCHORS:
        ses = ses_registry(name, res)
        u = _circle_anchor(ses, a, b)
        su = signature(boundary_map(u, i, ses, lift).rep)
        assert any(su.values()), (i, name)
        draws = [random_class_element(ses.quotient, i, len(a), rng, fourier=2)
                 for _ in range(3)]
        for v in (u, *draws):
            sv = signature(boundary_map(v, i, ses, lift).rep)
            sw = signature(boundary_map(add(u, v, i), i, ses, lift).rep)
            assert (su + sv).values() == sw.values(), (i, name, su, sv, sw)
            cases += 1
    assert cases == 20


def test_index_unitary_examples():
    u = random_unitary(3, RNG)
    b = index_unitary(pt(u)).values[0]
    assert np.allclose(b, block_diag(np.eye(3), -np.eye(3)), atol=1e-9)
    b0 = index_unitary(pt(np.zeros((2, 2)))).values[0]
    assert np.allclose(b0, block_diag(-np.eye(2), np.eye(2)))
    with pytest.raises(ValueError):
        index_unitary(pt(2.0 * np.eye(2)))


def test_stacked_odd_retraction_and_index_unitary_match_pointwise():
    base = ses_registry("disk-id", (5, 16)).total
    vals = 1.5 * (RNG.standard_normal((base.npoints, 2, 2))
                  + 1j * RNG.standard_normal((base.npoints, 2, 2)))
    vals[3] = 0.0                                  # y*y = 0: the eigenvalue floor
    vals[7] = random_unitary(2, RNG)               # 1 - a*a = 0: the zero snap
    a = retract_contraction(FnElement(base, vals), "odd")
    b = index_unitary(a)
    for p in range(base.npoints):
        one = retract_contraction(pt(vals[p]), "odd").values[0]
        assert np.max(np.abs(a.values[p] - one)) < 1e-13
        assert np.max(np.abs(b.values[p] - index_unitary(pt(a.values[p])).values[0])) < 1e-13
    assert np.all(b.values[7, :2, 2:] == 0) and np.all(b.values[7, 2:, :2] == 0)
    assert np.array_equal(a.values[3], np.zeros((2, 2)))
    bad = a.values.copy()
    bad[9] *= 2.0
    with pytest.raises(ValueError, match="not a contraction"):
        index_unitary(FnElement(base, bad))


def _index_values_reference(vals):
    """The index unitary by the two-root formula: two full psd_sqrt calls and
    np.block."""
    eye = np.eye(vals.shape[-1])
    ah = vals.conj().swapaxes(1, 2)
    left = matcore.psd_sqrt(eye - ah @ vals, tol=INDEX_SQRT_TOL, zero_snap=INDEX_ZERO_SNAP)
    right = matcore.psd_sqrt(eye - vals @ ah, tol=INDEX_SQRT_TOL, zero_snap=INDEX_ZERO_SNAP)
    return np.block([[2.0 * vals @ ah - eye, 2.0 * vals @ left],
                     [2.0 * ah @ right, eye - 2.0 * ah @ vals]])


def _odd_lift_values(dim):
    """Random odd-lift values over disk-id with the zero point, signed zeros,
    a unitary point and points of norm far above 1."""
    base = ses_registry("disk-id", (5, 16)).total
    vals = 1.5 * (RNG.standard_normal((base.npoints, dim, dim))
                  + 1j * RNG.standard_normal((base.npoints, dim, dim)))
    vals[3] = 0.0                                  # the zero point
    vals[5] = -0.0 * vals[6]                       # signed zeros
    vals[7] = random_unitary(dim, RNG)             # the unitary point
    vals[11] *= 1e6                                # |y| >> 1
    vals[12] = 1e3 * random_unitary(dim, RNG)
    return base, vals


@pytest.mark.parametrize("dim", [1, 2, 4])
def test_index_values_match_reference_bit_for_bit(dim):
    """The stacked index unitary equals one call per grid point byte for
    byte, from index_unitary's own eigh and from the retraction's: lift,
    isometry and image."""
    base, vals = _odd_lift_values(dim)
    a = retract_contraction(FnElement(base, vals), "odd").values
    a[9] = random_unitary(dim, RNG)                # unitary without the retraction
    want = np.stack([index_unitary(pt(v)).values[0] for v in a])
    assert index_unitary(FnElement(base, a)).values.tobytes() == want.tobytes()
    lift_at, c = _odd_isometry(vals, retract=True)
    one = [_odd_isometry(vals[p:p + 1], retract=True) for p in range(len(vals))]
    assert lift_at(slice(None)).tobytes() == \
        np.concatenate([o[0](slice(None)) for o in one]).tobytes()
    assert c.tobytes() == np.concatenate([o[1] for o in one]).tobytes()
    assert _reflection(c).tobytes() == np.concatenate([_reflection(o[1]) for o in one]).tobytes()


@pytest.mark.parametrize("dim", [1, 2, 4])
def test_index_values_agree_with_two_root_formula(dim):
    """2cc* - 1 is within 1e-12 per entry of the two-root formula, from
    index_unitary's own eigh and from the retraction's; the lower-left block
    equals the upper-right block's conjugate transpose, and where a is
    unitary both are exact zeros."""
    base, vals = _odd_lift_values(dim)
    lift_at, c = _odd_isometry(vals, retract=True)
    a = lift_at(slice(None))
    want = _index_values_reference(a)
    assert np.all(want[[7, 11, 12], :dim, dim:] == 0)  # a unitary there: the zero snap
    for b in (_reflection(c), index_unitary(FnElement(base, a)).values):
        assert np.max(np.abs(b - want)) < 1e-12
        assert np.array_equal(b[:, dim:, :dim], b[:, :dim, dim:].conj().swapaxes(1, 2))
        assert np.all(b[[7, 11, 12], :dim, dim:] == 0)
        assert np.all(b[[7, 11, 12], dim:, :dim] == 0)


@pytest.mark.parametrize("dim", [1, 2, 4])
def test_odd_isometry_columns_are_orthonormal(dim):
    """c*c = 1 to within 1e-13, with and without the retraction."""
    base, vals = _odd_lift_values(dim)
    lift_at, c = _odd_isometry(vals, retract=True)
    for iso in (c, _odd_isometry(lift_at(slice(None)), retract=False)[1]):
        assert iso.shape == (len(vals), 2 * dim, dim)
        assert np.max(np.abs(iso.conj().swapaxes(1, 2) @ iso - np.eye(dim))) < 1e-13


def test_factored_isometry_guards_name_the_total_point():
    """On a collar the guards read the per-point spectra rho^2 tau[k]: a rim
    value just above norm 1 is refused where rho is 1, at its total-space
    stack index, and passes where rho shrinks it; retracted, it is a
    unitary there, so its lower roots are exact zeros and its frames are
    the rim factor A[k] alone."""
    w = np.stack([0.5 * random_unitary(2, RNG) for _ in range(3)])
    w[2] = (1 + 0.8e-7) * random_unitary(2, RNG)
    rho, k = np.repeat([0.5, 1.0], 3), np.tile(np.arange(3), 2)
    tau = np.linalg.eigvalsh(w.conj().swapaxes(1, 2) @ w)
    with pytest.raises(ValueError, match=r"below -1\.0e-07 at stack index 5$"):
        _odd_spectrum((rho * rho)[:, None] * tau[k], retract=False)
    _odd_spectrum((rho[:3] * rho[:3])[:, None] * tau[k[:3]], retract=False)
    f, root = _odd_spectrum((rho * rho)[:, None] * tau[k], retract=True)
    assert np.all(root[5] == 0) and np.all(root[:3] > 0)
    y = boundary_conjugator(-1, 4)
    _, frames = _collar_frames(w, (rho, k), y)
    _, v = np.linalg.eigh(w.conj().swapaxes(1, 2) @ w)
    assert np.array_equal(frames.stack[5], (y[:, :2] @ (w @ v))[2] * (rho[5] * f[5]))


def test_index_unitary_refusal_order():
    """Above 1 + CONTRACTION_TOL the norm refuses first; just below it the
    spectrum of 1 - a*a dips under -INDEX_SQRT_TOL and its guard refuses."""
    base = ses_registry("disk-id", (5, 16)).total
    q = np.stack([random_unitary(2, RNG) for _ in range(base.npoints)])
    vals = q * np.array([0.5, 0.25])
    for sigma, message in ((1 + 2e-7, "not a contraction"),
                           (1 + 1.5e-7, "not a contraction"),
                           (1 + 7e-8, "eigenvalue .* below")):
        bad = vals.copy()
        bad[11] = sigma * q[11]
        with pytest.raises(ValueError, match=message):
            index_unitary(FnElement(base, bad))
    bad = vals.copy()
    bad[4, 0, 0] = np.nan
    with pytest.raises(ValueError, match="not a contraction"):
        index_unitary(FnElement(base, bad))
    with pytest.raises(ValueError, match="not a contraction"):
        index_unitary(pt(1.5 * q[0]))


def test_index_unitary_guards_read_the_largest_singular_value():
    """With one singular value just above 1 and one well below, the norm
    check and the guard on 1 - a*a both read the largest one, whichever end
    of the spectrum of a*a it sits at."""
    q, r = random_unitary(2, RNG), random_unitary(2, RNG)
    for sigma, message in ((1 + 2e-7, "not a contraction"),
                           (1 + 7e-8, "eigenvalue .* below")):
        with pytest.raises(ValueError, match=message):
            index_unitary(pt(q @ np.diag([sigma, 0.5]) @ r))


def test_index_unitary_on_disk_lift():
    ses = ses_registry("disk-id", (5, 16))
    z = ses.total.points[:, 0] + 1j * ses.total.points[:, 1]
    a = FnElement(ses.total, z[:, None, None] * np.eye(1))
    b = index_unitary(a)
    r2 = np.abs(z) ** 2
    assert np.allclose(b.values[:, 0, 0], 2 * r2 - 1)
    assert np.allclose(b.values[:, 0, 1], 2 * z * np.sqrt(np.maximum(0, 1 - r2)),
                       atol=1e-7)


def test_exp_unitary_examples():
    assert np.allclose(exp_unitary(pt(neutral(0, 1))).values[0], np.eye(2))
    assert np.allclose(exp_unitary(pt(np.zeros((2, 2)))).values[0], -np.eye(2))


def test_exp_unitary_reproduces_arc_profile():
    ses = ses_registry("circle-sigma", 64)
    from tenfold.basespace import extend_contraction
    b = FnElement(ses.quotient, np.stack([np.eye(1), -np.eye(1)]).astype(complex))
    a = extend_contraction(b, ses, "natural")
    v = exp_unitary(a).values[:, 0, 0]
    z = ses.total.points[:, 0] + 1j * ses.total.points[:, 1]
    want = np.where(np.imag(z) >= 0, np.conj(z) ** 2, z ** 2)
    assert np.allclose(v, want, atol=1e-12)


def test_exp_unitary_respects_direct_sums_exactly():
    a = np.diag([0.3, -0.9])
    b = np.diag([0.5])
    ab = exp_unitary(pt(block_diag(a, b))).values[0]
    ea = exp_unitary(pt(a)).values[0]
    eb = exp_unitary(pt(b)).values[0]
    assert np.array_equal(ab, block_diag(ea, eb))


def _collar_per_ray(u, i, ses, lift_strategy):
    """boundary_map's rim construction one rim ray at a time: each rim
    value of the quotient-symmetrized input with the profile values of its
    ray, the total points p with k[p] = k; (lift values, image values)."""
    rho, k = collar_profile(ses, lift_strategy)
    w = symmetrize_lift(u, i, SCALAR).values
    y = boundary_conjugator(i, 2 * u.dim)
    n, nt = 2 * u.dim, len(w)
    lift = np.empty((len(k), u.dim, u.dim), dtype=complex)
    vals = np.empty((len(k), n, n), dtype=complex)
    for ray in range(nt):
        lift_at, frames = _collar_frames(w[ray:ray + 1], (rho[ray::nt], k[ray::nt] - ray), y)
        lift[ray::nt] = lift_at(slice(None))
        vals[ray::nt] = _rim_reflection(frames)
    return lift, vals


def _collar_isometry_oracle(w, profile):
    """The collar's lift and isometry c = [aV; V sqrt(1 - t)] written out on
    every total point, before any frame rotation: t = rho^2 tau[k] and
    aV = (wV)[k] rho f from one eigh of the rim's w*w; (lift, c)."""
    rho, k = profile
    tau, v = np.linalg.eigh(w.conj().swapaxes(1, 2) @ w)
    t = (rho * rho)[:, None] * tau[k]
    f = np.minimum(1.0 / np.sqrt(np.maximum(t, ODD_EIG_FLOOR)), 1.0)
    s = 1.0 - f * f * t
    assert s.min() >= -INDEX_SQRT_TOL
    s[s <= INDEX_ZERO_SNAP] = 0.0
    av = (w @ v)[k] * (rho[:, None] * f)[:, None, :]
    v = v[k]
    return av @ v.conj().swapaxes(1, 2), np.concatenate([av, v * np.sqrt(s)[:, None, :]], axis=1)


@pytest.mark.parametrize("ses_name,i", [("disk-zeta", 1), ("disk-zeta", "KU1"),
                                       ("disk-id", 1), ("disk-id", "KU1"),
                                       ("circle-zeta", 5), ("circle-sigma", 5),
                                       ("circle-id", 5)])
def test_permutation_conjugation_gather_matches_product_bytes(ses_name, i):
    """Where the frame rotation y is a permutation matrix, it still rotates
    the frames by the product y c, as for every other class, with no row
    gather: boundary_map's lift equals a byte for byte, its frames equal y c and
    its image is 2(yc)(yc)* - 1 by matmul byte for byte.  On the disks,
    which form no c, a and c come from the oracle of the collar
    construction, the frames on first read equal y c and the image, formed
    from the rim factors, is 2(yc)(yc)* - 1 within 1e-14."""
    ses = ses_registry(ses_name, (17, 32) if ses_name.startswith("disk") else None)
    rng = np.random.default_rng(sum(map(ord, ses_name)))
    dim = 2 * class_spec(i)["mult"]
    y = boundary_conjugator(i, 2 * dim)
    assert np.array_equal(y, np.eye(2 * dim)[np.abs(y).argmax(axis=1)])  # a permutation
    for _ in range(3):
        u = random_class_element(ses.quotient, i, dim, rng, fourier=2)
        for lift in LIFT_STRATEGIES:
            got = boundary_map(u, i, ses, lift)
            profile = collar_profile(ses, lift)
            if profile is not None:
                a, c = _collar_isometry_oracle(symmetrize_lift(u, i, SCALAR).values,
                                               profile)
                assert np.array_equal(got.rep.frames.stack, y @ c)
                assert np.max(np.abs(got.element.values - _reflection(y @ c))) < 1e-14
            else:
                sym = symmetrize_lift(extend_contraction(u, ses, lift), i,
                                      SCALAR)
                lift_at, c = _odd_isometry(sym.values, retract=True)
                a = lift_at(slice(None))
                assert got.rep.frames.tobytes() == (y @ c).tobytes()
                assert got.element.values.tobytes() == _reflection(y @ c).tobytes()
            assert a.tobytes() == got.lift.values.tobytes()


def test_boundary_conjugators():
    """Each odd row's rotation is the product its class's frame rule names,
    byte for byte, at every dim it splits."""
    v, w, q, x = (matcore.conjugator_v, matcore.conjugator_w, matcore.conjugator_q,
                  matcore.conjugator_x)
    products = {1: (2, lambda d: v(d // 2)), "KU1": (2, lambda d: v(d // 2)),
                -1: (2, lambda d: v(d // 2) @ w(d // 2)),
                3: (4, lambda d: v(d // 2) @ q(d // 4) @ w(d // 2)),
                5: (4, lambda d: x(d // 4))}
    for i, (step, product) in products.items():
        for dim in range(step, 25, step):
            assert np.array_equal(boundary_conjugator(i, dim), product(dim))
    assert np.allclose(boundary_conjugator(-1, 2), matcore.conjugator_w(1))  # V_2 is trivial
    with pytest.raises(ValueError):
        boundary_conjugator(0, 4)


@pytest.mark.parametrize("i,dim", [(5, 6), (1, 3), ("KU1", 3), (-1, 5), (3, 6), (3, 2)])
def test_boundary_conjugator_refuses_dims_its_rotation_cannot_split(i, dim):
    with pytest.raises(ValueError, match=re.escape(f"class {i!r} at dim {dim}:")):
        boundary_conjugator(i, dim)


def test_target_column():
    """The index map lowers the real degree by one mod 8 (-1 is 7) and
    swaps self-adjoint and unitary classes; the complex classes swap."""
    for i in range(-1, 7):
        assert (class_spec(i)["target"] - (i - 1)) % 8 == 0
    for i in CLASS_IDS:
        assert class_spec(class_spec(i)["target"])["sa"] != class_spec(i)["sa"]
    assert (class_spec("KU0")["target"], class_spec("KU1")["target"]) == ("KU1", "KU0")


@pytest.mark.parametrize("i", [1, -1, 3, 5, "KU1"])
def test_index_unitary_symmetries_per_class(i):
    """B of a class-i lift satisfies the documented relation, and the class
    row's rotation y moves it into the target class: y diag(1_d, -1_d) y* is
    the target's neutral stack and y B y* a target member over a point."""
    if i in (1, -1):
        a = retract_contraction(symmetrize_lift(pt(0.4 * rand(2)), i), "odd")
        b = index_unitary(a).values[0]
    if i == 1:
        assert np.linalg.norm(b.T - b) < 1e-9
    if i == -1:
        w = matcore.conjugator_w(2)
        m = w @ b @ w.conj().T
        lhs = matcore.involute(m, "sharp_tilde")
        assert np.linalg.norm(lhs + m) < 1e-9
    j = class_spec(i)["target"]
    rng = np.random.default_rng(43)
    for blocks in (1, 2, 3):
        dim = blocks * class_spec(i)["mult"]
        y = boundary_conjugator(i, 2 * dim)
        flat = np.diag([1.0] * dim + [-1.0] * dim)
        stack = neutral(j, 2 * dim // class_spec(j)["mult"])
        assert np.linalg.norm(y @ flat @ y.conj().T - stack) < 1e-14
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        a = retract_contraction(symmetrize_lift(pt(0.4 * x), i), "odd")
        b = index_unitary(a).values[0]
        rep = require_membership(pt(y @ b @ y.conj().T), j)
        assert max(rep.residuals.values()) < 1e-13


def test_w_sharp_tilde_is_minus_w_star():
    for n in (1, 2):
        w = matcore.conjugator_w(n)
        assert np.linalg.norm(matcore.involute(w, "sharp_tilde")
                              + w.conj().T) < 1e-14


def test_boundary_checks_the_base_before_membership():
    """A loop over another SES's quotient is refused for its base, not for
    a membership it was never meant to pass."""
    q = ses_registry("disk-zeta").quotient
    z = q.points[:, 0] + 1j * q.points[:, 1]
    with pytest.raises(MembershipError, match="input does not live over the SES quotient"):
        boundary_map(FnElement(q, z[:, None, None] * np.eye(1)), -1, ses_registry("disk-id"))


ODD_CLASSES = (-1, 1, 3, 5, "KU1")


@pytest.mark.parametrize("resolution", [(9, 16), (17, 32), None])
@pytest.mark.parametrize("ses_name", ["disk-id", "disk-zeta"])
def test_factored_disk_path_matches_full_stack(ses_name, resolution):
    """On the radial collar the lift is rho[p] times the quotient's
    symmetrized value at k[p], and boundary_map's image, lift and signature
    agree with the isometry of the whole symmetrized extension; the image's
    frames are orthonormal and 2 frames frames* - 1 is the image, and the
    Chern reader gives the same integer or refusal from its rim factors as
    from its own frames."""
    ses = ses_registry(ses_name, resolution)
    rng = np.random.default_rng([sum(map(ord, ses_name)), ses.total.npoints])
    ibase = ideal_base(ses)
    seen = signed = 0
    for i in ODD_CLASSES:
        j = class_spec(i)["target"]
        for dim in (1, 2, 4):
            if dim % class_spec(i)["mult"]:
                continue
            u = random_class_element(ses.quotient, i, dim, rng, fourier=2)
            w = symmetrize_lift(u, i, SCALAR).values
            for lift in LIFT_STRATEGIES:
                rho, k = collar_profile(ses, lift)
                sym = symmetrize_lift(collar_extension(u, ses, lift), i,
                                      SCALAR).values
                assert np.max(np.abs(sym - rho[:, None, None] * w[k])) < 1e-14
                lift_at, c = _odd_isometry(sym, True)
                a = lift_at(slice(None))
                image = _reflection(boundary_conjugator(i, 2 * dim) @ c)
                got = boundary_map(u, i, ses, lift)
                assert np.max(np.abs(got.element.values - image)) < 1e-13
                assert np.max(np.abs(got.lift.values - a)) < 1e-13
                # the frames the image carries, formed on first read and
                # kept: y c of the collar oracle, with d orthonormal columns
                # whose projection gives the image
                assert "stack" not in vars(got.rep.frames)
                frames = got.rep.frames.stack
                assert got.rep.frames.stack is frames
                assert frames.shape == (ses.total.npoints, 2 * dim, dim)
                y = boundary_conjugator(i, 2 * dim)
                oracle = _collar_isometry_oracle(w, (rho, k))[1]
                assert np.max(np.abs(frames - y @ oracle)) < 1e-13
                gram = frames.conj().swapaxes(1, 2) @ frames
                assert np.max(np.abs(gram - np.eye(dim))) < 1e-13
                assert np.max(np.abs(_reflection(frames) - got.element.values)) < 1e-13
                rim, own = chern_readings(got.rep)
                assert rim == own
                want = require_membership(FnElement(ibase, image), j, SCALAR)
                if catalog_has(want):
                    assert signature(got.rep).values() == signature(want).values()
                    signed += 1
                seen += 1
    assert (seen, signed) == (26, 16 if ses_name == "disk-id" else 18)


def test_factored_lift_is_formed_on_first_read():
    """Every map keeps a function that forms its lift, called on first read
    and then kept.  The lift is byte for byte the eager formula: on the disk
    the collar construction's and its oracle's, on a circle y f(y*y) of the
    symmetrized extension y for an odd class and the clamp of its spectrum
    to [-1, 1] for an even one."""
    disk = ses_registry("disk-zeta", (17, 32))
    u = random_class_element(disk.quotient, 1, 2, RNG, fourier=2)
    w = symmetrize_lift(u, 1, SCALAR).values
    profile = collar_profile(disk, "taper0")
    lift_at, _ = _collar_frames(w, profile, boundary_conjugator(1, 4))
    eager = _collar_isometry_oracle(w, profile)[0]
    assert lift_at(slice(None)).tobytes() == eager.tobytes()
    cases = [(boundary_map(u, 1, disk, "taper0"), disk, eager)]
    circle = ses_registry("circle-zeta", 32)
    for i in (1, 0):
        u = random_class_element(circle.quotient, i, 2, RNG, fourier=2)
        y = symmetrize_lift(extend_contraction(u, circle), i, SCALAR).values
        if i == 0:
            eager = matcore.clamp_spectrum(y, -1.0, 1.0, tol=EVEN_HERM_TOL)
        else:
            tau, v = np.linalg.eigh(y.conj().swapaxes(1, 2) @ y)
            f = np.minimum(1.0 / np.sqrt(np.maximum(tau, ODD_EIG_FLOOR)), 1.0)
            eager = (y @ v * f[:, None, :]) @ v.conj().swapaxes(1, 2)
        cases.append((boundary_map(u, i, circle), circle, eager))
    for res, ses, eager in cases:
        assert "lift" not in vars(res) and callable(res._lift_of)
        lift = res.lift
        assert lift.base == ses.total
        assert lift.values.tobytes() == eager.tobytes()
        assert res.lift is lift


def test_boundary_requires_quotient_membership():
    ses = ses_registry("circle-zeta", 32)
    bad = FnElement(ses.quotient, np.stack([np.eye(2), 2 * np.eye(2)]).astype(complex))
    with pytest.raises(MembershipError):
        boundary_map(bad, 0, ses)


def test_boundary_result_is_neutral_on_closed_set():
    ses = ses_registry("circle-zeta", 64)
    u = FnElement(ses.quotient,
                  np.stack([np.eye(2, dtype=complex), neutral(0, 1)]))
    res = boundary_map(u, 0, ses)
    for p in res.rep.base.pinned:
        assert np.allclose(res.element.values[p], neutral(-1, 2), atol=1e-12)


def test_circle_zeta_generator_row():
    # the boundary image diag(1, v) pairs with the catalog generator picture
    ses = ses_registry("circle-zeta", 64)
    u = FnElement(ses.quotient,
                  np.stack([np.eye(2, dtype=complex), neutral(0, 1)]))
    out = boundary_map(u, 0, ses)
    vals = out.element.values
    assert np.allclose(vals[:, 0, 0], 1.0, atol=1e-12)
    z = ses.total.points[:, 0] + 1j * ses.total.points[:, 1]
    want = np.where(np.imag(z) >= 0, np.conj(z) ** 2, z ** 2)
    assert np.allclose(vals[:, 1, 1], want, atol=1e-12)
    assert signature(out.rep).values() == (1,)


@pytest.mark.parametrize("i", [-1, 0, 1, 2, 3, 4, 5, 6])
def test_extension_preserves_class_symmetry(i):
    """The natural extensions commute with the involutions, so class-i
    quotient data extends to already-symmetric lifts."""
    from tenfold.verify import _SES_FOR_CLASS, random_class_element
    from tenfold.basespace import extend_contraction
    name, res = _SES_FOR_CLASS[i]
    ses = ses_registry(name, (9, 16) if name.startswith("disk") else 32)
    u = random_class_element(ses.quotient, i, 2 if i != 4 else 4, RNG, fourier=1)
    ext = extend_contraction(u, ses)
    sym = symmetrize_lift(ext, i)
    assert np.max(np.abs(sym.values - ext.values)) < 1e-12


def test_add_commutative_at_invariant_level():
    from tenfold import catalog
    from tenfold.symclass import add, check_membership
    for a, b in (("circle_zeta_k1", "circle_zeta_k1_torsion"),
                 ("circle_zeta_k2", "circle_zeta_k2b")):
        ra, rb = catalog.generator(a, 32), catalog.generator(b, 32)
        i = catalog.entry(a).class_id
        s1 = signature(check_membership(add(ra.element, rb.element, i), i))
        s2 = signature(check_membership(add(rb.element, ra.element, i), i))
        assert s1.values() == s2.values()


def test_lift_strategies_share_signatures():
    ses = ses_registry("disk-id", (9, 32))
    zq = ses.quotient.points[:, 0] + 1j * ses.quotient.points[:, 1]
    u = FnElement(ses.quotient, zq[:, None, None] * np.eye(1))
    s1 = signature(boundary_map(u, -1, ses, "natural").rep).values()
    s2 = signature(boundary_map(u, -1, ses, "taper0").rep).values()
    assert s1 == s2 and abs(s1[0]) == 1


def _even_per_point(sym):
    """The clamped even lift and -exp(i*pi*lift) one grid point at a time,
    both from that point's one eigh of the symmetrized lift."""
    lift, image = [], []
    for h in sym.values:
        w, v = matcore.herm_eig(h, tol=EVEN_HERM_TOL)
        w = np.clip(w, -1.0, 1.0)
        a = (v * w) @ v.conj().T
        lift.append((a + a.conj().T) / 2.0)
        image.append(-((v * np.exp(1j * np.pi * w)) @ v.conj().T))
    return FnElement(sym.base, np.array(lift)), np.array(image)


def _boundary_map_reference(u, i, ses, lift_strategy):
    """boundary_map as written with a 2-norm SVD in extend_contraction, a
    norm per pinned point for the unitization and neutral-value residuals,
    one odd lift and isometry per grid point with the frame rotation as a
    product (on the disks, the rim construction one rim ray at a time), and
    one even eigh per grid point: (element values, lift values, residuals)."""
    require_membership(u, i, SCALAR)
    ext = extend_contraction(u, ses, lift_strategy)
    sym = symmetrize_lift(ext, i, SCALAR)
    mode = "even" if class_spec(i)["sa"] else "odd"
    if mode == "odd":
        y = boundary_conjugator(i, 2 * u.dim)
        if collar_profile(ses, lift_strategy) is not None:
            a, vals = _collar_per_ray(u, i, ses, lift_strategy)
            lift = FnElement(sym.base, a)
        else:
            one = [_odd_isometry(sym.values[p:p + 1], retract=True)
                   for p in range(len(sym.values))]
            lift = FnElement(sym.base, np.concatenate([lift_at(slice(None))
                                                       for lift_at, _ in one]))
            vals = np.concatenate([_reflection(y @ c) for _, c in one])
    else:
        lift, vals = _even_per_point(sym)
        # the lift's own eigh, as retract_contraction then exp_unitary
        # formed the image, agrees to roundoff
        two_eigh = exp_unitary(retract_contraction(sym, mode)).values
        assert np.max(np.abs(vals - two_eigh)) <= 1e-12
    lift_residual = float(np.max(np.abs(restrict(lift, ses).values - u.values)))
    j = class_spec(i)["target"]
    result = FnElement(ideal_base(ses), vals)
    res = dict(require_membership(result, j, SCALAR).residuals)
    pinned = [result.values[p] for p in result.base.pinned]
    res["scalar_pinning"] = max([0.0] + [float(np.linalg.norm(v - pinned[0]))
                                         for v in pinned[1:]])
    target = neutral(j, result.dim // class_spec(j)["mult"])
    res["lift_restriction"] = lift_residual
    res["lambda_neutral"] = max(float(np.linalg.norm(v - target)) for v in pinned)
    return vals, lift.values, res


@pytest.mark.parametrize("ses_name", [n for n in SES_NAMES if n != "toeplitz"])
def test_boundary_map_matches_reference_bytes(ses_name):
    """Element, lift and residual reprs equal those of the per-point
    reference (on the disks, the rim construction one rim ray at a time)
    over every class, dims 2 and 4 and both lift strategies; on an odd disk
    image the Chern reader gives the same integer or refusal from its rim
    factors as from its own frames."""
    ses = ses_registry(ses_name, (9, 16) if ses_name.startswith("disk") else None)
    rng = np.random.default_rng(sum(map(ord, ses_name)))
    seen = 0
    for i in CLASS_IDS:
        for dim in (2, 4):
            if dim % class_spec(i)["mult"]:
                continue
            try:
                u = random_class_element(ses.quotient, i, dim, rng, fourier=2)
            except RuntimeError:  # no gapped even-class draw
                continue
            for lift in LIFT_STRATEGIES:
                vals, lift_vals, want = _boundary_map_reference(u, i, ses, lift)
                got = boundary_map(u, i, ses, lift)
                assert got.element.values.tobytes() == vals.tobytes()
                assert got.lift.values.tobytes() == lift_vals.tobytes()
                assert repr(got.residuals) == repr(want)
                if ses.total.kind == "disk" and got.rep.frames is not None:
                    rim, own = chern_readings(got.rep)
                    assert rim == own
                seen += 1
    assert seen >= 20


def _tenfold_caches():
    """Every functools cache at the top level of a tenfold module."""
    import importlib
    import pkgutil
    import tenfold
    caches = {}
    for info in pkgutil.iter_modules(tenfold.__path__):
        mod = importlib.import_module(f"tenfold.{info.name}")
        caches.update((id(f), f) for f in vars(mod).values() if hasattr(f, "cache_clear"))
    return list(caches.values())


def _cached_array_shapes(caches):
    """The shapes of the arrays the caches hold in their keys and results,
    searched through containers and object attributes (not through
    functions, types or modules)."""
    import gc
    import types
    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType,
            types.MethodType, str, bytes)
    shapes, seen = [], set()

    def walk(obj):
        if id(obj) in seen or isinstance(obj, skip):
            return
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            shapes.append(obj.shape)
        elif isinstance(obj, (tuple, list, set, frozenset)):
            for x in obj:
                walk(x)
        elif isinstance(obj, dict):
            for k, v in obj.items():
                walk(k)
                walk(v)
        elif hasattr(obj, "__dict__"):
            walk(vars(obj))

    for cache in caches:
        for ref in gc.get_referents(cache):
            walk(ref)
    return sorted(shapes)


def test_no_cache_holds_an_array_sized_by_the_grid():
    """After boundary maps and classify on disk-id and circle-zeta, the
    caches hold the same arrays at two resolutions: nothing cached has a
    grid-point axis, so peak memory does not grow with the grid or with
    the number of bases seen."""
    caches = _tenfold_caches()
    assert caches

    def run(disk_res, circle_res):
        for cache in caches:
            cache.cache_clear()
        rng = np.random.default_rng(3101)
        for name, res, i in (("disk-id", disk_res, 1), ("disk-id", disk_res, -1),
                             ("circle-zeta", circle_res, 0), ("circle-zeta", circle_res, 1)):
            ses = ses_registry(name, res)
            for _ in range(10):
                try:
                    u = random_class_element(ses.quotient, i, 2, rng, fourier=2)
                    break
                except RuntimeError:  # no gapped even-class draw: redraw
                    continue
            out = boundary_map(u, i, ses)
            classify(u)
            classify(out.element, out.rep.algebra)
        return _cached_array_shapes(caches)

    small = run((5, 8), 16)
    assert small == run((9, 16), 32)
    # the search reaches the cached arrays: neutral stacks, signed gathers
    assert (2, 2) in small and (4, 4) in small
