from dataclasses import replace

import numpy as np
import pytest

from tenfold import catalog, matcore
from tenfold.basespace import (SCALAR, Algebra, FnElement, apply_full_involution,
                               constant_element, lambda_eval, pinned_residual,
                               sample_space, with_pinned)
from tenfold.invariants import InvariantError, catalog_has, signature
from tenfold.symclass import (CLASS_IDS, KOClassRep, MembershipError,
                              _lambda_trivial, add, build_u,
                              check_membership, check_qc_relations,
                              class_spec, class_structure, classify, complex_class,
                              forget_to_ku, inverse, neutral, neutral_pfaffian,
                              stabilize)

from helpers import block_diag, iota_interleaved, random_special_orthogonal

RNG = np.random.default_rng(23)
POINT = sample_space("point")


def const_rep(m, i, tol=1e-9):
    return check_membership(constant_element(POINT, np.asarray(m, complex)), i,
                            tol=tol)


def test_neutral_values():
    assert np.array_equal(neutral(0, 1), np.diag([1.0 + 0j, -1.0]))
    assert np.allclose(neutral(2, 1), [[0, 1j], [-1j, 0]])
    assert np.array_equal(neutral(4, 1), np.diag([1.0 + 0j, 1, -1, -1]))
    assert np.array_equal(neutral(1, 3), np.eye(3))


@pytest.mark.parametrize("i", CLASS_IDS)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_neutral_is_built_once_read_only(i, n):
    want = np.kron(np.eye(n), class_spec(i)["neutral"])
    got = neutral(i, n)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert neutral(i, n) is got
    with pytest.raises(ValueError, match="read-only"):
        got[0, 0] = 7.0
    if class_spec(i)["point"] == ("pf_parity", "Z2"):
        assert neutral_pfaffian(i, n) == matcore.pfaffian(want)


def test_neutral_refuses_no_copies():
    with pytest.raises(ValueError, match="copies"):
        neutral(0, 0)
    with pytest.raises(KeyError):
        neutral(7, 1)


@pytest.mark.parametrize("i", CLASS_IDS)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_neutral_passes_membership_exactly(i, n):
    rep = const_rep(neutral(i, n), i)
    assert rep.ok
    assert all(v == 0.0 for k, v in rep.residuals.items()
               if isinstance(v, float))


def test_membership_examples():
    base = sample_space("circle", 32, "id")
    z = base.points[:, 0] + 1j * base.points[:, 1]
    u = FnElement(base, z[:, None, None] * np.eye(1))
    assert check_membership(u, -1).ok
    assert const_rep(neutral(2, 1), 2).ok
    assert const_rep(block_diag(neutral(2, 1), -neutral(2, 1)), 2).ok


def test_membership_reports_failures():
    bad = const_rep(np.diag([1.0, 2.0]), 0)
    assert not bad.ok and bad.residuals["unitary"] > 0.5
    skewless = const_rep(np.diag([1.0, -1.0]), 2)
    assert not skewless.ok and skewless.residuals["symmetry"] > 0.5


def test_add_with_neutral_is_stabilize():
    u = constant_element(POINT, np.eye(2, dtype=complex))
    lhs = add(u, constant_element(POINT, neutral(0, 1)), 0)
    rhs = stabilize(u, 0)
    assert np.array_equal(lhs.values, rhs.values)


def test_torsion_add_in_sigma_class_one():
    rep = catalog.generator("circle_sigma_k1", 32)
    dbl = add(rep.element, rep.element, 1, rep.algebra)
    rep2 = check_membership(dbl, 1, rep.algebra)
    assert rep2.ok and signature(rep2).is_zero


def test_pfaffian_multiplies_under_add():
    u = const_rep(neutral(2, 1), 2)
    v = const_rep(-neutral(2, 1), 2)
    w = check_membership(add(u.element, v.element, 2), 2)
    s = signature(w)
    assert s.values() == (signature(u) + signature(v)).values()


def test_inverse_rules():
    base = sample_space("circle", 32, "zeta")
    z = base.points[:, 0] + 1j * base.points[:, 1]
    u = FnElement(base, z[:, None, None] * np.eye(1))
    assert np.allclose(inverse(u, 1).values[:, 0, 0], np.conj(z))
    m = constant_element(POINT, np.diag([1.0 + 0j, -1, -1, 1]))
    assert np.allclose(inverse(m, 0).values, -m.values)
    two = constant_element(
        POINT, block_diag(neutral(2, 1), -neutral(2, 1)))
    assert np.allclose(inverse(two, 2).values, -two.values)
    with pytest.raises(ValueError):
        inverse(constant_element(POINT, neutral(2, 1)), 2)
    with pytest.raises(ValueError):
        inverse(constant_element(POINT, neutral(6, 1)), 6)


def test_stabilize_appends_neutral():
    u = constant_element(POINT, neutral(0, 1))
    s = stabilize(u, 0)
    assert np.array_equal(s.values[0], neutral(0, 2))


def test_iota_interleaved_preserves_tilde_relation():
    # the internal 2x2-of-blocks picture: x^{tt} = -x is kept by the
    # interleaved unit insertion
    for n in (1, 2, 3):
        x = RNG.standard_normal((2 * n, 2 * n)) + 1j * RNG.standard_normal((2 * n, 2 * n))
        s = np.kron(matcore.SWAP2, np.eye(n))
        x = (x - matcore.involute(x, s)) / 2.0
        u = FnElement(POINT, x[None])
        y = iota_interleaved(u).values[0]
        s2 = np.kron(matcore.SWAP2, np.eye(n + 1))
        assert np.linalg.norm(matcore.involute(y, s2) + y) < 1e-12
        assert y[n, n] == 1.0 and y[-1, -1] == -1.0


@pytest.mark.parametrize("name,ku", [
    ("const_k2", "KU0"), ("x-1", "KU1"), ("const_k4", "KU0")])
def test_forget_to_ku(name, ku):
    rep = catalog.generator(name, 32)
    out = forget_to_ku(rep)
    assert out.ok and out.class_id == ku


def test_complex_class_by_self_adjointness():
    assert [complex_class(i) for i in CLASS_IDS] == [
        "KU1", "KU0", "KU1", "KU0", "KU1", "KU0", "KU1", "KU0", "KU0", "KU1"]


# one pinned basepoint value per kind of point invariant, each parity with
# both signs, and one class whose group over a point is zero
@pytest.mark.parametrize("i,value,ok,detail", [
    (0, np.eye(2), False, "half_trace=1.000"),
    ("KU0", neutral(0, 1), True, "half_trace=0.000"),
    (4, -np.eye(4), False, "quarter_trace=-1.000"),
    (1, -np.eye(1), False, "det=-1.000+0.000j"),
    (2, neutral(2, 1), True, "pf_ratio=1.000+0.000j"),
    (6, neutral(6, 1), True, "free"),
    (2, -neutral(2, 1), False, "pf_ratio=-1.000+0.000j"),
])
def test_lambda_detail_per_point_invariant(i, value, ok, detail):
    base = with_pinned(POINT, "basepoint")
    rep = check_membership(constant_element(base, np.asarray(value, complex)), i)
    assert rep.ok == ok
    assert rep.residuals["lambda_detail"] == detail
    assert rep.residuals["lambda_class"] == (0.0 if ok else 1.0)
    assert (class_spec(i)["point"] is None) == (detail == "free")


def test_basepoint_half_trace_guard():
    """A pinned class-0 value is trivial while its half trace is below
    BASEPOINT_TRACE_GUARD (0.25): 0.2 passes and 0.3 is refused, with every
    other residual inside tol."""
    base = with_pinned(POINT, "basepoint")
    for second, ok, detail in ((-0.6, True, "half_trace=0.200"),
                               (-0.4, False, "half_trace=0.300")):
        u = constant_element(base, np.diag([1.0 + 0j, second]))
        rep = check_membership(u, 0, tol=1.0)
        assert rep.ok == ok
        assert rep.residuals["lambda_class"] == (0.0 if ok else 1.0)
        assert rep.residuals["lambda_detail"] == detail


@pytest.mark.parametrize("e", [1e-17, -1e-17])
def test_lambda_detail_prints_no_signed_zero(e):
    """A rounded zero prints as 0.000 whichever sign its roundoff has, in
    the traces and in both parts of the complex det and Pfaffian ratio."""
    for i, lam, detail in [
        (0, np.diag([2 * e, 0.0]), "half_trace=0.000"),
        ("KU0", np.diag([2 * e, 0.0]), "half_trace=0.000"),
        (4, np.diag([4 * e, 0.0, 0.0, 0.0]), "quarter_trace=0.000"),
        (1, np.array([[1.0 + 1j * e]]), "det=1.000+0.000j"),
        (1, np.array([[-1.0 + 1j * e]]), "det=-1.000+0.000j"),
        (1, np.array([[e + 1j * e]]), "det=0.000+0.000j"),
        (2, (1.0 + 1j * e) * neutral(2, 1), "pf_ratio=1.000+0.000j"),
        (2, (-1.0 + 1j * e) * neutral(2, 1), "pf_ratio=-1.000+0.000j"),
    ]:
        assert _lambda_trivial(np.asarray(lam, complex), i)[1] == detail, (i, lam)


def test_forget_half_trace_matches():
    rep = catalog.generator("const_k4", 32)
    out = forget_to_ku(rep)
    assert signature(out).values() == (2,)  # c_4 is multiplication by 2


def test_two_point_swap_class_0_reads_its_first_point():
    """Over two points swapped by the involution, a class-0 element is a
    value and its partner; its half trace is read at the first point."""
    two = sample_space("twopoints", involution="swap")
    for value, half_trace in ((np.eye(2), 1), (np.diag([1.0, -1.0]), 0)):
        rep = check_membership(FnElement(two, np.stack([value, value]).astype(complex)), 0)
        assert rep.ok
        assert signature(rep).values() == (half_trace,)


def test_build_u_and_qc_relations():
    h, x, k = catalog.qc_generators(16)
    assert check_qc_relations(h, x, k, 1e-12)
    zero = FnElement(h.base, np.zeros_like(h.values))
    u = build_u(zero, zero, zero)
    assert np.allclose(u.values[0], np.diag([1.0, 1.0, -1.0, -1.0]))
    one = FnElement(h.base, np.broadcast_to(np.eye(2), h.values.shape).copy())
    assert not check_qc_relations(one, zero, one)


def test_so_conjugation_invariance_low_classes():
    for name, i in (("circle_zeta_k1", 1), ("circle_zeta_k2", 2),
                    ("circle_sigma_km1", -1), ("circle_zeta_k0", 0),
                    ("sphere_ko0", 0)):
        rep = catalog.generator(name, 32)
        x = random_special_orthogonal(rep.element.dim, RNG)
        conj = FnElement(rep.base, x @ rep.element.values @ x.conj().T)
        rep2 = check_membership(conj, i, rep.algebra)
        assert rep2.ok
        assert signature(rep2).values() == signature(rep).values()


def _special_unitary_2(rng):
    a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return np.array([[a, -np.conj(b)], [b, np.conj(a)]]) / np.hypot(abs(a), abs(b))


def test_doubled_so_conjugation_invariance_sharp_classes():
    """Conjugation by kron(SO(dim/2), SU(2)), a constant that fixes the
    quaternionic structure kron(1, J2); on the 2-sphere's class-6
    generator (dim 2) that is SU(2) = Sp(1) alone."""
    for name, i in (("circle_sigma_k3", 3), ("circle_zeta_k5", 5),
                    ("circle_sigma_k4", 4), ("sphere_ko6", 6)):
        rep = catalog.generator(name, 32)
        half = rep.element.dim // 2
        x = random_special_orthogonal(half, RNG)
        doubled = np.kron(x, _special_unitary_2(RNG))
        conj = FnElement(rep.base, doubled @ rep.element.values @ doubled.conj().T)
        rep2 = check_membership(conj, i, rep.algebra)
        assert rep2.ok
        assert signature(rep2).values() == signature(rep).values()


def test_parse_class_round_trips_and_names_the_classes():
    from tenfold.symclass import class_to_json, parse_class
    for i in CLASS_IDS:
        assert parse_class(str(class_to_json(i))) == i
    assert parse_class("ku0") == "KU0"
    for token in ("7", "-2", "abc", "", "KU2", None):
        with pytest.raises(ValueError, match="unknown symmetry class.*KU0, KU1"):
            parse_class(token)


def test_basepoint_that_is_not_skew_fails_class_2():
    base = with_pinned(sample_space("circle", 16, "zeta"), "basepoint")
    rep = check_membership(constant_element(base, np.eye(2)), 2)
    assert not rep.ok and rep.residuals["lambda_class"] == 1.0
    assert "not skew" in rep.residuals["lambda_detail"]


# -- structures built once, membership shared across classes ---------------------

def _class_structure_reference(i, dim, algebra=SCALAR):
    """class_structure as two np.kron calls per call, without a cache."""
    spec = class_spec(i)
    if spec["sign"] is None:
        return None
    s_alg = algebra.struct
    k, rem = divmod(dim, s_alg.shape[0])
    if rem:
        raise ValueError("element dimension is not a multiple of the structure size")
    if spec["sharp"]:
        if k % 2:
            raise ValueError(f"class {i} needs an even number of structure columns")
        return np.kron(np.kron(np.eye(k // 2, dtype=complex), matcore.J2), s_alg)
    return np.kron(np.eye(k, dtype=complex), s_alg)


def _outcome(f, *args):
    try:
        return f(*args), None
    except ValueError as exc:
        return None, (type(exc), str(exc))


_STRUCTS = {"scalar": np.eye(1, dtype=complex), "J2": matcore.J2,
            "SWAP2": matcore.SWAP2,
            "m2qc2": np.kron(matcore.J2, np.eye(2, dtype=complex))}


@pytest.mark.parametrize("label", list(_STRUCTS))
@pytest.mark.parametrize("dim", [2, 4, 8])
@pytest.mark.parametrize("i", CLASS_IDS)
def test_class_structure_built_once_matches_kron(i, dim, label):
    alg = Algebra(2 if len(_STRUCTS[label]) > 1 else 1, _STRUCTS[label], label)
    for algebra in (alg, SCALAR) if label == "scalar" else (alg,):
        want, want_err = _outcome(_class_structure_reference, i, dim, algebra)
        got, got_err = _outcome(class_structure, i, dim, algebra)
        assert got_err == want_err
        if want is None:
            assert got is None
            continue
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert class_structure(i, dim, algebra) is got
        with pytest.raises(ValueError, match="read-only"):
            got[0, 0] = 7.0


def test_catalog_key_reads_the_elements_base():
    """The algebra carries no base: one algebra object over a pinned base
    and over the same base unpinned keys different catalog rows."""
    rep = catalog.generator("x3", 16)
    unpinned = replace(rep.base, pinned=())
    free = check_membership(FnElement(unpinned, rep.element.values), 3, rep.algebra)
    assert free.ok and free.algebra is rep.algebra
    assert rep.catalog_key() == ("circle", "id", "@1", "m2", 3)
    assert free.catalog_key() == ("circle", "id", "", "m2", 3)
    assert catalog_has(rep) and not catalog_has(free)


def test_class_structure_cache_reads_the_struct():
    # Algebra's eq and hash ignore struct: these two compare equal
    a, b = (Algebra(2, s, "same") for s in (matcore.J2, matcore.SWAP2))
    assert a == b
    assert np.array_equal(class_structure(1, 4, a), np.kron(np.eye(2), matcore.J2))
    assert np.array_equal(class_structure(1, 4, b), np.kron(np.eye(2), matcore.SWAP2))


def _check_membership_reference(u, i, algebra=SCALAR, tol=1e-9):
    """check_membership as it was before classes shared their work: every
    piece recomputed for the one class, each residual the largest
    np.linalg.norm of one matrix."""
    def worst(m):
        return max(float(np.linalg.norm(x)) for x in m)

    spec = class_spec(i)
    res = {}
    d = algebra.dim_alg
    k, rem = divmod(u.dim, d)
    if rem or k % spec["mult"]:
        raise MembershipError(
            f"dimension {u.dim} is not a multiple of {spec['mult']}*{d} for class {i}")
    if u.dim % algebra.struct.shape[0]:
        raise MembershipError("dimension incompatible with the algebra structure")
    ua = u.adjoint()
    res["unitary"] = worst(ua.values @ u.values - np.eye(u.dim))
    if spec["sa"]:
        res["self_adjoint"] = worst(u.values - ua.values)
    s = _class_structure_reference(i, u.dim, algebra)
    if s is not None:
        lhs = apply_full_involution(u, s)
        rhs = ua if spec["star"] else u
        res["symmetry"] = worst(lhs.values - spec["sign"] * rhs.values)
    ok = all(v <= tol for v in res.values())
    if u.base.pinned:
        res["scalar_pinning"] = pinned_residual(u, algebra)
        lam = lambda_eval(u, algebra)
        triv, detail = _lambda_trivial(lam, i)
        res["lambda_class"] = 0.0 if triv else 1.0
        res["lambda_detail"] = detail
        ok = ok and res["scalar_pinning"] <= tol and triv
    return KOClassRep(u, i, algebra, ok=ok, residuals=res)


def _bits(res):
    return {k: v if isinstance(v, str) else np.float64(v).tobytes()
            for k, v in res.items()}


def _signature_outcome(rep):
    try:
        return signature(rep).as_dict()
    except InvariantError as exc:  # not readable at this resolution
        return type(exc), str(exc)


def _assert_classify_matches_reference(u, algebra=SCALAR, tol=1e-9):
    """classify and check_membership of u against the reference, class by
    class: the same refusal, or the same ok, residual bits and signature.
    No membership call changes the bytes of u's values: a one-class call
    writes its symmetry residual in place, and only into its own buffer."""
    before = u.values.tobytes()
    every = classify(u, algebra, tol)
    assert u.values.tobytes() == before
    assert list(every) == list(CLASS_IDS)
    for i in CLASS_IDS:
        want, want_err = _outcome(_check_membership_reference, u, i, algebra, tol)
        one, one_err = _outcome(check_membership, u, i, algebra, tol)
        assert u.values.tobytes() == before
        got = every[i]
        assert one_err == want_err
        if want_err is not None:
            assert (type(got), str(got)) == want_err
            continue
        for rep in (got, one):
            assert isinstance(rep, KOClassRep) and rep.class_id == i
            assert rep.element is u and rep.ok == want.ok
            assert _bits(rep.residuals) == _bits(want.residuals)
        if want.ok and catalog_has(want):
            assert _signature_outcome(got) == _signature_outcome(want)


@pytest.mark.parametrize("resolution", [16, 64])
def test_classify_matches_reference_on_catalog(resolution):
    for name in catalog.names():
        if not catalog.entry(name).exact:
            rep = catalog.generator(name, resolution)
            _assert_classify_matches_reference(rep.element, rep.algebra)


@pytest.mark.parametrize("name", ["x2", "x4", "x6"])
def test_classify_matches_reference_on_nonscalar_algebras(name):
    rep = catalog.generator(name, 16)
    assert rep.algebra.label != "scalar"
    _assert_classify_matches_reference(rep.element, rep.algebra)
    # and on the same element over the scalar algebra
    _assert_classify_matches_reference(rep.element)


class _FieldDraws:
    """An rng stub whose standard_normal returns the given real Hermitian
    fields in turn, as the real part of the draw."""

    def __init__(self, *fields):
        self.fields = list(fields)

    def standard_normal(self, shape):
        g = np.zeros(shape)
        g[:, 0] = self.fields.pop(0)
        return g


def test_even_draw_skips_fields_inside_the_gap():
    """An even-class draw whose field has an eigenvalue within DRAW_GAP of 0
    is redrawn: with the spectrum +-0.1 refused, the sign is the second
    field's diag(-1, 1), not the first's diag(1, -1)."""
    from tenfold.verify import random_class_element
    rng = _FieldDraws(np.diag([0.1, -0.1]), np.diag([-1.0, 1.0]))
    u = random_class_element(POINT, 0, 2, rng)
    assert np.array_equal(u.values[0], np.diag([-1.0, 1.0]))
    assert not rng.fields


def test_classify_matches_reference_on_random_draws():
    from tenfold.verify import random_class_element
    rng = np.random.default_rng(1201)
    drawn = set()
    for kind, involution, pin in (
            ("circle", "id", None), ("circle", "zeta", "basepoint"),
            ("circle", "sigma", "pm1"), ("circle", "zeta", "pm1"),
            ("disk", "id", "boundary"), ("disk", "zeta", "basepoint")):
        base = sample_space(kind, 16 if kind == "circle" else [4, 8], involution)
        base = with_pinned(base, pin) if pin else base
        for i in CLASS_IDS:
            for copies in (1, 2):
                try:
                    u = random_class_element(base, i, class_spec(i)["mult"] * copies,
                                             rng, fourier=2 if kind == "circle" else 0)
                except RuntimeError:  # no gapped even-class draw on this grid
                    continue
                drawn.add(i)
                _assert_classify_matches_reference(u)
        # a constant neutral passes on a pinned base, so lambda details are compared
        _assert_classify_matches_reference(constant_element(base, neutral(0, 2)))
    assert drawn == set(CLASS_IDS)
    # a rank-4 disk-id image of a dim-4 class -1 draw: 544 points, dim 8
    from tenfold.basespace import ses_registry
    from tenfold.boundary import boundary_map
    ses = ses_registry("disk-id", (17, 32))
    u = boundary_map(random_class_element(ses.quotient, -1, 4, rng, fourier=2), -1, ses).element
    assert u.values.shape == (544, 8, 8)
    _assert_classify_matches_reference(u)


@pytest.mark.parametrize("ses_name", ["disk-id", "disk-zeta"])
def test_classify_matches_reference_on_disk_rank4_images(ses_name):
    """The 8 x 8, rank-4 odd boundary images of dim-4 inputs on the disk,
    as a 544-point stack: the in-place unitary residual and the symmetry
    residual without sign * rhs read the reference's bits in every class
    (test_classify_matches_reference_on_catalog covers the generators)."""
    from tenfold.basespace import ses_registry
    from tenfold.boundary import boundary_map
    from tenfold.verify import random_class_element
    rng = np.random.default_rng(2601)
    ses = ses_registry(ses_name, (17, 32))
    for i in (-1, 1, 3, 5, "KU1"):
        rep = boundary_map(random_class_element(ses.quotient, i, 4, rng, fourier=2), i, ses).rep
        assert rep.element.values.shape == (544, 8, 8)
        _assert_classify_matches_reference(rep.element, rep.algebra)


def _circle_image_draws(rng):
    """Boundary images on circle-zeta and circle-sigma of one draw per class
    at dims 2 and 4 (where the class size divides the dim)."""
    from tenfold.basespace import ses_registry
    from tenfold.boundary import boundary_map
    from tenfold.verify import random_class_element
    for ses_name in ("circle-zeta", "circle-sigma"):
        ses = ses_registry(ses_name)
        for i in CLASS_IDS:
            for dim in (2, 4):
                if dim % class_spec(i)["mult"]:
                    continue
                for _ in range(10):
                    try:
                        u = random_class_element(ses.quotient, i, dim, rng, fourier=2)
                        break
                    except RuntimeError:  # no gapped even-class draw: redraw
                        continue
                yield ses_name, i, dim, boundary_map(u, i, ses).rep


def test_classify_matches_reference_on_circle_images():
    """The images of every class on the circle sequences, odd (index map)
    and even (exponential), over pinned 64-point circles."""
    seen = set()
    for ses_name, i, dim, rep in _circle_image_draws(np.random.default_rng(3001)):
        seen.add((ses_name, i))
        _assert_classify_matches_reference(rep.element, rep.algebra)
    assert len(seen) == 2 * len(CLASS_IDS)


def test_residual_norms_read_in_one_call_match_one_call_per_residual():
    """_membership reads the unitary, self-adjoint and symmetry residual
    stacks with one frobenius_norms call on their (k, n, d, d) buffer: each
    matrix's norm is the one a frobenius_norms call on its own stack gives,
    bit for bit, and each residual is that stack's largest."""
    from tenfold.basespace import ses_registry
    from tenfold.boundary import boundary_map
    from tenfold.verify import random_class_element
    rng = np.random.default_rng(3002)
    elements = [rep.element for _, _, _, rep in _circle_image_draws(rng)]
    ses = ses_registry("disk-zeta", (17, 32))
    elements += [boundary_map(random_class_element(ses.quotient, i, 4, rng, fourier=2),
                              i, ses).element for i in (1, 5)]
    for u in elements:
        u = FnElement(u.base, u.values + 1e-6 * rng.standard_normal(u.values.shape))
        ua = u.adjoint().values
        for i in CLASS_IDS:
            spec = class_spec(i)
            if u.dim % spec["mult"]:
                continue
            stacks = {"unitary": ua @ u.values - np.eye(u.dim)}
            if spec["sa"]:
                stacks["self_adjoint"] = u.values - ua
            s = class_structure(i, u.dim)
            if s is not None:
                lhs = apply_full_involution(u, s).values
                rhs = ua if spec["star"] else u.values
                stacks["symmetry"] = lhs - rhs if spec["sign"] > 0 else lhs + rhs
            one = matcore.frobenius_norms(np.concatenate(list(stacks.values())))
            each = [matcore.frobenius_norms(m) for m in stacks.values()]
            assert one.tobytes() == np.concatenate(each).tobytes()
            res = check_membership(u, i).residuals
            assert {k: res[k] for k in stacks} == {k: float(n.max())
                                                   for k, n in zip(stacks, each)}


def test_membership_residuals_do_not_depend_on_memory_layout():
    """Equal value bytes held in C order, in Fortran order and as a strided
    view give equal residual reprs in every class."""
    from tenfold.verify import random_class_element
    rng = np.random.default_rng(4801)
    base = sample_space("circle", 8, "zeta")
    for i in CLASS_IDS:
        dim = 2 * class_spec(i)["mult"]
        vals = random_class_element(base, i, dim, rng, fourier=2).values
        vals = vals + 1e-3 * (rng.standard_normal(vals.shape)
                              + 1j * rng.standard_normal(vals.shape))
        wide = np.zeros((len(vals), 2 * dim, 2 * dim), dtype=complex)
        wide[:, ::2, ::2] = vals
        layouts = (np.ascontiguousarray(vals), np.asfortranarray(vals), wide[:, ::2, ::2])
        assert all(v.tobytes() == vals.tobytes() for v in layouts)
        reprs = [repr(check_membership(FnElement(base, v), i).residuals) for v in layouts]
        assert reprs[1:] == reprs[:-1], (i, reprs)
