import numpy as np
import pytest

from tenfold import catalog, matcore
from tenfold.basespace import (FnElement, constant_element, lambda_eval,
                               sample_space, with_pinned)
from tenfold.invariants import signature
from tenfold.symclass import (CLASS_IDS, add, build_u,
                              check_membership, check_qc_relations,
                              class_spec, class_structure, complex_class,
                              forget_to_ku, gamma_double,
                              inverse, iota_interleaved, neutral,
                              normalize_lambda, stabilize, to_projection)

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
    assert const_rep(matcore.block_diag(neutral(2, 1), -neutral(2, 1)), 2).ok


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
        POINT, matcore.block_diag(neutral(2, 1), -neutral(2, 1)))
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


def test_to_projection():
    p = to_projection(constant_element(POINT, neutral(0, 1)))
    assert np.allclose(p.values[0], np.diag([1.0, 0.0]))
    p = to_projection(constant_element(POINT, -np.eye(3)))
    assert np.allclose(p.values[0], 0)
    rep = catalog.generator("sphere_ko0", (8, 8))
    p = to_projection(rep.element)
    x, y, z = rep.element.base.points.T
    want00 = (1 + z) / 2
    assert np.allclose(p.values[:, 0, 0], want00)
    assert np.allclose(p.values[:, 0, 1], (x - 1j * y) / 2)
    vals = p.values
    assert np.max(np.abs(vals @ vals - vals)) < 1e-12
    with pytest.raises(ValueError):
        to_projection(constant_element(POINT, np.array([[0, 1], [0, 0]], complex)))


@pytest.mark.parametrize("name,ku", [
    ("const_k2", "KU0"), ("x-1", "KU1"), ("const_k4", "KU0")])
def test_forget_to_ku(name, ku):
    rep = catalog.generator(name, 32)
    out = forget_to_ku(rep)
    assert out.ok and out.class_id == ku


def test_complex_class_by_self_adjointness():
    assert [complex_class(i) for i in CLASS_IDS] == [
        "KU1", "KU0", "KU1", "KU0", "KU1", "KU0", "KU1", "KU0", "KU0", "KU1"]


# one pinned basepoint value per kind of point invariant, and one class
# whose group over a point is zero
@pytest.mark.parametrize("i,value,ok,detail", [
    (0, np.eye(2), False, "half_trace=1.000"),
    ("KU0", neutral(0, 1), True, "half_trace=0.000"),
    (4, -np.eye(4), False, "quarter_trace=-1.000"),
    (1, -np.eye(1), False, "det=-1.000+0.000j"),
    (2, neutral(2, 1), True, "pf_ratio=1.000+0.000j"),
    (6, neutral(6, 1), True, "free"),
])
def test_lambda_detail_per_point_invariant(i, value, ok, detail):
    base = with_pinned(POINT, "basepoint")
    rep = check_membership(constant_element(base, np.asarray(value, complex)), i)
    assert rep.ok == ok
    assert rep.residuals["lambda_detail"] == detail
    assert rep.residuals["lambda_class"] == (0.0 if ok else 1.0)
    assert (class_spec(i)["point"] is None) == (detail == "free")


def test_forget_half_trace_matches():
    rep = catalog.generator("const_k4", 32)
    out = forget_to_ku(rep)
    assert signature(out).values() == (2,)  # c_4 is multiplication by 2


def test_gamma_double_examples():
    one = constant_element(POINT, np.eye(2, dtype=complex))
    rep = gamma_double(one, 0)
    assert rep.ok and rep.base.kind == "twopoints"
    assert np.allclose(rep.element.values[0], np.eye(2))
    assert np.allclose(rep.element.values[1], np.eye(2))
    assert signature(rep).values() == (1,)

    diag = constant_element(POINT, np.diag([1.0 + 0j, -1.0]))
    rep = gamma_double(diag, 0)
    assert rep.ok
    assert np.allclose(rep.element.values[1], np.diag([1.0, -1.0]))

    base = sample_space("circle", 16, "id")
    z = base.points[:, 0] + 1j * base.points[:, 1]
    u = FnElement(base, z[:, None, None] * np.eye(1))
    rep = gamma_double(u, 1)
    assert rep.ok and rep.element.dim == 2
    assert np.allclose(rep.element.values[:, 0, 0], z)
    assert np.allclose(rep.element.values[:, 1, 1], np.conj(z))


def test_build_u_and_qc_relations():
    h, x, k = catalog.qc_generators(16)
    assert check_qc_relations(h, x, k, 1e-12)
    zero = FnElement(h.base, np.zeros_like(h.values))
    u = build_u(zero, zero, zero)
    assert np.allclose(u.values[0], np.diag([1.0, 1.0, -1.0, -1.0]))
    one = FnElement(h.base, np.broadcast_to(np.eye(2), h.values.shape).copy())
    assert not check_qc_relations(one, zero, one)


# -- lambda normalization -------------------------------------------------------

def _pinned_point():
    return with_pinned(sample_space("point"), "basepoint")


def test_normalize_lambda_class0_swap():
    base = _pinned_point()
    u = FnElement(base, np.diag([-1.0 + 0j, 1.0])[None])
    out = normalize_lambda(u, 0)
    assert np.allclose(out.values[0], neutral(0, 1))


def test_normalize_lambda_noop_when_neutral():
    base = _pinned_point()
    u = FnElement(base, neutral(2, 2)[None])
    out = normalize_lambda(u, 2)
    assert np.array_equal(out.values, u.values)


def test_normalize_lambda_rejects_nontrivial():
    base = _pinned_point()
    with pytest.raises(ValueError):
        normalize_lambda(FnElement(base, np.eye(2, dtype=complex)[None]), 0)
    with pytest.raises(ValueError):
        normalize_lambda(FnElement(base, (-neutral(2, 1))[None]), 2)
    with pytest.raises(ValueError):
        normalize_lambda(FnElement(base, np.array([[-1.0 + 0j]])[None]), 1)


def _sigma_involute(m, i):
    s = class_structure(i, m.shape[0])
    return matcore.involute(m, s)


@pytest.mark.parametrize("i,n", [(-1, 2), (0, 2), (1, 2), (2, 2),
                                 (3, 2), (4, 1), (5, 2), (6, 2),
                                 ("KU0", 2), ("KU1", 3)])
def test_normalize_lambda_all_classes(i, n):
    """Conjugate a pinned neutral-lambda element into general position, then
    normalize back: lambda returns to the neutral stack and the element
    stays in class."""
    from tenfold.symclass import class_spec
    spec = class_spec(i)
    dim = spec["mult"] * n
    base = with_pinned(sample_space("circle", 16,
                                    "zeta" if not spec["sharp"] else "id"),
                       "basepoint")
    # start from a membership-passing element: constant neutral
    u0 = constant_element(base, neutral(i, n))
    # move lambda away with a constant class-compatible conjugation
    g = matcore.random_unitary(dim, RNG)
    if spec["sign"] is not None:
        s = class_structure(i, dim)
        if spec["star"]:
            # u -> c^sigma* u c ... use multiplication for the unitary classes
            pass
    # generic move: for sa-classes conjugate by a random unitary that fixes
    # the symmetry set only when structure-compatible; instead just draw a
    # random member with the right class and pinned-trivial lambda.
    from tenfold.verify import random_class_element
    u = random_class_element(base, i, dim, RNG, fourier=2)
    rep = check_membership(u, i)
    if u.base.pinned and not rep.ok:
        # redraw until the weak lambda condition holds (half traces etc.)
        for _ in range(50):
            u = random_class_element(base, i, dim, RNG, fourier=2)
            rep = check_membership(u, i)
            if rep.ok or rep.residuals.get("lambda_class", 0.0) == 0.0:
                break
    out = normalize_lambda(u, i)
    lam = lambda_eval(out)
    assert np.linalg.norm(lam - neutral(i, n)) < 1e-9
    # still a unitary satisfying the symmetry
    rep2 = check_membership(out, i)
    assert rep2.residuals["unitary"] < 1e-9
    if "symmetry" in rep2.residuals:
        assert rep2.residuals["symmetry"] < 1e-8


def test_normalize_lambda_preserves_signature():
    rep = catalog.generator("circle_zeta_k1", 32)
    g = np.array([[np.exp(0.7j)]])
    moved = FnElement(rep.element.base, rep.element.values * g[None, 0, 0])
    base = with_pinned(moved.base, "basepoint")
    moved = FnElement(base, moved.values)
    out = normalize_lambda(moved, 1)
    rep2 = check_membership(out, 1)
    assert rep2.ok
    assert signature(rep2).values()[0] == 1


def test_so_conjugation_invariance_low_classes():
    for name, i in (("circle_zeta_k1", 1), ("circle_zeta_k2", 2),
                    ("circle_sigma_km1", -1), ("circle_zeta_k0", 0)):
        rep = catalog.generator(name, 32)
        x = matcore.random_special_orthogonal(rep.element.dim, RNG)
        conj = rep.element.conjugated(x)
        rep2 = check_membership(conj, i, rep.algebra)
        assert rep2.ok
        assert signature(rep2).values() == signature(rep).values()


def test_doubled_so_conjugation_invariance_sharp_classes():
    for name, i in (("circle_sigma_k3", 3), ("circle_zeta_k5", 5),
                    ("circle_sigma_k4", 4)):
        rep = catalog.generator(name, 32)
        half = rep.element.dim // 2
        x = matcore.random_special_orthogonal(half, RNG)
        doubled = np.kron(x, np.eye(2))
        rep2 = check_membership(rep.element.conjugated(doubled), i, rep.algebra)
        assert rep2.ok
        assert signature(rep2).values() == signature(rep).values()
