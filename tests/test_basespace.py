import numpy as np
import pytest

from tenfold import serialize
from tenfold.basespace import (SES_NAMES, Algebra, FnElement, SESDescriptor,
                               apply_full_involution, block_diag_elements,
                               constant_element, extend_contraction,
                               lambda_eval, restrict, sample_space,
                               ses_registry, with_pinned)

RNG = np.random.default_rng(17)


def circle_z(base):
    return base.points[:, 0] + 1j * base.points[:, 1]


def test_circle_zeta_pairing():
    base = sample_space("circle", 16, "zeta")
    z = circle_z(base)
    for k in range(16):
        assert base.inv_perm[k] == (-k) % 16
        assert abs(z[base.inv_perm[k]] - np.conj(z[k])) < 1e-15


def test_twopoints_swap_and_point():
    two = sample_space("twopoints", involution="swap")
    assert two.points[:, 0].tolist() == [1.0, -1.0]
    assert two.inv_perm.tolist() == [1, 0]
    pt = sample_space("point")
    assert pt.npoints == 1


def test_involution_is_order_two_permutation():
    for kind, inv, res in (("circle", "zeta", 16), ("circle", "sigma", 16),
                           ("disk", "zeta", (5, 8)), ("sphere2", "zeta", (8, 8))):
        base = sample_space(kind, res, inv)
        assert np.array_equal(base.inv_perm[base.inv_perm],
                              np.arange(base.npoints))


def test_full_involution_examples():
    base = sample_space("circle", 16, "zeta")
    z = circle_z(base)
    u = FnElement(base, z[:, None, None] * np.eye(1))
    tau = apply_full_involution(u, "transpose")
    # u(z) = z satisfies u^tau = u* when the point map is conjugation
    assert np.allclose(tau.values, u.adjoint().values)
    const = constant_element(base, np.eye(3))
    assert np.allclose(apply_full_involution(const, "transpose").values,
                       const.values)
    base_id = sample_space("circle", 16, "id")
    u = FnElement(base_id, circle_z(base_id)[:, None, None] * np.eye(1))
    assert np.allclose(apply_full_involution(u, "transpose").values, u.values)


def test_full_involution_order_two_exact():
    base = sample_space("circle", 16, "sigma")
    vals = RNG.standard_normal((16, 4, 4)) + 1j * RNG.standard_normal((16, 4, 4))
    u = FnElement(base, vals)
    for kind in ("transpose", "transpose_tilde", "sharp_tilde", "sharp_transpose"):
        twice = apply_full_involution(apply_full_involution(u, kind), kind)
        assert np.max(np.abs(twice.values - u.values)) == 0.0


def test_lambda_eval():
    base = sample_space("point")
    i0 = np.diag([1.0, -1.0])
    assert np.allclose(lambda_eval(constant_element(base, i0)), i0)
    circ = with_pinned(sample_space("circle", 16, "id"), "basepoint")
    u = FnElement(circ, circle_z(circ)[:, None, None] * np.eye(1))
    assert np.allclose(lambda_eval(u), [[1.0]])


def test_lambda_additive_under_blocks():
    base = with_pinned(sample_space("circle", 16, "zeta"), "basepoint")
    u = FnElement(base, RNG.standard_normal((16, 2, 2)) + 0j)
    v = FnElement(base, RNG.standard_normal((16, 3, 3)) + 0j)
    lam = lambda_eval(block_diag_elements(u, v))
    want = np.zeros((5, 5), dtype=complex)
    want[:2, :2] = lambda_eval(u)
    want[2:, 2:] = lambda_eval(v)
    assert np.array_equal(lam, want)


def test_restrict_disk_boundary_is_circle():
    ses = ses_registry("disk-id", (5, 16))
    z = ses.total.points[:, 0] + 1j * ses.total.points[:, 1]
    a = FnElement(ses.total, z[:, None, None] * np.eye(1))
    b = restrict(a, ses)
    zq = circle_z(ses.quotient)
    assert np.allclose(b.values[:, 0, 0], zq)


def test_restrict_interpolant_to_pm1():
    ses = ses_registry("circle-sigma", 16)
    b = FnElement(ses.quotient, np.stack([np.eye(1), -np.eye(1)]).astype(complex))
    a = extend_contraction(b, ses, "arclinear")
    # the arc profile hits (1, -1) at the split points and is linear between
    assert np.allclose(restrict(a, ses).values, b.values)
    t = np.arange(16) / 16
    expect = np.where(t <= 0.5, 1 - 4 * t, -3 + 4 * t)
    assert np.allclose(a.values[:, 0, 0], expect)


def test_radial_extension_of_identity_loop():
    ses = ses_registry("disk-id", (5, 16))
    zq = circle_z(ses.quotient)
    b = FnElement(ses.quotient, zq[:, None, None] * np.eye(1))
    a = extend_contraction(b, ses, "radial")
    zt = ses.total.points[:, 0] + 1j * ses.total.points[:, 1]
    assert np.allclose(a.values[:, 0, 0], zt)
    assert np.allclose(restrict(a, ses).values, b.values)


def test_identity_extension_when_closed_set_is_total():
    base = sample_space("circle", 16, "id")
    ses = SESDescriptor("all", base, tuple(range(16)), base, tuple(range(16)))
    vals = RNG.standard_normal((16, 2, 2))
    vals = vals / np.linalg.norm(vals, ord=2, axis=(1, 2))[:, None, None]
    b = FnElement(base, vals + 0j)
    a = extend_contraction(b, ses)
    assert np.allclose(a.values, b.values)


def test_taper0_vanishes_deep_inside():
    ses = ses_registry("disk-id", (9, 16))
    zq = circle_z(ses.quotient)
    b = FnElement(ses.quotient, zq[:, None, None] * np.eye(1))
    a = extend_contraction(b, ses, "taper0")
    assert np.max(np.abs(a.values[:16])) == 0.0  # center ring
    assert np.allclose(restrict(a, ses).values, b.values)


def test_contraction_precondition():
    ses = ses_registry("circle-sigma", 16)
    b = FnElement(ses.quotient, 2.0 * np.stack([np.eye(1), np.eye(1)]).astype(complex))
    with pytest.raises(ValueError):
        extend_contraction(b, ses)


def test_pinned_labels():
    assert with_pinned(sample_space("circle", 16, "zeta"), "pm1").pinned_label == "@pm1"
    assert with_pinned(sample_space("circle", 16, "id"), "basepoint").pinned_label == "@1"
    assert with_pinned(sample_space("disk", (5, 8), "id"), "boundary").pinned_label \
        == "@boundary"
    assert sample_space("torus2", (8, 8)).pinned_label == ""


def test_element_json_roundtrip():
    base = with_pinned(sample_space("circle", 16, "zeta"), "pm1")
    vals = RNG.standard_normal((16, 2, 2)) + 1j * RNG.standard_normal((16, 2, 2))
    u = FnElement(base, vals)
    alg = Algebra(base, 2, np.array([[0, 1], [1, 0]], dtype=complex), "qc2-trt")
    obj = serialize.element_to_json(u, alg)
    v, alg2 = serialize.element_from_json(obj)
    assert v.base == u.base
    assert np.allclose(v.values, u.values)
    assert alg2.label == "qc2-trt" and alg2.dim_alg == 2


def test_bad_space_arguments():
    with pytest.raises(ValueError):
        sample_space("circle", 7)
    with pytest.raises(ValueError):
        sample_space("torus2", 16, "zeta")
    with pytest.raises(ValueError):
        sample_space("nowhere")


# kind -> supported involutions, and resolutions: the minimum, the
# default and a non-square one (any valid one for a single axis)
KINDS = {
    "point": (("id",), (0, 64)),
    "twopoints": (("id", "swap"), (0, 64)),
    "interval": (("id",), (8, 64, 9)),
    "circle": (("id", "zeta", "sigma"), (8, 64, 10)),
    "disk": (("id", "zeta"), ((4, 8), 64, (5, 16))),
    "sphere2": (("id", "zeta"), ((8, 8), 64, (8, 16))),
    "sphere3": (("id",), ((8, 8, 8), 64, (8, 10, 12))),
    "torus2": (("id",), ((8, 8), 64, (8, 12))),
}


@pytest.mark.parametrize("kind", KINDS)
def test_base_json_roundtrip_every_space(kind):
    involutions, resolutions = KINDS[kind]
    for inv in involutions:
        for res in resolutions:
            base = sample_space(kind, res, inv)
            for b in (base, with_pinned(base, "basepoint")):
                obj = serialize.base_to_json(b)
                assert serialize._point_count(obj) == b.npoints
                back = serialize.base_from_json(obj)
                assert back.shape == b.shape and back.basepoint == b.basepoint
                assert back.points.tobytes() == b.points.tobytes()
                assert np.array_equal(back.inv_perm, b.inv_perm)
                assert back.pinned == b.pinned
                assert back.pinned_label == b.pinned_label


# the closed set of each registered sequence, by its with_pinned name
SES_PINS = {"circle-sigma": "pm1", "circle-zeta": "pm1", "circle-id": "basepoint",
            "disk-id": "boundary", "disk-zeta": "boundary"}


@pytest.mark.parametrize("name", SES_PINS)
def test_ses_closed_set_is_its_pinning(name):
    assert set(SES_NAMES) == {*SES_PINS, "toeplitz"}
    for res in (None, 16 if name.startswith("circle") else (9, 16)):
        ses = ses_registry(name, res)
        closed = ses.closed_flat
        assert closed == ses.quotient_map == with_pinned(ses.total, SES_PINS[name]).pinned
        assert ses.quotient.npoints == len(closed)
        # the quotient's involution is the total's, restricted to the closed set
        assert ses.total.inv_perm[list(closed)].tolist() == \
            [closed[j] for j in ses.quotient.inv_perm]
