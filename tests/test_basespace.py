import numpy as np
import pytest

from tenfold import matcore, serialize
from tenfold.basespace import (ALGEBRAS, SCALAR, SES_NAMES, Algebra, FnElement,
                               SESDescriptor, _signed_permutation, apply_full_involution,
                               block_compress, block_diag_elements,
                               collar_extension, constant_element,
                               extend_contraction, lambda_eval,
                               pinned_residual, restrict, sample_space,
                               scalar_block_residuals, ses_registry,
                               with_pinned)
from tenfold.symclass import CLASS_IDS, class_structure

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
    t1, t3 = (matcore.involution_matrix("transpose", d) for d in (1, 3))
    tau = apply_full_involution(u, t1)
    # u(z) = z satisfies u^tau = u* when the point map is conjugation
    assert np.allclose(tau.values, u.adjoint().values)
    const = constant_element(base, np.eye(3))
    assert np.allclose(apply_full_involution(const, t3).values, const.values)
    base_id = sample_space("circle", 16, "id")
    u = FnElement(base_id, circle_z(base_id)[:, None, None] * np.eye(1))
    assert np.allclose(apply_full_involution(u, t1).values, u.values)


def test_full_involution_order_two_exact():
    base = sample_space("circle", 16, "sigma")
    vals = RNG.standard_normal((16, 4, 4)) + 1j * RNG.standard_normal((16, 4, 4))
    u = FnElement(base, vals)
    for kind in ("transpose", "transpose_tilde", "sharp_tilde", "sharp_transpose"):
        s = matcore.involution_matrix(kind, 4)
        twice = apply_full_involution(apply_full_involution(u, s), s)
        assert np.max(np.abs(twice.values - u.values)) == 0.0


def _involution_reference(u, s):
    """The general path: S u(inv(p))^T S^{-1} as a matrix product."""
    return s @ np.swapaxes(u.values[u.base.inv_perm], 1, 2) @ s.conj().T


def _values_with_zeros(base, dim):
    vals = RNG.standard_normal((base.npoints, dim, dim)) \
        + 1j * RNG.standard_normal((base.npoints, dim, dim))
    vals[2] = 0.0
    vals[5] = -0.0 * vals[6]  # signed zeros, as a radial lift has at r = 0
    return vals


def _structures():
    quaternionic = Algebra(1, matcore.J2, "quaternionic")
    for dim in (2, 4, 8):
        for i in CLASS_IDS:
            for alg in (SCALAR, quaternionic):
                try:
                    s = class_structure(i, dim, alg)
                except ValueError:
                    continue
                if s is not None:
                    yield f"class {i} dim {dim}", s
        for kind in ("transpose", "transpose_tilde", "sharp2", "sharp_tilde",
                     "sharp_transpose"):
            if kind != "sharp2" or dim == 2:
                yield kind, matcore.involution_matrix(kind, dim)
    # a signed permutation that is not its own inverse
    cycle = np.eye(4, dtype=complex)[[2, 0, 3, 1]] * np.array([1, -1, -1, 1])
    yield "signed 4-cycle", cycle


def test_signed_permutation_structures_match_the_product_bit_for_bit():
    """The one-take gather equals the matrix product at dims 2, 4 and 8, on
    C-ordered values and on values held transposed (as an adjoint holds
    them)."""
    base = sample_space("disk", (5, 8), "zeta")
    for name, s in _structures():
        assert _signed_permutation(s) is not None, name
        vals = _values_with_zeros(base, len(s))
        transposed = np.ascontiguousarray(vals.swapaxes(1, 2)).swapaxes(1, 2)
        assert not transposed.flags.c_contiguous
        for layout in (vals, transposed):
            u = FnElement(base, layout)
            want = _involution_reference(u, s)
            got = apply_full_involution(u, s).values
            assert got.tobytes() == want.tobytes(), name


def test_signed_permutation_gather_is_built_once_read_only():
    """Each structure's decomposition is its d x d flat offsets and d x d
    signs, read-only, the same objects on a repeat call (a fresh copy of the
    structure included), and the entries of one involuted matrix."""
    m = RNG.standard_normal((8, 8)) + 1j * RNG.standard_normal((8, 8))
    for name, s in _structures():
        d = len(s)
        offsets, signs = _signed_permutation(s)
        assert offsets.shape == signs.shape == (d, d), name
        assert not offsets.flags.writeable and not signs.flags.writeable, name
        again = _signed_permutation(s.copy())
        assert again[0] is offsets and again[1] is signs, name
        with pytest.raises(ValueError, match="read-only"):
            signs[0, 0] = 0.0
        md = m[:d, :d]
        assert np.array_equal(signs * md.ravel()[offsets], s @ md.T @ s.conj().T), name


def test_other_structures_take_the_general_path():
    base = sample_space("circle", 16, "zeta")
    c, t = np.cos(0.3), np.sin(0.3)
    for s in (np.array([[c, t], [-t, c]], dtype=complex),   # a real rotation
              np.diag([1j, 1.0]),                             # a complex phase
              np.diag([2.0, 1.0]).astype(complex),            # not a sign
              np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)):
        assert _signed_permutation(s) is None
        u = FnElement(base, _values_with_zeros(base, 2))
        want = _involution_reference(u, s)
        assert apply_full_involution(u, s).values.tobytes() == want.tobytes()


def _pinned_residual_reference(u, algebra=SCALAR):
    """The unitization residual as a fold over every pinned point."""
    d = algebra.dim_alg

    def block(v):
        return float(np.linalg.norm(v - np.kron(block_compress(v, d), np.eye(d))))

    ref = u.values[u.base.pinned[0]]
    res = block(ref)
    for p in u.base.pinned[1:]:
        res = max(res, float(np.linalg.norm(u.values[p] - ref)))
        res = max(res, block(u.values[p]))
    return res


@pytest.mark.parametrize("dim_alg", [1, 2])
def test_pinned_residual_matches_reference(dim_alg):
    base = with_pinned(sample_space("disk", (5, 16), "id"), "boundary")
    alg = Algebra(dim_alg, np.eye(dim_alg, dtype=complex), "test")
    scalar = np.kron(RNG.standard_normal((2, 2)), np.eye(dim_alg)).astype(complex)
    vals = np.broadcast_to(scalar, (base.npoints,) + scalar.shape).copy()
    for noise in (0.0, 1e-12, 1e-3):
        # noise per point, and one noise matrix at every point: equal
        # values that are not scalar blocks
        for shape in (vals.shape, vals.shape[1:]):
            u = FnElement(base, vals + noise * RNG.standard_normal(shape))
            assert pinned_residual(u, alg) == _pinned_residual_reference(u, alg)
    u = FnElement(base, -0.0 * vals)
    assert pinned_residual(u, alg) == _pinned_residual_reference(u, alg) == 0.0


@pytest.mark.parametrize("d", [2, 3, 4])
def test_scalar_block_residuals_match_reference_bytes(d):
    """The stacked residual is, per matrix, the norm of v less the kron
    of its one-matrix block trace with 1_d, byte for byte; block_compress
    of the stack is that block trace per matrix."""
    rng = np.random.default_rng(60 + d)
    for k in (1, 2, 3):
        for npts in (1, 7, 64):
            for scale in (1e-12, 1.0):
                n = k * d
                vals = scale * (rng.standard_normal((npts, n, n))
                                + 1j * rng.standard_normal((npts, n, n)))
                vals.real[rng.random(vals.shape) < 0.2] = -0.0
                outers = [np.einsum("aibi->ab", v.reshape(k, d, k, d)) / d
                          for v in vals]
                want = np.array([np.linalg.norm(v - np.kron(m, np.eye(d)))
                                 for v, m in zip(vals, outers)])
                assert scalar_block_residuals(vals, d).tobytes() == want.tobytes()
                assert block_compress(vals, d).tobytes() == np.array(outers).tobytes()
                assert block_compress(vals[0], d).tobytes() == outers[0].tobytes()


@pytest.mark.parametrize("dim_alg", [1, 2])
def test_pinned_residual_on_one_pinned_point(dim_alg):
    """One pinned point leaves no difference to take; the scalar-block
    residual still counts."""
    base = with_pinned(sample_space("circle", 16, "id"), "basepoint")
    assert len(base.pinned) == 1
    alg = Algebra(dim_alg, np.eye(dim_alg, dtype=complex), "test")
    for vals in (np.ones((16, 2 * dim_alg, 2 * dim_alg), dtype=complex),
                 RNG.standard_normal((16, 2 * dim_alg, 2 * dim_alg)) + 0j):
        u = FnElement(base, vals)
        assert pinned_residual(u, alg) == _pinned_residual_reference(u, alg)
        assert type(pinned_residual(u, alg)) is float


def test_pinned_residual_reports_non_finite_values():
    base = with_pinned(sample_space("disk", (5, 16), "id"), "boundary")
    for at in (0, 3):
        for bad in (np.nan, np.inf):
            vals = np.ones((base.npoints, 1, 1), dtype=complex)
            vals[base.pinned[at]] = bad
            assert np.isnan(pinned_residual(FnElement(base, vals)))
    vals = np.ones((base.npoints, 1, 1), dtype=complex)
    vals[0] = np.nan  # off the pinned set
    assert pinned_residual(FnElement(base, vals)) == 0.0


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
    a = extend_contraction(b, ses, "natural")
    # the arc profile hits (1, -1) at the split points and is linear between
    assert np.allclose(restrict(a, ses).values, b.values)
    t = np.arange(16) / 16
    expect = np.where(t <= 0.5, 1 - 4 * t, -3 + 4 * t)
    assert np.allclose(a.values[:, 0, 0], expect)


def test_radial_extension_of_identity_loop():
    ses = ses_registry("disk-id", (5, 16))
    zq = circle_z(ses.quotient)
    b = FnElement(ses.quotient, zq[:, None, None] * np.eye(1))
    a = extend_contraction(b, ses, "natural")
    zt = ses.total.points[:, 0] + 1j * ses.total.points[:, 1]
    assert np.allclose(a.values[:, 0, 0], zt)
    assert np.allclose(restrict(a, ses).values, b.values)


def test_identity_extension_when_closed_set_is_total():
    base = sample_space("circle", 16, "id")
    ses = SESDescriptor("all", base, tuple(range(16)), base)
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


def test_extension_refuses_other_bases_and_strategies():
    ses = ses_registry("disk-zeta", (5, 16))
    b = constant_element(ses.quotient, np.eye(2))
    for other in (sample_space("circle", 16, "id"), sample_space("circle", 32, "zeta"),
                  with_pinned(ses.quotient, "basepoint")):
        with pytest.raises(ValueError, match="not over the SES quotient"):
            extend_contraction(constant_element(other, np.eye(2)), ses)
    for strategy in ("radial", "arclinear", "none"):
        with pytest.raises(ValueError, match="unknown extension strategy"):
            extend_contraction(b, ses, strategy)
    sphere = sample_space("sphere2", (8, 8), "id")
    with pytest.raises(ValueError, match="no contraction extends"):
        SESDescriptor("sphere", sphere, (0,), sample_space("point"))


def _extension_reference(b, ses, strategy):
    """The per-kind extension the collars replaced: radial on the disk,
    linear along the arcs of the circle (the last arc written wins at a
    shared endpoint), and for taper0 a profile read from the distance to
    the closed set."""
    total = ses.total
    if total.kind == "disk":
        nr, nt = total.shape
        r = (np.arange(nr) / (nr - 1))[:, None, None, None]
        out = (r * b.values).reshape(-1, b.dim, b.dim)
        dist = np.repeat(1.0 - np.arange(nr) / (nr - 1), nt)
    else:
        n = total.shape[0]
        closed = sorted(ses.closed_flat)
        out = np.zeros((n, b.dim, b.dim), dtype=complex)
        vals = {c: b.values[i] for i, c in enumerate(ses.closed_flat)}
        for lo, hi in zip(closed, closed[1:] + [closed[0] + n]):
            k = np.arange(lo, hi + 1)
            s = ((k - lo) / (hi - lo))[:, None, None]
            out[k % n] = (1.0 - s) * vals[lo % n] + s * vals[hi % n]
        closed = np.array(closed)
        idx = np.arange(n)
        dist = np.min(np.minimum((idx[:, None] - closed) % n,
                                 (closed - idx[:, None]) % n), axis=1)
        gaps = np.diff(np.concatenate([closed, [closed[0] + n]]))
        dist = dist / (np.max(gaps) / 2.0)
    if strategy == "taper0":
        out = out * np.clip(1.0 - 2.0 * dist, 0.0, 1.0)[:, None, None]
    return out


def _uneven_circle_ses():
    """Eight closed points, listed out of order, on uneven arcs: at a shared
    endpoint the arc written last wins, which decides a signed zero."""
    total = sample_space("circle", 32, "zeta")
    closed = (9, 0, 2, 3, 30, 16, 17, 23)
    return SESDescriptor("uneven", total, closed, sample_space("circle", 8, "id"))


@pytest.mark.parametrize("name", [n for n in SES_NAMES if n != "toeplitz"] + ["uneven"])
def test_extension_matches_reference_bytes(name):
    rng = np.random.default_rng(23)
    if name == "uneven":
        sequences = [_uneven_circle_ses()]
    else:
        sequences = [ses_registry(name, res) for res in
                     (None, 16 if name.startswith("circle") else (5, 16))]
    for ses in sequences:
        for dim in (1, 2, 4):
            for _ in range(5):
                n = ses.quotient.npoints
                vals = rng.standard_normal((n, dim, dim)) \
                    + 1j * rng.standard_normal((n, dim, dim))
                vals /= np.linalg.norm(vals, ord=2, axis=(1, 2)).max()
                vals[1::3].real[:, 0] = -0.0
                vals[0] = 0.0
                vals[n // 2] = -0.0 * np.abs(vals[n // 2])  # -0.0 in both parts
                b = FnElement(ses.quotient, vals)
                for strategy in ("natural", "taper0"):
                    got = extend_contraction(b, ses, strategy)
                    assert got.base == ses.total
                    assert got.values.tobytes() == \
                        _extension_reference(b, ses, strategy).tobytes()


def test_collar_extension_is_extend_contraction_without_the_norm_check():
    ses = ses_registry("disk-zeta", (5, 16))
    vals = RNG.standard_normal((16, 2, 2)) + 1j * RNG.standard_normal((16, 2, 2))
    vals /= np.linalg.norm(vals, ord=2, axis=(1, 2)).max()
    b = FnElement(ses.quotient, vals)
    for strategy in ("natural", "taper0"):
        assert collar_extension(b, ses, strategy).values.tobytes() == \
            extend_contraction(b, ses, strategy).values.tobytes()
    big = FnElement(ses.quotient, 2.0 * vals)
    with pytest.raises(ValueError, match="contractions"):
        extend_contraction(big, ses)
    assert np.array_equal(collar_extension(big, ses).values,
                          2.0 * extend_contraction(b, ses).values)
    with pytest.raises(ValueError, match="unknown extension strategy"):
        collar_extension(b, ses, "taper1")


def test_pinned_labels():
    assert with_pinned(sample_space("circle", 16, "zeta"), "pm1").pinned_label == "@pm1"
    assert with_pinned(sample_space("circle", 16, "id"), "basepoint").pinned_label == "@1"
    assert with_pinned(sample_space("disk", (5, 8), "id"), "boundary").pinned_label \
        == "@boundary"
    assert sample_space("torus2", (8, 8)).pinned_label == ""


def test_named_algebra_structs_are_read_only():
    assert SCALAR is ALGEBRAS["scalar"]
    for alg in ALGEBRAS.values():
        with pytest.raises(ValueError, match="read-only"):
            alg.struct[0, 0] = 7.0


def test_element_json_roundtrip():
    base = with_pinned(sample_space("circle", 16, "zeta"), "pm1")
    vals = RNG.standard_normal((16, 2, 2)) + 1j * RNG.standard_normal((16, 2, 2))
    u = FnElement(base, vals)
    alg = Algebra(2, np.array([[0, 1], [1, 0]], dtype=complex), "qc2-trt")
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
        assert closed == with_pinned(ses.total, SES_PINS[name]).pinned
        assert ses.quotient.npoints == len(closed)
        # the quotient's involution is the total's, restricted to the closed set
        assert ses.total.inv_perm[list(closed)].tolist() == \
            [closed[j] for j in ses.quotient.inv_perm]
