import numpy as np
import pytest

from tenfold import matcore as mc

from helpers import block_diag

RNG = np.random.default_rng(7)


def rand(dim):
    return RNG.standard_normal((dim, dim)) + 1j * RNG.standard_normal((dim, dim))


def test_involute_transpose_matrix_unit():
    e12 = np.zeros((2, 2))
    e12[0, 1] = 1.0
    assert np.array_equal(mc.involute(e12, "transpose"), e12.T)


def test_involute_sharp_block():
    a, b, c, d = 1 + 2j, 3j, -2.0, 5 - 1j
    m = np.array([[a, b], [c, d]])
    out = mc.involute(m, "sharp2")
    assert np.allclose(out, [[d, -b], [-c, a]])


def test_involute_transpose_tilde():
    a, b, c, d = 1 + 2j, 3j, -2.0, 5 - 1j
    m = np.array([[a, b], [c, d]])
    out = mc.involute(m, "transpose_tilde")
    assert np.allclose(out, [[d, b], [c, a]])


@pytest.mark.parametrize("kind,dim", [
    ("transpose", 3), ("transpose_tilde", 4), ("sharp2", 2),
    ("sharp_tilde", 6), ("sharp_transpose", 6)])
def test_involutivity_exact(kind, dim):
    m = rand(dim)
    twice = mc.involute(mc.involute(m, kind), kind)
    assert np.array_equal(twice, m) or np.max(np.abs(twice - m)) == 0.0


@pytest.mark.parametrize("kind,dim", [
    ("transpose", 4), ("transpose_tilde", 4), ("sharp2", 2),
    ("sharp_tilde", 4), ("sharp_transpose", 4)])
def test_antimultiplicative(kind, dim):
    for _ in range(100):
        x, y = rand(dim), rand(dim)
        lhs = mc.involute(x @ y, kind)
        rhs = mc.involute(y, kind) @ mc.involute(x, kind)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(
            1.0, np.linalg.norm(x) * np.linalg.norm(y))


def test_w_printed_value():
    w = mc.conjugator_w(1)
    assert np.allclose(w, np.array([[1j, 1], [1, 1j]]) / np.sqrt(2))
    assert np.allclose(w @ w.conj().T, np.eye(2))


def test_w_rotates_sign_matrix():
    for n in (1, 3):
        w = mc.conjugator_w(n)
        got = w @ block_diag(np.eye(n), -np.eye(n)) @ w.conj().T
        want = np.block([[np.zeros((n, n)), 1j * np.eye(n)],
                         [-1j * np.eye(n), np.zeros((n, n))]])
        assert np.linalg.norm(got - want) < 1e-14


def test_w_equivalence_of_transposes():
    w = mc.conjugator_w(1)
    for _ in range(100):
        x = rand(2)
        lhs = (w @ x @ w.conj().T).T
        rhs = w @ mc.involute(x, "transpose_tilde") @ w.conj().T
        assert np.linalg.norm(lhs - rhs) <= 1e-12


def test_q_printed_value_and_identity():
    q = mc.conjugator_q(1)
    want = np.array([[1, 0, 0, -1j], [0, 1, 1j, 0],
                     [0, 1j, 1, 0], [-1j, 0, 0, 1]]) / np.sqrt(2)
    assert np.linalg.norm(q - want) < 1e-15
    assert np.linalg.norm(q @ np.eye(4) @ q.conj().T - np.eye(4)) < 1e-14
    for n in (1, 2):
        qn = mc.conjugator_q(n)
        s = np.kron(np.kron(mc.J2, np.eye(n)), mc.J2)
        for _ in range(50):
            x = rand(4 * n)
            lhs = qn @ x.T @ qn.conj().T
            rhs = mc.involute(qn @ x @ qn.conj().T, s)
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(x))


def test_v_diag_reshuffle_and_identity():
    v4 = mc.conjugator_v(2)
    got = np.real(np.diag(v4 @ np.diag([1.0, 2, 3, 4]) @ v4.conj().T))
    assert np.allclose(got, [1, 3, 2, 4])
    assert np.linalg.norm(v4 @ v4.conj().T - np.eye(4)) == 0.0
    for n in (1, 2, 3):
        v = mc.conjugator_v(n)
        for _ in range(50):
            x = rand(2 * n)
            lhs = v @ mc.involute(x, "sharp_tilde") @ v.conj().T
            rhs = mc.involute(v @ x @ v.conj().T, "sharp_transpose")
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(x))


def test_x_is_identity_at_one_block():
    assert np.array_equal(np.real(mc.conjugator_x(1)), np.eye(4))
    x8 = mc.conjugator_x(2)
    got = np.real(np.diag(x8 @ np.diag(np.arange(8.0)) @ x8.conj().T))
    assert np.allclose(got, [0, 1, 4, 5, 2, 3, 6, 7])


def test_herm_eig():
    w, _ = mc.herm_eig(np.diag([1.0, -1.0]))
    assert np.allclose(sorted(w), [-1, 1])
    w, _ = mc.herm_eig(np.array([[0, 1j], [-1j, 0]]))
    assert np.allclose(sorted(w), [-1, 1])
    w, _ = mc.herm_eig(np.eye(3))
    assert np.allclose(w, 1)
    with pytest.raises(ValueError):
        mc.herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_psd_sqrt():
    assert np.allclose(mc.psd_sqrt(np.zeros((2, 2))), 0)
    assert np.allclose(mc.psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))
    a = np.diag([0.6])
    assert np.allclose(mc.psd_sqrt(np.eye(1) - a.conj().T @ a), np.diag([0.8]))
    with pytest.raises(ValueError):
        mc.psd_sqrt(np.diag([-1.0, 1.0]))


def _herm_stack(*shape):
    a = RNG.standard_normal(shape) + 1j * RNG.standard_normal(shape)
    return (a + a.conj().swapaxes(-1, -2)) / 2


@pytest.mark.parametrize("shape", [(7, 3, 3), (2, 3, 2, 2)])
def test_stack_kernels_match_per_matrix_calls(shape):
    h = _herm_stack(*shape)
    p = h @ h
    w, v = mc.herm_eig(h)
    r = mc.psd_sqrt(p, tol=1e-7, zero_snap=1e-12)
    wide = 3.0 * h
    assert np.abs(np.linalg.eigvalsh(wide)).max() > 1.0  # the clip acts
    c = mc.clamp_spectrum(wide)
    e = mc.neg_exp_pi_i(h)
    assert w.shape == shape[:-1] and v.shape == r.shape == c.shape == e.shape == shape
    for k in np.ndindex(shape[:-2]):
        wk, vk = mc.herm_eig(h[k])
        assert np.max(np.abs(w[k] - wk)) < 1e-13
        # eigenvalues are distinct, so the frames agree up to column phases
        assert np.max(np.abs(np.abs(vk.conj().T @ v[k]) - np.eye(shape[-1]))) < 1e-13
        rk = mc.psd_sqrt(p[k], tol=1e-7, zero_snap=1e-12)
        assert rk.ndim == 2 and np.max(np.abs(r[k] - rk)) < 1e-13
        ck = mc.clamp_spectrum(wide[k])
        assert ck.ndim == 2 and c[k].tobytes() == ck.tobytes()
        ek = mc.neg_exp_pi_i(h[k])
        assert ek.ndim == 2 and e[k].tobytes() == ek.tobytes()
    assert [x.ndim for x in mc.herm_eig(h[(0,) * (len(shape) - 2)])] == [1, 2]
    wide.reshape(-1, *shape[-2:])[4, 0, 1] += 0.5
    with pytest.raises(ValueError, match="not Hermitian at stack index 4 "):
        mc.clamp_spectrum(wide)
    with pytest.raises(ValueError, match="not Hermitian at stack index 4 "):
        mc.neg_exp_pi_i(wide)


def test_stack_hermitian_guard_is_the_per_matrix_guard():
    """The stack residual is np.linalg.norm of each matrix bit for bit: at a
    tol equal to the largest one the stack passes, one ulp below it refuses
    and names that matrix."""
    rng = np.random.default_rng(18)
    for _ in range(20):
        h = rng.standard_normal((64, 2, 2)) + 1j * rng.standard_normal((64, 2, 2))
        h = (h + h.conj().swapaxes(-1, -2)) / 2
        h += 1e-10 * (rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape))
        res = np.array([np.linalg.norm(x - x.conj().T) for x in h])
        tol = res.max()
        mc.herm_eig(h, tol=tol)
        with pytest.raises(ValueError, match=f"stack index {res.argmax()} "):
            mc.herm_eig(h, tol=np.nextafter(tol, 0))


def test_stack_guards_name_the_worst_matrix():
    h = _herm_stack(5, 2, 2)
    h[1, 0, 1] += 1e-3
    h[3, 0, 1] += 0.5
    worst = np.linalg.norm(h[3] - h[3].conj().T)
    with pytest.raises(ValueError, match=f"stack index 3 .residual {worst:.3e}"):
        mc.herm_eig(h)
    with pytest.raises(ValueError, match=f"stack index 3 .residual {worst:.3e}"):
        mc.psd_sqrt(h)
    p = np.stack([np.eye(2)] * 5).astype(complex)
    p[2] = np.diag([-0.5, 1.0])
    p[4] = np.diag([1.0, -2.0])
    with pytest.raises(ValueError, match="eigenvalue -2.000e.00 below .* at stack index 4"):
        mc.psd_sqrt(p)
    # one matrix: the same messages without an index
    with pytest.raises(ValueError, match=r"Hermitian \(residual"):
        mc.herm_eig(h[3])
    with pytest.raises(ValueError, match=r"-5.000e-01 below -1.0e-10$"):
        mc.psd_sqrt(p[2])


def test_neg_exp_pi_i():
    assert np.allclose(mc.neg_exp_pi_i(np.diag([1.0, -1.0])), np.eye(2))
    assert np.allclose(mc.neg_exp_pi_i(np.zeros((3, 3))), -np.eye(3))
    assert np.allclose(mc.neg_exp_pi_i(np.array([[0.5]])), [[-1j]])


def test_neg_exp_unitary_for_contractions():
    for _ in range(20):
        h = rand(4)
        h = (h + h.conj().T) / 2
        h = h / max(1.0, np.linalg.norm(h, 2))
        u = mc.neg_exp_pi_i(h)
        assert np.linalg.norm(u @ u.conj().T - np.eye(4)) <= 1e-10


def test_pfaffian_small_values():
    m = 3.5 - 1j
    assert abs(mc.pfaffian(np.array([[0, m], [-m, 0]])) - m) < 1e-14
    i2 = np.array([[0, 1j], [-1j, 0]])
    assert abs(mc.pfaffian(i2) - 1j) < 1e-14
    assert abs(mc.pfaffian(block_diag(i2, i2)) - (-1)) < 1e-13


def test_pfaffian_square_is_det_and_congruence():
    for d in (2, 4, 6, 8):
        a = rand(d)
        a = a - a.T
        pf = mc.pfaffian(a)
        det = np.linalg.det(a)
        assert abs(pf * pf - det) <= 1e-9 * max(1.0, abs(det))
        b = rand(d)
        lhs = mc.pfaffian(b @ a @ b.T)
        assert abs(lhs - np.linalg.det(b) * pf) <= 1e-8 * max(1.0, abs(lhs))


def test_pfaffian_preconditions():
    with pytest.raises(ValueError):
        mc.pfaffian(rand(3))
    with pytest.raises(ValueError):
        mc.pfaffian(np.eye(2))


@pytest.mark.parametrize("dim", [1, 2, 4, 8])
def test_frobenius_norms_match_norm_bit_for_bit(dim):
    """The stacked norm is np.linalg.norm of each matrix, byte for byte,
    over magnitudes down to 1e-17, signed zeros and a one-matrix stack."""
    rng = np.random.default_rng(100 + dim)
    for scale in (1e-17, 1e-12, 1e-6, 1e-3, 1.0):
        for k in (1, 2, 33):
            m = scale * (rng.standard_normal((k, dim, dim))
                         + 1j * rng.standard_normal((k, dim, dim)))
            m.real[rng.random(m.shape) < 0.2] = -0.0
            m.imag[rng.random(m.shape) < 0.2] = -0.0
            # magnitudes spread over the stack, and a matrix of zeros
            m *= np.logspace(-3, 0, k)[:, None, None]
            m[k // 2] = -0.0
            want = np.array([np.linalg.norm(x) for x in m])
            assert mc.frobenius_norms(m).tobytes() == want.tobytes()
    assert mc.frobenius_norms(np.zeros((0, dim, dim), dtype=complex)).shape == (0,)


@pytest.mark.parametrize("dim", [1, 2, 8])
def test_sub_identity_is_minus_eye_bit_for_bit(dim):
    """The in-place diagonal subtraction gives the bytes of m - eye(dim),
    signed zeros included, in C order, Fortran order and as a strided view,
    and writes into the stack it is given."""
    rng = np.random.default_rng(200 + dim)
    m = rng.standard_normal((5, dim, dim)) + 1j * rng.standard_normal((5, dim, dim))
    m.real[rng.random(m.shape) < 0.2] = -0.0
    m.imag[rng.random(m.shape) < 0.2] = -0.0
    want = (m - np.eye(dim)).tobytes()
    wide = np.zeros((5, 2 * dim, 2 * dim), dtype=complex)
    wide[:, ::2, ::2] = m
    for layout in (m.copy(), np.asfortranarray(m), wide[:, ::2, ::2]):
        assert mc.sub_identity(layout) is layout
        assert layout.tobytes() == want
    assert mc.sub_identity(np.zeros((0, dim, dim), dtype=complex)).shape == (0, dim, dim)
