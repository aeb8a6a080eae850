import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tenfold import catalog, toeplitz as tp
from tenfold.boundary import symmetrize_lift
from tenfold.symclass import CLASS_IDS, class_spec


S = tp.shift()
E = tp.rank_one_e()
ONE = tp.one(1)
Z0 = tp.zero(1)
I = tp.FC_I
TWO = tp.FC(2)


def test_shift_relations_exact():
    assert tp.mul(S.adjoint(), S) == ONE
    assert tp.mul(S, S.adjoint()) == ONE - E
    assert tp.mul(E, E) == E
    assert E.adjoint() == E


def test_real_structure():
    assert S.transpose_dual() == S.adjoint()
    x = tp.mul(S, E) + S.adjoint().scaled(tp.FC(0, 3))
    assert x.transpose_dual().transpose_dual() == x


def test_algebra_identities():
    x = tp.mul(S, S) + E.scaled(tp.FC(5, -2))
    assert tp.mul(x, ONE) == x
    assert tp.mul(ONE, x) == x
    y = S.adjoint() + E
    assert tp.mul(x, y).adjoint() == tp.mul(y.adjoint(), x.adjoint())


def test_symbol_map_values_and_multiplicativity():
    fm = tp.symbol_map(S, 16)
    z = fm.base.points[:, 0] + 1j * fm.base.points[:, 1]
    assert np.allclose(fm.values[:, 0, 0], z)
    assert np.max(np.abs(tp.symbol_map(E, 16).values)) == 0.0
    both = tp.symbol_map(S + S.adjoint(), 16)
    assert np.allclose(both.values[:, 0, 0], z + np.conj(z))
    x = tp.mul(S, S) + E
    y = S.adjoint() + ONE.scaled(tp.FC(0, 1))
    lhs = tp.symbol_map(tp.mul(x, y), 16).values
    rhs = tp.symbol_map(x, 16).values @ tp.symbol_map(y, 16).values
    assert np.allclose(lhs, rhs)


def test_sqrt_only_for_projections():
    assert tp.sqrt_exact(E) == E
    with pytest.raises(ValueError):
        tp.sqrt_exact(E.scaled(TWO))


def test_index_unitary_of_shift():
    b = tp.index_unitary_exact(S)
    want = tp.from_blocks([[ONE - E.scaled(TWO), Z0],
                           [Z0, ONE.scaled(tp.FC(-1))]])
    assert b == want


def test_calkin_boundaries_match_printed_matrices():
    r1 = tp.calkin_boundary(S, 1)
    assert r1.class_id == 0 and r1.invariant == 1
    assert r1.element == tp.from_blocks(
        [[ONE - E.scaled(TWO), Z0], [Z0, ONE.scaled(tp.FC(-1))]])

    v2 = tp.from_blocks([[Z0, S.scaled(I)],
                         [S.adjoint().scaled(tp.FC(0, -1)), Z0]])
    r2 = tp.calkin_boundary(v2, 2)
    assert r2.class_id == 1 and r2.invariant == 1
    assert r2.element == tp.from_blocks([[ONE - E.scaled(TWO), Z0], [Z0, ONE]])

    v3 = tp.from_blocks([[S, Z0], [Z0, S.adjoint()]])
    r3 = tp.calkin_boundary(v3, 3)
    assert r3.class_id == 2 and r3.invariant == 1
    m = r3.element.truncation(1)
    want = np.array([[0, 0, 0, -1j], [0, 0, 1j, 0],
                     [0, -1j, 0, 0], [1j, 0, 0, 0]])
    got = np.array([[m[a, b].to_complex() for b in range(4)] for a in range(4)])
    assert np.array_equal(got, want)

    v5 = tp.from_blocks([[S, Z0], [Z0, S]])
    r5 = tp.calkin_boundary(v5, 5)
    assert r5.class_id == 4 and r5.invariant == 1
    assert r5.element == tp.from_blocks(
        [[ONE - E.scaled(TWO), Z0, Z0, Z0],
         [Z0, ONE - E.scaled(TWO), Z0, Z0],
         [Z0, Z0, ONE.scaled(tp.FC(-1)), Z0],
         [Z0, Z0, Z0, ONE.scaled(tp.FC(-1))]])


def test_exponential_series_pattern():
    v2 = tp.from_blocks([[Z0, S.scaled(I)],
                         [S.adjoint().scaled(tp.FC(0, -1)), Z0]])
    a = tp.symmetrize_exact(v2, 2)
    powers = [tp.one(2)]
    for _ in range(6):
        powers.append(tp.mul(powers[-1], a))
    assert powers[3] == powers[1] and powers[5] == powers[1]
    assert powers[4] == powers[2] and powers[6] == powers[2]
    assert tp.exp_unitary_exact(a) == powers[2].scaled(TWO) - tp.one(2)


def test_exponential_requires_cubic_relation():
    proj = ONE - E  # (1-e)^3 = 1-e, so the closed form applies
    assert tp.exp_unitary_exact(proj) == ONE - E.scaled(TWO)
    with pytest.raises(ValueError):
        tp.exp_unitary_exact(ONE.scaled(tp.FC(1) / tp.FC(2)))


def test_quotient_membership():
    assert tp.check_membership_quotient(S, 1)
    assert not tp.check_membership_quotient(S, -1)
    # the compact part is invisible in the quotient
    assert tp.check_membership_quotient(S + E.scaled(tp.FC(7)), 1)
    v3 = tp.from_blocks([[S, Z0], [Z0, S.adjoint()]])
    assert tp.check_membership_quotient(v3, 3)


def test_exact_membership():
    w1 = ONE - E.scaled(TWO)
    assert tp.check_membership_exact(w1, 1)
    assert not tp.check_membership_exact(S, 1)  # not unitary in the algebra


def test_invariants_and_rejections():
    w1 = ONE - E.scaled(TWO)
    assert tp.exact_invariant(w1, 1) == ("det_parity", 1)
    with pytest.raises(ValueError):
        tp.calkin_boundary(tp.from_blocks([[S, Z0], [Z0, S]]), 3)  # wrong class


def test_calkin_sqrt_failure_path():
    # (s + s*)/2 is a symbol-level self-adjoint contraction whose defect is
    # not a projection, so the exact exponential is refused
    v = tp.from_blocks([[Z0, S + S.adjoint()], [Z0, Z0]])
    x = (v + v.adjoint()).scaled(tp.FC(1) / tp.FC(2))
    with pytest.raises(ValueError):
        tp.exp_unitary_exact(x)


def test_json_roundtrip():
    """The exact format reads back what it writes, every catalog exact
    generator included."""
    exact = [catalog.generator(n) for n in catalog.names() if catalog.entry(n).exact]
    for x in (tp.from_blocks([[S, E.scaled(tp.FC(0, -1))], [Z0, S.adjoint()]]), *exact):
        obj = json.loads(json.dumps(tp.element_to_json(x)))
        y = tp.element_from_json(obj)
        assert x == y
        assert json.dumps(obj, sort_keys=True) == json.dumps(
            tp.element_to_json(y), sort_keys=True)


def test_json_reads_dim_and_window_by_the_grid_rule():
    """dim and window read as the grid reader reads its integers: an
    integral float is taken, a fraction, a string or a bool is refused; a
    bool entry is refused as a grid matrix entry is."""
    obj = tp.element_to_json(tp.from_blocks([[S, E], [Z0, S.adjoint()]]))
    x = tp.element_from_json(obj)
    assert tp.element_from_json(dict(obj, dim=2.0, window=float(obj["window"]))) == x
    for key, bad in (("dim", 2.5), ("dim", "2"), ("dim", True),
                     ("window", 0.5), ("window", False), ("window", None)):
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            tp.element_from_json(dict(obj, **{key: bad}))
    for entry in ([True, 0], [0, False]):
        spoiled = json.loads(json.dumps(obj))
        spoiled["symbol"]["1"][0][0] = entry
        with pytest.raises(ValueError, match="must be numbers, not (true|false)"):
            tp.element_from_json(spoiled)


def _skew_gaussian(rng, n):
    """Random skew-symmetric matrix with small Gaussian-integer entries:
    (exact object matrix, float matrix)."""
    g = rng.integers(-3, 4, (n, n)) + 1j * rng.integers(-3, 4, (n, n))
    g = np.triu(g, 1)
    g = g - g.T
    exact = np.empty((n, n), dtype=object)
    for (a, b), v in np.ndenumerate(g):
        exact[a, b] = tp.FC(int(v.real), int(v.imag))
    return exact, g


def test_exact_pfaffian_is_polynomial_time():
    import time
    exact, _ = _skew_gaussian(np.random.default_rng(0), 16)
    t0 = time.perf_counter()
    tp._exact_pfaffian(exact)
    assert time.perf_counter() - t0 < 1.0


def test_exact_pfaffian_matches_float_and_det():
    from tenfold import matcore
    rng = np.random.default_rng(1)
    for n in (2, 4, 6, 8):
        for _ in range(5):
            exact, g = _skew_gaussian(rng, n)
            pf = tp._exact_pfaffian(exact)
            want = matcore.pfaffian(g)
            assert abs(pf.to_complex() - want) <= 1e-9 * max(1.0, abs(want))
            assert pf * pf == tp._exact_det(exact)


def test_exact_pfaffian_pivots_past_zero_entries():
    # row 0 is zero against column 1, so the first pivot needs a swap
    m = np.array([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])
    exact = np.empty((4, 4), dtype=object)
    for (a, b), v in np.ndenumerate(m):
        exact[a, b] = tp.FC(int(v))
    assert tp._exact_pfaffian(exact) == tp.FC(-1)
    exact[0, 2] = exact[2, 0] = tp.FC_ZERO
    assert tp._exact_pfaffian(exact) == tp.FC_ZERO


def test_quotient_membership_agrees_with_grid_path():
    from tenfold import catalog
    from tenfold.symclass import CLASS_IDS, check_membership

    def outcome(check):
        try:
            return check()
        except ValueError:
            return "raises"

    for name in catalog.names():
        if not catalog.entry(name).exact:
            continue
        x = catalog.generator(name)
        sym = tp.symbol_map(x)
        for i in CLASS_IDS:
            exact = outcome(lambda: tp.check_membership_quotient(x, i))
            grid = outcome(lambda: check_membership(sym, i).ok)
            assert exact == grid, (name, i, exact, grid)


def test_membership_refuses_dimension_off_class_size():
    w1 = ONE - E.scaled(TWO)
    for i in (0, "KU0", 4):
        with pytest.raises(ValueError):
            tp.check_membership_exact(w1, i)
        with pytest.raises(ValueError):
            tp.check_membership_quotient(w1, i)


def test_gaussian_form_of_class_constants():
    from tenfold.boundary import boundary_conjugator
    c, pref = tp._gaussian(boundary_conjugator(3, 4), kmax=2)
    assert pref == tp.Fraction(1, 4)
    assert all(v.re.denominator == 1 and v.im.denominator == 1 for v in c.flat)
    with pytest.raises(ValueError):
        tp._gaussian(boundary_conjugator(-1, 2))  # needs k = 1
    with pytest.raises(ValueError):
        tp._gaussian(np.array([[1 / 3]]), kmax=2)


# -- FC against a (Fraction, Fraction) reference ------------------------------

_PARTS = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    st.integers(-2 ** 130, 2 ** 130).map(Fraction),
    st.builds(Fraction, st.integers(-2 ** 130, 2 ** 130), st.integers(1, 2 ** 70)))
_PAIRS = st.tuples(_PARTS, _PARTS)
# a real operand of either type, on either side of the FC
_SCALARS = st.one_of(st.integers(-2 ** 70, 2 ** 70), _PARTS)


def _pmul(p, q):
    return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]


def _pdiv(p, q):
    norm = q[0] * q[0] + q[1] * q[1]
    return (p[0] * q[0] + p[1] * q[1]) / norm, (p[1] * q[0] - p[0] * q[1]) / norm


def _is(z, pair):
    """z is the FC with parts `pair`, in lowest terms: its numerators over
    its own denominator share no factor with it."""
    re, im, den = tp._numerators(np.array([z], dtype=object))
    return (type(z) is tp.FC and (z.re, z.im) == pair
            and den > 0 and math.gcd(re[0], im[0], den) == 1)


@settings(max_examples=300, deadline=None)
@given(_PAIRS, _PAIRS, _SCALARS)
def test_fc_matches_fraction_pairs(p, q, s):
    a, b = tp.FC(*p), tp.FC(*q)
    r = Fraction(s)
    assert _is(a, p)
    if p[0].denominator == p[1].denominator == 1:
        assert _is(tp.FC(int(p[0]), int(p[1])), p)
    assert _is(a + b, (p[0] + q[0], p[1] + q[1]))
    assert _is(a - b, (p[0] - q[0], p[1] - q[1]))
    assert _is(a * b, _pmul(p, q))
    assert _is(-a, (-p[0], -p[1])) and _is(a.conj(), (p[0], -p[1]))
    assert _is(a + s, (p[0] + r, p[1])) and _is(s + a, (r + p[0], p[1]))
    assert _is(a - s, (p[0] - r, p[1])) and _is(s - a, (r - p[0], -p[1]))
    assert _is(a * s, (p[0] * r, p[1] * r)) and _is(s * a, (r * p[0], r * p[1]))
    if q == (0, 0):
        with pytest.raises(ZeroDivisionError):
            a / b
    else:
        assert _is(a / b, _pdiv(p, q))
    if r == 0:
        with pytest.raises(ZeroDivisionError):
            a / s
    else:
        assert _is(a / s, (p[0] / r, p[1] / r))
    assert (a == b) is (p == q) and (a == s) is (p == (r, 0))
    assert (a != b) is (p != q)
    assert bool(a) is (p != (0, 0))
    assert a == tp.FC(*p) and hash(a) == hash(tp.FC(*p))
    assert a.to_complex() == float(p[0]) + 1j * float(p[1])


def test_fc_hash_agrees_with_equality():
    for x in (0, 1, -7, 2 ** 80, Fraction(1, 3), Fraction(-5, 2), 0.5):
        assert tp.FC(x) == x and hash(tp.FC(x)) == hash(x)
    assert {tp.FC(1), 1} == {1} and len({tp.FC(1), Fraction(1), 1.0}) == 1
    z = tp.FC(Fraction(1, 2), 3)
    assert z == tp.FC(1, 6) / 2 and hash(z) == hash(tp.FC(1, 6) / 2)


def test_fc_compares_unequal_to_what_it_cannot_read():
    one = tp.FC(1)
    for other in (None, "x", "1", 1j, 1 + 0j, float("nan"), float("inf"), [1]):
        assert not one == other and one != other
    for op in (lambda: one + 1j, lambda: 1j * one, lambda: one - 0j,
               lambda: one / 1j):
        with pytest.raises(TypeError):
            op()


_RATIONALS = [tp.Fraction(0), tp.Fraction(1), tp.Fraction(-2), tp.Fraction(1, 3),
              tp.Fraction(5, 7), tp.Fraction(-4, 21)]


def _rational_matrix(rng, shape):
    """Gaussian-rational entries with non-dyadic denominators, about a
    third of their parts zero."""
    parts = rng.integers(len(_RATIONALS), size=shape + (2,))
    out = np.empty(shape, dtype=object)
    for idx in np.ndindex(shape):
        out[idx] = tp.FC(*(_RATIONALS[k] for k in parts[idx]))
    return out


def _same_entries(got, want):
    return got.shape == want.shape and all(
        type(g) is tp.FC and g == w for g, w in zip(got.flat, want.flat))


def test_odot_matches_object_dot():
    rng = np.random.default_rng(7)
    for n, k, m in ((1, 1, 1), (2, 3, 4), (1, 5, 1), (4, 1, 4), (3, 3, 3)):
        a = _rational_matrix(rng, (n, k))
        b = _rational_matrix(rng, (k, m))
        assert _same_entries(tp._odot(a, b), np.dot(a, b))
        zero = tp._ozeros(k, m)
        assert _same_entries(tp._odot(a, zero), np.dot(a, zero))
        assert _same_entries(tp._odot(zero.T, a.T), np.dot(zero.T, a.T))
    empty = tp._ozeros(0, 0)
    assert tp._odot(empty, empty).shape == (0, 0)


def _random_element(rng, dim, window, span):
    sym = {k: _rational_matrix(rng, (dim, dim)) for k in range(-span, span + 1)}
    corr = _rational_matrix(rng, (window * dim, window * dim))
    return tp.ShiftAlgElement(dim, sym, corr, window)


@pytest.mark.parametrize("window", [0, 1, 2])
@pytest.mark.parametrize("span", [0, 1, 2])
def test_mul_matches_product_of_truncations(window, span):
    rng = np.random.default_rng(10 * window + span)
    dim = 1 + (window + span) % 2
    x = _random_element(rng, dim, window, span)
    y = _random_element(rng, dim, int(rng.integers(3)), int(rng.integers(3)))
    n = x.window + y.window + x.span() + y.span() + 2
    # row i of x reaches column i + span, so this many blocks hold every
    # term of the first n block rows of the product
    big = n + x.span()
    want = np.dot(x.truncation(big), y.truncation(big))[: n * dim, : n * dim]
    assert tp._oequal(tp.mul(x, y).truncation(n), want)


# -- fraction-free kernels against entry-by-entry elimination over FC ----------

def _det_reference(m):
    """Gaussian elimination over FC, one rational pair per update."""
    a = m.copy()
    n = a.shape[0]
    det = tp.FC_ONE
    for c in range(n):
        p = next((r for r in range(c, n) if a[r, c]), None)
        if p is None:
            return tp.FC_ZERO
        if p != c:
            a[[c, p], :] = a[[p, c], :]
            det = -det
        det = det * a[c, c]
        for r in range(c + 1, n):
            f = a[r, c] / a[c, c]
            a[r, c:] = a[r, c:] - a[c, c:] * f
    return det


def _pfaffian_reference(m):
    """Parlett-Reid elimination over FC, one rational pair per update."""
    a = m.copy()
    n = a.shape[0]
    pf = tp.FC_ONE
    for k in range(0, n - 1, 2):
        p = next((c for c in range(k + 1, n) if a[k, c]), None)
        if p is None:
            return tp.FC_ZERO
        if p != k + 1:
            a[[k + 1, p], :] = a[[p, k + 1], :]
            a[:, [k + 1, p]] = a[:, [p, k + 1]]
            pf = -pf
        pf = pf * a[k, k + 1]
        if k + 2 < n:
            tau = a[k + 2:, k + 1] / a[k, k + 1]
            col = a[k + 2:, k]
            a[k + 2:, k + 2:] += np.outer(tau, col) - np.outer(col, tau)
    return pf


def _sparse(rng, m, keep):
    """m with each entry kept with probability `keep`, else zero."""
    out = m.copy()
    out[rng.random(m.shape) > keep] = tp.FC_ZERO
    return out


def _skew(m):
    n = m.shape[0]
    out = tp._ozeros(n, n)
    for a in range(n):
        for b in range(a + 1, n):
            out[a, b], out[b, a] = m[a, b], -m[a, b]
    return out


def _det_cases(rng):
    """(matrix, singular): dense and sparse Gaussian-rational matrices
    (denominators 3, 7 and 21) for n = 0..12, each also with a zero first
    pivot and with its last row a combination of two others."""
    for n in range(13):
        for keep in (1.0, 0.4):
            m = _sparse(rng, _rational_matrix(rng, (n, n)), keep)
            yield m, False
            if n >= 2:
                z = m.copy()
                z[0, 0] = tp.FC_ZERO
                yield z, False
                s = m.copy()
                s[n - 1] = s[0] * tp.FC(1, 3) - s[n - 2] * TWO
                yield s, True


def test_exact_det_matches_fraction_elimination():
    rng = np.random.default_rng(21)
    for m, singular in _det_cases(rng):
        got = tp._exact_det(m)
        assert type(got) is tp.FC and got == _det_reference(m), m.shape
        assert not (singular and got)


def test_exact_pfaffian_matches_fraction_elimination():
    rng = np.random.default_rng(22)
    for m, _ in _det_cases(rng):
        n = m.shape[0]
        if n % 2:
            continue
        cases = [_skew(m)]
        if n >= 4:
            z = _skew(m)
            z[0, 1] = z[1, 0] = tp.FC_ZERO  # the first pivot needs a swap
            # rank two: no pivot is left after one step
            low = np.outer(m[0], m[1]) - np.outer(m[1], m[0])
            assert tp._exact_pfaffian(low) == tp.FC_ZERO
            cases += [z, low]
        for a in cases:
            got = tp._exact_pfaffian(a)
            assert type(got) is tp.FC and got == _pfaffian_reference(a), n
            assert got * got == tp._exact_det(a)


# -- the tight correction window of mul -------------------------------------------

@pytest.mark.parametrize("window", [0, 1, 2, 3])
@pytest.mark.parametrize("span", [0, 1, 2, 3])
def test_mul_window_bound_and_associativity(window, span):
    rng = np.random.default_rng(100 + 10 * window + span)
    for dim in (1, 2):
        x = _random_element(rng, dim, window, span)
        y, z = (_random_element(rng, dim, *rng.integers(4, size=2)) for _ in "yz")
        xy = tp.mul(x, y)
        bound = max(x.window, y.window) + max(x.span(), y.span())
        assert xy.window <= bound
        # two blocks past the bound, and every term of those block rows
        n = bound + 2
        big = n + x.span()
        want = tp._odot(x.truncation(big), y.truncation(big))[: n * dim, : n * dim]
        assert tp._oequal(xy.truncation(n), want)
        assert tp.mul(xy, z) == tp.mul(x, tp.mul(y, z))


# -- class rules shared with the grid path ----------------------------------------

def test_trivial_exact_targets():
    # KO_j of the compacts is KO_j(R): zero for j = -1, 3, 5, 6 and K_1 = 0,
    # so the invariants of these targets carry no coordinate
    cases = [(catalog.generator("shift_u_k2"), "KU0"),
             (tp.from_blocks([[Z0, S], [S.adjoint(), Z0]]), -1),
             (tp.from_blocks([[Z0, S], [S.adjoint(), Z0]]), "KU0")]
    for v, i in cases:
        res = tp.calkin_boundary(v, i)
        assert (res.invariant_name, res.invariant) == ("trivial", 0)
        assert res.class_id == class_spec(i)["target"]


@pytest.mark.parametrize("i", CLASS_IDS)
def test_exact_and_grid_symmetrization_agree(i):
    rng = np.random.default_rng(300 + CLASS_IDS.index(i))
    mult = class_spec(i)["mult"]
    for dim in (mult, 2 * mult):
        for _ in range(2):
            x = _random_element(rng, dim, int(rng.integers(2)), int(rng.integers(3)))
            got = tp.symbol_map(tp.symmetrize_exact(x, i), 16).values
            want = symmetrize_lift(tp.symbol_map(x, 16), i).values
            assert np.max(np.abs(got - want)) <= 1e-12
