import numpy as np
import pytest

from tenfold import catalog, matcore
from tenfold.basespace import (FnElement, constant_element,
                               sample_space, ses_registry, with_pinned)
from tenfold.boundary import boundary_map
from tenfold.invariants import (InvariantError, arc_winding_det1,
                                chern_of_projection, det_sign, half_trace,
                                pf_sign, quarter_trace, signature,
                                sp_half_turn_parity, winding_det, winding_half)
from tenfold.symclass import add, check_membership, neutral

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
    assert pf_sign(const(matcore.block_diag(neutral(2, 1), -neutral(2, 1))), 0) == -1
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


@pytest.mark.parametrize("res", [16, (24, 16), 32])
def test_chern_torus_rows_wrap(res):
    assert chern_of_projection(catalog.torus_bott(res).element) == 1


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
