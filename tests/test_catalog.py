from dataclasses import replace

import numpy as np
import pytest

from tenfold import catalog, toeplitz
from tenfold.basespace import ALGEBRAS
from tenfold.invariants import signature
from tenfold.symclass import add, check_membership

ALL = catalog.names()


def test_catalog_has_enough_entries():
    assert len(ALL) >= 24


@pytest.mark.parametrize("name", ALL)
def test_entry_membership_and_signature(name):
    ent = catalog.entry(name)
    got = catalog.generator_signature(name)
    assert tuple(got) == tuple(ent.expected)
    if not ent.exact:
        rep = catalog.generator(name)
        assert rep.ok
        assert all(v <= 1e-10 for v in rep.residuals.values()
                   if isinstance(v, float))


@pytest.mark.parametrize("eps,passes", [(2e-11, True), (5e-11, False)])
def test_generator_refuses_values_off_the_class_by_more_than_its_tol(monkeypatch, eps,
                                                                   passes):
    """A row whose values are scaled by 1 + eps is unitary only up to about
    2.8 eps: inside MEMBERSHIP_TOL at eps = 2e-11 and outside it at 5e-11,
    where the generator refuses the row."""
    ent = catalog.entry("circle_zeta_k0")

    def scaled(base):
        vals, alg = ent.build(base)
        return vals * (1 + eps), alg
    monkeypatch.setitem(catalog.ENTRIES, ent.name, replace(ent, build=scaled))
    if passes:
        assert catalog.generator(ent.name).residuals["unitary"] < catalog.MEMBERSHIP_TOL
    else:
        with pytest.raises(AssertionError, match="circle_zeta_k0 failed membership"):
            catalog.generator(ent.name)


@pytest.mark.parametrize("name", [n for n in ALL
                                  if catalog.entry(n).torsion
                                  and not catalog.entry(n).exact])
def test_torsion_entries_have_order_two(name):
    ent = catalog.entry(name)
    rep = catalog.generator(name)
    dbl = add(rep.element, rep.element, ent.class_id, rep.algebra)
    rep2 = check_membership(dbl, ent.class_id, rep.algebra)
    assert rep2.ok
    assert signature(rep2).is_zero


def test_exact_torsion_doubling():
    w1 = catalog.generator("calkin_k1")
    z0 = toeplitz.zero(1)
    dbl = toeplitz.from_blocks([[w1, z0], [z0, w1]])
    assert toeplitz.exact_invariant(dbl, 1) == ("det_parity", 0)


def test_x0_matches_printed_entries():
    rep = catalog.generator("x0", 16)
    t = rep.element.base.points[:, 0]
    vals = rep.element.values
    assert np.allclose(vals[:, 0, 0], 1 - 2 * t)
    assert np.allclose(vals[:, 0, 3], 2 * np.sqrt(t - t * t))
    assert np.allclose(vals[:, 3, 3], 2 * t - 1)
    assert np.allclose(vals[:, 1, 1], 1.0)
    assert np.allclose(vals[:, 2, 2], -1.0)


def test_x2_is_frame_rotation_of_x0():
    from tenfold import matcore
    x0 = catalog.generator("x0", 16).element
    x2 = catalog.generator("x2", 16).element
    w = matcore.conjugator_w(2)
    assert np.allclose(x2.values, w @ x0.values @ w.conj().T)


def test_sphere_ko0_is_the_band_flattening():
    """u = [[z, x - iy], [x + iy, -z]] at the point (x, y, z) of the 2-sphere."""
    rep = catalog.generator("sphere_ko0", (8, 8))
    x, y, z = rep.element.base.points.T
    vals = rep.element.values
    assert np.allclose(vals[:, 0, 0], z)
    assert np.allclose(vals[:, 0, 1], x - 1j * y)
    assert np.allclose(vals[:, 1, 0], x + 1j * y)
    assert np.allclose(vals[:, 1, 1], -z)


def test_torus_bott_membership_is_exact():
    rep = catalog.generator("torus_bott", (16, 16))
    assert rep.ok
    assert rep.residuals["symmetry"] < 1e-14
    assert signature(rep).values() == (1,)


def test_torus_bott_constant_profile_is_trivial():
    from tenfold.basespace import FnElement, sample_space
    base = sample_space("torus2", (16, 16))
    vals = np.zeros((base.npoints, 2, 2), dtype=complex)
    vals[:, 0, 0] = 1.0
    vals[:, 1, 1] = -1.0
    rep = check_membership(FnElement(base, vals), 6)
    assert rep.ok and signature(rep).is_zero


def test_sphere3_entry_flagged_derived():
    assert "derived" in catalog.entry("sphere3_ko5").description


def test_unknown_name():
    with pytest.raises(KeyError):
        catalog.entry("nope")


# The `tenfold catalog` listing: name -> (class, space, signature, torsion,
# exact, description).
LISTING = {
    "calkin_k0": (0, "shift-algebra", [-1], False, True, "diag(1, 2e-1)"),
    "calkin_k1": (1, "shift-algebra", [1], True, True, "1-2e"),
    "calkin_k2": (2, "shift-algebra", [1], True, True, "off-diagonal i(1-2e)"),
    "calkin_k4": (4, "shift-algebra", [-1], False, True, "diag(1,1,2e-1,2e-1)"),
    "circle_sigma_k0": (0, "circle/sigma", [1], False, False, "constant 1_2"),
    "circle_sigma_k1": (1, "circle/sigma", [1], True, False, "constant -1"),
    "circle_sigma_k3": (3, "circle/sigma", [1], False, False, "diag(z, -z)"),
    "circle_sigma_k4": (4, "circle/sigma", [1], False, False,
                        "reflection-block unitary"),
    "circle_sigma_k5": (5, "circle/sigma", [1], True, False,
                        "diag(z, -conj(z)) (sign-corrected)"),
    "circle_sigma_km1": (-1, "circle/sigma", [1], False, False,
                         "antipodally even double loop"),
    "circle_zeta_k0": (0, "circle/zeta", [1], False, False, "constant 1_2"),
    "circle_zeta_k1": (1, "circle/zeta", [1, 0], False, False, "identity loop"),
    "circle_zeta_k1_torsion": (1, "circle/zeta", [0, 1], True, False,
                               "constant -1"),
    "circle_zeta_k2": (2, "circle/zeta", [0, 1], True, False,
                       "imaginary reflection loop"),
    "circle_zeta_k2b": (2, "circle/zeta", [1, 0], True, False,
                        "imaginary reflection loop, reversed"),
    "circle_zeta_k3": (3, "circle/zeta", [1], True, False, "half-arc double loop"),
    "circle_zeta_k4": (4, "circle/zeta", [1], False, False, "constant 1_4"),
    "circle_zeta_k5": (5, "circle/zeta", [1], False, False, "half-arc double loop"),
    "const_k0": (0, "point", [1], False, False, "constant 1_2"),
    "const_k1": (1, "point", [1], True, False, "constant -1"),
    "const_k2": (2, "point", [1], True, False, "constant -I2"),
    "const_k4": (4, "point", [1], False, False, "constant 1_4"),
    "shift_u_k1": (1, "calkin-quotient", [1, 0], False, True, "shift symbol"),
    "shift_u_k2": (2, "calkin-quotient", [0, 1], True, True,
                   "off-diagonal i*shift"),
    "shift_u_k3": (3, "calkin-quotient", [1], True, True, "diag(shift, shift*)"),
    "shift_u_k5": (5, "calkin-quotient", [1], False, True, "diag(shift, shift)"),
    "sphere3_ko5": (5, "sphere3/id@1", [-1], False, False,
                    "degree-one 3-sphere loop (derived invariant)"),
    "sphere_ko0": (0, "sphere2/zeta@1", [-1, 0], False, False,
                   "degree-one band flattening"),
    "sphere_ko6": (6, "sphere2/id@1", [-1], False, False,
                   "degree-one band flattening"),
    "torus_bott": (6, "torus2", [1], False, False, "torus Bott-type generator"),
    "x-1": (-1, "circle/id@1", [1], False, False, "identity loop"),
    "x0": (0, "interval@0", [-1], False, False, "cone-relation unitary"),
    "x1": (1, "circle/zeta@1", [1], False, False, "identity loop"),
    "x2": (2, "interval@0", [-1], False, False, "frame-rotated cone unitary"),
    "x3": (3, "circle/id@1", [1], False, False, "quaternionic-frame loop"),
    "x4": (4, "interval@0", [-1], False, False, "quaternionic cone unitary"),
    "x5": (5, "circle/zeta@1", [1], False, False, "quaternionic-frame loop"),
    "x6": (6, "interval@0", [-1], False, False,
           "cone unitary, swapped-transpose form"),
}


def test_catalog_listing_is_pinned(capsys):
    import json
    from tenfold import cli
    assert cli.main(["catalog"]) == 0
    rows = json.loads(capsys.readouterr().out)["entries"]
    assert [r["name"] for r in rows] == sorted(LISTING)
    for r in rows:
        assert (r["class"], r["space"], r["signature"], r["torsion"], r["exact"],
                r["description"]) == LISTING[r["name"]], r["name"]


# grid entry -> (algebra label, grid shape at resolution 16, at DEFAULT_RES)
GRIDS = {
    **{n: ("scalar", (16,), (64,)) for n in LISTING
       if n.startswith("circle_") or n in ("x-1", "x1")},
    **{n: ("scalar", (1,), (1,)) for n in LISTING if n.startswith("const_")},
    "sphere3_ko5": ("scalar", (21, 21, 20), (21, 21, 20)),
    "sphere_ko0": ("scalar", (17, 16), (65, 64)),
    "sphere_ko6": ("scalar", (17, 16), (65, 64)),
    "torus_bott": ("scalar", (16, 16), (64, 64)),
    "x0": ("qc2-tr", (17,), (65,)),
    "x2": ("qc2-sharp", (17,), (65,)),
    "x3": ("m2", (16,), (64,)),
    "x4": ("m2qc2", (17,), (65,)),
    "x5": ("m2", (16,), (64,)),
    "x6": ("qc2-trt", (17,), (65,)),
}


def test_grid_entries_are_the_pinned_ones():
    assert sorted(GRIDS) == [n for n in ALL if not catalog.entry(n).exact]


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_grid_generator_lives_on_its_rows_space(name):
    space, _, pin = catalog.entry(name).space.partition("@")
    kind, _, involution = space.partition("/")
    label, *shapes = GRIDS[name]
    for res, shape in zip((16, catalog.DEFAULT_RES), shapes):
        rep = catalog.generator(name, res)
        base = rep.base
        assert (base.kind, base.involution, base.pinned_label, base.shape) == (
            kind, involution or "id", "@" + pin if pin else "", shape)
        assert rep.algebra is ALGEBRAS[label]
