"""The acceptance suite: one callable per criterion, each returning
(ok, detail).  The command line prints these as TAP lines; the test
suite asserts them individually.
"""

from __future__ import annotations

import numpy as np

from . import catalog, matcore, toeplitz
from .basespace import ALGEBRAS, FnElement, sample_space, ses_registry
from .boundary import boundary_map, index_unitary, retract_contraction, symmetrize_lift
from .invariants import pf_sign, signature
from .symclass import (CLASS_IDS, add, build_u, check_membership, check_qc_relations,
                       class_spec, complex_class, forget_to_ku, inverse, neutral,
                       stabilize)

RES = 64
DISK = (17, 32)
# a drawn even-class field keeps every eigenvalue this far from 0: a stable sign
DRAW_GAP = 0.2
# the eight real classes, in CLASS_IDS order
REAL_CLASSES = tuple(i for i in CLASS_IDS if class_spec(i)["sign"] is not None)


def _random_matrix(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


# -- randomized class elements over SES quotients -------------------------------

def random_class_element(base, i, dim, rng, fourier: int = 0) -> FnElement:
    """A random unitary in the class-i symmetry set over `base`.

    Odd classes: exp of a projected anti-Hermitian field.  Even classes:
    the sign of a projected Hermitian field with a spectral-gap guard.
    fourier > 0 smooths circle fields with a low-order profile.
    """
    spec = class_spec(i)

    def herm_field():
        if fourier and base.kind == "circle":
            theta = np.arctan2(base.points[:, 1], base.points[:, 0])
            vals = np.zeros((base.npoints, dim, dim), dtype=complex)
            for m in range(fourier + 1):
                c = _random_matrix(rng, dim) * 0.8 / (1 + m)
                wave = np.exp(1j * m * theta)
                vals += wave[:, None, None] * c
            vals = (vals + np.conj(np.swapaxes(vals, 1, 2))) / 2.0
            return FnElement(base, vals)
        g = rng.standard_normal((base.npoints, 2, dim, dim))
        vals = g[:, 0] + 1j * g[:, 1]
        vals = (vals + np.conj(np.swapaxes(vals, 1, 2))) / 2.0
        return FnElement(base, vals)

    if not spec["sa"]:
        h = herm_field()
        y = symmetrize_lift(FnElement(base, 1j * h.values), i)
        w, v = np.linalg.eigh(-1j * y.values)
        vh = np.conj(np.swapaxes(v, 1, 2))
        return FnElement(base, (v * np.exp(1j * w)[:, None]) @ vh)

    for _ in range(20):
        k = symmetrize_lift(herm_field(), i)
        w, v = np.linalg.eigh(k.values)
        if np.min(np.abs(w)) > DRAW_GAP:
            vh = np.conj(np.swapaxes(v, 1, 2))
            return FnElement(base, (v * np.sign(w)[:, None]) @ vh)
    raise RuntimeError("could not draw a gapped random even-class element")


_SES_FOR_CLASS = {
    -1: ("disk-id", DISK),
    1: ("disk-zeta", DISK),
    3: ("circle-zeta", RES),
    5: ("circle-zeta", RES),
    0: ("circle-zeta", RES),
    2: ("circle-sigma", RES),
    4: ("circle-zeta", RES),
    6: ("circle-sigma", RES),
}


def _random_boundary_input(i, rng):
    name, res = _SES_FOR_CLASS[i]
    ses = ses_registry(name, res)
    dim = max(2, class_spec(i)["mult"])
    fourier = 2 if ses.quotient.kind == "circle" else 0
    u = random_class_element(ses.quotient, i, dim, rng, fourier)
    return ses, u


# -- criteria --------------------------------------------------------------------

def check_conjugator_identities():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(200):
        x = _random_matrix(rng, 2)
        w = matcore.conjugator_w(1)
        worst = max(worst, np.linalg.norm(
            (w @ x @ w.conj().T).T - w @ matcore.involute(x, "transpose_tilde")
            @ w.conj().T))
    for _ in range(200):
        n = 1 + (_ % 2)
        x = _random_matrix(rng, 4 * n)
        q = matcore.conjugator_q(n)
        s = np.kron(np.kron(matcore.J2, np.eye(n)), matcore.J2)
        worst = max(worst, np.linalg.norm(
            q @ x.T @ q.conj().T - matcore.involute(q @ x @ q.conj().T, s)))
    for _ in range(200):
        n = 1 + (_ % 3)
        x = _random_matrix(rng, 2 * n)
        v = matcore.conjugator_v(n)
        worst = max(worst, np.linalg.norm(
            v @ matcore.involute(x, "sharp_tilde") @ v.conj().T
            - matcore.involute(v @ x @ v.conj().T, "sharp_transpose")))
    return worst <= matcore.CONSTRUCTION_TOL, f"max residual {worst:.2e} (tol 1e-12)"


def check_index_unitary_involutive():
    rng = np.random.default_rng(12)
    point = sample_space("point")
    worst = 0.0
    for i in REAL_CLASSES:
        spec = class_spec(i)
        for trial in range(100):
            dim = spec["mult"] * (1 + trial % (8 // spec["mult"]))
            a = FnElement(point, 0.9 * _random_matrix(rng, dim)[None]
                          / np.sqrt(dim))
            y = symmetrize_lift(a, i)
            mode = "even" if spec["sa"] else "odd"
            lift = retract_contraction(y, mode)
            b = index_unitary(lift).values[0]
            worst = max(worst, np.linalg.norm(b @ b - np.eye(b.shape[0])))
            worst = max(worst, np.linalg.norm(b - b.conj().T))
    return worst <= matcore.DEFAULT_TOL, f"max ||B^2 - 1|| residual {worst:.2e} (tol 1e-9)"


def check_pfaffian():
    rng = np.random.default_rng(13)
    worst = 0.0
    for d in (2, 4, 6, 8):
        for _ in range(50):
            a = _random_matrix(rng, d)
            a = a - a.T
            pf = matcore.pfaffian(a)
            det = np.linalg.det(a)
            worst = max(worst, abs(pf * pf - det) / max(1.0, abs(det)))
    point = sample_space("point")
    i2 = neutral(2, 1)
    plus = pf_sign(FnElement(point, i2[None]), 0)
    minus = pf_sign(FnElement(point, -i2[None]), 0)
    ok = worst <= matcore.DEFAULT_TOL and plus == 1 and minus == -1
    return ok, f"Pf^2=det residual {worst:.2e}; signs ({plus},{minus})"


def check_disk_boundary():
    values = []
    for res in ((17, 32), (33, 64)):
        ses = ses_registry("disk-id", res)
        z = ses.quotient.points[:, 0] + 1j * ses.quotient.points[:, 1]
        u = FnElement(ses.quotient, z[:, None, None] * np.eye(1)[None])
        out = boundary_map(u, -1, ses)
        values.append(signature(out.rep).values()[0])
    ok = all(abs(v) == 1 for v in values) and values[0] == values[1]
    return ok, f"chern at 32^2 and 64^2: {values}"


def check_circle_sigma_table():
    ses = ses_registry("circle-sigma", RES)
    q = ses.quotient
    e2 = np.eye(2, dtype=complex)
    rows = []
    r = boundary_map(FnElement(q, np.stack([e2, e2])), 0, ses)
    rows.append(("d0", signature(r.rep).values() == (0,)))
    r = boundary_map(FnElement(q, np.stack([e2, -e2])), 2, ses)
    rows.append(("d2", tuple(abs(v) for v in signature(r.rep).values()) == (2,)))
    w4 = np.stack([np.diag([1. + 0j, 1, 1, -1]), np.diag([1. + 0j, 1, -1, 1])])
    r = boundary_map(FnElement(q, w4), 4, ses)
    rows.append(("d4", signature(r.rep).values() == (0,)))
    r = boundary_map(FnElement(q, np.stack([e2, -e2])), 6, ses)
    rows.append(("d6", tuple(abs(v) for v in signature(r.rep).values()) == (2,)))
    return all(ok for _, ok in rows), "; ".join(f"{n}:{ok}" for n, ok in rows)


def check_circle_zeta_linearity():
    ses = ses_registry("circle-zeta", RES)
    q = ses.quotient
    i0 = neutral(0, 1)
    one2 = np.eye(2, dtype=complex)
    triples = {(1, 0): np.stack([one2, i0]), (0, 1): np.stack([i0, one2])}
    triples[(1, 1)] = None
    got = {}
    for (r, s), vals in triples.items():
        if vals is None:
            u = add(FnElement(q, triples[(1, 0)]), FnElement(q, triples[(0, 1)]), 0)
        else:
            u = FnElement(q, vals)
        got[(r, s)] = signature(boundary_map(u, 0, ses).rep).values()[0]
    ok0 = all(got[(r, s)] == r - s for (r, s) in got)

    i4 = neutral(4, 1)
    one4 = np.eye(4, dtype=complex)
    t4 = {(1, 0): np.stack([one4, i4]), (0, 1): np.stack([i4, one4])}
    got4 = {}
    for (r, s), vals in t4.items():
        got4[(r, s)] = signature(
            boundary_map(FnElement(q, vals), 4, ses).rep).values()[0]
    u = add(FnElement(q, t4[(1, 0)]), FnElement(q, t4[(0, 1)]), 4)
    got4[(1, 1)] = signature(boundary_map(u, 4, ses).rep).values()[0]
    ok4 = all(got4[(r, s)] == 2 * r - 2 * s for (r, s) in got4)
    return ok0 and ok4, f"d0: {got}; d4: {got4}"


def check_toeplitz_exact():
    tp = toeplitz
    s, e, one, z0 = tp.shift(), tp.rank_one_e(), tp.one(1), tp.zero(1)
    i = tp.FC_I
    two = tp.FC(2)
    rows = []
    b = tp.index_unitary_exact(s)
    rows.append(("B(s)", b == tp.from_blocks(
        [[one - e.scaled(two), z0], [z0, one.scaled(tp.FC(-1))]])))
    v2 = tp.from_blocks([[z0, s.scaled(i)],
                         [s.adjoint().scaled(tp.FC(0, -1)), z0]])
    r2 = tp.calkin_boundary(v2, 2)
    rows.append(("d2(v2)", r2.element == tp.from_blocks(
        [[one - e.scaled(two), z0], [z0, one]])))
    v3 = tp.from_blocks([[s, z0], [z0, s.adjoint()]])
    r3 = tp.calkin_boundary(v3, 3)
    rows.append(("d3(v3) pf", r3.invariant == 1))
    v5 = tp.from_blocks([[s, z0], [z0, s]])
    r5 = tp.calkin_boundary(v5, 5)
    e5 = tp.from_blocks([
        [one - e.scaled(two), z0, z0, z0],
        [z0, one - e.scaled(two), z0, z0],
        [z0, z0, one.scaled(tp.FC(-1)), z0],
        [z0, z0, z0, one.scaled(tp.FC(-1))]])
    rows.append(("d5(v5)", r5.element == e5))
    return all(ok for _, ok in rows), "; ".join(f"{n}:{ok}" for n, ok in rows)


def check_catalog():
    bad = []
    for name in catalog.names():
        ent = catalog.entry(name)
        try:
            got = tuple(catalog.generator_signature(name))
        except Exception as exc:
            bad.append(f"{name}: {exc}")
            continue
        if got != tuple(ent.expected):
            bad.append(f"{name}: got {got}, expected {ent.expected}")
    tor = _torsion_doubling()
    if tor:
        bad.extend(tor)
    detail = f"{len(catalog.names())} entries"
    return not bad, detail if not bad else "; ".join(bad[:4])


def _torsion_doubling():
    bad = []
    for name in catalog.names():
        ent = catalog.entry(name)
        if not ent.torsion:
            continue
        g = catalog.generator(name)
        if ent.exact:
            z = toeplitz.zero(g.dim)
            dbl = toeplitz.from_blocks([[g, z], [z, g]])
            ok, got = True, catalog._exact_signature(ent, dbl, RES)
        else:
            rep = check_membership(add(g.element, g.element, ent.class_id, g.algebra),
                                   ent.class_id, g.algebra)
            ok, got = rep.ok, signature(rep).values()
        if not ok or any(got):
            bad.append(f"{name}: doubled signature {got}")
    return bad


def check_lift_independence():
    rng = np.random.default_rng(20)
    bad = []
    for i in REAL_CLASSES:
        if class_spec(i)["sa"]:
            continue
        for t in range(20):
            ses, u = _random_boundary_input(i, rng)
            s1 = signature(boundary_map(u, i, ses, "natural").rep)
            s2 = signature(boundary_map(u, i, ses, "taper0").rep)
            if s1.values() != s2.values():
                bad.append(f"class {i} trial {t}: {s1.values()} vs {s2.values()}")
    return not bad, "20 draws per odd class" if not bad else bad[0]


def check_boundary_additivity():
    rng = np.random.default_rng(21)
    bad = []
    for i in REAL_CLASSES:
        for t in range(20):
            ses, u = _random_boundary_input(i, rng)
            _, v = _random_boundary_input(i, rng)
            su = signature(boundary_map(u, i, ses).rep)
            sv = signature(boundary_map(v, i, ses).rep)
            sw = signature(boundary_map(add(u, v, i), i, ses).rep)
            if (su + sv).values() != sw.values():
                bad.append(f"class {i} trial {t}")
    return not bad, "20 pairs per class" if not bad else bad[0]


def check_stabilization_and_inverses():
    rng = np.random.default_rng(22)
    bad = []
    for i in REAL_CLASSES:
        ses, u = _random_boundary_input(i, rng)
        s1 = signature(boundary_map(u, i, ses).rep)
        s2 = signature(boundary_map(stabilize(u, i), i, ses).rep)
        if s1.values() != s2.values():
            bad.append(f"stabilize class {i}")
    for name in catalog.names():
        ent = catalog.entry(name)
        if ent.exact:
            continue
        rep = catalog.generator(name)
        u, alg, i = rep.element, rep.algebra, ent.class_id
        if class_spec(i)["sign"] == -1 and (u.dim // (2 * alg.dim_alg)) % 2:
            u = stabilize(u, i, alg)
        cancel = add(u, inverse(u, i, alg), i, alg)
        rep2 = check_membership(cancel, i, alg)
        if not rep2.ok or not signature(rep2).is_zero:
            bad.append(f"inverse {name}: {signature(rep2).values()}")
    return not bad, "stabilization + inverse cancellation" if not bad else bad[0]


def check_forgetful_compatibility():
    rng = np.random.default_rng(23)
    bad = []
    for i in REAL_CLASSES:
        for t in range(5):
            ses, u = _random_boundary_input(i, rng)
            lhs = signature(forget_to_ku(boundary_map(u, i, ses).rep)).values()
            rhs = signature(boundary_map(u, complex_class(i), ses).rep).values()
            if lhs != rhs:
                bad.append(f"class {i} trial {t}: {lhs} vs {rhs}")
    return not bad, "c∘∂ = ∂∘c per class" if not bad else bad[0]


def check_qc_oracle():
    h, x, k = catalog.qc_generators(RES)
    rel = check_qc_relations(h, x, k)
    u = build_u(h, x, k)
    rep = check_membership(u, 0, ALGEBRAS["qc2-tr"])
    sig = signature(rep).values()
    ok = rel and rep.ok and sig == (-1,)
    return ok, f"relations:{rel}, membership:{rep.ok}, signature:{sig}"


CRITERIA = (
    ("conjugator_identities", check_conjugator_identities),
    ("index_unitary_squares_to_one", check_index_unitary_involutive),
    ("pfaffian", check_pfaffian),
    ("disk_boundary_chern", check_disk_boundary),
    ("circle_sigma_table", check_circle_sigma_table),
    ("circle_zeta_linearity", check_circle_zeta_linearity),
    ("toeplitz_calkin_exact", check_toeplitz_exact),
    ("catalog_signatures", check_catalog),
    ("lift_independence", check_lift_independence),
    ("boundary_additivity", check_boundary_additivity),
    ("stabilization_and_inverses", check_stabilization_and_inverses),
    ("forgetful_compatibility", check_forgetful_compatibility),
    ("qc_relation_oracle", check_qc_oracle),
)


def run(only: str = None):
    """Run the acceptance criteria; returns a list of (name, ok, detail)."""
    results = []
    for name, fn in CRITERIA:
        if only and only not in name:
            continue
        try:
            ok, detail = fn()
        except Exception as exc:
            ok, detail = False, f"error: {exc!r}"
        results.append((name, ok, detail))
    return results
