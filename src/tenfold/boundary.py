"""Index maps for short exact sequences of involutive function algebras.

Odd-class inputs produce the self-adjoint unitary built from a symmetric
contraction lift, conjugated into the standard basepoint frame; even-class
inputs produce -exp(i*pi*lift).  The result vanishes on the closed set in
the unitized sense: its values there equal the neutral stack exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import functools
import numpy as np

from . import matcore
from .basespace import (EXTEND_NORM_TOL, Algebra, FnElement, SESDescriptor,
                        collar_extension, extend_contraction, ideal_base,
                        restrict, scalar_algebra)
from .symclass import (KOClassRep, MembershipError, class_spec, class_structure,
                       neutral, require_membership, symmetrize)

TARGET = {1: 0, -1: 6, 5: 4, 3: 2, 2: 1, 0: -1, 6: 5, 4: 3,
          "KU1": "KU0", "KU0": "KU1"}

# symmetrize_lift leaves an even lift Hermitian up to roundoff; a Frobenius
# residual above this means the lift was not symmetrized
EVEN_HERM_TOL = 1e-6
# keeps 1/sqrt(t) finite on a zero eigenvalue of y*y, where f is 1 anyway
ODD_EIG_FLOOR = 1e-300
# a retracted lift has norm 1 up to roundoff; above 1 + this it was not
# retracted and sqrt(1 - a*a) does not exist
CONTRACTION_TOL = 1e-7
# the same roundoff, read on the spectrum of 1 - a*a: eigenvalues down to
# -INDEX_SQRT_TOL are clipped to 0, deeper ones raise
INDEX_SQRT_TOL = 1e-7
# eigenvalues of 1 - a*a up to this are exactly 0, so where a is unitary (on
# the closed set) the off-diagonal blocks vanish instead of carrying
# sqrt(roundoff), up to 1e-6, into the neutral-value check
INDEX_ZERO_SNAP = 1e-12
# a clamped even lift is Hermitian up to roundoff; exp_unitary refuses more
EXP_HERM_TOL = 1e-7
# the lift rules fix a class-i unitary, so the lift restricts to it up to roundoff
LIFT_RESTRICTION_TOL = 1e-7


def symmetrize_lift(a: FnElement, i, algebra: Algebra = None) -> FnElement:
    """symclass.symmetrize with the algebra's structure; always a new element."""
    out = symmetrize(a, i, class_structure(i, a.dim, algebra))
    return a.copy() if out is a else out


def retract_contraction(y: FnElement, mode: str) -> FnElement:
    """Pull a symmetric lift into the unit ball.

    odd mode: a = y f(y*y) with f(t) = min(1/sqrt(t), 1), preserving every
    one-sided symmetry of y.  even mode: clamp the spectrum of a Hermitian
    lift to [-1, 1].
    """
    if mode == "even":
        return FnElement(y.base, matcore.clamp_spectrum(y.values, -1.0, 1.0, tol=EVEN_HERM_TOL))
    if mode != "odd":
        raise ValueError("mode must be 'odd' or 'even'")
    return FnElement(y.base, _odd_retraction(y.values)[0])


def _odd_retraction(v: np.ndarray):
    """a = y f(y*y) on a value stack, with the spectrum f(w)^2 w and frames of a*a."""
    w, frame = np.linalg.eigh(v.conj().swapaxes(1, 2) @ v)
    f = np.minimum(1.0 / np.sqrt(np.maximum(w, ODD_EIG_FLOOR)), 1.0)
    return v @ ((frame * f[:, None, :]) @ frame.conj().swapaxes(1, 2)), f * f * w, frame


def _index_values(vals: np.ndarray, t: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """The index unitary from the spectrum t and frames of a*a: one root, and
    2a* sqrt(1 - aa*) = (2a sqrt(1 - a*a))* as the upper-right block's adjoint."""
    # the largest singular value of a is the root of the top of t
    norm = np.sqrt(max(t.max(), 0.0))
    if not norm <= 1.0 + CONTRACTION_TOL:
        raise ValueError(f"lift is not a contraction (norm {norm:.6f})")
    # 1 - t descends; reversed, psd_root's guard reads its lowest eigenvalue
    root = matcore.psd_root(1.0 - t[:, ::-1], frame[:, :, ::-1], tol=INDEX_SQRT_TOL,
                            zero_snap=INDEX_ZERO_SNAP)
    d = vals.shape[-1]
    eye = np.eye(d)
    ah = vals.conj().swapaxes(1, 2)
    out = np.empty((len(vals), 2 * d, 2 * d), dtype=complex)
    out[:, :d, :d] = 2.0 * vals @ ah - eye
    out[:, :d, d:] = 2.0 * vals @ root
    out[:, d:, :d] = out[:, :d, d:].conj().swapaxes(1, 2)
    out[:, d:, d:] = eye - 2.0 * ah @ vals
    return out


def index_unitary(a: FnElement) -> FnElement:
    """The self-adjoint unitary [[2aa*-1, 2a sqrt(1-a*a)],
    [2a* sqrt(1-aa*), 1-2a*a]] of a pointwise contraction."""
    v = a.values
    return FnElement(a.base, _index_values(v, *np.linalg.eigh(v.conj().swapaxes(1, 2) @ v)))


def exp_unitary(a: FnElement) -> FnElement:
    """-exp(i*pi*a) pointwise; respects direct sums exactly."""
    return FnElement(a.base, matcore.neg_exp_pi_i(a.values, tol=EXP_HERM_TOL))


@functools.lru_cache(maxsize=64)
def boundary_conjugator(i, dim: int) -> np.ndarray:
    """Constant frame rotation moving the odd-case result onto the neutral
    basepoint stack of the target class; built once per (class, dim) and
    returned read-only."""
    if i == 1 or i == "KU1":
        y = matcore.conjugator_v(dim // 2)
    elif i == -1:
        y = matcore.conjugator_v(dim // 2) @ matcore.conjugator_w(dim // 2)
    elif i == 5:
        y = matcore.conjugator_x(dim // 4)
    elif i == 3:
        y = (matcore.conjugator_v(dim // 2) @ matcore.conjugator_q(dim // 4)
             @ matcore.conjugator_w(dim // 2))
    else:
        raise ValueError(f"no odd-case conjugator for class {i!r}")
    y.flags.writeable = False
    return y


@functools.lru_cache(maxsize=64)
def _conjugator_perm(i, dim: int):
    """perm with y[a, perm[a]] = 1 where the conjugator y is a permutation
    matrix, so y b y* is b[perm][:, perm]; None where it is not."""
    y = boundary_conjugator(i, dim)
    perm = np.abs(y).argmax(axis=1)
    if not np.array_equal(y, np.eye(dim)[perm]):
        return None
    perm.flags.writeable = False
    return perm


@dataclass
class BoundaryResult:
    rep: KOClassRep
    lift: FnElement
    residuals: dict = field(default_factory=dict)

    @property
    def element(self) -> FnElement:
        return self.rep.element


def boundary_map(u: FnElement, i, ses: SESDescriptor, lift_strategy: str = "natural",
                 tol: float = matcore.DEFAULT_TOL) -> BoundaryResult:
    """Index map of class i for the given short exact sequence.

    The input lives over the quotient space and must pass class-i
    membership there; the output is a checked class-(i-1) representative
    over the ideal, with neutral values on the closed set.
    """
    quot_alg = scalar_algebra(ses.quotient)
    unitary = require_membership(u, i, quot_alg, tol).residuals["unitary"]
    if u.base != ses.quotient:
        raise MembershipError("input does not live over the SES quotient")

    # ||u||^2 = ||u*u|| <= 1 + the unitary residual r, so ||u|| <= 1 + r/2:
    # within EXTEND_NORM_TOL the input is a contraction without an SVD
    extend = collar_extension if 0.5 * unitary <= EXTEND_NORM_TOL else extend_contraction
    ext = extend(u, ses, lift_strategy)
    total_alg = scalar_algebra(ses.total)
    sym = symmetrize_lift(ext, i, total_alg)
    mode = "even" if class_spec(i)["sa"] else "odd"
    if mode == "odd":
        a, t, frame = _odd_retraction(sym.values)
        lift = FnElement(sym.base, a)
    else:
        lift = retract_contraction(sym, mode)

    back = restrict(lift, ses)
    lift_residual = float(np.max(np.abs(back.values - u.values)))
    if lift_residual > LIFT_RESTRICTION_TOL:
        raise MembershipError(
            f"symmetrized lift no longer restricts to the input ({lift_residual:.2e})")

    if mode == "odd":
        b = _index_values(a, t, frame)
        perm = _conjugator_perm(i, b.shape[-1])
        if perm is None:
            y = boundary_conjugator(i, b.shape[-1])
            vals = y @ b @ y.conj().T
        else:
            vals = np.ascontiguousarray(b[:, perm[:, None], perm])
            vals += 0.0  # the product writes +0.0 where b holds -0.0
    else:
        vals = exp_unitary(lift).values

    j = TARGET[i]
    ibase = ideal_base(ses)
    result = FnElement(ibase, vals)
    out_alg = Algebra(ibase)
    rep = require_membership(result, j, out_alg, tol)

    target = neutral(j, result.dim // class_spec(j)["mult"])
    lam_res = float(matcore.frobenius_norms(
        result.values[list(ibase.pinned)] - target).max())
    if lam_res > tol:
        raise MembershipError(f"result basepoint values miss the neutral stack "
                              f"({lam_res:.2e})")
    res = dict(rep.residuals)
    res["lift_restriction"] = lift_residual
    res["lambda_neutral"] = lam_res
    return BoundaryResult(rep, lift, res)
