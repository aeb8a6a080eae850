"""Index maps for short exact sequences of involutive function algebras.

Odd-class inputs produce the self-adjoint unitary built from a symmetric
contraction lift, conjugated into the standard basepoint frame; even-class
inputs produce -exp(i*pi*lift).  The result vanishes on the closed set in
the unitized sense: its values there equal the neutral stack exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from . import matcore
from .basespace import (Algebra, FnElement, SESDescriptor, extend_contraction,
                        ideal_base, restrict, scalar_algebra)
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
        out = np.array([matcore.clamp_spectrum(v, -1.0, 1.0, tol=EVEN_HERM_TOL)
                        for v in y.values])
        return FnElement(y.base, out)
    if mode != "odd":
        raise ValueError("mode must be 'odd' or 'even'")
    v = y.values
    w, frame = np.linalg.eigh(v.conj().swapaxes(1, 2) @ v)
    f = np.minimum(1.0 / np.sqrt(np.maximum(w, ODD_EIG_FLOOR)), 1.0)
    return FnElement(y.base, v @ ((frame * f[:, None, :]) @ frame.conj().swapaxes(1, 2)))


def _index_values(vals: np.ndarray) -> np.ndarray:
    eye = np.eye(vals.shape[-1])
    ah = vals.conj().swapaxes(1, 2)
    left = matcore.psd_sqrt(eye - ah @ vals, tol=INDEX_SQRT_TOL, zero_snap=INDEX_ZERO_SNAP)
    right = matcore.psd_sqrt(eye - vals @ ah, tol=INDEX_SQRT_TOL, zero_snap=INDEX_ZERO_SNAP)
    return np.block([[2.0 * vals @ ah - eye, 2.0 * vals @ left],
                     [2.0 * ah @ right, eye - 2.0 * ah @ vals]])


def index_unitary(a: FnElement) -> FnElement:
    """The self-adjoint unitary [[2aa*-1, 2a sqrt(1-a*a)],
    [2a* sqrt(1-aa*), 1-2a*a]] of a pointwise contraction."""
    norms = np.linalg.norm(a.values, ord=2, axis=(1, 2))
    if np.max(norms) > 1.0 + CONTRACTION_TOL:
        raise ValueError(f"lift is not a contraction (norm {np.max(norms):.6f})")
    return FnElement(a.base, _index_values(a.values))


def index_unitary_matrix(a: np.ndarray) -> np.ndarray:
    return _index_values(np.asarray(a, dtype=complex)[None])[0]


def exp_unitary(a: FnElement) -> FnElement:
    """-exp(i*pi*a) pointwise; respects direct sums exactly."""
    out = np.array([matcore.neg_exp_pi_i(v, tol=EXP_HERM_TOL) for v in a.values])
    return FnElement(a.base, out)


def boundary_conjugator(i, dim: int) -> np.ndarray:
    """Constant frame rotation moving the odd-case result onto the neutral
    basepoint stack of the target class."""
    if i == 1 or i == "KU1":
        return matcore.conjugator_v(dim // 2)
    if i == -1:
        return matcore.conjugator_v(dim // 2) @ matcore.conjugator_w(dim // 2)
    if i == 5:
        return matcore.conjugator_x(dim // 4)
    if i == 3:
        return (matcore.conjugator_v(dim // 2) @ matcore.conjugator_q(dim // 4)
                @ matcore.conjugator_w(dim // 2))
    raise ValueError(f"no odd-case conjugator for class {i!r}")


@dataclass
class BoundaryResult:
    rep: KOClassRep
    lift: FnElement
    residuals: dict = field(default_factory=dict)

    @property
    def element(self) -> FnElement:
        return self.rep.element


def boundary_map(u: FnElement, i, ses: SESDescriptor,
                 lift_strategy: str = "natural", algebra: Algebra = None,
                 tol: float = 1e-9) -> BoundaryResult:
    """Index map of class i for the given short exact sequence.

    The input lives over the quotient space and must pass class-i
    membership there; the output is a checked class-(i-1) representative
    over the ideal, with neutral values on the closed set.
    """
    if algebra is not None and algebra.dim_alg != 1:
        raise MembershipError("grid boundary maps support scalar algebras only")
    quot_alg = scalar_algebra(ses.quotient)
    require_membership(u, i, quot_alg, tol)
    if u.base != ses.quotient:
        raise MembershipError("input does not live over the SES quotient")

    ext = extend_contraction(u, ses, lift_strategy)
    total_alg = scalar_algebra(ses.total)
    sym = symmetrize_lift(ext, i, total_alg)
    mode = "even" if class_spec(i)["sa"] else "odd"
    lift = retract_contraction(sym, mode)

    back = restrict(lift, ses)
    lift_residual = float(np.max(np.abs(back.values - u.values)))
    if lift_residual > LIFT_RESTRICTION_TOL:
        raise MembershipError(
            f"symmetrized lift no longer restricts to the input ({lift_residual:.2e})")

    if mode == "odd":
        b = index_unitary(lift)
        y = boundary_conjugator(i, b.dim)
        vals = y @ b.values @ y.conj().T
    else:
        vals = exp_unitary(lift).values

    j = TARGET[i]
    ibase = ideal_base(ses)
    result = FnElement(ibase, vals)
    out_alg = Algebra(ibase)
    rep = require_membership(result, j, out_alg, tol)

    target = neutral(j, result.dim // class_spec(j)["mult"])
    lam_res = max(float(np.linalg.norm(result.values[p] - target))
                  for p in ibase.pinned)
    if lam_res > tol:
        raise MembershipError(f"result basepoint values miss the neutral stack "
                              f"({lam_res:.2e})")
    res = dict(rep.residuals)
    res["lift_restriction"] = lift_residual
    res["lambda_neutral"] = lam_res
    return BoundaryResult(rep, lift, res)
