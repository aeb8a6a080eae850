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
from .basespace import (EXTEND_NORM_TOL, SCALAR, Algebra, FnElement, SESDescriptor,
                        collar_extension, collar_profile, ideal_base,
                        require_contraction)
from .symclass import (KOClassRep, MembershipError, RimFrames, class_spec,
                       class_structure, neutral, require_membership, symmetrize)

# symmetrize_lift leaves an even lift Hermitian up to roundoff; a Frobenius
# residual above this means the lift was not symmetrized.  Guards
# retract_contraction(y, "even") and the even branch of boundary_map
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
# a clamped even lift is Hermitian up to roundoff; a Frobenius residual
# above this is refused.  Guards exp_unitary(a)
EXP_HERM_TOL = 1e-7
# the lift rules fix a class-i unitary, so the lift restricts to it up to roundoff
LIFT_RESTRICTION_TOL = 1e-7


def symmetrize_lift(a: FnElement, i, algebra: Algebra = SCALAR) -> FnElement:
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
    lift_at, _ = _odd_isometry(y.values, retract=True)
    return FnElement(y.base, lift_at(slice(None)))


def _odd_spectrum(t: np.ndarray, retract: bool):
    """From the spectra t of y*y, one row per stack index: f = min(1/sqrt(t), 1)
    where retract (None otherwise, for f = 1) and sqrt(1 - f^2 t), the roots
    that scale the lower block of the isometry c.  The guards read f^2 t, the
    spectrum of a*a, and a refusal names the stack index."""
    f = None
    if retract:
        f = np.minimum(1.0 / np.sqrt(np.maximum(t, ODD_EIG_FLOOR)), 1.0)
        t = f * f * t
    # the largest singular value of a is the root of the top of t
    norm = np.sqrt(max(t.max(), 0.0))
    if not norm <= 1.0 + CONTRACTION_TOL:
        raise ValueError(f"lift is not a contraction (norm {norm:.6f})")
    s = 1.0 - t
    low = s.min(axis=1)
    if low.min() < -INDEX_SQRT_TOL:
        raise ValueError(f"matrix has eigenvalue {low.min():.3e} below -{INDEX_SQRT_TOL:.1e}"
                         f" at stack index {low.argmin()}")
    s[s <= INDEX_ZERO_SNAP] = 0.0
    return f, np.sqrt(s)


def _odd_isometry(y: np.ndarray, retract: bool):
    """The odd lift a of a value stack y and the 2d x d isometry c with
    cc* = [[aa*, a sqrt(1-a*a)], [sqrt(1-a*a) a*, 1-a*a]], from one
    w, V = eigh(y*y).  retract: a = y f(y*y) with f(w) = min(1/sqrt(w), 1);
    otherwise f = 1 and a = y must be a contraction.  a*a has the spectrum
    t = f^2 w in the frames V, so aV = yV f and c = [yV f; V sqrt(1 - t)].
    Returns (lift_at, c): lift_at(p) forms the lift a = (aV) V* at the
    stack indices p."""
    w, v = np.linalg.eigh(y.conj().swapaxes(1, 2) @ y)
    d = y.shape[2]
    c = np.empty((len(v), 2 * d, d), dtype=complex)
    top = np.matmul(y, v, out=c[:, :d])  # c is written in place: aV here
    f, root = _odd_spectrum(w, retract)
    if f is not None:
        np.multiply(top, f[:, None, :], out=top)
    np.multiply(v, root[:, None, :], out=c[:, d:])

    def lift_at(p):
        return top[p] @ v[p].conj().swapaxes(1, 2)
    return lift_at, c


def _collar_frames(w: np.ndarray, profile, rotation: np.ndarray):
    """The retracted odd lift on a one-term collar and the frames Y c of
    boundary_map's image, from the rim values alone.

    profile (rho, k): the lift y at total point p is rho[p] w[k[p]] for real
    rho, with k[p] = p mod len(w), so its y*y is rho^2 w[k]*w[k]: one tau,
    V = eigh(w*w) on the rim gives t = rho^2 tau[k] and aV = (wV)[k] rho f.
    For the class's rotation Y = [Y0 Y1] the frames Y c = Y0 aV +
    Y1 V sqrt(1 - t) are A[k] diag(rho f) + B[k] diag(sqrt(1 - t)) with the
    rim factors A = Y0 wV and B = Y1 V, kept as a RimFrames, so neither c
    nor a product per total point is formed.  Returns (lift_at, frames):
    lift_at(p) forms the lift a = (aV) V[k]* at the total points p."""
    tau, v = np.linalg.eigh(w.conj().swapaxes(1, 2) @ w)
    nt, _, d = w.shape
    rho, k = profile
    wv = w @ v
    f, root = _odd_spectrum((rho * rho)[:, None] * tau[k], retract=True)
    scale = rho[:, None] * f  # of the columns of aV
    # the columns of A[k] and B[k] as rows, each from one product over all k
    factors = np.stack([(m.swapaxes(1, 2).reshape(-1, d) @ y.T).reshape(nt, d, 2 * d)
                        for m, y in ((wv, rotation[:, :d]), (v, rotation[:, d:]))])
    # ray-major: scales[:, k, j, i] belongs to the total point i * nt + k
    scales = np.stack([scale, root]).reshape(2, -1, nt, d).transpose(0, 2, 3, 1).copy()

    def lift_at(p):
        return (wv[k[p]] * scale[p, None, :]) @ v[k[p]].conj().swapaxes(1, 2)
    return lift_at, RimFrames(factors, scales)


def _rim_reflection(frames: RimFrames) -> np.ndarray:
    """2FF* - 1 for the frames of a RimFrames.  With x_0j, x_1j the rows of
    its factors at rim value k and q_0j, q_1j their scales at a point of
    the ray, FF* = sum_j sum_ab q_aj q_bj x_aj x_bj*, so the image on the
    ray of k is one real product of the (nr, 4d) coefficients q_aj q_bj
    with the 4d doubled basis matrices 2 x_aj x_bj*, written straight into
    the image stack."""
    x, q = frames.factors, frames.scales
    _, nt, d, n = x.shape
    nr = q.shape[3]
    basis = np.empty((nt, 2, 2, d, n, n), dtype=complex)
    np.multiply((2.0 * x)[:, None, :, :, :, None], x.conj()[None, :, :, :, None, :],
                out=basis.transpose(1, 2, 0, 3, 4, 5))
    coef = np.empty((nt, 2, 2, d, nr))
    np.multiply(q[:, None], q[None, :], out=coef.transpose(1, 2, 0, 3, 4))
    out = np.empty((nr * nt, n, n), dtype=complex)
    np.matmul(coef.reshape(nt, 4 * d, nr).swapaxes(1, 2),
              basis.view(float).reshape(nt, 4 * d, 2 * n * n),
              out=out.view(float).reshape(nr, nt, 2 * n * n).swapaxes(0, 1))
    return matcore.sub_identity(out)


def _reflection(c: np.ndarray) -> np.ndarray:
    """2cc* - 1 for a stack of isometries c: the self-adjoint unitary whose
    +1 eigenspace is the range of c."""
    b = c @ c.conj().swapaxes(1, 2)
    b *= 2.0
    return matcore.sub_identity(b)


def index_unitary(a: FnElement) -> FnElement:
    """The self-adjoint unitary [[2aa*-1, 2a sqrt(1-a*a)],
    [2 sqrt(1-a*a) a*, 1-2a*a]] = 2cc* - 1 of a pointwise contraction,
    with c = [a; sqrt(1-a*a)]."""
    return FnElement(a.base, _reflection(_odd_isometry(a.values, retract=False)[1]))


def exp_unitary(a: FnElement) -> FnElement:
    """-exp(i*pi*a) pointwise; respects direct sums exactly."""
    return FnElement(a.base, matcore.neg_exp_pi_i(a.values, tol=EXP_HERM_TOL))


@functools.lru_cache(maxsize=64)
def boundary_conjugator(i, dim: int) -> np.ndarray:
    """Constant frame rotation moving the odd-case result onto the neutral
    basepoint stack of the target class: the product of the class row's
    rotation, built once per (class, dim) and returned read-only."""
    rotation = class_spec(i)["rotation"]
    if rotation is None:
        raise ValueError(f"no odd-case conjugator for class {i!r}")
    if dim < 1 or any(dim % k for _, k in rotation):
        raise ValueError(f"no odd-case conjugator for class {i!r} at dim {dim}: its "
                         f"rotation acts on dim/{max(k for _, k in rotation)} blocks")
    y = functools.reduce(np.matmul, [make(dim // k) for make, k in rotation])
    y.flags.writeable = False
    return y


@dataclass
class BoundaryResult:
    """The checked image of a boundary map, and its lift over the total
    space, formed by _lift_of on first read and kept."""
    rep: KOClassRep
    _lift_of: object
    residuals: dict = field(default_factory=dict)

    @property
    def element(self) -> FnElement:
        return self.rep.element

    @functools.cached_property
    def lift(self) -> FnElement:
        return self._lift_of()


def boundary_map(u: FnElement, i, ses: SESDescriptor, lift_strategy: str = "natural",
                 tol: float = matcore.DEFAULT_TOL) -> BoundaryResult:
    """Index map of class i for the given short exact sequence.

    The input lives over the quotient space and must pass class-i
    membership there; the output is a checked class-(i-1) representative
    over the ideal, with neutral values on the closed set.
    """
    if u.base != ses.quotient:
        raise MembershipError("input does not live over the SES quotient")
    unitary = require_membership(u, i, tol=tol).residuals["unitary"]
    # ||u||^2 = ||u*u|| <= 1 + the unitary residual r, so ||u|| <= 1 + r/2:
    # within EXTEND_NORM_TOL the input is a contraction without an SVD
    if 0.5 * unitary > EXTEND_NORM_TOL:
        require_contraction(u)

    if class_spec(i)["sa"]:
        # the clamped lift has the frames of the symmetrized extension, so it
        # and its exponential are functions of one spectrum
        sym = symmetrize_lift(collar_extension(u, ses, lift_strategy), i)
        w, v = matcore.herm_eig(sym.values, tol=EVEN_HERM_TOL)
        w = np.clip(w, -1.0, 1.0)
        lift_at = lambda p: matcore._hermitian_of_spectrum(w[p], v[p])
        frames = None
        vals = -matcore._of_spectrum(np.exp(1j * np.pi * w), v)
    else:
        profile = collar_profile(ses, lift_strategy)
        if profile is not None:
            # the extension is rho[p] u[k[p]]: the involutions permute the closed
            # set as they permute k and leave rho fixed, so symmetrizing u on the
            # quotient symmetrizes the extension, whose spectra are the closed set's
            lift_at, frames = _collar_frames(symmetrize_lift(u, i).values, profile,
                                             boundary_conjugator(i, 2 * u.dim))
            vals = _rim_reflection(frames)
        else:
            sym = symmetrize_lift(collar_extension(u, ses, lift_strategy), i)
            lift_at, c = _odd_isometry(sym.values, retract=True)
            # y (2cc* - 1) y* = 2(yc)(yc)* - 1: the frame rotation acts on c,
            # and the columns of yc are orthonormal frames of the image's +1
            # eigenspace
            frames = boundary_conjugator(i, 2 * u.dim) @ c
            vals = _reflection(frames)
    lift_residual = float(np.max(np.abs(lift_at(list(ses.closed_flat)) - u.values)))
    if lift_residual > LIFT_RESTRICTION_TOL:
        raise MembershipError(
            f"symmetrized lift no longer restricts to the input ({lift_residual:.2e})")

    j = class_spec(i)["target"]
    ibase = ideal_base(ses)
    result = FnElement(ibase, vals)
    rep = require_membership(result, j, tol=tol)
    rep.frames = frames

    target = neutral(j, result.dim // class_spec(j)["mult"])
    lam_res = float(matcore.frobenius_norms(
        result.values[list(ibase.pinned)] - target).max())
    if lam_res > tol:
        raise MembershipError(f"result basepoint values miss the neutral stack "
                              f"({lam_res:.2e})")
    res = dict(rep.residuals)
    res["lift_restriction"] = lift_residual
    res["lambda_neutral"] = lam_res
    return BoundaryResult(rep, lambda: FnElement(ses.total, lift_at(slice(None))), res)
