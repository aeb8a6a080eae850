"""Matrix and element builders the tests share; the library does not use them."""

import numpy as np

from tenfold import matcore
from tenfold.basespace import FnElement
from tenfold.boundary import EVEN_HERM_TOL, EXP_HERM_TOL
from tenfold.invariants import InvariantError, chern_of_projection


def block_diag(*mats) -> np.ndarray:
    """Block-diagonal stack of square matrices."""
    mats = [np.asarray(m, dtype=complex) for m in mats]
    dim = sum(m.shape[0] for m in mats)
    out = np.zeros((dim, dim), dtype=complex)
    k = 0
    for m in mats:
        d = m.shape[0]
        out[k:k + d, k:k + d] = m
        k += d
    return out


def random_unitary(dim: int, rng) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_special_orthogonal(dim: int, rng) -> np.ndarray:
    if dim == 1:
        return np.eye(1, dtype=complex)
    z = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    q = q * np.sign(np.diagonal(r))
    if np.linalg.det(q) < 0:
        q[:, [0, 1]] = q[:, [1, 0]]
    return q.astype(complex)


def iota_interleaved(u: FnElement) -> FnElement:
    """The tilde-convention stabilization: insert diag(1,-1) so a 2x2 grid
    of half-size blocks grows to (n+1) x (n+1)."""
    n = u.dim // 2
    d = u.dim + 2
    out = np.zeros((u.base.npoints, d, d), dtype=complex)
    out[:, :n, :n] = u.values[:, :n, :n]
    out[:, :n, n + 1:d - 1] = u.values[:, :n, n:]
    out[:, n + 1:d - 1, :n] = u.values[:, n:, :n]
    out[:, n + 1:d - 1, n + 1:d - 1] = u.values[:, n:, n:]
    out[:, n, n] = 1.0
    out[:, d - 1, d - 1] = -1.0
    return FnElement(u.base, out)


def even_retraction_per_point(y: FnElement) -> np.ndarray:
    """The even retraction one grid point at a time: each value's spectrum
    clamped to [-1, 1] by its own clamp_spectrum call."""
    return np.array([matcore.clamp_spectrum(v, -1.0, 1.0, tol=EVEN_HERM_TOL)
                     for v in y.values])


def exp_unitary_per_point(a: FnElement) -> np.ndarray:
    """The even exponential one grid point at a time: -exp(i*pi*a) of each
    value by its own neg_exp_pi_i call."""
    return np.array([matcore.neg_exp_pi_i(v, tol=EXP_HERM_TOL) for v in a.values])


def chern_readings(rep):
    """The Chern number of a rep's element read from the frames the rep
    carries and from the reader's own frames (_occupied_frames): each an
    integer, or the message of the refusal."""
    out = []
    for frames in (rep.frames, None):
        try:
            out.append(chern_of_projection(rep.element, frames))
        except InvariantError as exc:
            out.append(str(exc))
    return out
