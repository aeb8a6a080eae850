"""Dense complex matrix kernel: structural involutions, conjugators,
Hermitian functional calculus, Pfaffian.

Every involution used in this library has the form  m -> S m^T S^{-1}
for a fixed signed permutation matrix S (the "structure matrix"), so
involutions on tensor legs compose by Kronecker products of their
structure matrices.  The named kinds expose the conventions used by the
symmetry-class table:

  transpose          S = 1_n
  transpose_tilde    S = swap_2 (x) 1_{n/2}    (2x2 grid of (n/2)-blocks)
  sharp2             S = J_2                   (dim exactly 2)
  sharp_tilde        S = J_2 (x) 1_{n/2}       (2x2 grid of (n/2)-blocks)
  sharp_transpose    S = 1_{n/2} (x) J_2       ((n/2)-grid of 2x2 blocks)

with J_2 = [[0,1],[-1,0]] and swap_2 = [[0,1],[1,0]].
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_TOL = 1e-9
CONSTRUCTION_TOL = 1e-12
# roundoff puts a PSD matrix's zero eigenvalues at most this far below 0
PSD_CLIP_TOL = 1e-10

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
SWAP2 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

def involution_matrix(kind: str, dim: int) -> np.ndarray:
    """Structure matrix S of a named involution on dim x dim matrices."""
    if kind == "transpose":
        return np.eye(dim, dtype=complex)
    if dim % 2 != 0:
        raise ValueError(f"involution {kind!r} needs even dimension, got {dim}")
    half = dim // 2
    if kind == "transpose_tilde":
        return np.kron(SWAP2, np.eye(half, dtype=complex))
    if kind == "sharp2":
        if dim != 2:
            raise ValueError("sharp2 acts on 2x2 matrices only")
        return J2.copy()
    if kind == "sharp_tilde":
        return np.kron(J2, np.eye(half, dtype=complex))
    if kind == "sharp_transpose":
        return np.kron(np.eye(half, dtype=complex), J2)
    raise ValueError(f"unknown involution kind {kind!r}")


def involute(m: np.ndarray, inv) -> np.ndarray:
    """Apply a structural involution: named kind or explicit structure matrix.

    Base involutions on entries (complex conjugation, point maps) are the
    caller's responsibility; this is the matrix-leg part only.
    """
    m = np.asarray(m, dtype=complex)
    if isinstance(inv, str):
        s = involution_matrix(inv, m.shape[-1])
    else:
        s = np.asarray(inv, dtype=complex)
    if m.shape[-1] != s.shape[0]:
        raise ValueError(f"dimension mismatch: matrix {m.shape[-1]}, structure {s.shape[0]}")
    return s @ np.swapaxes(m, -1, -2) @ s.conj().T


def conjugator_w(half: int) -> np.ndarray:
    """2n x 2n unitary with W diag(1_n, -1_n) W* = [[0, i 1_n], [-i 1_n, 0]].

    Intertwines the plain and tilde transpose conventions:
    (W x W*)^T = W x^{tt} W*.
    """
    if half < 1:
        raise ValueError("half must be >= 1")
    one = np.eye(half, dtype=complex)
    return np.block([[1j * one, one], [one, 1j * one]]) / np.sqrt(2.0)


def _neutral_i2(n: int) -> np.ndarray:
    blk = np.array([[0.0, 1j], [-1j, 0.0]])
    return np.kron(np.eye(n, dtype=complex), blk)


def conjugator_q(quarter: int) -> np.ndarray:
    """4n x 4n unitary satisfying Q x^T Q* = (Q x Q*)^{st (x) s (x) T}.

    Here st/s are the sharp_tilde and sharp_transpose leg placements; see
    tests for the numeric check of the defining identity.
    """
    if quarter < 1:
        raise ValueError("quarter must be >= 1")
    one = np.eye(2 * quarter, dtype=complex)
    i2n = _neutral_i2(quarter)
    return np.block([[one, -i2n], [i2n, one]]) / np.sqrt(2.0)


def conjugator_v(half: int) -> np.ndarray:
    """Permutation interleaving diag(a_1..a_n, b_1..b_n) to diag(a_1, b_1, ...).

    Satisfies V x^{sharp_tilde} V* = (V x V*)^{sharp_transpose} for all x.
    """
    n = half
    v = np.zeros((2 * n, 2 * n), dtype=complex)
    for k in range(n):
        v[2 * k, k] = 1.0
        v[2 * k + 1, n + k] = 1.0
    return v


def conjugator_x(quarter: int) -> np.ndarray:
    """Permutation interleaving 2x2 diagonal blocks, the pairwise analog of V."""
    n = quarter
    x = np.zeros((4 * n, 4 * n), dtype=complex)
    for k in range(n):
        x[4 * k, 2 * k] = 1.0
        x[4 * k + 1, 2 * k + 1] = 1.0
        x[4 * k + 2, 2 * n + 2 * k] = 1.0
        x[4 * k + 3, 2 * n + 2 * k + 1] = 1.0
    return x


def herm_eig(m: np.ndarray, tol: float = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix or a (..., d, d) stack of them;
    raises if any is not Hermitian, naming the worst residual."""
    m = np.asarray(m, dtype=complex)
    mh = m.conj().swapaxes(-1, -2)
    # each matrix's residual is its norm(m - mh) bit for bit, so a stack
    # refuses where one-matrix calls would
    res = frobenius_norms((m - mh).reshape(-1, *m.shape[-2:]))
    worst = res.max()
    if worst > tol:
        at = f" at stack index {res.argmax()}" if m.ndim > 2 else ""
        raise ValueError(f"matrix is not Hermitian{at} (residual {worst:.3e} > {tol:.1e})")
    w, v = np.linalg.eigh((m + mh) / 2.0)
    return w, v


def frobenius_norms(m: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each matrix of a complex (k, d, d) stack, bit for
    bit: per matrix, the same strided dot products of its real and imaginary
    parts (norm's axis= form and einsum sum in other orders)."""
    flat = m.reshape(len(m), math.prod(m.shape[1:]))  # -1 fails on no matrices
    re, im = flat.real, flat.imag
    return np.sqrt((re[:, None, :] @ re[:, :, None]
                    + im[:, None, :] @ im[:, :, None])[:, 0, 0])


def sub_identity(m: np.ndarray) -> np.ndarray:
    """m - 1 for a (..., d, d) stack, formed in place on the diagonal and
    returned: the bits of m - np.eye(d) without a second stack."""
    diagonal = np.einsum("...ii->...i", m)  # a writable view
    diagonal -= 1.0
    return m


def psd_sqrt(m: np.ndarray, tol: float = PSD_CLIP_TOL, zero_snap: float = 0.0) -> np.ndarray:
    """Hermitian PSD square root of a matrix or a (..., d, d) stack;
    eigenvalues in [-tol, 0) are clipped to 0.

    zero_snap also sends eigenvalues in [0, zero_snap] to exactly 0, so the
    square root of a numerically vanishing matrix vanishes rather than
    picking up sqrt(noise).
    """
    w, v = herm_eig(m, tol=max(tol, DEFAULT_TOL))
    low = w[..., 0]  # eigh sorts ascending
    if low.min() < -tol:
        at = f" at stack index {low.argmin()}" if low.ndim else ""
        raise ValueError(f"matrix has eigenvalue {low.min():.3e} below -{tol:.1e}{at}")
    w = np.clip(w, 0.0, None)
    if zero_snap > 0.0:
        w[w <= zero_snap] = 0.0
    return _hermitian_of_spectrum(np.sqrt(w), v)


def _of_spectrum(fw: np.ndarray, v: np.ndarray) -> np.ndarray:
    """f(m) = v diag(f(w)) v* for a Hermitian stack m = v diag(w) v*, from
    the values fw = f(w) on its spectrum and its frames v."""
    return (v * fw[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _hermitian_of_spectrum(fw: np.ndarray, v: np.ndarray) -> np.ndarray:
    """_of_spectrum of a real fw, averaged with its adjoint so it is
    Hermitian to the last bit."""
    r = _of_spectrum(fw, v)
    return (r + r.conj().swapaxes(-1, -2)) / 2.0


def neg_exp_pi_i(m: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """-exp(i pi m) for a Hermitian matrix or (..., d, d) stack, via
    eigendecomposition."""
    w, v = herm_eig(m, tol=tol)
    return -_of_spectrum(np.exp(1j * np.pi * w), v)


def clamp_spectrum(m: np.ndarray, lo: float = -1.0, hi: float = 1.0,
                   tol: float = DEFAULT_TOL) -> np.ndarray:
    """Clip the spectrum of a Hermitian matrix or (..., d, d) stack to [lo, hi]."""
    w, v = herm_eig(m, tol=tol)
    return _hermitian_of_spectrum(np.clip(w, lo, hi), v)


def pfaffian(m: np.ndarray, tol: float = DEFAULT_TOL) -> complex:
    """Pfaffian of a skew-symmetric matrix (complex entries allowed).

    Skew-symmetric tridiagonalization with partial pivoting; sign tracked
    through the pivot permutation.  O(n^3).
    """
    a = np.array(m, dtype=complex)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("pfaffian needs a square matrix")
    if n % 2 != 0:
        raise ValueError("pfaffian needs even dimension")
    skew_res = np.linalg.norm(a + a.T)
    scale = max(1.0, np.linalg.norm(a))
    if skew_res > tol * scale:
        raise ValueError(f"matrix is not skew-symmetric (residual {skew_res:.3e})")
    a = (a - a.T) / 2.0
    pf = 1.0 + 0.0j
    for k in range(0, n - 1, 2):
        pivot = k + 1 + int(np.argmax(np.abs(a[k + 1:, k])))
        if abs(a[pivot, k]) == 0.0:
            return 0.0 + 0.0j
        if pivot != k + 1:
            a[[k + 1, pivot], :] = a[[pivot, k + 1], :]
            a[:, [k + 1, pivot]] = a[:, [pivot, k + 1]]
            pf = -pf
        pf *= a[k, k + 1]
        if k + 2 < n:
            tau = a[k + 2:, k + 1] / a[k, k + 1]
            col = a[k + 2:, k]
            a[k + 2:, k + 2:] += np.outer(tau, col) - np.outer(col, tau)
    return complex(pf)

