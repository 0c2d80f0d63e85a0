"""Dense complex linear algebra for small Hilbert spaces.

Everything operates on plain ``numpy`` arrays holding complex128 entries.
Operators are validated on entry: Hermitian inputs are symmetrized when the
residual is below ``HERMITICITY_TOL`` and rejected otherwise, and PSD inputs
may carry eigenvalues down to ``-PSD_TOL`` (clamped to zero) before being
rejected.
"""

from __future__ import annotations

import numpy as np

HERMITICITY_TOL = 1e-12
PSD_TOL = 1e-10


def dagger(a: np.ndarray) -> np.ndarray:
    return np.conj(np.asarray(a)).T


def ket(values) -> np.ndarray:
    """Build a state vector from a sequence of amplitudes."""
    v = np.asarray(values, dtype=complex).reshape(-1)
    if not np.all(np.isfinite(v)):
        raise ValueError("state vector has non-finite amplitudes")
    return v


def dyad(v: np.ndarray) -> np.ndarray:
    """Outer product |v><v|."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    return np.outer(v, np.conj(v))


def hermitian(m, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Validate and symmetrize a Hermitian operator.

    Returns (M + M^dagger) / 2 when the worst entry of M - M^dagger is at
    most ``tol``; rejects non-square, non-finite, or more asymmetric input.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    residual = np.abs(a - dagger(a)).max()
    if residual > tol:
        raise ValueError(f"matrix is not Hermitian (residual {residual:.3e} > {tol:.1e})")
    return (a + dagger(a)) / 2


def hermitian_eig(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian operator.

    Returns (eigenvalues ascending, orthonormal eigenvector columns) with
    H = V diag(w) V^dagger.
    """
    return np.linalg.eigh(hermitian(h))


def trace_norm(m) -> float:
    """Sum of singular values of an arbitrary matrix."""
    return float(np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False).sum())


def trace_distance(rho, sigma) -> float:
    """Half the trace norm of rho - sigma for Hermitian operators.

    Density normalization is not required; unnormalized Hermitian inputs are
    accepted on purpose.
    """
    a = hermitian(rho)
    b = hermitian(sigma)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum())


def psd_sqrt(h) -> np.ndarray:
    """Principal square root of a PSD operator."""
    w, v = hermitian_eig(h)
    if w.min() < -PSD_TOL:
        raise ValueError(f"operator is not PSD (min eigenvalue {w.min():.3e})")
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ dagger(v)


def fidelity(rho, sigma) -> float:
    """Trace norm of sqrt(rho) sqrt(sigma) for PSD operators."""
    a = np.asarray(rho)
    b = np.asarray(sigma)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return trace_norm(psd_sqrt(a) @ psd_sqrt(b))


def operator_norm(m) -> float:
    """Largest singular value."""
    return float(np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False).max())


def kron(a, b) -> np.ndarray:
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace(m, dims, keep) -> np.ndarray:
    """Trace out all tensor factors not listed in ``keep``.

    ``dims`` lists the factor dimensions of the square operator ``m``;
    ``keep`` is a set of factor indices to retain, in their original order.
    """
    a = np.asarray(m, dtype=complex)
    dims = tuple(int(d) for d in dims)
    keep = sorted(set(int(k) for k in keep))
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if int(np.prod(dims)) != a.shape[0]:
        raise ValueError(f"factor dims {dims} do not multiply to {a.shape[0]}")
    if not keep:
        raise ValueError("keep set must not be empty")
    if keep[-1] >= len(dims) or keep[0] < 0:
        raise ValueError(f"keep indices {keep} out of range for {len(dims)} factors")
    t = a.reshape(dims + dims)
    for ax in sorted(set(range(len(dims))) - set(keep), reverse=True):
        t = np.trace(t, axis1=ax, axis2=ax + t.ndim // 2)
    d_keep = int(np.prod([dims[i] for i in keep]))
    return t.reshape(d_keep, d_keep)


def pure_state_overlap(v: np.ndarray, w: np.ndarray) -> complex:
    return complex(np.vdot(np.asarray(v, dtype=complex), np.asarray(w, dtype=complex)))
