"""Dense complex linear algebra for small Hilbert spaces.

Everything operates on plain ``numpy`` arrays holding complex128 entries.
Operators are validated on entry: Hermitian inputs are symmetrized when the
residual is below ``HERMITICITY_TOL`` and rejected otherwise, and PSD inputs
may carry eigenvalues down to ``-PSD_TOL`` (clamped to zero) before being
rejected.

The primitives take stacks, ``(..., d, d)`` operators or ``(..., n)`` vectors,
and give each member the bits it gets alone (a float for one operator, an
array for a stack): every member runs through the same LAPACK, BLAS,
elementwise and reduction kernels as it would alone.  A rejected stack names
its first bad member as that member would alone.  PSD checks decompose
only operators with a nonzero entry (``least_eigenvalues``).
Callers stack per-member scalars computed one at a time: numpy's array
``np.abs`` of complex128 and array powers can differ in the last bit from
Python's ``abs()`` and ``**``.
"""

from __future__ import annotations

import numpy as np

HERMITICITY_TOL = 1e-12
PSD_TOL = 1e-10
# units of rounding, in eps times the operator's scale, that every psd_tol check allows
ROUNDING_ULPS = 64


def rounding_floor(tol: float, scale):
    """``tol``, raised to the rounding error of an operator whose entries reach ``scale`` (or of each, for an array)."""
    return np.maximum(tol, ROUNDING_ULPS * np.finfo(float).eps * scale)


def per_member(x):
    """A float for a single value, the array itself for one value per member of a stack."""
    return float(x) if np.ndim(x) == 0 else x


def _nonzero_dimension(shape: tuple) -> None:
    """Reject an operator of shape (..., d, d') with d or d' zero, naming that shape."""
    if 0 in shape[-2:]:
        raise ValueError(f"expected a matrix of dimension at least 1, got shape {shape}")


def dagger(a: np.ndarray) -> np.ndarray:
    return np.conj(np.asarray(a)).swapaxes(-1, -2)


def ket(values) -> np.ndarray:
    """Build a state vector from a sequence of amplitudes."""
    v = np.asarray(values, dtype=complex).reshape(-1)
    if not np.all(np.isfinite(v)):
        raise ValueError("state vector has non-finite amplitudes")
    return v


def dyad(v: np.ndarray) -> np.ndarray:
    """Outer product |v><v| of each vector along the last axis; a zero-length vector is rejected by that shape."""
    v = np.asarray(v, dtype=complex)
    _nonzero_dimension(v.shape + v.shape[-1:])
    return v[..., :, None] * np.conj(v)[..., None, :]


def hermitian(m, tol: float | np.ndarray = HERMITICITY_TOL) -> np.ndarray:
    """Validate and symmetrize a Hermitian operator (or each member of a stack).

    Returns (M + M^dagger) / 2, in C order, when the worst entry of
    M - M^dagger is at most ``tol`` (one float, or one per member of a stack
    of operators); rejects non-square, zero-dimensional, non-finite, or more
    asymmetric input, naming the first bad member of a stack.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    _nonzero_dimension(a.shape)
    flipped = dagger(a)
    finite = np.isfinite(a).all(axis=(-2, -1)).reshape(-1)
    with np.errstate(invalid="ignore"):  # inf - inf: the member is rejected as non-finite
        residual = np.abs(a - flipped).max(axis=(-2, -1)).reshape(-1)
    asymmetric = residual > tol
    bad = np.flatnonzero(~finite | asymmetric)  # empty for an empty stack
    if bad.size and not finite[bad[0]]:
        raise ValueError("matrix has non-finite entries")
    if bad.size:
        limit = tol if np.ndim(tol) == 0 else tol[bad[0]]
        raise ValueError(f"matrix is not Hermitian (residual {residual[bad[0]]:.3e} > {limit:.1e})")
    return np.add(a, flipped, order="C") / 2


def least_eigenvalues(stack: np.ndarray) -> np.ndarray:
    """The least eigenvalue of each Hermitian operator of ``stack`` (n, d, d), decomposing only those with a nonzero entry.

    A zero operator's eigenvalues are all exactly 0, so it gets 0 with no decomposition.
    """
    lows = np.zeros(len(stack))
    nonzero = np.flatnonzero(stack.any(axis=(1, 2)))
    lows[nonzero] = np.linalg.eigvalsh(stack[nonzero]).min(axis=1)
    return lows


def psd_stack(operators, tol: float, name: str) -> np.ndarray:
    """The Hermitian parts of ``operators`` as one (n, d, d) stack, each checked PSD at its own floor.

    Each operator's floor is ``rounding_floor(tol, scale)`` at the scale of its
    largest entry, for its asymmetry and its least eigenvalue alike.  Every
    operator is checked for Hermiticity before any for its eigenvalues, and
    the first bad one is named as it would be alone; operators that form no
    (n, d, d) stack are each checked alone, so a malformed one is named
    before the shapes are blamed.
    """
    try:
        stack = np.array(operators, dtype=complex)
    except (TypeError, ValueError):  # operators of mixed shapes, or not numbers
        stack = None
    if stack is None or stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        for m in operators:
            a = np.asarray(m, dtype=complex)
            hermitian(a, tol=rounding_floor(tol, np.abs(a).max(initial=0.0)))
        raise ValueError(f"{name}s must share a dimension" if len(operators) else f"need at least one {name}")
    floors = rounding_floor(tol, np.abs(stack).max(axis=(1, 2), initial=0.0))
    stack = hermitian(stack, tol=floors)
    lows = least_eigenvalues(stack)
    bad = np.flatnonzero(lows < -floors)
    if bad.size:
        raise ValueError(f"{name} has negative eigenvalue {lows[bad[0]]:.3e}")
    return stack


def trace_norm(m):
    """Sum of singular values of an arbitrary matrix."""
    a = np.asarray(m, dtype=complex)
    _nonzero_dimension(a.shape)
    return per_member(np.linalg.svd(a, compute_uv=False).sum(axis=-1))


def trace_distance(rho, sigma):
    """Half the trace norm of rho - sigma for Hermitian operators.

    Density normalization is not required; unnormalized Hermitian inputs are
    accepted on purpose.
    """
    a = hermitian(rho)
    b = hermitian(sigma)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return per_member(0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum(axis=-1))


def psd_sqrt(h) -> np.ndarray:
    """Principal square root of a PSD operator."""
    w, v = np.linalg.eigh(hermitian(h))
    low = w[..., 0].reshape(-1)  # eigenvalues come in ascending order
    if (low < -PSD_TOL).any():
        raise ValueError(f"operator is not PSD (min eigenvalue {low[np.argmax(low < -PSD_TOL)]:.3e})")
    return (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ dagger(v)


def fidelity(rho, sigma):
    """Trace norm of sqrt(rho) sqrt(sigma) for PSD operators."""
    a = np.asarray(rho)
    b = np.asarray(sigma)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return trace_norm(psd_sqrt(a) @ psd_sqrt(b))


def operator_norm(m):
    """Largest singular value."""
    a = np.asarray(m, dtype=complex)
    _nonzero_dimension(a.shape)
    return per_member(np.linalg.svd(a, compute_uv=False).max(axis=-1))


def kron(a, b) -> np.ndarray:
    """Kronecker product of each pair of members; the stack shapes broadcast."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    _nonzero_dimension(a.shape)
    _nonzero_dimension(b.shape)
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (out.shape[-4] * out.shape[-3], out.shape[-2] * out.shape[-1]))


def partial_trace(m, dims, keep) -> np.ndarray:
    """Trace out all tensor factors not listed in ``keep``.

    ``dims`` lists the factor dimensions of the square operator ``m`` (or of
    each member of a stack); ``keep`` is a set of factor indices to retain, in
    their original order.
    """
    a = np.asarray(m, dtype=complex)
    dims = tuple(int(d) for d in dims)
    keep = sorted(set(int(k) for k in keep))
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    _nonzero_dimension(a.shape)
    if int(np.prod(dims)) != a.shape[-1]:
        raise ValueError(f"factor dims {dims} do not multiply to {a.shape[-1]}")
    if not keep:
        raise ValueError("keep set must not be empty")
    if keep[-1] >= len(dims) or keep[0] < 0:
        raise ValueError(f"keep indices {keep} out of range for {len(dims)} factors")
    batch = a.shape[:-2]
    t = a.reshape(batch + dims + dims)
    for ax in sorted(set(range(len(dims))) - set(keep), reverse=True):
        t = np.trace(t, axis1=len(batch) + ax, axis2=len(batch) + ax + (t.ndim - len(batch)) // 2)
    d_keep = int(np.prod([dims[i] for i in keep]))
    return t.reshape(batch + (d_keep, d_keep))


def pure_state_overlap(v: np.ndarray, w: np.ndarray) -> complex:
    return complex(np.vdot(np.asarray(v, dtype=complex), np.asarray(w, dtype=complex)))
