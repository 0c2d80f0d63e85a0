"""Seeded random draws used by the property suites.

Each distribution has one builder that takes raw standard normals, real
parts then imaginary parts along an axis of length 2: ``(..., 2, n)`` for a
ket, ``(..., 2, d, d)`` for an operator.  A builder takes a whole stack at
once and gives every member the bits it gets alone, because each member
runs through the same BLAS, LAPACK and elementwise kernels: the stacked
matmul and ``qr`` loop over members, and each norm is one ``ddot`` per
member, as ``np.linalg.norm`` of one vector is.  So a suite draws all of a
trial's normals in one generator call and builds its states per group.
"""

from __future__ import annotations

import numpy as np

from .linalg import dagger


def case_rng(seed: int, tag: str) -> np.random.Generator:
    """Generator keyed on (seed, tag) so results do not depend on run order."""
    material = [seed] + [ord(c) for c in tag]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(material)))


def _gaussian(z: np.ndarray, axis: int) -> np.ndarray:
    """Complex Gaussians from normals whose real and imaginary parts lie along ``axis``, of length 2."""
    re, im = np.moveaxis(z, axis, 0)
    return re + 1j * im


def ket_from_normals(z: np.ndarray) -> np.ndarray:
    """Unit kets (..., n) from normals (..., 2, n)."""
    v = _gaussian(z, -2)
    re, im = v.real[..., None, :], v.imag[..., None, :]
    # row times column is one ddot per member, as in np.linalg.norm of one vector
    norm = np.sqrt(re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0]
    return v / norm


def density_from_normals(z: np.ndarray) -> np.ndarray:
    """Ginibre density operators (..., d, d) from normals (..., 2, d, d)."""
    g = _gaussian(z, -3)
    rho = g @ dagger(g)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


def unitary_from_normals(z: np.ndarray) -> np.ndarray:
    """Haar unitaries (..., d, d) from normals (..., 2, d, d), by QR with the phases of R's diagonal fixed."""
    q, r = np.linalg.qr(_gaussian(z, -3))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def psd_from_normals(z: np.ndarray) -> np.ndarray:
    """PSD operators G G^dagger / d (..., d, d) from normals (..., 2, d, d)."""
    g = _gaussian(z, -3)
    return (g @ dagger(g)) / g.shape[-1]


def random_orthonormal_pair(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Two orthonormal qubit kets: a Haar ket, and a second one made orthogonal to it by Gram-Schmidt."""
    a = ket_from_normals(rng.normal(size=(2, 2)))
    b = ket_from_normals(rng.normal(size=(2, 2)))
    b = b - np.vdot(a, b) * a
    return a, b / np.linalg.norm(b)
