"""Seeded random draws used by the property suites."""

from __future__ import annotations

import numpy as np

from .linalg import dagger


def case_rng(seed: int, tag: str) -> np.random.Generator:
    """Generator keyed on (seed, tag) so results do not depend on run order."""
    material = [seed] + [ord(c) for c in tag]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(material)))


def random_ket(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Ginibre-sampled density operator."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ dagger(g)
    return rho / np.trace(rho).real


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary via QR with phase fixing."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_psd(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g @ dagger(g)) / dim


def random_orthonormal_pair(rng: np.random.Generator, dim: int) -> tuple[np.ndarray, np.ndarray]:
    a = random_ket(rng, dim)
    b = random_ket(rng, dim)
    b = b - np.vdot(a, b) * a
    return a, b / np.linalg.norm(b)
