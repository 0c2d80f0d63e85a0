"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the same code runs up to half again slower for minutes at a
time, and the slowdown is in the processor, not in scheduling: process time
and wall time agree.  The runner times this kernel between the workload's
operations and divides by it, so that the reported times follow the code and
not the host.  The kernel is a frozen copy of the damped fixed-point
iteration that obcast's discrimination solver ran when the benchmark was
written, on fixed inputs, so it has the same mix of small complex matrix
products, Hermitian eigendecompositions and per-call numpy overhead; it
imports nothing from obcast, so no change to the program can move it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

ROWS = 16
DIM = 4
ITERATIONS = 60
CHECK_INTERVAL = 10


def _targets() -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(20231101))
    g = rng.normal(size=(ROWS, DIM, 2)) + 1j * rng.normal(size=(ROWS, DIM, 2))
    m = g @ np.conj(np.transpose(g, (0, 2, 1)))
    return m / np.trace(m.sum(axis=0)).real


_M = _targets()
_EYE = np.eye(DIM)


def _pinv_sqrt(r: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh((r + np.conj(r.T)) / 2)
    inv = np.where(w > 1e-12 * max(float(w.max()), 1e-300), 1.0 / np.sqrt(np.clip(w, 1e-300, None)), 0.0)
    return (v * inv) @ np.conj(v.T)


def _herm(a: np.ndarray) -> np.ndarray:
    return (a + np.conj(np.transpose(a, (0, 2, 1)))) / 2


def reference_seconds() -> float:
    """Wall time of ``ITERATIONS`` solver iterations on the fixed targets."""
    t0 = perf_counter()
    m = _M
    s0 = _pinv_sqrt(m.sum(axis=0))
    p = _herm(s0[None] @ m @ s0[None])
    p += (_EYE - p.sum(axis=0)) / ROWS
    for it in range(ITERATIONS):
        mpm = m @ p @ m
        s = _pinv_sqrt(mpm.sum(axis=0))
        new = _herm(s[None] @ mpm @ s[None])
        new += (_EYE - new.sum(axis=0)) / ROWS
        p = 0.5 * p + 0.5 * new
        if it % CHECK_INTERVAL == 0:
            ymp = np.einsum("rij,rjk->ik", m, p)
            y0 = (ymp + np.conj(ymp.T)) / 2
            for target in m:
                np.linalg.eigvalsh(y0 - target).min()
    return perf_counter() - t0
