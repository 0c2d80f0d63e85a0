"""Geometric uncertainty relations for superposed bipartite vectors.

The central trade-off: if two vectors are nearly distinguishable on one
subsystem, superpositions of them lose their relative phase on the other
subsystem.  Three forms are provided: trace-distance/fidelity for one pair
of superpositions, the guessing-probability relaxation, and the general
multi-vector form with a permutation-minimized classical term.  Each takes
stacks, one value per member: the pair forms one spec per member, the
general form (members, vectors, length) kets and their coefficient arrays.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import dyad, fidelity, partial_trace, per_member, trace_distance

MAX_GENERAL_VECTORS = 8


@dataclass(frozen=True)
class SuperpositionSpec:
    """Angles defining two superpositions of a fixed vector pair.

    The first superposition uses (theta, phi), the second (omega, phi_prime):
    cos(angle/2) |v0> + e^{i phase} sin(angle/2) |v1>.  The derived
    coefficients are always recomputed from the angles.
    """

    theta: float
    phi: float
    omega: float
    phi_prime: float

    @property
    def z1(self) -> complex:
        return 0.5 * (
            math.sin(self.theta) * cmath.exp(-1j * self.phi)
            - math.sin(self.omega) * cmath.exp(-1j * self.phi_prime)
        )

    @property
    def z2(self) -> float:
        return 0.5 * (math.cos(self.theta) - math.cos(self.omega))

    def weights(self, which: str) -> tuple[float, complex]:
        """The coefficients of v0 and v1 in the 'theta' or the 'omega' superposition."""
        angle, phase = (self.theta, self.phi) if which == "theta" else (self.omega, self.phi_prime)
        return math.cos(angle / 2), cmath.exp(1j * phase) * math.sin(angle / 2)


def _per_spec(spec, batch: tuple[int, ...], fn) -> np.ndarray:
    """``fn`` of each member's spec, one spec at a time; a lone spec goes with a lone vector."""
    specs = [spec] if isinstance(spec, SuperpositionSpec) else list(spec)
    if len(specs) != int(np.prod(batch)):
        raise ValueError(f"{len(specs)} specs for a stack of shape {batch}")
    values = np.array([fn(s) for s in specs])
    return values.reshape(batch + values.shape[1:])


def superpose(v0: np.ndarray, v1: np.ndarray, spec, which: str) -> np.ndarray:
    """The 'theta' or 'omega' superposition, not renormalized, of each member of (..., n) stacks."""
    c = _per_spec(spec, np.shape(v0)[:-1], lambda s: s.weights(which))
    return c[..., 0, None] * v0 + c[..., 1, None] * v1


def _marginal(v: np.ndarray, dims: tuple[int, int], keep: int) -> np.ndarray:
    return partial_trace(dyad(v), dims, {keep})


def ur_pair_bound(alpha0: np.ndarray, alpha1: np.ndarray, spec, dims: tuple[int, int]) -> tuple:
    """Both sides of the pair uncertainty relation.

    Returns (lhs, rhs) with
    lhs = D(alpha_theta^B, alpha_omega^B) and
    rhs = |z1| F(alpha_0^A, alpha_1^A) + |z2| D(alpha_0^B, alpha_1^B),
    where the superpositions stay unnormalized and A is the first factor.
    For (..., n) stacks of vectors and one spec per member, both hold one
    value per member.
    """
    a0, a1 = np.asarray(alpha0, dtype=complex), np.asarray(alpha1, dtype=complex)
    if a0.shape != a1.shape:
        raise ValueError("vectors must share a dimension")
    if int(np.prod(dims)) != a0.shape[-1]:
        raise ValueError(f"dims {dims} do not match vector length {a0.shape[-1]}")
    z1, z2 = np.moveaxis(_per_spec(spec, a0.shape[:-1], lambda s: (abs(s.z1), abs(s.z2))), -1, 0)
    lhs = trace_distance(*(_marginal(superpose(a0, a1, spec, which), dims, 1) for which in ("theta", "omega")))
    fid = fidelity(_marginal(a0, dims, 0), _marginal(a1, dims, 0))
    return lhs, per_member(z1 * fid + z2 * trace_distance(_marginal(a0, dims, 1), _marginal(a1, dims, 1)))


def ur_guess_bound(pg_cross_a, pg_pair_b, spec):
    """Upper bound on guessing the two superpositions from the second factor.

    Inputs are equiprobable guessing probabilities: ``pg_cross_a`` for the
    base pair seen on the first factor, ``pg_pair_b`` for the base pair seen
    on the second factor; arrays of them, with one spec per member, give one
    bound per member.
    """
    pa, pb = np.asarray(pg_cross_a, dtype=float), np.asarray(pg_pair_b, dtype=float)
    for name, p in (("pg_cross_a", pa), ("pg_pair_b", pb)):
        outside = ~((0.5 - 1e-12 <= p) & (p <= 1.0 + 1e-12))
        if outside.any():
            raise ValueError(f"{name}={float(p[outside][0])!r} outside [1/2, 1]")
    z1, z2 = np.moveaxis(_per_spec(spec, pa.shape, lambda s: (abs(s.z1), abs(s.z2))), -1, 0)
    squares = np.array([(2 * p - 1) ** 2 for p in pa.ravel().tolist()]).reshape(pa.shape)  # Python's pow
    return per_member(0.5 * (z1 * np.sqrt(np.maximum(0.0, 1.0 - squares)) + z2 * (2 * pb - 1) + 1.0))


def ur_general(gammas, alphas, betas, dims: tuple[int, int]):
    """Multi-vector uncertainty relation for each member of a stack.

    Member b combines its n shared (possibly unnormalized) vectors
    ``gammas[b]``, of shape (n, N), with the coefficients ``alphas[b]`` and
    ``betas[b]``.  The tight right-hand side minimizes the classical term over
    index permutations (exhaustive; at most eight vectors).  The relaxed form
    replaces that term with the total-variation distance of the coefficient
    weight vectors.  The fidelity term runs over unordered vector pairs with
    z_ij = alpha_i alpha_j^* - beta_i beta_j^*, matching the pair form when
    only two vectors are present.  Returns (lhs, tight, relaxed), each an
    array of one value per member.
    """
    gammas = np.asarray(gammas, dtype=complex)
    alphas, betas = np.asarray(alphas, dtype=complex), np.asarray(betas, dtype=complex)
    if gammas.ndim != 3 or not gammas.shape[0]:
        raise ValueError(f"expected kets of shape (members, vectors, length) with at least one member, got {gammas.shape}")
    members, n, length = gammas.shape
    if not 0 < n <= MAX_GENERAL_VECTORS:
        raise ValueError(f"{n} vectors; supported are 1 to {MAX_GENERAL_VECTORS}")
    if alphas.shape != (members, n) or betas.shape != (members, n):
        raise ValueError(f"coefficients of shapes {alphas.shape} and {betas.shape} do not match kets of shape {gammas.shape}")
    if int(np.prod(dims)) != length:
        raise ValueError(f"dims {dims} do not match vector length {length}")
    if not np.all(np.isfinite(gammas)):
        raise ValueError("state vector has non-finite amplitudes")
    v_alpha = sum(alphas[:, k, None] * gammas[:, k] for k in range(n))
    v_beta = sum(betas[:, k, None] * gammas[:, k] for k in range(n))
    marg_b = [_marginal(gammas[:, k], dims, 1) for k in range(n)]
    marg_a = [_marginal(gammas[:, k], dims, 0) for k in range(n)]
    lhs = trace_distance(_marginal(v_alpha, dims, 1), _marginal(v_beta, dims, 1))
    # per-member scalars by Python's abs, pow and complex product, as for one member alone
    al, be = alphas.tolist(), betas.tolist()
    p = np.array([[abs(a) ** 2 for a in row] for row in al])
    q = np.array([[abs(b) ** 2 for b in row] for row in be])
    fid_term = 0.0
    for i, j in itertools.combinations(range(n), 2):
        z_ij = [abs(a[i] * np.conj(a[j]) - b[i] * np.conj(b[j])) for a, b in zip(al, be)]
        fid_term += np.array(z_ij) * fidelity(marg_a[i], marg_a[j])
    cost = [[trace_distance(p[:, i, None, None] * marg_b[i], q[:, j, None, None] * marg_b[j]) for j in range(n)] for i in range(n)]
    classical = np.array([sum(cost[i][perm[i]] for i in range(n)) for perm in itertools.permutations(range(n))])
    tight = classical.min(axis=0) + fid_term
    relaxed = 0.5 * sum(np.abs(p[:, i] - q[:, i]) for i in range(n)) + fid_term
    return lhs, tight, relaxed

