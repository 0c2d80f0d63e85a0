"""Attack bounds for position verification on globally orthogonal product states.

Covers the closed-form four-state inequality and its minimal error, the
rotated-pair family and Corollary 5's printed threshold, the explicit
intermediate-basis attack, the guessing-probability bound over
uncertainty-relation constraints, the coupled-disk bound of the seven-state
sets with its analytic certificate, per-state error, and the
classical-quantum versus quantum-quantum separation assembly.  Each route
returns the number its callers read; its consistency checks raise
``InternalInconsistency`` instead of being reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensembles import GopEnsemble, Povm, gallery, gen_bb84
from .errors import InternalInconsistency
from .linalg import pure_state_overlap
from .uncertainty import SuperpositionSpec

DISK_FIXED_POINT = (2.0 + math.sqrt(2.0)) / 4.0
# the constant shifts of the two seven-state disk programs: the overlapping-bases
# set, and the fully quantum primed set, whose two data-processed pairs add 1/sqrt(2)
OBB_DISK_SHIFT = -2.0
QQ_TILDE_DISK_SHIFT = 1.0 / math.sqrt(2.0) - 2.0
# final bracket width of the Theorem 4 threshold
BISECTION_WIDTH = 1e-10


@dataclass(frozen=True)
class Theorem4Instance:
    """Overlap data for a four-state set with a superposed second pair.

    States 0 and 1 are products; states 2 and 3 share second factors that
    superpose the first two second factors with the given angles.  The first
    overlap must be strictly positive for the inequality to bite.
    """

    overlap_a01: float
    overlap_b01: float
    overlap_a23: float
    spec: SuperpositionSpec

    def __post_init__(self):
        for name, x in (
            ("overlap_a01", self.overlap_a01),
            ("overlap_b01", self.overlap_b01),
            ("overlap_a23", self.overlap_a23),
        ):
            if not 0.0 <= x <= 1.0 + 1e-12:
                raise ValueError(f"{name}={x!r} outside [0, 1]")
        if self.overlap_a01 <= 0.0:
            raise ValueError("overlap_a01 must be strictly positive")


def bb84_family_instance(theta: float) -> Theorem4Instance:
    """Instance for the classical-bit-versus-rotated-qubit family at angle theta."""
    return Theorem4Instance(
        overlap_a01=1.0,
        overlap_b01=0.0,
        overlap_a23=1.0,
        spec=SuperpositionSpec(theta=theta, phi=0.0, omega=theta - math.pi, phi_prime=0.0),
    )


def shifts_instance() -> Theorem4Instance:
    """Instance for the two-qubit-versus-qubit unextendible product set.

    Role assignment: entries 0 and 1 are the product pair; entries 2 and 3
    carry the (pi/2, -pi/2) superpositions on the single-qubit side.  The
    overlaps are read off the gallery states.
    """
    s = gallery("shifts")
    return Theorem4Instance(
        overlap_a01=abs(pure_state_overlap(s.a_states[0], s.a_states[1])),
        overlap_b01=abs(pure_state_overlap(s.b_states[0], s.b_states[1])),
        overlap_a23=abs(pure_state_overlap(s.a_states[2], s.a_states[3])),
        spec=SuperpositionSpec(theta=math.pi / 2, phi=0.0, omega=-math.pi / 2, phi_prime=0.0),
    )


def thm4_rhs(eps: float, inst: Theorem4Instance) -> float:
    """Right-hand side of the four-state error inequality at error eps."""
    if not 0.0 <= eps <= 0.5:
        raise ValueError(f"eps={eps!r} outside [0, 1/2]")
    spec = inst.spec
    return (
        2.0 * abs(spec.z1) * math.sqrt(eps * (1.0 - eps)) / inst.overlap_a01**2
        + abs(spec.z2) * math.sqrt(max(0.0, 1.0 - inst.overlap_b01**2))
        + math.sqrt(max(0.0, 1.0 - inst.overlap_a23**2))
        + 2.0 * eps
    )


def thm4_min_epsilon(inst: Theorem4Instance) -> float:
    """Smallest error satisfying the inequality, by bisection on [0, 1/2] to ``BISECTION_WIDTH``.

    Each term of the right-hand side (2|z1| sqrt(eps (1 - eps)) / a01^2, two
    constants, 2 eps) is nondecreasing on [0, 1/2], so the bisection brackets
    the one crossing; returns zero when the inequality holds at zero error.
    """
    if thm4_rhs(0.0, inst) >= 1.0:
        return 0.0
    lo, hi = 0.0, 0.5
    while hi - lo > BISECTION_WIDTH:
        mid = 0.5 * (lo + hi)
        if thm4_rhs(mid, inst) >= 1.0:
            hi = mid
        else:
            lo = mid
    return hi


def cor5_printed_formula(theta: float) -> float:
    """Corollary 5's minimal-error threshold for the rotated family, as the closed form is published.

    It disagrees with the root that ``thm4_min_epsilon`` finds by bisection:
    at theta=pi/2 the closed form equals the success probability, the root
    the error.  The report carries both readings and prefers neither.
    """
    if not 0.0 <= theta <= math.pi / 2 + 1e-12:
        raise ValueError(f"theta={theta!r} outside [0, pi/2]")
    s2 = math.sin(theta) ** 2
    return (1.0 - math.cos(theta) + (1.0 + math.sqrt(2.0)) * s2) / (2.0 * (1.0 + s2))


def breidbart_lower(theta: float) -> float:
    """Success of the explicit intermediate-basis attack on the rotated family.

    One party copies the classical bit; the other measures in the basis
    halfway between the two encodings and both map (bit, outcome) to a
    guess.  Evaluated exactly by the Born rule; equals cos^2(theta/4).
    """
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"theta={theta!r} outside [0, pi]")
    ens = gen_bb84(theta)
    m_hat = np.array([math.cos(theta / 4), math.sin(theta / 4)], dtype=complex)
    m_perp = np.array([-math.sin(theta / 4), math.cos(theta / 4)], dtype=complex)
    # bit 0: outcomes (m, m_perp) -> states 0, 1; bit 1: -> states 2, 3
    guesses = {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}
    bits = [0, 0, 1, 1]
    total = 0.0
    for k, (b_state, p) in enumerate(zip(ens.b_states, ens.prior)):
        for outcome, proj in enumerate((m_hat, m_perp)):
            if guesses[(bits[k], outcome)] == k:
                total += p * abs(pure_state_overlap(proj, b_state)) ** 2
    return total


def _disk_cap(t: float) -> float:
    return 0.5 + 0.5 * math.sqrt(max(0.0, 1.0 - (2.0 * t - 1.0) ** 2))


def _prop4_grid(z1: float, z2: float) -> tuple[np.ndarray, np.ndarray]:
    """``prop4_solve``'s seed grid and its objective, value [i, j] at (r0, s0) = (grid[i], grid[j]).

    The scalar objective's operations in its order (``+ - * sqrt``, ``** 2``,
    and ``max``/``min`` as ``maximum``/``minimum``), each correctly rounded
    elementwise, so every value has the scalar's bits (``tests/test_qpv.py``
    compares them all).  Swapping r0 and s0 swaps the parties, so s's term is
    the transpose of r's; r's is built in place (IEEE + and * commute
    exactly), so only two 201 x 201 arrays are held.
    """
    grid = np.linspace(0.5, 1.0, 201)
    shift = 2 * grid - 1
    reach = z1 * np.sqrt(np.maximum(0.0, 1.0 - shift**2))
    f_r = reach[None, :] + z2 * shift[:, None]
    f_r += 1.0
    f_r *= 0.5
    np.minimum(1.0, f_r, out=f_r)  # r1
    f_r += 0.5
    f_r *= 0.5
    f_r += (0.5 * (0.5 + grid))[:, None]
    f_r -= 0.5
    return grid, np.minimum(f_r, f_r.T)


def prop4_solve(spec: SuperpositionSpec) -> float:
    """Bound of the guessing-probability program over uncertainty-relation constraints, at the symmetric point.

    Maximizes min over the two parties of
    p (pg_a01 + x0) + (1-p) (pg_a23 + x1) - 1/2 at p = pg_a01 = pg_a23 = 1/2,
    where each party's second slot is capped by the cross-party relation.
    The second slots sit at their caps at any optimum, leaving a
    two-variable maximization handled by grid seeding plus pattern ascent.
    The 201 x 201 seed grid is one array expression (``_prop4_grid``) with
    the scalar objective's bits; the ascent starts at its first maximum in
    r0-major order and is scalar.  The derivation fixes the constant at
    -1/2.  Every slot is at most one, so the value is at most one: it bounds
    a probability as it is.
    """
    z1, z2 = abs(spec.z1), abs(spec.z2)

    def objective(r0: float, s0: float) -> float:
        # each party's second slot at its cap
        r1 = min(1.0, 0.5 * (z1 * math.sqrt(max(0.0, 1.0 - (2 * s0 - 1) ** 2)) + z2 * (2 * r0 - 1) + 1.0))
        s1 = min(1.0, 0.5 * (z1 * math.sqrt(max(0.0, 1.0 - (2 * r0 - 1) ** 2)) + z2 * (2 * s0 - 1) + 1.0))
        f_r = 0.5 * (0.5 + r0) + 0.5 * (0.5 + r1) - 0.5
        f_s = 0.5 * (0.5 + s0) + 0.5 * (0.5 + s1) - 0.5
        return min(f_r, f_s)

    grid, values = _prop4_grid(z1, z2)
    i, j = np.unravel_index(np.argmax(values), values.shape)  # the first maximum, r0-major
    value, r0, s0 = float(values[i, j]), float(grid[i]), float(grid[j])
    step = float(grid[1] - grid[0])
    moves = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1))
    while step > 1e-9:
        for dr, ds in moves:
            rr = min(1.0, max(0.5, r0 + dr * step))
            ss = min(1.0, max(0.5, s0 + ds * step))
            candidate = objective(rr, ss)
            if candidate > value:
                value, r0, s0 = candidate, rr, ss
                break
        else:
            step /= 2.0
    return value


def disk_program_solve(shift: float) -> float:
    """Bound of a seven-state coupled-disk program, with a zero-gap analytic certificate.

    Both seven-state sets give the same program over four matched pairs
    (a_i, b_j): maximize min(sum a, sum b) subject to a_i <= cap(b_j) and
    b_j <= cap(a_i), where cap(t) = 1/2 + sqrt(1 - (2t-1)^2)/2, so the
    rescaled variables of a coupled pair live in a quarter disk.  The sets
    differ only in the constant ``shift`` (``OBB_DISK_SHIFT``,
    ``QQ_TILDE_DISK_SHIFT``), and the bound is 1/4 + (opt + shift)/4.

    The symmetric point with every variable at the disk fixed point
    (2+sqrt(2))/4 is feasible; on the other side, a coupled pair obeys
    (2a-1) + (2b-1) <= sqrt(2), so a + b <= 1 + 1/sqrt(2), and the min of
    the party sums is at most their average.  Both sides meet, so the value
    is certified exactly.
    """
    pairs = 4
    t = DISK_FIXED_POINT
    slack = _disk_cap(t) - t  # every coupling's two constraints read the same at the symmetric point
    if slack < -1e-12:
        raise InternalInconsistency(f"symmetric point infeasible (slack {slack:.3e})")
    feasible_value = pairs * t
    certificate_value = pairs * (1.0 + 1.0 / math.sqrt(2.0)) / 2.0
    if abs(feasible_value - certificate_value) > 1e-9:
        raise InternalInconsistency(
            f"feasible value {feasible_value!r} and certificate {certificate_value!r} disagree"
        )
    return 0.25 + 0.25 * (feasible_value + shift)


def error_per_state(ensemble: GopEnsemble, pr_attack_bound: float) -> float:
    """Advantage of the perfectly succeeding honest parties over the attack bound, spread over the ensemble size."""
    if not 0.0 <= pr_attack_bound <= 1.0 + 1e-12:
        raise ValueError(f"pr_attack_bound={pr_attack_bound!r} outside [0, 1]")
    return (1.0 - pr_attack_bound) / len(ensemble)


# (x, y) -> guessed state index for the seven-state classical-quantum set;
# x is the classical trit, y the four-outcome measurement on the qutrit.
_CQ_GUESS_TABLE = {
    (1, 0): 0,
    (1, 1): 0,
    (1, 2): 1,
    (1, 3): 2,
    (0, 0): 3,
    (0, 1): 3,
    (0, 2): 4,
    (0, 3): 4,
    (2, 0): 5,
    (2, 3): 5,
    (2, 1): 6,
    (2, 2): 6,
}


def cq_strategy_value() -> float:
    """Exact value of the explicit attack on the classical-quantum seven-state set.

    One party reads the classical trit x; the other measures the
    intermediate-basis four-outcome POVM to get y; both guess by table
    lookup.  Every per-state success equals cos^2(pi/8) via the identity
    (cos t + sin t)^2 / 2 = cos^2(t) at t = pi/8, so the total is
    prior-independent.  A row off that value means a mistranscribed guess
    table, and raises ``InternalInconsistency``.
    """
    povm: Povm = gallery("thm6-breidbart-povm")
    ens: GopEnsemble = gallery("cq")
    trits = [int(np.argmax(np.abs(a))) for a in ens.a_states]
    per_state = []
    for k, b_state in enumerate(ens.b_states):
        probs = povm.outcome_probabilities(b_state)
        per_state.append(
            float(sum(probs[y] for y in range(len(povm)) if _CQ_GUESS_TABLE[(trits[k], y)] == k))
        )
    c, s = math.cos(math.pi / 8), math.sin(math.pi / 8)
    target = c * c
    residual = abs(0.5 * (c + s) ** 2 - target)
    worst = max(abs(x - target) for x in per_state)
    if max(worst, residual) > 1e-12:
        raise InternalInconsistency(
            f"strategy table transcription broken: row deviation {worst:.3e}, identity residual {residual:.3e}"
        )
    return float(sum(p * x for p, x in zip(ens.prior, per_state)))


@dataclass(frozen=True)
class Thm6Separation:
    upper: float
    lower: float
    gap: float


def thm6_separation() -> Thm6Separation:
    """Assemble the two-sided separation between the qq and cq seven-state sets.

    The qq set is carried by a certified local unitary onto its primed
    variant, whose disk program gives the upper bound; the explicit strategy
    on the cq set gives the lower bound.  The gap is strictly positive.
    """
    from .ensembles import local_unitary_equivalence_deviation

    u = gallery("qq-equivalence-unitary")
    deviation = local_unitary_equivalence_deviation(u, gallery("qq"), gallery("qq-tilde"))
    if deviation > 1e-12:
        raise InternalInconsistency(f"local-unitary equivalence fails by {deviation:.3e}")
    upper = disk_program_solve(QQ_TILDE_DISK_SHIFT)
    lower = cq_strategy_value()
    return Thm6Separation(upper=upper, lower=lower, gap=lower - upper)
