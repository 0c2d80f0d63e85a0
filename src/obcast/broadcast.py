"""Perfect orthogonality broadcasting: verification and infeasibility certificates.

A channel broadcasts the orthogonality of an ensemble when, for every
setting, both output marginals of any two same-setting states stay
orthogonal.  The classical variant replaces the channel by a POVM whose
outcomes never confuse two same-setting states.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .discrimination import DEFAULT_SETTINGS, SolverSettings, answer_rows, p_postinfo
from .ensembles import Isometry, PostInfoEnsemble, Povm
from .errors import InternalInconsistency
from .linalg import dyad, partial_trace

BORN_ZERO_TOL = 1e-10
# singular values of a matrix of unit state vectors below this count as zero in the kill-pattern ranks
STATE_RANK_TOL = 1e-10


def output_marginals(iso: Isometry, state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both reduced outputs of the isometry applied to a pure state: output factor 0 against the rest."""
    n_factors = len(iso.output_dims)
    if n_factors < 2:
        raise ValueError(f"broadcasting needs at least two output factors, got {n_factors}")
    out = dyad(iso.apply(state))
    sigma_a = partial_trace(out, iso.output_dims, (0,))
    sigma_b = partial_trace(out, iso.output_dims, range(1, n_factors))
    return sigma_a, sigma_b


def broadcast_outputs(iso: Isometry, ensemble: PostInfoEnsemble):
    """Per-state marginal pairs, mirroring the ensemble's (setting, index) layout."""
    if ensemble.dim != iso.input_dim:
        raise ValueError(f"isometry input dim {iso.input_dim} != ensemble dim {ensemble.dim}")
    return tuple(tuple(output_marginals(iso, s) for s in group) for group in ensemble.states)


@dataclass(frozen=True)
class OrthogonalityBroadcastReport:
    ok: bool
    max_overlap: float


def verify_orthogonality_broadcast(iso: Isometry, ensemble: PostInfoEnsemble) -> OrthogonalityBroadcastReport:
    """Check Tr[sigma_i sigma_j] = 0 on both output sides for all same-setting pairs."""
    if not ensemble.orthogonal:
        raise ValueError("ensemble must carry the orthogonality flag")
    outputs = broadcast_outputs(iso, ensemble)
    worst = 0.0
    for group in outputs:
        for (a_i, b_i), (a_j, b_j) in itertools.combinations(group, 2):
            worst = max(worst, abs(np.trace(a_i @ a_j)), abs(np.trace(b_i @ b_j)))
    return OrthogonalityBroadcastReport(worst <= BORN_ZERO_TOL, worst)


@dataclass(frozen=True)
class ClassicalBroadcastReport:
    ok: bool
    max_violation: float
    outcome_table: dict


def verify_classical_broadcast_povm(povm: Povm, ensemble: PostInfoEnsemble) -> ClassicalBroadcastReport:
    """Check that no POVM outcome is shared by two same-setting states.

    Also returns, per state, the outcomes it can trigger with probability
    above ``BORN_ZERO_TOL``.
    """
    if povm.dim != ensemble.dim:
        raise ValueError(f"POVM dim {povm.dim} != ensemble dim {ensemble.dim}")
    probs = {
        (t, i): povm.outcome_probabilities(s)
        for t, i, s, _ in ensemble.pairs()
    }
    table = {
        key: tuple(int(x) for x in np.nonzero(p > BORN_ZERO_TOL)[0])
        for key, p in probs.items()
    }
    worst = 0.0
    for t, group in enumerate(ensemble.states):
        for i, j in itertools.combinations(range(len(group)), 2):
            # second-smallest of each outcome's two probabilities must vanish
            both = np.minimum(probs[(t, i)], probs[(t, j)])
            worst = max(worst, float(both.max()))
    return ClassicalBroadcastReport(worst <= BORN_ZERO_TOL, worst, table)


@dataclass(frozen=True)
class KillPatternCertificate:
    """Kernel dimensions for every survivor pattern.

    A pattern picks, per setting, the single index a POVM outcome may keep
    alive; the outcome must then annihilate every other state, so it is
    supported on the joint orthogonal complement.  All kernels being trivial
    certifies that perfect classical broadcasting is impossible.
    """

    certified_infeasible: bool
    kernel_dims: dict


def kill_pattern_certificate(ensemble: PostInfoEnsemble) -> KillPatternCertificate:
    """Kernel dimension of every survivor pattern, within the joint state span.

    Restricting to the span loses nothing: an effect's component outside the
    span never fires on any state, so completeness on the span already leads
    to the contradiction when every kernel is trivial.  The patterns are the
    answer rows (``discrimination.answer_rows``), held to the same cap.
    """
    if not ensemble.orthogonal:
        raise ValueError("ensemble must carry the orthogonality flag")
    all_states = [s for group in ensemble.states for s in group]
    span_dim = int(np.linalg.matrix_rank(np.array(all_states), tol=STATE_RANK_TOL))
    dims = {}
    for pattern in answer_rows(ensemble):
        killed = [
            ensemble.states[t][j]
            for t in range(len(ensemble.settings))
            for j in range(ensemble.index_sets[t])
            if j != pattern[t]
        ]
        rank = int(np.linalg.matrix_rank(np.array(killed), tol=STATE_RANK_TOL)) if killed else 0
        dims[pattern] = span_dim - rank
    return KillPatternCertificate(all(v == 0 for v in dims.values()), dims)


@dataclass(frozen=True)
class BroadcastFeasibility:
    """The certified window [value, value + gap] of the uniform post-information value, and what it decides."""

    value: float
    gap: float
    witness_violation: float | None
    certificate: KillPatternCertificate

    @property
    def reaches_one(self) -> bool:
        """The window reaches one: Tr Y >= 1 within rounding."""
        return self.value + self.gap >= 1.0 - 1e-12

    @property
    def feasible(self) -> bool:
        """The window reaches one and the exact kill-pattern certificate does not prove infeasibility."""
        return self.reaches_one and not self.certificate.certified_infeasible


def perfect_classical_broadcast_decision(
    ensemble: PostInfoEnsemble, settings: SolverSettings | None = None
) -> BroadcastFeasibility:
    """Decide perfect classical broadcastability.

    Feasibility is equivalent to unit post-information value under any
    full-support prior, so the decision runs one discrimination solve on a
    uniform reweighting and, when the set is feasible, checks the optimal
    POVM as an explicit witness and returns how far it confuses two states,
    which may be up to ten times the gap in force.  The kill-pattern
    certificate is exact and wins: a set it proves infeasible is infeasible,
    even when the window of a nearly feasible set reaches one.  It runs
    first, so an input it rejects fails before any solve.
    """
    st = settings or DEFAULT_SETTINGS
    counts = ensemble.index_sets
    total = sum(counts)
    uniform = PostInfoEnsemble(
        settings=ensemble.settings,
        states=ensemble.states,
        prior=tuple(tuple(1.0 / total for _ in range(n)) for n in counts),
        orthogonal=ensemble.orthogonal,
    )
    certificate = kill_pattern_certificate(ensemble)
    result = p_postinfo(uniform, st)
    decision = BroadcastFeasibility(result.value, result.certificate.gap, None, certificate)
    if not decision.feasible:
        return decision
    violation = verify_classical_broadcast_povm(result.povm, uniform).max_violation
    if violation > 10 * st.gap_tol:
        raise InternalInconsistency(
            f"feasible value {result.value!r} but witness POVM violates the "
            f"classical-broadcast condition by {violation:.3e}"
        )
    return replace(decision, witness_violation=violation)
