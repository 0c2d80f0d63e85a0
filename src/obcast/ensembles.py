"""Ensemble data model and the gallery of named states, POVMs, and isometries.

Gallery names are stable public identifiers; ``gallery_names()`` lists them.
Every state vector is a unit vector: the ensemble classes reject a ket whose
squared norm is off one by more than ``ORTHOGONALITY_TOL``, so shorthand kets
like ``|1+2>`` carry their 1/sqrt(2) factors.  Priors must be finite,
nonnegative and sum to one within ``PRIOR_TOL``.  A JSON document with a
missing or malformed field raises ``ValueError`` naming the field.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .linalg import PSD_TOL, dagger, dyad, ket, psd_stack

PRIOR_TOL = 1e-12
ORTHOGONALITY_TOL = 1e-12


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.flags.writeable = False
    return out


def _unit_ket(values) -> np.ndarray:
    """A read-only copy of the ket, which must be a unit vector within ``ORTHOGONALITY_TOL``."""
    v = _freeze(ket(values))
    norm2 = float(np.vdot(v, v).real)
    if abs(norm2 - 1.0) > ORTHOGONALITY_TOL:
        raise ValueError(f"state vector has squared norm {norm2!r}, not 1")
    return v


def _gram(v, w) -> np.ndarray:
    """The overlaps <v_j|w_k> of two lists of kets, each entry with the bits of ``pure_state_overlap``."""
    return np.array([[np.vdot(x, y) for y in w] for x in v], dtype=complex).reshape(len(v), len(w))


def _modulus(z: np.ndarray) -> np.ndarray:
    """Entrywise |z| with the bits of Python's ``abs``, which array ``np.abs`` of complex128 does not always give."""
    return np.hypot(z.real, z.imag)


def _largest_in_setting_overlap(groups) -> float:
    """The largest |<s_i|s_j>| over pairs of distinct states of one group (0 with no such pair)."""
    return max((float(_modulus(np.triu(_gram(g, g), 1)).max()) for g in groups if len(g) > 1), default=0.0)


def _check_prior(flat) -> None:
    if not all(math.isfinite(p) and p >= 0 for p in flat):
        raise ValueError(f"prior entries must be finite and nonnegative, got {list(flat)}")
    if abs(sum(flat) - 1.0) > PRIOR_TOL:
        raise ValueError(f"prior sums to {sum(flat)!r}, not 1")


@dataclass(frozen=True)
class PostInfoEnsemble:
    """Pure states indexed by (setting, index) with a joint prior.

    ``states[t][i]`` is the ket for index ``i`` under setting ``t`` and
    ``prior[t][i]`` the joint probability of that pair.  With ``orthogonal``
    set, states within each setting must be pairwise orthogonal.
    """

    settings: tuple[str, ...]
    states: tuple[tuple[np.ndarray, ...], ...]
    prior: tuple[tuple[float, ...], ...]
    orthogonal: bool = False

    def __post_init__(self):
        if len(self.states) != len(self.settings) or len(self.prior) != len(self.settings):
            raise ValueError("settings, states, and prior must align")
        if not self.settings:
            raise ValueError("post-information ensemble has no settings")
        if empty := [t for t, group in zip(self.settings, self.states) if len(group) == 0]:
            raise ValueError(f"setting {empty[0]!r} has no states")
        states = tuple(tuple(_unit_ket(s) for s in group) for group in self.states)
        object.__setattr__(self, "states", states)
        dims = {s.shape[0] for group in states for s in group}
        if len(dims) != 1:
            raise ValueError(f"states live on different dimensions: {sorted(dims)}")
        if any(len(g) != len(s) for g, s in zip(self.prior, states)):
            raise ValueError("prior shape must match states")
        _check_prior([p for group in self.prior for p in group])
        if self.orthogonal and (worst := _largest_in_setting_overlap(states)) > ORTHOGONALITY_TOL:
            raise ValueError(f"orthogonality flag set but max in-setting overlap is {worst:.3e}")

    @property
    def dim(self) -> int:
        return self.states[0][0].shape[0]

    @property
    def index_sets(self) -> tuple[int, ...]:
        return tuple(len(group) for group in self.states)

    def pairs(self):
        """Iterate (setting index, state index, ket, joint prior)."""
        for t, group in enumerate(self.states):
            for i, s in enumerate(group):
                yield t, i, s, self.prior[t][i]


@dataclass(frozen=True)
class GopEnsemble:
    """Globally orthogonal product states {|a_k>|b_k>} with priors p_k.

    Any other set raises ``NotGloballyOrthogonal``, once kets, shapes and
    prior pass; an accepted set keeps the report as ``orthogonality``, an
    attribute outside the fields.
    """

    a_states: tuple[np.ndarray, ...]
    b_states: tuple[np.ndarray, ...]
    prior: tuple[float, ...]

    def __post_init__(self):
        a = tuple(_unit_ket(s) for s in self.a_states)
        b = tuple(_unit_ket(s) for s in self.b_states)
        object.__setattr__(self, "a_states", a)
        object.__setattr__(self, "b_states", b)
        if not (len(a) == len(b) == len(self.prior)):
            raise ValueError("a_states, b_states, prior must have equal length")
        if not a:
            raise ValueError("product ensemble has no states")
        if len({s.shape[0] for s in a}) != 1 or len({s.shape[0] for s in b}) != 1:
            raise ValueError("per-side dimensions must agree")
        _check_prior(self.prior)
        report = global_orthogonality_check(a, b)
        if not report.ok:
            raise NotGloballyOrthogonal(report)
        object.__setattr__(self, "orthogonality", report)

    @property
    def dims(self) -> tuple[int, int]:
        return self.a_states[0].shape[0], self.b_states[0].shape[0]

    def __len__(self) -> int:
        return len(self.prior)


@dataclass(frozen=True)
class Povm:
    """Effects summing to the identity, each checked by ``linalg.psd_stack`` at ``PSD_TOL``."""

    effects: np.ndarray  # (n, d, d), read-only

    def __post_init__(self):
        if len(self.effects) == 0:
            raise ValueError("a POVM needs at least one effect")
        effects = psd_stack(self.effects, PSD_TOL, "effect")
        effects.flags.writeable = False
        object.__setattr__(self, "effects", effects)
        residual = np.abs(effects.sum(axis=0) - np.eye(effects.shape[-1])).max()
        if residual > PSD_TOL:
            raise ValueError(f"effects sum to identity only within {residual:.3e}")

    @property
    def dim(self) -> int:
        return self.effects.shape[-1]

    def __len__(self) -> int:
        return len(self.effects)

    def outcome_probabilities(self, state: np.ndarray) -> np.ndarray:
        v = ket(state)
        return np.array([np.real(np.vdot(v, e @ v)) for e in self.effects])


@dataclass(frozen=True)
class Isometry:
    """Matrix with orthonormal columns mapping into a factorized output space."""

    matrix: np.ndarray
    output_dims: tuple[int, ...]

    def __post_init__(self):
        m = _freeze(np.asarray(self.matrix, dtype=complex))
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "output_dims", tuple(int(d) for d in self.output_dims))
        rows, cols = m.shape
        if rows < cols:
            raise ValueError("output dimension must be at least the input dimension")
        if int(np.prod(self.output_dims)) != rows:
            raise ValueError(f"output_dims {self.output_dims} do not multiply to {rows}")
        residual = np.abs(dagger(m) @ m - np.eye(cols)).max()
        if residual > PSD_TOL:
            raise ValueError(f"columns are not orthonormal (residual {residual:.3e})")

    @property
    def input_dim(self) -> int:
        return self.matrix.shape[1]

    def apply(self, state: np.ndarray) -> np.ndarray:
        return self.matrix @ ket(state)


@dataclass(frozen=True)
class GlobalOrthogonalityReport:
    ok: bool
    max_violation: float
    worst_pair: tuple[int, int] | None


class NotGloballyOrthogonal(ValueError):
    """A product set that is not globally orthogonal; ``report`` says where it fails."""

    def __init__(self, report: GlobalOrthogonalityReport):
        super().__init__(f"not globally orthogonal: pair {report.worst_pair} deviates by {report.max_violation:.3e}")
        self.report = report


def global_orthogonality_check(a_states, b_states) -> GlobalOrthogonalityReport:
    """Check <a_j|a_k><b_j|b_k> = delta_jk on raw state lists.

    ``worst_pair`` is the first largest deviation in row-major order, None when nothing deviates.
    """
    a = [ket(s) for s in a_states]
    b = [ket(s) for s in b_states]
    dev = _modulus(_gram(a, a) * _gram(b, b) - np.eye(len(a)))
    worst = float(dev.max(initial=0.0))
    pair = tuple(int(i) for i in np.argwhere(dev == worst)[0]) if worst > 0 else None
    return GlobalOrthogonalityReport(worst <= ORTHOGONALITY_TOL, worst, pair)


def _ray_classes(overlaps: np.ndarray) -> list[int]:
    """Group states by parallelism (|overlap| > 1 - ORTHOGONALITY_TOL, up to phase), given ``|_gram|``."""
    labels: list[int] = []
    reps: list[int] = []  # the first state of each class
    for i in range(len(overlaps)):
        c = next((c for c, r in enumerate(reps) if overlaps[r, i] > 1 - ORTHOGONALITY_TOL), None)
        if c is None:
            c = len(reps)
            reps.append(i)
        labels.append(c)
    return labels


def classical_ray_labels(states) -> list[int] | None:
    """Group states into rays of one orthonormal basis.

    Returns the ``_ray_classes`` labels when states in different classes are
    orthogonal within ``ORTHOGONALITY_TOL``; returns None otherwise.
    """
    kets = [ket(s) for s in states]
    overlaps = _modulus(_gram(kets, kets))
    labels = np.array(_ray_classes(overlaps))
    if (overlaps[labels[:, None] != labels[None, :]] > ORTHOGONALITY_TOL).any():
        return None
    return labels.tolist()


def induced_postinfo(gop: GopEnsemble, classical_side: str = "a") -> PostInfoEnsemble:
    """Reduce a GOP ensemble with one classical side to a post-information ensemble.

    The classical side's ray classes become the settings; the other side's
    states, grouped by class, become the indexed states with the joint prior
    carried over unchanged.
    """
    if classical_side not in ("a", "b"):
        raise ValueError("classical_side must be 'a' or 'b'")
    cl = gop.a_states if classical_side == "a" else gop.b_states
    qu = gop.b_states if classical_side == "a" else gop.a_states
    labels = classical_ray_labels(cl)
    if labels is None:
        raise ValueError(f"side {classical_side!r} is not classical (not a single orthonormal basis)")
    n_classes = max(labels) + 1
    states = [[] for _ in range(n_classes)]
    prior = [[] for _ in range(n_classes)]
    for lab, s, p in zip(labels, qu, gop.prior):
        states[lab].append(s)
        prior[lab].append(p)
    return PostInfoEnsemble(
        settings=tuple(str(t) for t in range(n_classes)),
        states=tuple(tuple(g) for g in states),
        prior=tuple(tuple(p) for p in prior),
        orthogonal=_largest_in_setting_overlap(states) <= ORTHOGONALITY_TOL,
    )


@dataclass(frozen=True)
class FormDecomposition:
    """Outcome of the qubit-times-qudit structure test."""

    fits: bool
    reason: str


def qubit_qudit_form_check(gop: GopEnsemble) -> FormDecomposition:
    """Whether a 2 x d GOP set splits into a two-setting ensemble plus locally removable states.

    The kept states' first factors must fall into at most two mutually
    orthogonal rays (the two settings); every other state must be locally
    removable, i.e. its second factor orthogonal to every other second
    factor.  Failure to fit is a diagnosable outcome, not an error.
    """
    d_a, _ = gop.dims
    if d_a != 2:
        return FormDecomposition(False, f"first factor has dimension {d_a}, not 2")
    n = len(gop)
    a_overlaps = _modulus(_gram(gop.a_states, gop.a_states))
    b_overlaps = _modulus(_gram(gop.b_states, gop.b_states))
    labels = _ray_classes(a_overlaps)
    classes = sorted(set(labels))
    members = {c: [k for k in range(n) if labels[k] == c] for c in classes}
    candidates = [
        (c1, c2)
        for i, c1 in enumerate(classes)
        for c2 in classes[i + 1 :]
        if a_overlaps[members[c1][0], members[c2][0]] <= ORTHOGONALITY_TOL  # orthogonal rays
    ]
    candidates += [(c,) for c in classes]
    for selection in candidates:
        removable = set(range(n)) - {k for c in selection for k in members[c]}
        if not any(b_overlaps[k, j] > ORTHOGONALITY_TOL for k in removable for j in range(n) if j != k):
            return FormDecomposition(True, "fits")
    return FormDecomposition(False, "no orthogonal ray selection covers the non-removable states")


def local_unitary_equivalence_deviation(u: "Isometry", source: GopEnsemble, target: GopEnsemble) -> float:
    """Worst deviation from carrying ``source`` onto ``target`` by a unitary on the first factor.

    Applies ``u`` to the first factor of every source state and greedily
    matches each result to an unused target state with the same prior, up to
    a global phase per state.  Returns the largest per-factor overlap deficit
    (infinity when some state cannot be matched at all).
    """
    if u.matrix.shape[0] != u.matrix.shape[1]:
        raise ValueError("equivalence map must be a square unitary")
    n = len(source)
    if n != len(target):
        return math.inf
    # [j, k]: the overlap of target state j with the image of source state k, per factor
    ov_a = _modulus(_gram(target.a_states, [u.apply(a) for a in source.a_states]))
    ov_b = _modulus(_gram(target.b_states, source.b_states))
    same_prior = np.abs(np.subtract.outer(target.prior, source.prior)) <= PRIOR_TOL
    matches = same_prior & (ov_a > 1 - 1e-9) & (ov_b > 1 - 1e-9)
    used: set[int] = set()
    worst = 0.0
    for k in range(n):
        j = next((j for j in np.flatnonzero(matches[:, k]) if j not in used), None)
        if j is None:
            return math.inf
        used.add(j)
        worst = max(worst, 1 - ov_a[j, k], 1 - ov_b[j, k])
    return float(worst)


# --- gallery -----------------------------------------------------------------

_SQ2 = math.sqrt(2.0)


def _basis(d: int) -> list[np.ndarray]:
    return [np.eye(d, dtype=complex)[i] for i in range(d)]


def _plus(d, m, n, sign=1.0, phase=1.0) -> np.ndarray:
    v = np.zeros(d, dtype=complex)
    v[m] = 1.0
    v[n] = sign * phase
    return v / _SQ2


def _gop(entries, prior) -> GopEnsemble:
    """The product ensemble of (a, b) ``entries`` under ``prior``."""
    return GopEnsemble(a_states=tuple(x for x, _ in entries), b_states=tuple(y for _, y in entries), prior=prior)


# the seven-state sets weight their first state double
_SEVEN = (0.25,) + (0.125,) * 6


def _bb84() -> PostInfoEnsemble:
    z0, z1 = _basis(2)
    return PostInfoEnsemble(
        settings=("0", "1"),
        states=((z0, z1), (_plus(2, 0, 1, 1), _plus(2, 0, 1, -1))),
        prior=((0.25, 0.25), (0.25, 0.25)),
        orthogonal=True,
    )


def _minimal_qutrit() -> PostInfoEnsemble:
    z = _basis(3)
    psi_p = np.array([0.5, 0.5, 1 / _SQ2], dtype=complex)
    psi_m = np.array([0.5, 0.5, -1 / _SQ2], dtype=complex)
    return PostInfoEnsemble(
        settings=("0", "1"),
        states=((z[0], z[1]), (psi_p, psi_m)),
        prior=((0.25, 0.25), (0.25, 0.25)),
        orthogonal=True,
    )


def _prop1_povm() -> Povm:
    r = 1 / (2 * _SQ2)
    e0 = np.array([[0.5, 0, r], [0, 0, 0], [r, 0, 0.25]])
    e1 = np.array([[0.5, 0, -r], [0, 0, 0], [-r, 0, 0.25]])
    e2 = np.array([[0, 0, 0], [0, 0.5, r], [0, r, 0.25]])
    e3 = np.array([[0, 0, 0], [0, 0.5, -r], [0, -r, 0.25]])
    return Povm(effects=(e0, e1, e2, e3))


def _thm1_pairs() -> PostInfoEnsemble:
    p = 1.0 / 6.0
    return PostInfoEnsemble(
        settings=("0", "1", "2"),
        states=(
            (_plus(3, 0, 1, 1), _plus(3, 0, 1, -1)),
            (_plus(3, 0, 2, 1), _plus(3, 0, 2, -1)),
            (_plus(3, 1, 2, 1, 1j), _plus(3, 1, 2, -1, 1j)),
        ),
        prior=((p, p), (p, p), (p, p)),
        orthogonal=True,
    )


def _thm1_isometry() -> Isometry:
    m = np.zeros((4, 3), dtype=complex)
    m[:, 0] = np.array([1, 0, 0, 1]) / _SQ2
    m[:, 1] = np.array([1, 0, 0, -1]) / _SQ2
    m[:, 2] = np.array([0, 1, 1, 0]) / _SQ2
    return Isometry(matrix=m, output_dims=(2, 2))


def _thm2_eight() -> GopEnsemble:
    a = _basis(5)
    entries = [
        (a[1], a[1]),
        (a[1], a[2]),
        (a[2], _plus(5, 2, 3, 1)),
        (a[2], _plus(5, 2, 3, -1)),
        (a[3], _plus(5, 2, 4, 1)),
        (a[3], _plus(5, 2, 4, -1)),
        (a[4], _plus(5, 3, 4, 1, 1j)),
        (a[4], _plus(5, 3, 4, -1, 1j)),
    ]
    return _gop(entries, (0.125,) * 8)


def _thm2_isometry() -> Isometry:
    def kk(i, j):
        v = np.zeros(16, dtype=complex)
        v[4 * i + j] = 1.0
        return v

    m = np.zeros((16, 5), dtype=complex)
    m[:, 0] = kk(0, 0)  # completion outside the span of the eight states
    m[:, 1] = kk(1, 1)
    m[:, 2] = (kk(2, 2) + kk(3, 3)) / _SQ2
    m[:, 3] = (kk(2, 2) - kk(3, 3)) / _SQ2
    m[:, 4] = (kk(2, 3) + kk(3, 2)) / _SQ2
    return Isometry(matrix=m, output_dims=(4, 4))


def _cor4_six() -> GopEnsemble:
    a = _basis(3)
    entries = [
        (a[0], _plus(4, 1, 2, 1)),
        (a[1], _plus(4, 1, 3, 1)),
        (a[2], _plus(4, 2, 3, 1, 1j)),
        (a[0], _plus(4, 1, 2, -1)),
        (a[1], _plus(4, 1, 3, -1)),
        (a[2], _plus(4, 2, 3, -1, 1j)),
    ]
    return _gop(entries, (1.0 / 6.0,) * 6)


def _cor4_isometry() -> Isometry:
    """Broadcast isometry for the second factor of ``cor4-six``.

    Acts as the three-level isometry on basis labels 1..3; label 0 is sent to
    the leftover orthogonal direction, so the columns stay orthonormal.
    """
    base = _thm1_isometry().matrix
    m = np.zeros((4, 4), dtype=complex)
    m[:, 1:] = base
    m[:, 0] = np.array([0, 1, -1, 0]) / _SQ2
    return Isometry(matrix=m, output_dims=(2, 2))


def gen_bb84(theta: float) -> GopEnsemble:
    """Two classical labels against a rotated qubit pair at angle ``theta``."""
    z0, z1 = _basis(2)
    n_hat = np.array([math.cos(theta / 2), math.sin(theta / 2)], dtype=complex)
    n_perp = np.array([math.cos((theta - math.pi) / 2), math.sin((theta - math.pi) / 2)], dtype=complex)
    return GopEnsemble(
        a_states=(z0, z0, z1, z1),
        b_states=(z0, z1, n_hat, n_perp),
        prior=(0.25,) * 4,
    )


def _obb() -> GopEnsemble:
    a = _basis(3)
    return _gop(
        [
            (a[0], a[1]),
            (a[0], a[2]),
            (a[1], _plus(3, 1, 2, 1)),
            (a[1], _plus(3, 1, 2, -1)),
            (a[0], a[0]),
            (a[2], _plus(3, 0, 1, 1)),
            (a[2], _plus(3, 0, 1, -1)),
        ],
        _SEVEN,
    )


def _cq() -> GopEnsemble:
    a = _basis(3)
    return _gop(
        [
            (a[1], a[1]),
            (a[1], _plus(3, 0, 2, 1)),
            (a[1], _plus(3, 0, 2, -1)),
            (a[0], _plus(3, 0, 1, 1)),
            (a[0], _plus(3, 0, 1, -1)),
            (a[2], _plus(3, 1, 2, 1)),
            (a[2], _plus(3, 1, 2, -1)),
        ],
        _SEVEN,
    )


def _qq() -> GopEnsemble:
    a = _basis(3)
    minus10 = (a[1] - a[0]) / _SQ2
    return _gop(
        [
            (a[1], a[1]),
            (minus10, a[2]),
            (a[0], _plus(3, 0, 1, 1)),
            (a[0], _plus(3, 0, 1, -1)),
            (a[2], _plus(3, 1, 2, 1)),
            (a[2], _plus(3, 1, 2, -1)),
            (_plus(3, 1, 2, 1), a[0]),
        ],
        _SEVEN,
    )


def _qq_tilde() -> GopEnsemble:
    a = _basis(3)
    return _gop(
        [
            (a[1], a[1]),
            (_plus(3, 1, 2, -1), a[2]),
            (a[0], _plus(3, 1, 2, 1)),
            (a[0], _plus(3, 1, 2, -1)),
            (_plus(3, 0, 1, 1), a[0]),
            (a[2], _plus(3, 0, 1, 1)),
            (a[2], _plus(3, 0, 1, -1)),
        ],
        _SEVEN,
    )


def _qq_equivalence_unitary() -> Isometry:
    m = np.zeros((3, 3), dtype=complex)
    m[2, 0] = 1.0
    m[1, 1] = 1.0
    m[0, 2] = 1.0
    return Isometry(matrix=m, output_dims=(3,))


def _shifts() -> GopEnsemble:
    z0, z1 = _basis(2)
    plus = _plus(2, 0, 1, 1)
    minus = _plus(2, 0, 1, -1)
    entries = [
        (np.kron(z0, z0), z0),
        (np.kron(plus, minus), z1),
        (np.kron(minus, z1), plus),
        (np.kron(z1, plus), minus),
    ]
    return _gop(entries, (0.25,) * 4)


def _thm6_breidbart_povm() -> Povm:
    c, s = math.cos(math.pi / 8), math.sin(math.pi / 8)
    z = _basis(3)
    vecs = [
        (c * z[1] + s * (z[0] + z[2])) / _SQ2,
        (c * z[1] + s * (z[0] - z[2])) / _SQ2,
        (s * z[1] - c * (z[0] + z[2])) / _SQ2,
        (s * z[1] - c * (z[0] - z[2])) / _SQ2,
    ]
    return Povm(effects=tuple(dyad(v) for v in vecs))


_GALLERY = {
    "bb84": _bb84,
    "minimal-qutrit": _minimal_qutrit,
    "prop1-povm": _prop1_povm,
    "thm1-pairs": _thm1_pairs,
    "thm1-isometry": _thm1_isometry,
    "thm2-eight": _thm2_eight,
    "thm2-isometry": _thm2_isometry,
    "cor4-six": _cor4_six,
    "cor4-isometry": _cor4_isometry,
    "obb": _obb,
    "cq": _cq,
    "qq": _qq,
    "qq-tilde": _qq_tilde,
    "qq-equivalence-unitary": _qq_equivalence_unitary,
    "shifts": _shifts,
    "thm6-breidbart-povm": _thm6_breidbart_povm,
}

_GEN_BB84 = re.compile(r"^gen-bb84\((?P<theta>[^)]+)\)$")
_ANGLE = re.compile(r"^(?:(?P<num>[0-9.]+)\s*\*\s*)?pi(?:\s*/\s*(?P<den>[0-9.]+))?$")


def _parse_angle(text: str) -> float:
    """The angle in [0, pi] that ``text`` names: a float, or a multiple of pi such as 'pi/2' or '3*pi/4'."""
    text = text.strip()
    m = _ANGLE.match(text)
    try:
        theta = float(text) if m is None else float(m.group("num") or 1) * math.pi / float(m.group("den") or 1)
    except ValueError:
        raise ValueError(f"cannot parse angle {text!r} (use a float, 'pi', 'pi/2', '3*pi/4', ...)") from None
    except ZeroDivisionError:
        theta = math.inf
    if not math.isfinite(theta):
        raise ValueError(f"angle {text!r} is not a finite number")
    if not 0.0 <= theta <= math.pi:  # qpv.breidbart_lower's domain; beyond it theta - pi rounds off orthogonality
        raise ValueError(f"angle {text!r} is outside [0, pi]")
    return theta


def gallery_names() -> tuple[str, ...]:
    return tuple(sorted(_GALLERY)) + ("gen-bb84(<theta>)",)


def gen_bb84_angle(name: str) -> float | None:
    """The angle of the rotated family that ``name`` is: theta for ``gen-bb84(theta)``, pi/2 for ``bb84``, else None."""
    if name == "bb84":
        return math.pi / 2
    m = _GEN_BB84.match(name)
    return None if m is None else _parse_angle(m.group("theta"))


def gallery(name: str):
    """Look up a named gallery object; parameterized names carry an angle argument."""
    if name in _GALLERY:
        return _GALLERY[name]()
    theta = gen_bb84_angle(name)
    if theta is None:
        raise ValueError(f"unknown gallery name {name!r}; known: {', '.join(gallery_names())}")
    return gen_bb84(theta)


# --- JSON encoding -----------------------------------------------------------


def _encode_vector(v: np.ndarray) -> list:
    return [[float(c.real), float(c.imag)] for c in v]


def _encode_matrix(m: np.ndarray) -> list:
    return [_encode_vector(row) for row in np.asarray(m, dtype=complex)]


def _number(value) -> float:
    """A JSON number (int or float; not a bool or a string) as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _decode_vector(rows) -> np.ndarray:
    return np.array([complex(_number(re_), _number(im)) for re_, im in rows], dtype=complex)


def _strings(values) -> tuple[str, ...]:
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise ValueError(f"expected a list of strings, got {values!r}")
    return tuple(values)


def to_json_dict(obj) -> dict:
    if isinstance(obj, PostInfoEnsemble):
        return {
            "kind": "postinfo",
            "dims": [obj.dim],
            "settings": list(obj.settings),
            "prior": [list(g) for g in obj.prior],
            "states": [[_encode_vector(s) for s in g] for g in obj.states],
            "orthogonal": obj.orthogonal,
        }
    if isinstance(obj, GopEnsemble):
        return {
            "kind": "gop",
            "dims": list(obj.dims),
            "prior": list(obj.prior),
            "states": [[_encode_vector(a), _encode_vector(b)] for a, b in zip(obj.a_states, obj.b_states)],
        }
    if isinstance(obj, Povm):
        return {
            "kind": "povm",
            "dims": [obj.dim],
            "states": [_encode_matrix(e) for e in obj.effects],
        }
    if isinstance(obj, Isometry):
        return {
            "kind": "isometry",
            "dims": [obj.input_dim],
            "output_dims": list(obj.output_dims),
            "states": _encode_matrix(obj.matrix),
        }
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _field(data: dict, key: str, decode):
    """``decode(data[key])``; a missing or undecodable field is a ``ValueError`` naming it."""
    if key not in data:
        raise ValueError(f"{data.get('kind')} document has no {key!r} field")
    try:
        return decode(data[key])
    except (TypeError, ValueError, IndexError, KeyError, OverflowError) as exc:
        raise ValueError(f"malformed {key!r} field of a {data.get('kind')} document: {exc}") from None


def _boolean(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def _check_dims(data: dict, ket_dims) -> None:
    """A ``dims`` field, when present, must be ``ket_dims``, the dimensions the kets have (None: nothing to hold it to)."""
    if "dims" in data and ket_dims is not None and data["dims"] != list(ket_dims):
        raise ValueError(
            f"malformed 'dims' field of a {data['kind']} document: {data['dims']!r}, but the kets have dimensions {list(ket_dims)}"
        )


def from_json_dict(data):
    """The ensemble of a ``postinfo`` or ``gop`` document, as ``to_json_dict`` writes it.

    A missing ``dims`` field is read from the kets; a present one must match them.
    """
    if not isinstance(data, dict):
        raise ValueError("an ensemble document must be a JSON object")
    kind = data.get("kind")
    if kind == "postinfo":
        states = _field(data, "states", lambda g: tuple(tuple(_decode_vector(s) for s in row) for row in g))
        sizes = {s.size for row in states for s in row}
        _check_dims(data, sizes if len(sizes) == 1 else None)  # kets of several lengths are the constructor's error
        return PostInfoEnsemble(
            settings=_field(data, "settings", _strings),
            states=states,
            prior=_field(data, "prior", lambda g: tuple(tuple(_number(p) for p in row) for row in g)),
            orthogonal=_field(data, "orthogonal", _boolean) if "orthogonal" in data else False,
        )
    if kind == "gop":
        def factors(rows):  # the first and second factors, each of one ket length
            decoded = tuple(_decode_vector(a) for a, _ in rows), tuple(_decode_vector(b) for _, b in rows)
            for side, kets in zip(("first", "second"), decoded):
                if len(sizes := sorted({k.size for k in kets})) > 1:
                    raise ValueError(f"{side} factor kets differ in length: {sizes}")
            return decoded

        a, b = _field(data, "states", factors)
        _check_dims(data, (a[0].size, b[0].size) if a else None)
        return GopEnsemble(a_states=a, b_states=b, prior=_field(data, "prior", lambda g: tuple(_number(p) for p in g)))
    raise ValueError(f"unknown ensemble kind {kind!r}; expected 'postinfo' or 'gop'")
