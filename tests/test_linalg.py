import re

import numpy as np
import pytest

from obcast.discrimination import DualCertificate, EffectTarget, helstrom_binary
from obcast.ensembles import Povm, gallery
from obcast.linalg import (
    dagger,
    dyad,
    fidelity,
    hermitian,
    ket,
    kron,
    operator_norm,
    partial_trace,
    psd_sqrt,
    psd_stack,
    rounding_floor,
    trace_distance,
    trace_norm,
)
from obcast.sampling import density_from_normals

from helpers import random_ket

K0 = np.array([1, 0], dtype=complex)
K1 = np.array([0, 1], dtype=complex)
KPLUS = (K0 + K1) / np.sqrt(2)


def random_hermitian(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2


def test_eig_identity():
    w, _ = np.linalg.eigh(hermitian(np.eye(3)))
    assert np.allclose(w, [1, 1, 1])


def test_eig_pauli_x():
    w, _ = np.linalg.eigh(hermitian(np.array([[0, 1], [1, 0]], dtype=complex)))
    assert np.allclose(w, [-1, 1])


def test_eig_gallery_effect_spectrum():
    effect = gallery("prop1-povm").effects[0]
    w, _ = np.linalg.eigh(hermitian(effect))
    assert np.abs(np.sort(w) - np.array([0.0, 0.0, 0.75])).max() <= 1e-12


def test_eig_reconstruction_residuals():
    rng = np.random.default_rng(11)
    for _ in range(100):
        d = int(rng.integers(2, 17))
        h = random_hermitian(rng, d)
        w, v = np.linalg.eigh(hermitian(h))
        assert np.linalg.norm((v * w) @ v.conj().T - h) <= 1e-10
        assert np.linalg.norm(v.conj().T @ v - np.eye(d)) <= 1e-10
        assert np.all(np.diff(w) >= -1e-14)


def test_eig_rejects_bad_input():
    with pytest.raises(ValueError):
        np.linalg.eigh(hermitian(np.ones((2, 3))))
    with pytest.raises(ValueError):
        np.linalg.eigh(hermitian(np.array([[0, 1], [0, 0]], dtype=complex)))
    with pytest.raises(ValueError):
        hermitian(np.array([[np.inf, 0], [0, 1]], dtype=complex))


def test_non_contiguous_inputs_are_accepted():
    h = random_hermitian(np.random.default_rng(12), 3)
    _, u = np.linalg.eigh(h)
    column = u[:, 1]
    assert not column.flags.c_contiguous
    assert np.array_equal(ket(column), column)
    assert np.array_equal(hermitian(h.T, tol=1e-12), hermitian(np.ascontiguousarray(h.T), tol=1e-12))
    fortran = np.asfortranarray(h)
    assert not fortran.flags.c_contiguous
    assert np.array_equal(hermitian(fortran), hermitian(h))
    with pytest.raises(ValueError):
        ket(np.array([[1, np.nan], [0, 1]], dtype=complex)[:, 1])
    with pytest.raises(ValueError):
        hermitian(np.array([[1, 0], [np.inf, 1]], dtype=complex).T)


def test_trace_distance_examples():
    assert trace_distance(dyad(K0), dyad(K1)) == pytest.approx(1.0)
    rho = density_from_normals(np.random.default_rng(0).normal(size=(2, 3, 3)))
    assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-14)
    assert trace_distance(dyad(K0), dyad(KPLUS)) == pytest.approx(1 / np.sqrt(2), abs=1e-12)


def test_trace_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        trace_distance(np.eye(2), np.eye(3))


def test_fidelity_examples():
    rho = density_from_normals(np.random.default_rng(1).normal(size=(2, 3, 3)))
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)
    assert fidelity(dyad(K0), dyad(KPLUS)) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert fidelity(np.eye(2) / 2, dyad(K0)) == pytest.approx(1 / np.sqrt(2), abs=1e-12)


def test_fidelity_symmetry():
    rng = np.random.default_rng(2)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        a, b = density_from_normals(rng.normal(size=(2, 2, d, d)))
        assert abs(fidelity(a, b) - fidelity(b, a)) <= 1e-9


def test_fidelity_rejects_negative():
    with pytest.raises(ValueError):
        fidelity(np.diag([1.0, -0.5]), np.eye(2) / 2)


def test_partial_trace_bell():
    bell = (np.kron(K0, K0) + np.kron(K1, K1)) / np.sqrt(2)
    assert np.abs(partial_trace(dyad(bell), (2, 2), {0}) - np.eye(2) / 2).max() <= 1e-12


def test_partial_trace_product():
    state = np.kron(K0, KPLUS)
    assert np.abs(partial_trace(dyad(state), (2, 2), {1}) - dyad(KPLUS)).max() <= 1e-12


def test_partial_trace_entangling_isometry_output():
    # the first broadcast image is |0>|0>, so either marginal is |0><0|
    iso = gallery("thm1-isometry")
    plus01 = ket([1, 1, 0]) / np.sqrt(2)
    out = dyad(iso.apply(plus01))
    assert np.abs(partial_trace(out, (2, 2), {0}) - dyad(K0)).max() <= 1e-12


def test_partial_trace_preserves_trace_and_psd():
    rng = np.random.default_rng(3)
    rho = density_from_normals(rng.normal(size=(2, 12, 12)))
    red = partial_trace(rho, (3, 4), {0})
    assert np.trace(red).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(red).min() >= -1e-12


def test_partial_trace_errors():
    with pytest.raises(ValueError):
        partial_trace(np.eye(6), (2, 2), {0})
    with pytest.raises(ValueError):
        partial_trace(np.eye(4), (2, 2), set())


def test_operator_norm_examples():
    assert operator_norm(np.eye(5)) == pytest.approx(1.0)
    assert operator_norm(dyad(K0) @ dyad(K0)) == pytest.approx(1.0)


def test_psd_sqrt():
    assert np.abs(psd_sqrt(4 * np.eye(2)) - 2 * np.eye(2)).max() <= 1e-12
    rng = np.random.default_rng(4)
    rho = density_from_normals(rng.normal(size=(2, 4, 4)))
    root = psd_sqrt(rho)
    assert np.abs(root @ root - rho).max() <= 1e-9
    with pytest.raises(ValueError):
        psd_sqrt(np.diag([1.0, -1.0]))


def test_kron_shape():
    assert kron(np.eye(2), np.eye(3)).shape == (6, 6)


def test_fuchs_van_de_graaf_envelope():
    rng = np.random.default_rng(5)
    for _ in range(200):
        d = int(rng.integers(2, 5))
        rho, sigma = density_from_normals(rng.normal(size=(2, 2, d, d)))
        f, dist = fidelity(rho, sigma), trace_distance(rho, sigma)
        assert 1 - f <= dist + 1e-9
        assert dist <= np.sqrt(max(0.0, 1 - f * f)) + 1e-9


def test_holevo_helstrom_identity():
    from obcast.discrimination import helstrom_binary

    rng = np.random.default_rng(6)
    for _ in range(100):
        d = int(rng.integers(2, 5))
        rho, sigma = density_from_normals(rng.normal(size=(2, 2, d, d)))
        assert trace_distance(rho, sigma) == pytest.approx(
            2 * helstrom_binary(rho, sigma) - 1, abs=1e-10
        )


def test_product_norm_splitting_on_states():
    rng = np.random.default_rng(7)
    for _ in range(200):
        d1, d2 = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        w, y = density_from_normals(rng.normal(size=(2, 2, d1, d1)))
        x, z = density_from_normals(rng.normal(size=(2, 2, d2, d2)))
        lhs = trace_norm(kron(w, x) - kron(y, z))
        assert lhs <= trace_norm(w - y) + trace_norm(x - z) + 1e-9


def test_product_norm_splitting_fails_for_general_contractions():
    # W = Y = I doubles the left side, so the splitting needs trace-norm-one
    # factors; this pins why the property suite samples states.
    rng = np.random.default_rng(8)
    x, z = density_from_normals(rng.normal(size=(2, 2, 2, 2)))
    lhs = trace_norm(kron(np.eye(2), x) - kron(np.eye(2), z))
    rhs = trace_norm(x - z)
    assert lhs == pytest.approx(2 * rhs, abs=1e-12)
    assert lhs > rhs + 1e-6


def test_random_kets_are_normalized():
    rng = np.random.default_rng(9)
    for _ in range(20):
        assert abs(np.linalg.norm(random_ket(rng, 5)) - 1) <= 1e-12


# --- stacks ---------------------------------------------------------------------
#
# Every primitive takes (..., d, d) stacks of operators (or (..., n) stacks of
# vectors) and must give each member the bits it gives that member alone.


def _bits(x) -> bytes:
    return np.ascontiguousarray(np.asarray(x, dtype=np.result_type(x, float))).tobytes()


def _mixed_operators(rng, d, count=8):
    """Densities of full and low rank, a projector, zero, a multiple of I and a non-PSD Hermitian."""
    g = rng.normal(size=(d, 1)) + 1j * rng.normal(size=(d, 1))
    members = list(density_from_normals(rng.normal(size=(count - 5, 2, d, d))))
    members += [g @ g.conj().T / np.vdot(g, g).real, np.zeros((d, d)), 0.5 * np.eye(d)]
    members += [np.diag(np.linspace(0.0, 1.0, d)), random_hermitian(rng, d)]
    return np.array(members, dtype=complex)


def _layouts(stack):
    """The stack as a C-ordered (2, n/2, ...) block, with each member transposed in memory, and as a strided slice."""
    big = np.zeros((2 * stack.shape[0],) + tuple(s + 1 for s in stack.shape[1:]), dtype=complex)
    inner = (slice(None, None, 2),) + tuple(slice(1, None) for _ in stack.shape[1:])
    big[inner] = stack
    strided = big[inner]
    transposed = np.ascontiguousarray(np.swapaxes(stack, -1, -2)).swapaxes(-1, -2) if stack.ndim > 2 else np.asfortranarray(stack)
    assert not strided.flags.c_contiguous and not transposed.flags.c_contiguous
    return {"blocked": stack.reshape((2, -1) + stack.shape[1:]), "transposed": transposed, "strided": strided}


def _assert_members_match(fn, *stacks, core=2):
    """``fn`` on the stacks equals ``fn`` on each member alone; members have ``core`` trailing axes."""
    out = fn(*stacks)
    for index in np.ndindex(stacks[0].shape[:-core]):
        assert _bits(out[index]) == _bits(fn(*(s[index] for s in stacks))), (fn.__name__, index)


STACK_PRIMITIVES = {
    "hermitian": (hermitian, 1),
    "dagger": (dagger, 1),
    "trace_norm": (trace_norm, 1),
    "operator_norm": (operator_norm, 1),
    "psd_sqrt": (psd_sqrt, 1),
    "trace_distance": (trace_distance, 2),
    "fidelity": (fidelity, 2),
    "kron": (kron, 2),
}


@pytest.mark.parametrize("layout", ["blocked", "transposed", "strided"])
@pytest.mark.parametrize("name", sorted(STACK_PRIMITIVES))
def test_stacked_primitives_match_each_member_alone_bit_for_bit(name, layout):
    fn, arity = STACK_PRIMITIVES[name]
    rng = np.random.default_rng(21)
    for d in (2, 3, 4):
        stacks = [_mixed_operators(rng, d) for _ in range(arity)]
        if name in ("psd_sqrt", "fidelity"):  # PSD members only: drop the non-PSD last one
            stacks = [np.concatenate([s[:-1], s[:1]]) for s in stacks]
        if name == "kron":
            stacks[1] = _mixed_operators(rng, 6 - d)
        _assert_members_match(fn, *(_layouts(s)[layout] for s in stacks))


@pytest.mark.parametrize("layout", ["blocked", "transposed", "strided"])
def test_stacked_dyad_and_partial_trace_match_each_member_alone_bit_for_bit(layout):
    rng = np.random.default_rng(22)
    vectors = np.array([random_ket(rng, 6) for _ in range(8)])
    _assert_members_match(dyad, _layouts(vectors)[layout], core=1)
    operators = _layouts(_mixed_operators(rng, 6))[layout]
    for keep in ({0}, {1}, {0, 1}):
        _assert_members_match(lambda m: partial_trace(m, (2, 3), keep), operators)


def test_kron_broadcasts_one_operator_against_a_stack_and_matches_numpy():
    rng = np.random.default_rng(23)
    stack = _mixed_operators(rng, 3)
    eye = np.eye(2)
    out = kron(stack, eye)
    assert out.shape == (8, 6, 6)
    for member, got in zip(stack, out):
        assert _bits(got) == _bits(kron(member, eye)) == _bits(np.kron(member, eye))
    a, b = random_hermitian(rng, 2), rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    assert _bits(kron(a, b)) == _bits(np.kron(a, b))


def test_a_single_operator_gives_a_float_and_a_stack_an_array():
    rho = density_from_normals(np.random.default_rng(24).normal(size=(2, 3, 3)))
    assert type(trace_distance(rho, rho)) is float and type(fidelity(rho, rho)) is float
    assert type(trace_norm(rho)) is float and type(operator_norm(rho)) is float
    assert trace_distance(rho[None], rho[None]).shape == (1,)


EMPTY_RESULTS = {  # each stack primitive on a (0, 2, 2) stack (or (0, 2) vectors), and the shape it gives
    "hermitian": (hermitian, (0, 2, 2)),
    "dagger": (dagger, (0, 2, 2)),
    "dyad": (lambda z: dyad(z[..., 0]), (0, 2, 2)),
    "trace_norm": (trace_norm, (0,)),
    "operator_norm": (operator_norm, (0,)),
    "psd_sqrt": (psd_sqrt, (0, 2, 2)),
    "trace_distance": (lambda z: trace_distance(z, z), (0,)),
    "fidelity": (lambda z: fidelity(z, z), (0,)),
    "helstrom_binary": (lambda z: helstrom_binary(z, z), (0,)),
    "kron": (lambda z: kron(z, z), (0, 4, 4)),
    "partial_trace": (lambda z: partial_trace(kron(z, z), (2, 2), {0}), (0, 2, 2)),
}


@pytest.mark.parametrize("name", sorted(EMPTY_RESULTS))
def test_an_empty_stack_gives_an_empty_result(name):
    fn, shape = EMPTY_RESULTS[name]
    assert np.shape(fn(np.zeros((0, 2, 2), dtype=complex))) == shape


ZERO_DIMENSIONAL = {  # each entry point that takes one operator or a stack, on zero-dimensional input
    "hermitian": hermitian,
    "psd_sqrt": psd_sqrt,
    "trace_distance": lambda z: trace_distance(z, z),
    "fidelity": lambda z: fidelity(z, z),
    "operator_norm": operator_norm,
    "trace_norm": trace_norm,
    "dyad": lambda z: dyad(z.diagonal(axis1=-2, axis2=-1)),  # zero-length vectors, named by the (…, 0, 0) dyad
    "kron": lambda z: kron(z, np.eye(2)),
    "partial_trace": lambda z: partial_trace(z, (0, 2), {1}),
    "Povm": lambda z: Povm(effects=(z,) if z.ndim == 2 else tuple(z)),
    "DualCertificate.validate": lambda z: DualCertificate(z, 0.0, 0.0).validate(EffectTarget(operators=(np.eye(2),))),
}


@pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0)])
@pytest.mark.parametrize("name", sorted(ZERO_DIMENSIONAL))
def test_a_zero_dimensional_operator_is_rejected_by_shape(name, shape):
    # a POVM names the shape of its effects' stack, (1, 0, 0) for one 0 x 0 effect
    with pytest.raises(ValueError, match=r"expected a matrix of dimension at least 1, got shape \((\d+, )?0, 0\)"):
        ZERO_DIMENSIONAL[name](np.zeros(shape, dtype=complex))


def _message(fn, *args) -> str:
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


def test_a_rejected_member_raises_what_it_raises_alone():
    rng = np.random.default_rng(25)
    good = _mixed_operators(rng, 3)[:-1]
    skew = good.copy()
    skew[2, 0, 1] += 1e-6
    skew[4, 1, 2] += 1e-3  # a second, larger defect: the first bad member is the one named
    assert _message(hermitian, skew) == _message(hermitian, skew[2])
    assert "residual 1.000e-06" in _message(hermitian, skew)
    assert _message(trace_distance, skew, good) == _message(trace_distance, skew[2], good[2])
    nonfinite = skew.copy()
    nonfinite[1, 0, 0] = np.inf
    assert _message(hermitian, nonfinite) == _message(hermitian, nonfinite[1]) == "matrix has non-finite entries"
    negative = good.copy()
    negative[3] = np.diag([0.5, 0.5, -1e-6])
    negative[5] = np.diag([0.5, 0.5, -1e-3])
    assert _message(psd_sqrt, negative) == _message(psd_sqrt, negative[3])
    assert "min eigenvalue -1.000e-06" in _message(psd_sqrt, negative)
    assert _message(fidelity, good, negative) == _message(fidelity, good[3], negative[3])


def reference_psd_stack(operators, tol, name):
    """``psd_stack`` on an (n, d, d) stack with every operator decomposed, zero or not, in one ``eigvalsh``."""
    stack = np.array(operators, dtype=complex)
    floors = rounding_floor(tol, np.abs(stack).max(axis=(1, 2), initial=0.0))
    stack = hermitian(stack, tol=floors)
    lows = np.linalg.eigvalsh(stack).min(axis=1)
    bad = np.flatnonzero(lows < -floors)
    if bad.size:
        raise ValueError(f"{name} has negative eigenvalue {lows[bad[0]]:.3e}")
    return stack


def _verdict(fn, *args):
    """What ``fn`` returns, as bytes, or the message of the ``ValueError`` it raises."""
    try:
        return fn(*args).tobytes()
    except ValueError as exc:
        return str(exc)


def zero_member_stacks():
    """Stacks with exact-zero members: around one bad member, all but one zero (good or bad), and all zero."""
    rng = np.random.default_rng(31)
    good = density_from_normals(rng.normal(size=(2, 3, 3)))
    bad = np.diag([0.5, 0.25, -1e-3]).astype(complex)
    zero = np.zeros((3, 3), dtype=complex)
    return {
        "zeros around a bad member": np.array([zero, zero, bad, zero, zero]),
        "one good member": np.array([zero, good, zero, zero]),
        "one bad member": np.array([zero, zero, zero, bad]),
        "every member zero": np.zeros((4, 3, 3), dtype=complex),
    }


@pytest.mark.parametrize("tol", [1e-10, 0.0])
def test_psd_stack_decomposes_only_nonzero_operators_with_the_verdict_of_every_operator(monkeypatch, tol):
    eigvalsh = np.linalg.eigvalsh
    for label, stack in zero_member_stacks().items():
        expected = _verdict(reference_psd_stack, stack, tol, "effect")
        decomposed = []

        def counted(a, *args, **kwargs):
            decomposed.append(len(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        assert _verdict(psd_stack, stack, tol, "effect") == expected, label
        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        assert decomposed == [int(stack.any(axis=(1, 2)).sum())], label
    assert "effect has negative eigenvalue -1.000e-03" in _verdict(psd_stack, zero_member_stacks()["one bad member"], 0.0, "effect")


@pytest.mark.parametrize(
    "check, message",
    [
        (lambda: trace_distance(np.eye(2), np.eye(3)), "dimension mismatch: (2, 2) vs (3, 3)"),
        (lambda: partial_trace(np.ones((2, 3)), (2,), {0}), "expected a square matrix, got shape (2, 3)"),
        (lambda: partial_trace(np.eye(4), (2, 2), {2}), "keep indices [2] out of range for 2 factors"),
    ],
)
def test_input_checks_name_what_is_wrong(check, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        check()
