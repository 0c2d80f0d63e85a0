"""The stack builders of ``obcast.sampling``: every member of a stack gets the bytes it gets alone."""

import numpy as np
import pytest

from obcast.sampling import (
    density_from_normals,
    ket_from_normals,
    psd_from_normals,
    random_orthonormal_pair,
    unitary_from_normals,
)

# builder, the shape of one member's normals for dimension d, and the dimensions tried
BUILDERS = {
    "ket": (ket_from_normals, lambda d: (2, d), range(1, 17)),
    "density": (density_from_normals, lambda d: (2, d, d), range(1, 7)),
    "unitary": (unitary_from_normals, lambda d: (2, d, d), range(1, 5)),
    "psd": (psd_from_normals, lambda d: (2, d, d), range(1, 7)),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_every_member_of_a_stack_gets_the_bytes_of_a_one_member_stack(name):
    build, shape, dims = BUILDERS[name]
    rng = np.random.default_rng(26)
    for d in dims:
        for count in (1, 2, 7, 64):
            z = rng.normal(size=(count,) + shape(d))
            stack = build(z)
            assert stack.shape[0] == count and stack.dtype == complex
            for k in range(count):
                alone = build(z[k : k + 1])[0]
                assert stack[k].tobytes() == alone.tobytes(), (name, d, count, k)
                assert build(z[k]).tobytes() == alone.tobytes()  # no stack axis at all
            # a stack of stacks is the same members
            assert build(z.reshape((1, count) + shape(d)))[0].tobytes() == stack.tobytes()


def test_random_orthonormal_pair_draws_two_qubit_kets_from_its_generators_normals():
    a, b = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(20):
        first, second = random_orthonormal_pair(a)
        z = b.normal(size=(2, 2, 2))  # the pair's two (2, 2) draws, in order
        assert first.tobytes() == ket_from_normals(z[0]).tobytes()
        drawn = ket_from_normals(z[1])
        assert abs(np.vdot(first, second)) <= 1e-12 and abs(np.linalg.norm(second) - 1) <= 1e-12
        assert abs(np.vdot(second, drawn)) ** 2 + abs(np.vdot(first, drawn)) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_the_builders_give_members_of_their_distributions():
    rng = np.random.default_rng(4)
    kets = ket_from_normals(rng.normal(size=(50, 2, 6)))
    assert np.abs(np.linalg.norm(kets, axis=-1) - 1).max() <= 1e-12
    rho = density_from_normals(rng.normal(size=(50, 2, 4, 4)))
    assert np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1).max() <= 1e-12
    assert np.linalg.eigvalsh(rho).min() >= -1e-12
    u = unitary_from_normals(rng.normal(size=(50, 2, 3, 3)))
    assert np.abs(u @ u.conj().swapaxes(-1, -2) - np.eye(3)).max() <= 1e-12
    psd = psd_from_normals(rng.normal(size=(50, 2, 5, 5)))
    assert np.abs(psd - psd.conj().swapaxes(-1, -2)).max() <= 1e-12
    assert np.linalg.eigvalsh(psd).min() >= -1e-12


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_normals_without_an_axis_of_real_and_imaginary_parts_are_rejected(name):
    build, shape, _ = BUILDERS[name]
    with pytest.raises(ValueError, match="to unpack"):
        build(np.zeros((4, 3) + shape(3)[1:]))  # three parts where two belong
