"""Draws that several test modules share."""

import numpy as np

from obcast.sampling import ket_from_normals


def random_ket(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A Haar-random unit ket of length ``dim``, from one (2, dim) draw of normals."""
    return ket_from_normals(rng.normal(size=(2, dim)))
