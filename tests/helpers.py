"""Draws and patches that several test modules share."""

import os

import numpy as np

from obcast.sampling import ket_from_normals


def random_ket(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A Haar-random unit ket of length ``dim``, from one (2, dim) draw of normals."""
    return ket_from_normals(rng.normal(size=(2, dim)))


def on_cpus(monkeypatch, count):
    """Lets this process run on ``count`` CPUs as far as ``reproduce._in_halves`` can tell: with two it forks a child."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
