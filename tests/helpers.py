"""Test-only references and tolerances shared by the suite.

Each helper is independent of the code it checks: random states drawn
directly, a closed form, or a plain modular-arithmetic table.

Empirical sampling checks use total-variation distance 0.01 at 1e5 shots.
"""

import math
from typing import Sequence

import numpy as np

from kickback.statevec import StateVector

SAMPLING_TV_TOL = 0.01
SAMPLING_SHOTS = 100_000


def random_state(num_qubits: int, rng: np.random.Generator) -> StateVector:
    """A normalized state with iid complex-Gaussian amplitudes."""
    z = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return StateVector(num_qubits, z / np.linalg.norm(z))


def tv_distance(p: Sequence[float], q: Sequence[float]) -> float:
    """Total-variation distance between two distributions."""
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def grover_rotation_probability(n: int, iterations: int) -> float:
    """Success probability from the two-dimensional rotation picture.

    sin^2((2t+1) theta) with sin theta = 2^{-n/2}; the exact value for a
    single tagged item, independent of any circuit simulation.
    """
    theta = math.asin(2.0 ** (-n / 2.0))
    return math.sin((2 * iterations + 1) * theta) ** 2


def add_constant_table(k: int, m: int) -> np.ndarray:
    """Permutation table of y -> y + k mod 2^m."""
    return (np.arange(1 << m) + k) % (1 << m)
