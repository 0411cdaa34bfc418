"""Test-only references and tolerances shared by the suite.

Each helper is independent of the code it checks: random states drawn
directly, a closed form, a plain modular-arithmetic table, a brute-force
scan, or the whole-array expression form of the gate update.

Empirical sampling checks use total-variation distance 0.01 at 1e5 shots.
"""

import math
from typing import Mapping, Sequence

import numpy as np

from kickback.order_finding import OrderProblem
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


def expression_form_2x2(amplitudes: np.ndarray, matrix, qubits: Sequence[int]) -> np.ndarray:
    """A 2x2 gate on the last listed qubit where every other one reads 1.

    Whole-array expressions on a copy: new a = m00 a + m01 b and new
    b = m10 a + m11 b over the target-0 and target-1 halves (a, b), every
    matrix entry applied, diagonal or not. The kernel's diagonal and
    in-place paths must match it bit for bit.
    """
    n = int(amplitudes.size).bit_length() - 1
    m = np.asarray(matrix, dtype=complex)
    t = amplitudes.copy().reshape([2] * n)
    pick = [slice(None)] * n
    for q in qubits:
        pick[q] = slice(1, 2)  # a slice, not 1: numpy scalars multiply differently
    one = tuple(pick)
    pick[qubits[-1]] = slice(0, 1)
    zero = tuple(pick)
    a, b = t[zero], t[one]
    new_a = m[0, 0] * a + m[0, 1] * b
    t[one] = m[1, 0] * a + m[1, 1] * b
    t[zero] = new_a
    return t.reshape(-1)


def max_abs_minor(mat: np.ndarray) -> float:
    """Largest |2x2 minor| of a matrix, by scanning every pair of rows.

    Zero exactly when the matrix has rank <= 1 (a product state across the
    cut it was reshaped from); a brute-force cross-check of the Schmidt tail.
    """
    rows, cols = mat.shape
    if rows > cols:
        mat = mat.T
        rows, cols = cols, rows
    best = 0.0
    for i in range(rows - 1):
        # block[k, j1, j2] = M[i, j1] * M[i+1+k, j2]
        block = mat[i][None, :, None] * mat[i + 1 :][:, None, :]
        best = max(best, float(np.abs(block - block.transpose(0, 2, 1)).max()))
    return best


def multiplicative_order(a: int, modulus: int) -> int:
    """Smallest r >= 1 with a**r = 1 mod modulus, by direct iteration."""
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    if math.gcd(a, modulus) != 1:
        raise ValueError(f"{a} and {modulus} are not coprime")
    r, y = 1, a % modulus
    while y != 1:
        y = y * a % modulus
        r += 1
    return r


def prepare_psi_k(problem: OrderProblem, k: int, r: int) -> StateVector:
    """The eigenvector sum_j e^{-2 pi i k j / r} |a^j mod N> / sqrt r.

    r must be the true multiplicative order (verified here), since
    fabricating these states is the whole difficulty the |1>-substitution
    argument removes.
    """
    a, modulus = problem.base, problem.modulus
    if r != multiplicative_order(a, modulus):
        raise ValueError(f"{r} is not the multiplicative order of {a} mod {modulus}")
    if not 1 <= k <= r:
        raise ValueError(f"eigenvector index k must lie in 1..{r}")
    amps = np.zeros(1 << problem.target_bits, dtype=complex)
    value = 1
    for j in range(r):
        amps[value] += np.exp(-2j * np.pi * k * j / r)
        value = value * a % modulus
    return StateVector(problem.target_bits, amps / math.sqrt(r))


def coprime_pair_probability(r: int) -> float:
    """Exact fraction of pairs (k1, k2) in {1..r}^2 with gcd(k1, k2) = 1."""
    if r < 1:
        raise ValueError("r must be >= 1")
    ks = np.arange(1, r + 1)
    return float((np.gcd.outer(ks, ks) == 1).sum()) / (r * r)


def totient_decrypt(factorization: Mapping[int, int], public_exponent: int) -> int:
    """Classical reference path: d = e^{-1} mod phi(N) from N's factors."""
    if public_exponent < 1:
        raise ValueError("public exponent must be >= 1")
    if not factorization:
        raise ValueError("factorization must not be empty")
    phi = 1
    for p, k in factorization.items():
        if p < 2 or k < 1:
            raise ValueError(f"invalid factor {p}^{k}")
        if any(p % q == 0 for q in range(2, int(math.isqrt(p)) + 1)):
            raise ValueError(f"{p} is not prime")
        phi *= p ** (k - 1) * (p - 1)
    try:
        return pow(public_exponent, -1, phi)
    except ValueError:
        raise ValueError(f"{public_exponent} is not invertible modulo {phi}") from None
