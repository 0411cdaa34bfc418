"""Phase estimation: controlled-power kernel, readout, closed-form statistics.

The kernel fans m control qubits out over the target (``fan_out``) and applies
controlled-U^(2^j) gates (the qubit of weight 2^j controls U^(2^j)); with the
target holding an eigenstate of eigenvalue e^{2 pi i phase}, the controls become

    2^{-m/2} sum_y exp(2 pi i phase y) |y>

whose inverse Fourier transform concentrates on the best m-bit dyadic
approximation of the phase. Its gates pair amplitudes of one target value, so
``control_distribution`` runs it on the c target values the kernel reached
alone (on m + ceil(log2 c) qubits, or in place when that is m + w), with the
same float operations and bytes. ``analytic_distribution`` gives the exact
readout statistics without simulating a circuit; extra bits plus rounding
amplify the success probability to any desired level.

Error is always measured as wrap-around distance on the unit circle.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .gates import phase_shifter
from .qft import inverse_qft
from .statevec import StateVector, _check_capacity, basis_state, fan_out, sample_index

TWO_PI = 2.0 * math.pi


def wrap_half(x):
    """Wrap a phase difference (scalar or array) into (-1/2, 1/2]."""
    return 0.5 - (0.5 - np.asarray(x)) % 1.0


class EigenOracle(ABC):
    """Provider of controlled-U^(2^j) actions and the target's start state.

    ``eigenstate()`` returns the state the target register starts in: an
    eigenstate of U, or a superposition of eigenstates. The kernel writes the
    controls fanned out over it, so an oracle cannot touch them at the start.
    ``apply_controlled_power(state, j, control, target_span)`` must act as
    controlled-U^(2^j), i.e. equal 2^j compositions of the j = 0 gate on the
    control-1 subspace. To start a given U from another eigenstate, subclass
    its oracle and override ``eigenstate()``.
    """

    @abstractmethod
    def eigenstate(self) -> StateVector:
        ...

    @abstractmethod
    def apply_controlled_power(
        self, state: StateVector, j: int, control: int, target_span: Sequence[int]
    ) -> None:
        ...


class DiagonalEigenOracle(EigenOracle):
    """Synthetic single-qubit U = diag(1, e^{2 pi i phase}), eigenstate |1>.

    Makes the phase a free parameter, which is exactly what tests need.
    """

    def __init__(self, phase: float):
        if not math.isfinite(phase):
            raise ValueError(f"phase must be finite, got {phase}")
        self.phase = phase % 1.0

    def eigenstate(self):
        return basis_state(1, 1)

    def apply_controlled_power(self, state, j, control, target_span):
        # phase * 2^j is exact in doubles; reduce mod 1 before scaling by 2 pi
        angle = TWO_PI * ((self.phase * (1 << j)) % 1.0)
        state.apply_controlled_single_qubit(phase_shifter(angle), control, target_span[0])


def kernel_state(m: int, oracle: EigenOracle) -> StateVector:
    """Run the estimation kernel; returns the m control qubits and the target.

    Control qubits are 0..m-1, written fanned out over the target register,
    which follows and starts in ``oracle.eigenstate()``. The target is
    returned unchanged (up to global phase) when it holds an exact
    eigenstate; the eigenvalue phases are kicked back onto the controls.
    """
    if m < 1:
        raise ValueError("control register needs at least one qubit")
    state = fan_out(m, oracle.eigenstate())
    target_span = list(range(m, state.num_qubits))
    for j in range(m):
        oracle.apply_controlled_power(state, j, m - 1 - j, target_span)
    return state


@dataclass(frozen=True)
class PhaseFraction:
    """An m-bit dyadic phase estimate numerator/2^bits in [0, 1)."""

    numerator: int
    bits: int

    def __post_init__(self):
        if self.bits < 1:
            raise ValueError("bit width must be >= 1")
        if not 0 <= self.numerator < (1 << self.bits):
            raise ValueError(f"numerator {self.numerator} out of range for {self.bits} bits")

    @property
    def value(self) -> float:
        return self.numerator / (1 << self.bits)


@dataclass
class EstimationAnalysis:
    """Exact m-bit readout statistics for a given phase.

    ``best`` lists the best m-bit estimates (two entries exactly at the
    half-way tie |delta| = 2^-(m+1), one otherwise); ``success_prob`` is
    their combined probability.
    """

    phi: float
    m: int
    best: tuple[int, ...]
    delta: float
    distribution: np.ndarray
    success_prob: float


# A tail sweep reads its table a block of whole rows of about this many cells
# (at least one row) at a time, and ``_fill_readouts`` evaluates a piece of about
# a quarter of that at a time, so a block holds one number per cell and a piece's
# temporaries 128 KiB, which stay in L2 (a whole 1000 x 2^10 table took 80 MiB,
# and one 2^22-cell row 324 MiB). Pieces of a whole block, 512 KiB temporaries,
# ran slower: glibc returned them to the system and faulted them in again on
# every block.
_BLOCK_CELLS = 1 << 16


def _readout_grid(grid, m: int) -> tuple[np.ndarray, int]:
    """The phases of a grid x 2^m readout table, as floats, and 2^m, once
    every phase lies in [0, 1), m >= 1 and the table holds no more cells than
    the largest allowed register holds amplitudes."""
    grid = np.asarray(grid, dtype=float)
    if not ((grid >= 0.0) & (grid < 1.0)).all():
        raise ValueError("phase must lie in [0, 1)")
    if m < 1:
        raise ValueError("bit width must be >= 1")
    _check_capacity(m, len(grid))
    return grid, 1 << m


def _readout_probability(delta: np.ndarray, dim: int) -> np.ndarray:
    """Elementwise P(d) = sin^2(pi d 2^m) / (2^m sin(pi d))^2, the paper's
    closed form, of the wrapped errors d of readouts of 2^m = ``dim`` cells.

    It is written (sinc(2^m d) / sinc(d))^2 with sinc(x) = sin(pi x)/(pi x):
    the pi x factors cancel, and ``np.sinc`` is exactly 1 at x = 0, so a
    d = 0 cell reads 1/1, exactly 1, with no 0/0 and no warning. Real ``sin``
    and real arithmetic give the same bytes at every x86-64 numpy SIMD
    dispatch level."""
    return (np.sinc(delta * dim) / np.sinc(delta)) ** 2


def _fill_readouts(phases: np.ndarray, cells: np.ndarray, dim: int) -> np.ndarray:
    """Overwrite an int64 array of readouts t, row i of ``phases[i]``, with
    their probabilities in place, and return it viewed as float64.

    The cell t of row i becomes P(d) of d = wrap(phases[i] - t/2^m), from
    ``_readout_probability``, evaluated a piece of columns of about
    ``_BLOCK_CELLS >> 2`` cells at a time: every cell is the same elementwise
    expression, so the bytes depend neither on the piece nor on the order of
    the cells. t 2^-m is exact, as t/2^m is.
    """
    probs = cells.view(np.float64)
    width = max(1, (_BLOCK_CELLS >> 2) // len(cells))
    for col in range(0, cells.shape[1], width):
        delta = wrap_half(phases[:, None] - cells[:, col : col + width] * (1.0 / dim))
        probs[:, col : col + width] = _readout_probability(delta, dim)
    return probs


def _nearest_readouts(grid: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The best estimates of each phase of a checked grid (``_readout_grid``).

    Returns, per phase, the readouts t = floor(phi 2^m) and t + 1 mod 2^m
    either side of it (as floats), their wrapped errors d, and which of the
    two are best: the nearer by |d|, or both at a tie. phi 2^m and t/2^m
    are exact, so every other readout's error is larger by about 2^-(m+1),
    far more than 2^-53: these are the cells of least |d| in the whole row.
    """
    cells = (np.floor(grid * dim)[:, None] + [0.0, 1.0]) % dim
    delta = wrap_half(grid[:, None] - cells / dim)
    err = np.abs(delta)
    return cells, delta, err <= err[:, ::-1]


def analytic_distribution(phi: float, m: int) -> EstimationAnalysis:
    """Closed-form readout distribution; no circuit simulation.

    One row of readouts 0..2^m - 1, filled in place (``_fill_readouts``); the
    best estimates are the nearest readouts (``_nearest_readouts``), in
    ascending order, and ``delta`` is the error d of the first, the same
    expression as the row's, so the same bytes.
    """
    grid, dim = _readout_grid([phi], m)
    probs = _fill_readouts(grid, np.arange(dim, dtype=np.int64)[None], dim)
    cells, delta, nearest = _nearest_readouts(grid, dim)
    best, errors = zip(*sorted(zip(map(int, cells[nearest].tolist()), delta[nearest].tolist())))
    return EstimationAnalysis(
        phi=phi,
        m=m,
        best=best,
        delta=errors[0],
        distribution=probs[0],
        success_prob=float(probs[0, list(best)].sum()),
    )


def estimate_phase(m: int, oracle: EigenOracle, rng: np.random.Generator) -> PhaseFraction:
    """Kernel, inverse Fourier transform, measure the control register."""
    return PhaseFraction(sample_index(control_distribution(m, oracle), rng), m)


def control_distribution(m: int, oracle: EigenOracle) -> np.ndarray:
    """Exact pre-measurement distribution of the control register; the readout
    copies the reached target values out unless they need all w target qubits."""
    state = kernel_state(m, oracle)
    rows = state.amplitudes.reshape(1 << m, -1)
    columns = np.flatnonzero(rows.any(axis=0))  # the target values the kernel reached
    if 2 * len(columns) > rows.shape[1]:  # a copy would save no qubit, double the memory
        inverse_qft(state, range(m))
    else:
        readout = StateVector(m + (len(columns) - 1).bit_length())
        block = readout.amplitudes.reshape(1 << m, -1)
        for j, column in enumerate(columns):  # one by one: no gathered temporary
            block[:, j] = rows[:, column]
        inverse_qft(readout, range(m))
        rows[:, columns] = block[:, : len(columns)]
        del readout, block  # freed before the marginal's temporaries
    return state.marginal_probabilities(range(m))


def precision_for_error(n: int, epsilon: float) -> int:
    """Total bits n + ceil(log2(1/(2 epsilon) + 1/2)), computed exactly.

    Estimating with that many bits and rounding back to n bits lands within
    2^-(n+1) of the true phase with probability at least 1 - epsilon.
    """
    if n < 1:
        raise ValueError("accurate bit count must be >= 1")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("failure probability must lie in (0, 1)")
    # the least e with 2^e >= 1/(2 epsilon) + 1/2, which is the least e with 2^e >= its ceiling
    return n + (math.ceil(1 / (2 * Fraction(epsilon)) + Fraction(1, 2)) - 1).bit_length()


def tail_bound(k: int | np.ndarray) -> float | np.ndarray:
    """Bound 1/(2k-1) on P[wrap error > k/2^m], elementwise; vacuous at k = 1."""
    if np.any(np.asarray(k) < 1):
        raise ValueError("k must be >= 1")
    return 1.0 / (2 * k - 1)


def round_to_bits(est: PhaseFraction, n: int) -> PhaseFraction:
    """Nearest n-bit dyadic modulo 1: add half an ulp, truncate, wrap."""
    if n < 1:
        raise ValueError("bit width must be >= 1")
    if n > est.bits:
        raise ValueError(f"cannot round {est.bits} bits up to {n}")
    if n == est.bits:
        return est
    shift = est.bits - n
    a = ((est.numerator + (1 << (shift - 1))) >> shift) & ((1 << n) - 1)
    return PhaseFraction(a, n)
