"""The promise-problem suite built on phase kickback.

Common shape: Hadamards fan the control register out over all inputs, one
f-controlled-NOT against an ancilla prepared in a phase eigenstate turns
function values into signs, and a second round of Hadamards interferes the
paths so a single measurement answers a global question about f.

Concrete problems: the two-detector interferometer demo, constant-vs-
balanced classification (1-bit and n-bit), the parity-promise multi-output
generalisation, linear and affine structure recovery, tagged-item search,
and arbitrary interference-pattern generation from a shared Fourier
eigenstate.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .analysis import STATE_ATOL, cross_minor_entanglement
from .gates import Oracle, controlled_map, f_controlled_not, phase_shifter
from .statevec import MapSpec, StateVector, _check_capacity, basis_state, fan_out
from .statevec import sample_index, total_table

PROMISE_DIAGNOSTIC_TOL = 1e-6


class Verdict(Enum):
    CONSTANT = "Constant"
    BALANCED = "Balanced"


class PromiseViolation(ValueError):
    """Diagnostic: the all-zeros probability is far from both 0 and 1."""


@dataclass
class PromiseRun:
    """One constant-vs-balanced run: verdict plus pre-measurement evidence."""

    verdict: Verdict
    zero_probability: float  # P(control register reads all zeros)
    state: StateVector  # full pre-measurement state, ancilla included


@dataclass
class LinearRun:
    """Recovered hidden string of f(x) = (a.x) xor b."""

    a: int
    b: int
    a_probability: float
    state: StateVector


def mach_zehnder(phi0: float, phi1: float) -> tuple[float, float]:
    """Detector probabilities of the two-path interferometer.

    Simulated as H, controlled phase kickback with phi = phi1 - phi0, H;
    returns (P0, P1) = ((1 + cos phi)/2, (1 - cos phi)/2).
    """
    state = fan_out(1, basis_state(1, 1))  # the ancilla, qubit 1, starts in |1>
    state.apply_controlled_single_qubit(phase_shifter(phi1 - phi0), 0, 1)
    state.apply_hadamard_layer(1)
    p = state.marginal_probabilities([0])
    return float(p[0]), float(p[1])


def _kickback_readout(
    oracle: Oracle, n: int, m: int, ancilla_bits: int
) -> tuple[StateVector, np.ndarray]:
    """H^n -> f-controlled-NOT -> H^n from |0...0>|ancilla_bits>, one oracle call.

    The m ancillae are the low bits, Hadamarded on their own and fanned out under
    the controls before the call. Returns the state and the control distribution.
    """
    if oracle.n_in != n or oracle.m_out != m:
        raise ValueError(f"expected an oracle {n} -> {m}, got {oracle.n_in} -> {oracle.m_out}")
    state = fan_out(n, basis_state(m, ancilla_bits).apply_hadamard_layer(m))
    f_controlled_not(oracle, state, range(n), range(n, n + m))
    state.apply_hadamard_layer(n)
    return state, state.marginal_probabilities(range(n))


def _promise_verdict(readout: tuple[StateVector, np.ndarray], diagnose: bool = False) -> PromiseRun:
    state, dist = readout
    zero = float(dist[0])
    if diagnose and min(zero, 1.0 - zero) > PROMISE_DIAGNOSTIC_TOL:
        raise PromiseViolation(
            f"all-zeros probability {zero:.6g} is far from both 0 and 1; "
            "the oracle does not satisfy the promise"
        )
    verdict = Verdict.CONSTANT if zero > 0.5 else Verdict.BALANCED
    return PromiseRun(verdict, zero, state)


def deutsch(oracle: Oracle) -> PromiseRun:
    """Classify a 1-bit function as constant or balanced with one call.

    The verdict is read from qubit 0 and is deterministic: the measured
    bit equals f(0) xor f(1) with pre-measurement probability 1.
    """
    return deutsch_jozsa(1, oracle)


def deutsch_jozsa(n: int, oracle: Oracle, diagnose: bool = False) -> PromiseRun:
    """Constant-vs-balanced for f: {0,1}^n -> {0,1} with one oracle call.

    Under the promise, the all-zeros probability is exactly 1 (constant) or
    0 (balanced); the verdict is unspecified otherwise. Pass diagnose=True
    to raise PromiseViolation when the probability is far from both.
    """
    return _promise_verdict(_kickback_readout(oracle, n, 1, 1), diagnose)


def parity_promise(n: int, m: int, oracle: Oracle) -> PromiseRun:
    """Constant-vs-balanced range parity for f: {0,1}^n -> {0,1}^m.

    All m ancilla qubits sit in (|0> - |1>)/sqrt 2, so each basis component
    picks up the sign (-1)^{parity of f(x)}; one oracle call decides.
    """
    if m > n:
        raise ValueError("output width m must not exceed input width n")
    return _promise_verdict(_kickback_readout(oracle, n, m, (1 << oracle.m_out) - 1))


def bernstein_vazirani(n: int, oracle: Oracle) -> LinearRun:
    """Recover a from f(x) = (a.x) xor b with a single oracle call.

    The measured control register equals a with certainty; b comes from one
    classical evaluation f(0...0) and costs no gate application. Feeding a
    non-linear f returns garbage (the network is only defined under the
    promise).
    """
    state, dist = _kickback_readout(oracle, n, 1, 1)
    a = int(np.argmax(dist))
    return LinearRun(
        a=a,
        b=oracle.evaluate(0),
        a_probability=float(dist[a]),
        state=state,
    )


@dataclass(frozen=True)
class AffineSpec:
    """f(x) = (A.x) xor b with bitwise mod-2 arithmetic; A is m x n, checked when built."""

    matrix: tuple  # m rows, each an n-tuple of 0/1
    offset: tuple  # m entries of 0/1

    def __post_init__(self):
        m, n = len(self.matrix), len(self.matrix[0]) if self.matrix else 0
        if n < 1 or any(len(row) != n for row in self.matrix) or len(self.offset) != m:
            raise ValueError("matrix must be m x n with m, n >= 1 and an m-entry offset")
        if any(v not in (0, 1) for row in (*self.matrix, self.offset) for v in row):
            raise ValueError("matrix and offset entries must be 0 or 1")

    @property
    def n(self) -> int:
        return len(self.matrix[0])


def _bits(values, n: int) -> np.ndarray:
    """The n bits of each value, most significant first, on a new last axis."""
    return (np.asarray(values)[..., None] >> (n - 1 - np.arange(n))) & 1


def affine_oracle(spec: AffineSpec) -> Oracle:
    """Truth table of f(x) = (A.x) xor b as a reversible oracle."""
    _check_capacity(spec.n)
    a = np.asarray(spec.matrix, dtype=np.int64)
    b = np.asarray(spec.offset, dtype=np.int64)
    m, n = a.shape
    ys = (_bits(np.arange(1 << n), n) @ a.T + b) % 2  # column j of the bits holds x_{j+1}
    weights = 1 << (m - 1 - np.arange(m))
    return Oracle(n, m, ys @ weights)


def linear_oracle(n: int, a: int, b: int) -> Oracle:
    """Oracle for f(x) = (a.x) xor b, a an n-bit pattern and b a bit."""
    if a < 0 or a >> n:  # no 2^n integer for a huge n
        raise ValueError(f"a = {a} is not an {n}-bit pattern")
    _check_capacity(n)  # before the n-entry row is built
    return affine_oracle(AffineSpec((tuple(_bits(a, n).tolist()),), (b,)))


def affine_recovery(n: int, m: int, oracle: Oracle) -> np.ndarray:
    """Recover the full matrix A of f(x) = (A.x) xor b in exactly m calls.

    Row i comes from one run with the unit selector c = e_i. The offset b
    is not recovered (it only ever contributes a global sign).
    """
    width = oracle.m_out  # >= 1, so the first readout checks (n, m) for any m
    rows = [_kickback_readout(oracle, n, m, 1 << i)[1].argmax() for i in reversed(range(width))]
    return _bits(np.array(rows), n).astype(np.uint8)


@dataclass(frozen=True)
class GroverOracle:
    """Single tagged value: f(x) = 1 exactly when x equals ``tagged``."""

    n: int
    tagged: int

    def __post_init__(self):
        object.__setattr__(self, "tagged", operator.index(self.tagged))  # True is 1, not a mask
        if self.n < 1:
            raise ValueError("need at least one search qubit")
        if self.tagged < 0 or self.tagged >> self.n:  # no 2^n integer for a huge n
            raise ValueError(f"tagged value {self.tagged} out of range")

    def as_oracle(self) -> Oracle:
        _check_capacity(self.n)
        table = np.zeros(1 << self.n, dtype=np.int64)
        table[self.tagged] = 1
        return Oracle(self.n, 1, table)


# Past a few multiples of the default count the success probability only
# cycles, so a longer search is a mistaken request, not useful work.
MAX_GROVER_ITERATIONS_FACTOR = 4


def default_grover_iterations(n: int) -> int:
    """Iteration count floor((pi/4) 2^{n/2}), landing at the first maximum."""
    return int(math.floor((math.pi / 4.0) * math.sqrt(1 << n)))


@dataclass
class GroverRun:
    outcome: int
    iterations: int
    success_probability: float
    oracle_calls: int
    state: StateVector


def grover_search(
    oracle: GroverOracle,
    rng: np.random.Generator,
    iterations: int | None = None,
) -> GroverRun:
    """Amplitude-amplified search for the tagged value.

    Both phase flips run through the ancilla-kickback trick: the tag flip
    XORs f into an ancilla held in (|0> - |1>)/sqrt 2, and the inversion
    about the mean conjugates an all-zeros flip by Hadamards. The returned
    success probability is the exact pre-measurement P(tagged). At most
    MAX_GROVER_ITERATIONS_FACTOR times the default count may be asked for.
    """
    n = oracle.n
    _check_capacity(n + 1)  # before any arithmetic on 2^n
    default = default_grover_iterations(n)
    t = default if iterations is None else iterations
    if t < 0:
        raise ValueError("iteration count must be >= 0")
    limit = MAX_GROVER_ITERATIONS_FACTOR * default
    if t > limit:
        raise ValueError(
            f"iteration count {t} exceeds {limit} "
            f"({MAX_GROVER_ITERATIONS_FACTOR}x the default {default} for n = {n})"
        )
    state = fan_out(n, basis_state(1, 1).apply_hadamard_layer(1))  # ancilla in H|1>
    tag = oracle.as_oracle()
    # both flips are built once per search, whatever t is: the tag flip and
    # the all-zeros flip of the diffusion step, which is not a query of f
    tag.permutation()
    zero_flip = controlled_map(n, 1, lambda x, y: y ^ (x == 0))

    for _ in range(t):
        f_controlled_not(tag, state, range(n), [n])
        state.apply_hadamard_layer(n)
        state.apply_permutation(zero_flip, range(n + 1))  # through the same ancilla
        state.apply_hadamard_layer(n)
    dist = state.marginal_probabilities(range(n))
    return GroverRun(
        outcome=sample_index(dist, rng),
        iterations=t,
        success_probability=float(dist[oracle.tagged]),
        oracle_calls=tag.call_count,
        state=state,
    )


def fourier_eigenstate(index: int, m: int) -> StateVector:
    """2^{-m/2} sum_y e^{-2 pi i index y / 2^m} |y> on m qubits.

    Shared eigenstate of every add-k-mod-2^m map: adding k multiplies it by
    e^{2 pi i k index / 2^m}.
    """
    _check_capacity(m)
    dim = 1 << m
    if not 0 <= index < dim:
        raise ValueError(f"eigenstate index {index} out of range for {m} bits")
    y = np.arange(dim)
    return StateVector(m, np.exp(-2j * np.pi * index * y / dim) / math.sqrt(dim))


@dataclass(frozen=True)
class PatternSpec:
    """Target interference pattern: phase phi(x) = phases[x] / 2^m.

    ``phases`` is a table of 2^n integers in [0, 2^m), one per n-bit
    control value; the spec is checked when built and read-only after.
    """

    n: int
    m: int
    phases: MapSpec

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("pattern needs n >= 1 control bits and m >= 1 phase bits")
        table = total_table(self.phases, self.n, self.m, "phase map").copy()
        table.setflags(write=False)
        object.__setattr__(self, "phases", table)


def pattern_generate(spec: PatternSpec) -> StateVector:
    """Produce 2^{-n/2} sum_x e^{2 pi i phases(x)/2^m} |x> on the controls.

    The m-qubit ancilla starts in the shared Fourier eigenstate of index 1;
    conditionally adding phases(x) to it kicks e^{2 pi i phases(x)/2^m}
    back onto |x> and leaves the ancilla unentangled, which is verified via
    its Schmidt tail across the cut before the ancilla is stripped off.
    """
    n, m = spec.n, spec.m
    state = fan_out(n, fourier_eigenstate(1, m))
    add = controlled_map(n, m, lambda x, y: (y + spec.phases[x]) % (1 << m))
    state.apply_permutation(add, range(n + m))
    residual = cross_minor_entanglement(state, range(n))
    if residual > STATE_ATOL:
        raise RuntimeError(f"ancilla failed to factor out (Schmidt tail {residual:.3e})")
    # ancilla amplitude at y = 0 is 2^{-m/2}; divide it out to get the controls
    control = state.amplitudes.reshape(1 << n, 1 << m)[:, 0] * math.sqrt(1 << m)
    return StateVector(n, control)
