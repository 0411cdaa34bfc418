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
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .analysis import STATE_ATOL, cross_minor_entanglement
from .gates import Oracle, apply_controlled_map, f_controlled_not, hadamard, pauli_x, phase_shifter
from .statevec import MapSpec, StateVector, basis_state, sample_index, total_table

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
    oracle_calls: int
    zero_probability: float  # P(control register reads all zeros)
    state: StateVector  # full pre-measurement state, ancilla included


@dataclass
class LinearRun:
    """Recovered hidden string of f(x) = (a.x) xor b."""

    a: int
    b: int
    oracle_calls: int
    a_probability: float
    state: StateVector


def mach_zehnder(phi0: float, phi1: float) -> tuple[float, float]:
    """Detector probabilities of the two-path interferometer.

    Simulated as H, controlled phase kickback with phi = phi1 - phi0, H;
    returns (P0, P1) = ((1 + cos phi)/2, (1 - cos phi)/2).
    """
    state = basis_state(2)
    state.apply_single_qubit(pauli_x(), 1)
    state.apply_single_qubit(hadamard(), 0)
    state.apply_controlled_single_qubit(phase_shifter(phi1 - phi0), 0, 1)
    state.apply_single_qubit(hadamard(), 0)
    p = state.marginal_probabilities([0])
    return float(p[0]), float(p[1])


def _kickback_network(oracle: Oracle, ancilla_bits: int) -> StateVector:
    """H^n -> f-controlled-NOT -> H^n with the ancilla register set to
    |ancilla_bits> and Hadamarded before the oracle (one oracle call)."""
    n, m = oracle.n_in, oracle.m_out
    state = basis_state(n + m)
    x = pauli_x()
    for i in range(m):
        if (ancilla_bits >> (m - 1 - i)) & 1:
            state.apply_single_qubit(x, n + i)
    h = hadamard()
    for q in range(n + m):
        state.apply_single_qubit(h, q)
    f_controlled_not(oracle, state, range(n), range(n, n + m))
    for q in range(n):
        state.apply_single_qubit(h, q)
    return state


def _promise_verdict(state: StateVector, n: int, diagnose: bool) -> PromiseRun:
    zero = float(state.marginal_probabilities(range(n))[0])
    if diagnose and min(zero, 1.0 - zero) > PROMISE_DIAGNOSTIC_TOL:
        raise PromiseViolation(
            f"all-zeros probability {zero:.6g} is far from both 0 and 1; "
            "the oracle does not satisfy the promise"
        )
    verdict = Verdict.CONSTANT if zero > 0.5 else Verdict.BALANCED
    return PromiseRun(verdict, 1, zero, state)


def deutsch(oracle: Oracle) -> PromiseRun:
    """Classify a 1-bit function as constant or balanced with one call.

    The verdict is read from qubit 0 and is deterministic: the measured
    bit equals f(0) xor f(1) with pre-measurement probability 1.
    """
    if (oracle.n_in, oracle.m_out) != (1, 1):
        raise ValueError("deutsch needs a 1-bit -> 1-bit oracle")
    return deutsch_jozsa(1, oracle)


def deutsch_jozsa(n: int, oracle: Oracle, diagnose: bool = False) -> PromiseRun:
    """Constant-vs-balanced for f: {0,1}^n -> {0,1} with one oracle call.

    Under the promise, the all-zeros probability is exactly 1 (constant) or
    0 (balanced); the verdict is unspecified otherwise. Pass diagnose=True
    to raise PromiseViolation when the probability is far from both.
    """
    if oracle.n_in != n or oracle.m_out != 1:
        raise ValueError(f"expected an oracle {n} -> 1, got {oracle.n_in} -> {oracle.m_out}")
    state = _kickback_network(oracle, ancilla_bits=1)
    return _promise_verdict(state, n, diagnose)


def parity_promise(n: int, m: int, oracle: Oracle, diagnose: bool = False) -> PromiseRun:
    """Constant-vs-balanced range parity for f: {0,1}^n -> {0,1}^m.

    All m ancilla qubits sit in (|0> - |1>)/sqrt 2, so each basis component
    picks up the sign (-1)^{parity of f(x)}; one oracle call decides.
    """
    if m > n:
        raise ValueError("output width m must not exceed input width n")
    if oracle.n_in != n or oracle.m_out != m:
        raise ValueError(f"expected an oracle {n} -> {m}, got {oracle.n_in} -> {oracle.m_out}")
    state = _kickback_network(oracle, ancilla_bits=(1 << m) - 1)
    return _promise_verdict(state, n, diagnose)


def bernstein_vazirani(n: int, oracle: Oracle) -> LinearRun:
    """Recover a from f(x) = (a.x) xor b with a single oracle call.

    The measured control register equals a with certainty; b comes from one
    classical evaluation f(0...0) and costs no gate application. Feeding a
    non-linear f returns garbage (the network is only defined under the
    promise).
    """
    if oracle.n_in != n or oracle.m_out != 1:
        raise ValueError(f"expected an oracle {n} -> 1, got {oracle.n_in} -> {oracle.m_out}")
    state = _kickback_network(oracle, ancilla_bits=1)
    dist = state.marginal_probabilities(range(n))
    a = int(np.argmax(dist))
    return LinearRun(
        a=a,
        b=oracle.evaluate(0),
        oracle_calls=1,
        a_probability=float(dist[a]),
        state=state,
    )


@dataclass(frozen=True)
class AffineSpec:
    """f(x) = (A.x) xor b with bitwise mod-2 arithmetic; A is m x n."""

    matrix: tuple  # m rows, each an n-tuple of 0/1
    offset: tuple  # m entries of 0/1

    @staticmethod
    def from_arrays(matrix, offset) -> AffineSpec:
        a = np.asarray(matrix, dtype=np.uint8) % 2
        b = np.asarray(offset, dtype=np.uint8) % 2
        if a.ndim != 2 or b.shape != (a.shape[0],):
            raise ValueError("matrix must be m x n with an m-entry offset")
        return AffineSpec(tuple(map(tuple, a.tolist())), tuple(b.tolist()))

    @property
    def m(self) -> int:
        return len(self.matrix)

    @property
    def n(self) -> int:
        return len(self.matrix[0])


def affine_oracle(spec: AffineSpec) -> Oracle:
    """Truth table of f(x) = (A.x) xor b as a reversible oracle."""
    a = np.asarray(spec.matrix, dtype=np.int64)
    b = np.asarray(spec.offset, dtype=np.int64)
    m, n = a.shape
    xs = np.arange(1 << n)
    bits = (xs[:, None] >> (n - 1 - np.arange(n))) & 1  # column j holds x_{j+1}
    ys = (bits @ a.T + b) % 2
    weights = 1 << (m - 1 - np.arange(m))
    return Oracle(n, m, ys @ weights)


def linear_oracle(n: int, a: int, b: int) -> Oracle:
    """Oracle for f(x) = (a.x) xor b, a given as an n-bit pattern."""
    row = [(a >> (n - 1 - j)) & 1 for j in range(n)]
    return affine_oracle(AffineSpec((tuple(row),), (b & 1,)))


def affine_row(oracle: Oracle, c: int) -> int:
    """One network run returning the mod-2 product c.A as an n-bit integer.

    The ancilla register is set to |c> and Hadamarded, which prepares
    the product of (|0> + (-1)^{c_i}|1>) states the run needs.
    """
    if not 0 <= c < (1 << oracle.m_out):
        raise ValueError(f"row selector {c} out of range")
    state = _kickback_network(oracle, ancilla_bits=c)
    dist = state.marginal_probabilities(range(oracle.n_in))
    return int(np.argmax(dist))


def affine_recovery(n: int, m: int, oracle: Oracle) -> np.ndarray:
    """Recover the full matrix A of f(x) = (A.x) xor b in exactly m calls.

    Row i comes from one run with the unit selector c = e_i. The offset b
    is not recovered (it only ever contributes a global sign).
    """
    if oracle.n_in != n or oracle.m_out != m:
        raise ValueError(f"expected an oracle {n} -> {m}, got {oracle.n_in} -> {oracle.m_out}")
    rows = [affine_row(oracle, 1 << (m - 1 - i)) for i in range(m)]
    return np.array(
        [[(row >> (n - 1 - j)) & 1 for j in range(n)] for row in rows],
        dtype=np.uint8,
    )


@dataclass(frozen=True)
class GroverOracle:
    """Single tagged value: f(x) = 1 exactly when x equals ``tagged``."""

    n: int
    tagged: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one search qubit")
        if not 0 <= self.tagged < (1 << self.n):
            raise ValueError(f"tagged value {self.tagged} out of range")

    def as_oracle(self) -> Oracle:
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
    state = basis_state(n + 1)  # checks the qubit cap before the tag table
    tag = oracle.as_oracle()

    state.apply_single_qubit(pauli_x(), n)
    h = hadamard()
    for q in range(n + 1):
        state.apply_single_qubit(h, q)
    for _ in range(t):
        f_controlled_not(tag, state, range(n), [n])
        for q in range(n):
            state.apply_single_qubit(h, q)
        # the all-zeros flip of the diffusion step, through the same ancilla;
        # it is not a query of f
        apply_controlled_map(state, range(n), [n], lambda x, y: y ^ (x == 0))
        for q in range(n):
            state.apply_single_qubit(h, q)
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
    dim = 1 << m
    if not 0 <= index < dim:
        raise ValueError(f"eigenstate index {index} out of range for {m} bits")
    y = np.arange(dim)
    return StateVector(m, np.exp(-2j * np.pi * index * y / dim) / math.sqrt(dim))


@dataclass
class PatternSpec:
    """Target interference pattern: phase phi(x) = phases[x] / 2^m.

    ``phases`` is a total map from n-bit control values to integers in
    [0, 2^m), given as a table or a callable.
    """

    n: int
    m: int
    phases: MapSpec

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("pattern needs n >= 1 control bits and m >= 1 phase bits")
        table = total_table(self.phases, self.n, self.m, "phase map").copy()
        table.setflags(write=False)
        self.phases = table


def pattern_generate(spec: PatternSpec) -> StateVector:
    """Produce 2^{-n/2} sum_x e^{2 pi i phases(x)/2^m} |x> on the controls.

    The m-qubit ancilla starts in the shared Fourier eigenstate of index 1;
    conditionally adding phases(x) to it kicks e^{2 pi i phases(x)/2^m}
    back onto |x> and leaves the ancilla unentangled, which is verified via
    its Schmidt tail across the cut before the ancilla is stripped off.
    """
    n, m = spec.n, spec.m
    state = basis_state(n + m)
    anc = fourier_eigenstate(1, m)
    state.amplitudes[: 1 << m] = anc.amplitudes  # control register is all zeros here
    h = hadamard()
    for q in range(n):
        state.apply_single_qubit(h, q)
    apply_controlled_map(
        state, range(n), range(n, n + m), lambda x, y: (y + spec.phases[x]) % (1 << m)
    )
    residual = cross_minor_entanglement(state, range(n))
    if residual > STATE_ATOL:
        raise RuntimeError(f"ancilla failed to factor out (Schmidt tail {residual:.3e})")
    # ancilla amplitude at y = 0 is 2^{-m/2}; divide it out to get the controls
    control = state.amplitudes[np.arange(1 << n) << m] * math.sqrt(1 << m)
    return StateVector(n, control)
