"""Test-only references and tolerances shared by the suite.

Each helper is independent of the code it checks: random states drawn
directly, a closed form, a plain modular-arithmetic table, a brute-force
scan, the whole-array expression form of the gate update or of the
marginal, the marginal as correctly rounded ``math.fsum`` sums, a basis
state or an estimation kernel prepared with X gates, a readout transformed
over the whole register, a controlled multiply as one joint-register
table, the point-by-point bound sweeps, or the closed-form readout as a
complex ratio. Two share code on purpose: the point-by-point
readout evaluates the runtime's own sinc expression on a whole row, so that
the blocked and two-cell sweeps can be held to its bytes (the complex ratio
checks its values), and ``affine_row`` is a test-only probe that reads a
single product row through the runtime's own kickback readout.

Empirical sampling checks use total-variation distance 0.01 at 1e5 shots,
drawn in one ``sample_indices`` call whose first 100 draws are checked
against 100 one-draw calls (``per_call_prefix``).
"""

import copy
import hashlib
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from kickback.algorithms import AffineSpec, _kickback_readout
from kickback.analysis import SUCCESS_BOUND, default_phase_grid, offset_phase_grid
from kickback.gates import Gate2x2, Oracle, controlled_map, hadamard
from kickback.order_finding import ModMultEigenOracle, OrderProblem
from kickback.phase_estimation import (
    EigenOracle,
    EstimationAnalysis,
    analytic_distribution,
    kernel_state,
    tail_bound,
    wrap_half,
)
from kickback.qft import inverse_qft
from kickback.statevec import StateVector, _check_capacity

SAMPLING_TV_TOL = 0.01
SAMPLING_SHOTS = 100_000

ROOT = Path(__file__).resolve().parent.parent

# numpy's dispatch targets above x86-64-v2 (AVX2/FMA and AVX-512), switched off for one process
X86_V2_CAP = "AVX512_SPR AVX512_ICL X86_V4 X86_V3"
X86_64 = platform.machine().lower() in ("x86_64", "amd64")
# the first lines of every capped process: they fail unless every dispatch target is off
CAP_CHECK = """
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
assert not any(__cpu_features__[name] for name in __cpu_dispatch__), "dispatch not capped"
"""


def random_state(num_qubits: int, rng: np.random.Generator) -> StateVector:
    """A normalized state with iid complex-Gaussian amplitudes."""
    z = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return StateVector(num_qubits, z / np.linalg.norm(z))


def peak_traced_bytes(call: Callable[[], object]) -> int:
    """The peak of memory traced by ``tracemalloc`` (numpy buffers included) during ``call``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def per_call_prefix(
    draw: Callable[[np.random.Generator], int], rng: np.random.Generator
) -> list[int]:
    """The first 100 draws of ``draw`` called once per draw, on a copy of
    ``rng`` in its current state; ``rng`` itself is not advanced.

    Every draw consumes one uniform, so these equal the first 100 indices
    that one ``sample_indices`` call on ``rng`` draws from the same
    distribution."""
    rng = copy.deepcopy(rng)
    return [draw(rng) for _ in range(100)]


def record_calls(monkeypatch, owner, name: str) -> list[tuple]:
    """The live list of the positional arguments of every later call of
    ``owner.name``, ``self`` first for a method; the test's ``monkeypatch``
    undoes the wrap."""
    calls, original = [], getattr(owner, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, recording)
    return calls


def coprime_bases(modulus: int) -> list[int]:
    """Every base a in [1, modulus) with gcd(a, modulus) = 1, ascending."""
    return [a for a in range(1, modulus) if math.gcd(a, modulus) == 1]


class RecordingTable:
    """A table of ``size`` zeros that counts each time numpy reads it."""

    def __init__(self, size: int):
        self.size, self.reads = size, 0

    def __array__(self, dtype=None, copy=None):
        self.reads += 1
        return np.zeros(self.size, dtype=np.int64)


def affine_spec(matrix, offset) -> AffineSpec:
    """The ``AffineSpec`` of a 0/1 matrix and offset given as arrays or lists."""
    rows = tuple(map(tuple, np.asarray(matrix).tolist()))
    return AffineSpec(rows, tuple(np.asarray(offset).tolist()))


def affine_row(oracle: Oracle, c: int) -> int:
    """One network run returning the mod-2 product c.A as an n-bit integer.

    The ancilla register is set to |c> and Hadamarded, which prepares
    the product of (|0> + (-1)^{c_i}|1>) states the run needs.
    """
    if not 0 <= c < (1 << oracle.m_out):
        raise ValueError(f"row selector {c} out of range")
    _, dist = _kickback_readout(oracle, oracle.n_in, oracle.m_out, c)
    return int(np.argmax(dist))


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
    matrix entry applied, diagonal or not, in the dtype of ``amplitudes``:
    complex for a state, float for its real or imaginary part under a real
    matrix. The kernel's paths must match the complex form as numbers; the
    butterfly matches the float form on each part bit for bit.
    """
    n = int(amplitudes.size).bit_length() - 1
    m = np.asarray(matrix, dtype=amplitudes.dtype)
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


def pauli_x() -> Gate2x2:
    """Bit flip. No network of the package uses it: each starts from a basis state."""
    return Gate2x2([[0, 1], [1, 0]])


def x_prepared_basis_state(num_qubits: int, index: int = 0) -> StateVector:
    """|index> built from |0...0> with an X gate on each qubit that reads 1, in qubit order."""
    state = StateVector(num_qubits)
    x = pauli_x()
    for q in range(num_qubits):
        if (index >> (num_qubits - 1 - q)) & 1:
            state.apply_single_qubit(x, q)
    return state


def hadamard_prepared_start(controls: int, target: StateVector) -> StateVector:
    """``target`` written under ``controls`` qubits that read 0, then H on each
    control in qubit order, one gate at a time: the reference for ``fan_out``."""
    amplitudes = np.zeros(1 << (controls + target.num_qubits), dtype=complex)
    amplitudes[: target.dim] = target.amplitudes
    state = StateVector(controls + target.num_qubits, amplitudes)
    h = hadamard()
    for q in range(controls):
        state.apply_single_qubit(h, q)
    return state


def x_prepared_kernel_state(m: int, oracle: EigenOracle) -> StateVector:
    """The estimation kernel with its target |1> prepared by an X gate.

    |0...0> on the m controls and the oracle's target width, X on the last
    qubit, then the m Hadamards and the controlled powers: a bit-for-bit
    reference for ``kernel_state``, which writes ``eigenstate()`` as
    amplitudes instead.
    """
    width = oracle.eigenstate().num_qubits
    state = x_prepared_basis_state(m + width, 1)
    h = hadamard()
    for q in range(m):
        state.apply_single_qubit(h, q)
    target_span = list(range(m, m + width))
    for j in range(m):
        oracle.apply_controlled_power(state, j, m - 1 - j, target_span)
    return state


def full_register_distribution(m: int, oracle: EigenOracle) -> np.ndarray:
    """The control readout with the inverse transform run over the whole
    register, every target value included: the bit-for-bit reference for
    ``control_distribution``, which transforms only the values reached."""
    state = kernel_state(m, oracle)
    inverse_qft(state, range(m))
    return state.marginal_probabilities(range(m))


def joint_table_modmult(
    multiplier: int, modulus: int, state: StateVector, control: int, target_span
) -> StateVector:
    """The controlled multiply as one permutation of the control and the
    target together, a 2^(w+1)-entry table moved by ``apply_permutation``:
    the bit-for-bit reference for ``controlled_modmult``."""
    targets = list(target_span)
    b = multiplier % modulus
    mult = controlled_map(
        1, len(targets), lambda c, y: np.where((c == 1) & (y < modulus), b * y % modulus, y)
    )
    return state.apply_permutation(mult, [control] + targets)


class JointTableOracle(ModMultEigenOracle):
    """``ModMultEigenOracle`` with each controlled power run by ``joint_table_modmult``."""

    def apply_controlled_power(self, state, j, control, target_span):
        base, modulus = self.problem.base, self.problem.modulus
        joint_table_modmult(pow(base, 1 << j, modulus), modulus, state, control, target_span)


def scattered_kernel_amplitudes(problem: OrderProblem) -> np.ndarray:
    """The order-finding kernel state in closed form, as amplitudes.

    With the target starting in |1>, each controlled power only moves
    amplitudes, so index (x << w) | (a^x mod N) holds fan_out's row value,
    1.0 multiplied by c = 2^(-1/2) m times, and every other index +0.0: the
    bit-for-bit reference for ``kernel_state`` of ``ModMultEigenOracle``.
    """
    m, w = problem.precision_bits, problem.target_bits
    value = 1.0
    for _ in range(m):
        value = (1.0 / math.sqrt(2.0)) * value
    x = np.arange(1 << m)
    powers = np.array([pow(problem.base, int(e), problem.modulus) for e in x])
    amps = np.zeros(1 << (m + w), dtype=complex)
    amps[(x << w) | powers] = value
    return amps


def controlled_table(table) -> list[int]:
    """The joint table of control bit then span value: ``table`` on control 1, fixed on 0."""
    w = len(table)
    return list(range(w)) + [w | int(t) for t in table]


def span_value(index: int, n: int, span) -> int:
    """The span's value read from a basis index bit by bit, span[0] the MSB."""
    x = 0
    for q in span:
        x = (x << 1) | ((index >> (n - 1 - q)) & 1)
    return x


def with_span_value(index: int, n: int, span, value: int) -> int:
    w = len(span)
    for pos, q in enumerate(span):
        bit = 1 << (n - 1 - q)
        index = (index | bit) if (value >> (w - 1 - pos)) & 1 else (index & ~bit)
    return index


def brute_force_permutation(amplitudes, n: int, span, table) -> np.ndarray:
    """The amplitude at span value x moved to span value table[x], index by index."""
    expected = np.empty_like(amplitudes)
    for i in range(1 << n):
        expected[with_span_value(i, n, span, int(table[span_value(i, n, span)]))] = amplitudes[i]
    return expected


def span_rows(amplitudes, n: int, span) -> np.ndarray:
    """A contiguous copy of the amplitudes with one axis per qubit, the
    span's first, read as floats: row x holds the real and imaginary part,
    in turn, of every amplitude whose span reads x."""
    span = [int(q) for q in span]
    order = span + [q for q in range(n) if q not in span]
    parts = np.ascontiguousarray(np.asarray(amplitudes).reshape([2] * n).transpose(order))
    return parts.view(np.float64).reshape(1 << len(span), -1)


def whole_register_marginal(amplitudes, n: int, span) -> np.ndarray:
    """The span's marginal as one whole-register expression: every float of
    ``span_rows`` squared, and numpy's pairwise sum along each row."""
    rows = span_rows(amplitudes, n, span)
    return (rows * rows).sum(axis=1)


def fsum_marginal(amplitudes, n: int, span) -> list[float]:
    """The span's marginal as one ``math.fsum`` per row of ``span_rows``, a
    correctly rounded sum of its re^2 and im^2 (correctly rounded products)."""
    rows = span_rows(amplitudes, n, span)
    return list(map(math.fsum, (rows * rows).tolist()))


def marginal_digests() -> list[str]:
    """The sha256 of seeded random states of 10 and 16 qubits and of their
    marginals on five spans each: a prefix, the whole register, the first
    qubit, a suffix run and four scattered qubits."""
    lines = []
    for n in (10, 16):
        state = random_state(n, np.random.default_rng(n))
        lines.append(f"{n} state {hashlib.sha256(state.amplitudes.tobytes()).hexdigest()}")
        for span in (range(n // 2), range(n), [0], range(n // 2, n), [1, 4, n // 2, n - 2]):
            marginal = state.marginal_probabilities(span)
            lines.append(f"{n} {list(span)} {hashlib.sha256(marginal.tobytes()).hexdigest()}")
    return lines


def run_at_x86_64_v2(code: str, *args: str) -> list[str]:
    """The stdout lines of ``python -c code args``, with ``src`` and ``tests``
    on the path and numpy's SIMD dispatch capped at x86-64-v2, after checking
    in that process that the cap took effect."""
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=X86_V2_CAP)
    paths = [str(ROOT / "src"), str(ROOT / "tests"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    return subprocess.run(
        [sys.executable, "-c", CAP_CHECK + code, *args], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()


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


class PsiKOracle(ModMultEigenOracle):
    """Order finding with the target started in the eigenvector psi_k."""

    def __init__(self, problem: OrderProblem, k: int, r: int):
        super().__init__(problem)
        self.psi = prepare_psi_k(problem, k, r)

    def eigenstate(self):
        return self.psi


def closed_form_order_distribution(a: int, modulus: int, m: int) -> np.ndarray:
    """The m-bit readout of order finding from |1>, without a network.

    |1> is the uniform mix of the r eigenvectors psi_k, so the readout is the
    mean over k in [0, r) of the closed-form readout of phase k/r.
    """
    r = multiplicative_order(a, modulus)
    return np.mean([analytic_distribution(k / r, m).distribution for k in range(r)], axis=0)


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


def reference_precision_for_error(n: int, epsilon: float) -> int:
    """n plus the least e with 2^e >= 1/(2 epsilon) + 1/2, found by counting e up."""
    target = 1 / (2 * Fraction(epsilon)) + Fraction(1, 2)
    extra = 0
    while (1 << extra) < target:
        extra += 1
    return n + extra


def reference_analytic_distribution(phi: float, m: int) -> EstimationAnalysis:
    """The closed-form readout of one phase, evaluated on its own whole row.

    P(t) = (sinc(2^m d) / sinc(d))^2 = sin^2(pi d 2^m) / (2^m sin(pi d))^2
    with d = wrap(phi - t/2^m): the runtime's elementwise expression, so the
    sweeps and ``analytic_distribution`` must equal it bit for bit whatever
    blocks and pieces they evaluate it in. ``np.sinc`` is 1 at 0, so an exact
    readout reads exactly 1. ``complex_ratio_readout`` checks the values
    against a form that shares no code with this one.
    """
    if not 0.0 <= phi < 1.0:
        raise ValueError("phase must lie in [0, 1)")
    if m < 1:
        raise ValueError("bit width must be >= 1")
    _check_capacity(m)
    dim = 1 << m
    delta_t = wrap_half(phi - np.arange(dim) / dim)
    probs = (np.sinc(delta_t * dim) / np.sinc(delta_t)) ** 2
    err = np.abs(delta_t)
    best = tuple(int(i) for i in np.flatnonzero(err == err.min()))
    return EstimationAnalysis(
        phi=phi,
        m=m,
        best=best,
        delta=float(delta_t[best[0]]),
        distribution=probs,
        success_prob=float(probs[list(best)].sum()),
    )


def complex_ratio_readout(delta: np.ndarray, dim: int) -> np.ndarray:
    """P(d) = |(1 - e^{2 pi i d 2^m}) / (2^m (1 - e^{2 pi i d}))|^2 of wrapped
    errors d of readouts of 2^m = ``dim`` cells, with the removable d = 0
    singularity set to its limit 1: the geometric sum of the readout's
    amplitudes in complex arithmetic, sharing no code with the runtime's
    sinc form, to check its values (not its bytes) against.
    """
    inexact = delta != 0.0
    d, probs = delta[inexact], np.ones_like(delta)
    ratio = (1.0 - np.exp(2j * np.pi * d * dim)) / (dim * (1.0 - np.exp(2j * np.pi * d)))
    probs[inexact] = np.abs(ratio) ** 2
    return probs


def sorted_tails(phases: np.ndarray, probs: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Per row and k, the total probability of a wrap error strictly above
    k/2^m, by sorting: the tail sweep's former ``_tails``, which the walk
    outward from the nearest readout must equal bit for bit. Row i holds
    the readout of ``phases[i]``; its errors d are the table's expression.
    """
    dim = probs.shape[1]
    err = np.abs(wrap_half(np.asarray(phases, dtype=float)[:, None] - np.arange(dim) / dim))
    order = np.argsort(err, axis=1)
    cum = np.cumsum(np.take_along_axis(probs, order, axis=1), axis=1)
    # cut[r, j] = how many errors of row r are <= k_j/2^m. Scaling by 2^m is
    # exact, so those are the errors e with ceil(e 2^m) <= k_j, an integer in
    # [0, 2^(m-1)]; adding 2^m r to row r's keys makes one ascending array.
    shift = dim * np.arange(len(err))[:, None]
    keys = np.ceil(np.take_along_axis(err, order, axis=1) * dim).astype(np.int64) + shift
    cut = np.searchsorted(keys.ravel(), ks + shift, side="right") - shift
    below = np.take_along_axis(cum, np.maximum(cut - 1, 0), axis=1)
    return cum[:, -1:] - np.where(cut > 0, below, 0.0)


def reference_table(phases: np.ndarray, m: int) -> np.ndarray:
    """The closed-form readout of each phase as one row of a table, each row
    from ``reference_analytic_distribution``, which shares no code with the
    runtime's ``_fill_readouts``."""
    return np.array([reference_analytic_distribution(float(phi), m).distribution for phi in phases])


def reference_sweep_success_bound(
    m_list: Iterable[int] = range(3, 11),
    phi_grid: Sequence[float] | None = None,
) -> list[dict]:
    """The success sweep's entries, one closed-form readout per grid point."""
    grid = default_phase_grid() if phi_grid is None else np.asarray(phi_grid)
    entries = []
    for m in m_list:
        for phi in grid:
            success = reference_analytic_distribution(float(phi), m).success_prob
            entries.append(
                {
                    "m": m,
                    "phi": float(phi),
                    "value": success,
                    "bound": SUCCESS_BOUND,
                    "margin": success - SUCCESS_BOUND,
                }
            )
    return entries


def reference_sweep_tail_bound(
    m_list: Iterable[int] = range(3, 11),
    phi_grid: Sequence[float] | None = None,
) -> list[dict]:
    """The tail sweep's entries, one closed-form readout and one sort per grid point."""
    grid = offset_phase_grid() if phi_grid is None else np.asarray(phi_grid)
    entries = []
    for m in m_list:
        _check_capacity(m)
        dim = 1 << m
        ks = np.arange(2, (1 << (m - 1)) + 1)
        worst_tail = np.full(ks.shape, -1.0)
        worst_phi = np.zeros(ks.shape)
        t_over = np.arange(dim) / dim
        for phi in grid:
            probs = reference_analytic_distribution(float(phi), m).distribution
            errs = np.abs(wrap_half(phi - t_over))
            order = np.argsort(errs)
            cum = np.cumsum(probs[order])
            # tail(k) = total mass with wrap error strictly above k/2^m
            cut = np.searchsorted(errs[order], ks / dim, side="right")
            tails = cum[-1] - np.where(cut > 0, cum[np.maximum(cut - 1, 0)], 0.0)
            better = tails > worst_tail
            worst_tail[better] = tails[better]
            worst_phi[better] = phi
        for k, tail, phi in zip(ks, worst_tail, worst_phi):
            bound = tail_bound(int(k))
            entries.append(
                {
                    "m": m,
                    "k": int(k),
                    "phi": float(phi),
                    "value": float(tail),
                    "bound": bound,
                    "margin": bound - float(tail),
                }
            )
    return entries
