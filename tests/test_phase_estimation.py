import math

import numpy as np
import pytest

from helpers import (
    coprime_bases,
    full_register_distribution,
    peak_traced_bytes,
    per_call_prefix,
    random_state,
    record_calls,
    reference_precision_for_error,
    x_prepared_kernel_state,
)
from kickback import phase_estimation
from kickback.order_finding import ModMultEigenOracle, OrderProblem
from kickback.phase_estimation import (
    DiagonalEigenOracle,
    EigenOracle,
    PhaseFraction,
    analytic_distribution,
    control_distribution,
    estimate_phase,
    kernel_state,
    precision_for_error,
    round_to_bits,
    tail_bound,
    wrap_half,
)
from kickback.statevec import CapacityError, StateVector, basis_state, sample_indices

SUCCESS_BOUND = 4.0 / math.pi**2


def geometric_series_probability(phi: float, t: int, m: int) -> float:
    """Independent evaluation via the sine-ratio form of the series."""
    delta = float(wrap_half(phi - t / 2**m))
    if delta == 0.0:
        return 1.0
    return (math.sin(math.pi * delta * 2**m) / (2**m * math.sin(math.pi * delta))) ** 2


class TestKernel:
    def test_half_phase_gives_minus_state(self):
        s = kernel_state(1, DiagonalEigenOracle(0.5))
        # control (|0> - |1>)/sqrt2, target |1>
        expected = np.array([0, 1, 0, -1]) / np.sqrt(2)
        assert np.abs(s.amplitudes - expected).max() < 1e-12

    def test_eighth_phase_product_state(self):
        m, phi = 3, 1.0 / 8.0
        s = kernel_state(m, DiagonalEigenOracle(phi))
        control = np.exp(2j * np.pi * phi * np.arange(8)) / np.sqrt(8)
        expected = np.zeros(16, dtype=complex)
        expected[1::2] = control  # target qubit reads 1 everywhere
        assert np.abs(s.amplitudes - expected).max() < 1e-12

    def test_target_register_unchanged(self):
        s = kernel_state(4, DiagonalEigenOracle(0.3183))
        marg = s.marginal_probabilities([4])
        assert abs(marg[1] - 1.0) < 1e-10

    def test_controlled_power_consistency(self):
        # controlled_power(j) must equal 2^j compositions of the j=0 gate
        oracle = DiagonalEigenOracle(0.2371)
        for j in range(4):
            s1 = basis_state(2, 0b11)  # control on, target in the |1> eigenstate
            s2 = basis_state(2, 0b11)
            oracle.apply_controlled_power(s1, j, 0, [1])
            for _ in range(2**j):
                oracle.apply_controlled_power(s2, 0, 0, [1])
            assert np.abs(s1.amplitudes - s2.amplitudes).max() < 1e-10

    @pytest.mark.parametrize("phi", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_phase_refused_when_built(self, phi):
        # refused before the 21-qubit network (32 MiB) is allocated, naming the value passed
        def build_and_run():
            with pytest.raises(ValueError, match=f"^phase must be finite, got {phi}$"):
                control_distribution(20, DiagonalEigenOracle(phi))

        assert peak_traced_bytes(build_and_run) < 2**20


class FixedTargetOracle(EigenOracle):
    """A given target state under U = identity, so the kernel only places it."""

    def __init__(self, target):
        self.target = target

    def eigenstate(self):
        return self.target

    def apply_controlled_power(self, state, j, control, target_span):
        pass


class TestEigenstateStart:
    """The kernel writes ``eigenstate()`` under controls that read 0, and
    equals, bit for bit, the same kernel with its target prepared by X."""

    @pytest.mark.parametrize("m", range(1, 13))
    def test_diagonal_oracle_bitwise(self, m):
        for phi in (0.0, 1 / 3, 0.2371, 0.5, 0.99):
            oracle = DiagonalEigenOracle(phi)
            state = kernel_state(m, oracle).amplitudes
            assert state.tobytes() == x_prepared_kernel_state(m, oracle).amplitudes.tobytes()

    @pytest.mark.parametrize("modulus", range(2, 36))
    def test_modmult_oracle_bitwise_every_base(self, modulus):
        for base in coprime_bases(modulus):
            problem = OrderProblem(base, modulus)
            oracle = ModMultEigenOracle(problem)
            state = kernel_state(problem.precision_bits, oracle).amplitudes
            ref = x_prepared_kernel_state(problem.precision_bits, oracle).amplitudes
            assert state.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("m", range(1, 7))
    def test_target_placed_under_zero_controls(self, m):
        target = random_state(2, np.random.default_rng(m))
        state = kernel_state(m, FixedTargetOracle(target))
        expected = np.kron(np.full(1 << m, 2 ** (-m / 2)), target.amplitudes)
        assert state.num_qubits == m + 2
        assert np.abs(state.amplitudes - expected).max() < 1e-12


class TestAnalyticDistribution:
    def test_exact_dyadic_phase(self):
        ana = analytic_distribution(5 / 16, 4)
        assert ana.best == (5,)
        assert abs(ana.success_prob - 1.0) < 1e-12
        assert abs(ana.distribution[5] - 1.0) < 1e-12

    def test_one_third_meets_bound_and_circuit(self):
        ana = analytic_distribution(1 / 3, 3)
        assert ana.best == (3,)
        assert ana.success_prob >= SUCCESS_BOUND
        assert abs(ana.success_prob - geometric_series_probability(1 / 3, 3, 3)) < 1e-12
        circuit = control_distribution(3, DiagonalEigenOracle(1 / 3))
        assert np.abs(circuit - ana.distribution).max() < 1e-10

    @pytest.mark.parametrize("phi", [0.017, 0.31831, 0.5, 0.77, 0.999])
    def test_distribution_sums_to_one(self, phi):
        ana = analytic_distribution(phi, 6)
        assert abs(ana.distribution.sum() - 1.0) < 1e-12

    def test_tie_counts_both_neighbours(self):
        m = 4
        phi = (2 * 6 + 1) / 2 ** (m + 1)  # exactly between 6/16 and 7/16
        ana = analytic_distribution(phi, m)
        assert ana.best == (6, 7)
        assert abs(ana.distribution[6] - ana.distribution[7]) < 1e-12
        assert ana.success_prob >= SUCCESS_BOUND

    def test_wraparound_near_one(self):
        ana = analytic_distribution(0.999, 3)
        assert ana.best == (0,)  # 0.999 is closest to 8/8 = 0 mod 1

    def test_domain(self):
        with pytest.raises(ValueError):
            analytic_distribution(1.0, 3)
        with pytest.raises(ValueError):
            analytic_distribution(-0.1, 3)

    def test_width_above_cap_rejected_before_allocation(self, monkeypatch):
        monkeypatch.setenv("KICKBACK_MAX_QUBITS", "8")
        with pytest.raises(CapacityError, match="cap of 8"):
            analytic_distribution(0.25, 9)
        assert analytic_distribution(0.25, 8).best == (64,)


class TestEstimatePhase:
    def test_exact_dyadic_always_measured(self):
        oracle = DiagonalEigenOracle(5 / 16)
        for seed in range(6):
            est = estimate_phase(4, oracle, np.random.default_rng(seed))
            assert (est.numerator, est.bits) == (5, 4)

    def test_sampling_matches_closed_form(self):
        oracle = DiagonalEigenOracle(1 / 3)
        rng = np.random.default_rng(31337)
        first = per_call_prefix(lambda r: estimate_phase(3, oracle, r).numerator, rng)
        numerators = sample_indices(control_distribution(3, oracle), rng, 10_000)
        assert numerators[:100].tolist() == first
        hits = np.count_nonzero(numerators == 3)
        expected = analytic_distribution(1 / 3, 3).success_prob
        assert abs(hits / 10_000 - expected) < 0.02

    @pytest.mark.parametrize("m", range(1, 7))
    def test_circuit_distribution_equals_closed_form(self, m):
        for phi in (0.0, 1 / 3, 0.2371, 0.99):
            circuit = control_distribution(m, DiagonalEigenOracle(phi))
            ana = analytic_distribution(phi, m).distribution
            assert np.abs(circuit - ana).max() < 1e-10


class TestReadoutRegister:
    """The inverse transform runs only on the target values the kernel
    reached, and the readout equals, bit for bit, the transform over the
    whole register."""

    @pytest.mark.parametrize("m", range(1, 15))
    def test_diagonal_oracle_bitwise(self, m):
        phases = [0.0, 0.5, 1 / 3, *np.random.default_rng(m).random(2)]
        for phi in phases:
            oracle = DiagonalEigenOracle(phi)
            dist = control_distribution(m, oracle)
            assert dist.tobytes() == full_register_distribution(m, oracle).tobytes()

    def test_network_reach(self, monkeypatch):
        # what the traced benchmark requires of every readout: one kernel, one
        # width-m inverse transform with the ladder's gate counts, one marginal
        m = 7
        want = {
            "apply_single_qubit": m,
            "apply_controlled_single_qubit": m * (m - 1) // 2,
            "apply_permutation": m // 2,
        }
        gates = {name: record_calls(monkeypatch, StateVector, name) for name in want}
        marginals = record_calls(monkeypatch, StateVector, "marginal_probabilities")
        kernels = record_calls(monkeypatch, phase_estimation, "kernel_state")
        transforms = record_calls(monkeypatch, phase_estimation, "inverse_qft")
        control_distribution(m, DiagonalEigenOracle(0.3))
        assert len(kernels) == 1
        [(state, _)] = marginals
        [(register, span)] = transforms
        # the one reached column is transformed in a register of its own, so the
        # transform's gates are those on that register and every other gate is
        # the kernel's, on the state the marginal reads
        assert len(span) == m and register is not state
        applied_to = {name: [args[0] for args in calls] for name, calls in gates.items()}
        assert {name: states.count(register) for name, states in applied_to.items()} == want
        assert all(s is register or s is state for states in applied_to.values() for s in states)

    def test_peak_memory(self):
        # 17 qubits (2 MiB); a transform over the whole register peaked at 3.51 MiB
        oracle = DiagonalEigenOracle(0.3)
        assert peak_traced_bytes(lambda: control_distribution(16, oracle)) <= 1.02 * 3.51 * 2**20


class TestPrecision:
    def test_half_failure_budget(self):
        assert precision_for_error(4, 0.5) == 5

    def test_five_percent(self):
        assert precision_for_error(4, 0.05) == 8

    def test_agrees_with_counting_up(self):
        # epsilon = 1/(2^k - 1) puts 1/(2 epsilon) + 1/2 at a power of two: each such
        # boundary and the extremes with their float neighbours, then random values
        boundaries = [1 / ((1 << k) - 1) for k in range(2, 40)]
        special = np.array(boundaries + [1e-300, 5e-324, np.nextafter(1.0, 0.0)])
        special = np.concatenate([special, np.nextafter(special, 0.0), np.nextafter(special, 1.0)])
        eps = np.concatenate([special, np.random.default_rng(0).random(20_000)])
        for e in eps[(eps > 0.0) & (eps < 1.0)].tolist():
            assert precision_for_error(4, e) == reference_precision_for_error(4, e), e

    def test_domain(self):
        with pytest.raises(ValueError):
            precision_for_error(4, 0.0)
        with pytest.raises(ValueError):
            precision_for_error(4, 1.0)

    def test_tail_bound_vacuous_at_one(self):
        assert tail_bound(1) == 1.0
        assert tail_bound(4) == pytest.approx(1 / 7)

    def test_tail_bound_elementwise(self):
        ks = np.arange(1, 1025)
        got = tail_bound(ks)
        assert got.tolist() == [tail_bound(k) for k in ks.tolist()]
        assert type(tail_bound(3)) is float
        for bad in (0, -1, np.array([2, 0, 3])):
            with pytest.raises(ValueError, match="k must be >= 1"):
                tail_bound(bad)


class TestRoundToBits:
    def test_plain_case(self):
        assert round_to_bits(PhaseFraction(5, 4), 2) == PhaseFraction(1, 2)

    def test_wrap_case(self):
        assert round_to_bits(PhaseFraction(15, 4), 2) == PhaseFraction(0, 2)

    def test_exact_dyadic_survives(self):
        assert round_to_bits(PhaseFraction(4, 4), 2) == PhaseFraction(1, 2)

    def test_same_width_is_identity(self):
        est = PhaseFraction(9, 4)
        assert round_to_bits(est, 4) is est

    def test_widening_rejected(self):
        with pytest.raises(ValueError):
            round_to_bits(PhaseFraction(1, 2), 3)

    @pytest.mark.parametrize("m", range(2, 7))
    def test_result_is_a_nearest_dyadic(self, m):
        for n in range(1, m):
            for a in range(1 << m):
                rounded = round_to_bits(PhaseFraction(a, m), n)
                err = abs(float(wrap_half(rounded.value - a / 2**m)))
                grid = np.arange(1 << n) / 2**n
                best = np.abs(wrap_half(grid - a / 2**m)).min()
                assert err <= best + 1e-15


class TestSuccessBoundSweep:
    @pytest.mark.parametrize("m", [3, 5, 8])
    def test_bound_holds_on_a_grid(self, m):
        for phi in np.linspace(0, 1, 101, endpoint=False):
            ana = analytic_distribution(float(phi), m)
            assert ana.success_prob >= SUCCESS_BOUND - 1e-12

    def test_near_boundary_phase(self):
        m = 6
        for eps in (1e-9, 1e-6, 1e-3):
            phi = (2 * 20 + 1) / 2 ** (m + 1) + eps
            ana = analytic_distribution(phi, m)
            assert ana.success_prob >= SUCCESS_BOUND - 1e-12
