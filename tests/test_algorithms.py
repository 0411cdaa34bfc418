import itertools
import math

import numpy as np
import pytest

from kickback.algorithms import (
    MAX_GROVER_ITERATIONS_FACTOR,
    AffineSpec,
    GroverOracle,
    PatternSpec,
    PromiseViolation,
    Verdict,
    affine_oracle,
    affine_recovery,
    affine_row,
    bernstein_vazirani,
    default_grover_iterations,
    deutsch,
    deutsch_jozsa,
    fourier_eigenstate,
    grover_search,
    linear_oracle,
    mach_zehnder,
    parity_promise,
    pattern_generate,
)
from helpers import add_constant_table, grover_rotation_probability
from kickback.analysis import cross_minor_entanglement
from kickback import algorithms
from kickback.gates import Oracle, f_controlled_not
from kickback.qft import qft
from kickback.statevec import basis_state


def balanced_tables(n):
    """All balanced truth tables on n bits (only sane for small n)."""
    size = 1 << n
    for ones in itertools.combinations(range(size), size // 2):
        table = [0] * size
        for i in ones:
            table[i] = 1
        yield table


class TestMachZehnder:
    def test_zero_phase_hits_detector_zero(self):
        p0, p1 = mach_zehnder(0.0, 0.0)
        assert abs(p0 - 1.0) < 1e-12 and abs(p1) < 1e-12

    def test_pi_phase_hits_detector_one(self):
        p0, p1 = mach_zehnder(0.0, math.pi)
        assert abs(p0) < 1e-12 and abs(p1 - 1.0) < 1e-12

    def test_quarter_turn_is_even(self):
        p0, p1 = mach_zehnder(0.0, math.pi / 2)
        assert abs(p0 - 0.5) < 1e-12 and abs(p1 - 0.5) < 1e-12

    @pytest.mark.parametrize("phi0,phi1", [(0.3, 1.1), (2.0, 0.4), (-1.0, 2.5)])
    def test_matches_cosine_law(self, phi0, phi1):
        p0, p1 = mach_zehnder(phi0, phi1)
        phi = phi1 - phi0
        assert abs(p0 - (1 + math.cos(phi)) / 2) < 1e-12
        assert abs(p0 + p1 - 1.0) < 1e-12


class TestDeutsch:
    @pytest.mark.parametrize(
        "table,expected",
        [
            ([0, 0], Verdict.CONSTANT),
            ([1, 1], Verdict.CONSTANT),
            ([0, 1], Verdict.BALANCED),
            ([1, 0], Verdict.BALANCED),
        ],
    )
    def test_all_four_functions(self, table, expected):
        oracle = Oracle(1, 1, table)
        run = deutsch(oracle)
        assert run.verdict is expected
        assert oracle.call_count == 1
        assert min(run.zero_probability, 1 - run.zero_probability) < 1e-12

    @pytest.mark.parametrize("table", [[0, 1], [1, 0]])
    def test_global_phase_is_sign_of_f0(self, table):
        run = deutsch(Oracle(1, 1, table))
        # pre-measurement state is (-1)^f(0) |1> (|0> - |1>)/sqrt2
        amp = run.state.amplitudes[0b10]
        sign = (-1) ** table[0]
        assert abs(amp - sign / math.sqrt(2)) < 1e-12

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            deutsch(Oracle(2, 1, [0, 0, 1, 1]))


class TestDeutschJozsa:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_constant_one_has_negative_zero_amplitude(self, n):
        oracle = Oracle(n, 1, [1] * (1 << n))
        run = deutsch_jozsa(n, oracle)
        assert run.verdict is Verdict.CONSTANT
        # amplitude of |0...0>(ancilla 0 component) is -1/sqrt2
        assert abs(run.state.amplitudes[0] + 1 / math.sqrt(2)) < 1e-12

    def test_first_bit_function_is_balanced(self):
        n = 3
        oracle = Oracle(n, 1, lambda x: (x >> (n - 1)) & 1)
        run = deutsch_jozsa(n, oracle)
        assert run.verdict is Verdict.BALANCED
        assert run.zero_probability < 1e-12

    def test_reduces_to_deutsch(self):
        for table in ([0, 0], [1, 1], [0, 1], [1, 0]):
            assert (
                deutsch_jozsa(1, Oracle(1, 1, table)).verdict
                is deutsch(Oracle(1, 1, table)).verdict
            )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive_balanced(self, n):
        for table in balanced_tables(n):
            oracle = Oracle(n, 1, table)
            run = deutsch_jozsa(n, oracle)
            assert run.verdict is Verdict.BALANCED
            assert run.zero_probability < 1e-10
            assert oracle.call_count == 1

    def test_diagnose_flags_promise_violation(self):
        oracle = Oracle(2, 1, [1, 0, 0, 0])  # neither constant nor balanced
        with pytest.raises(PromiseViolation):
            deutsch_jozsa(2, oracle, diagnose=True)

    def test_diagnose_accepts_promised_functions(self):
        deutsch_jozsa(2, Oracle(2, 1, [1, 1, 1, 1]), diagnose=True)
        deutsch_jozsa(2, Oracle(2, 1, [1, 0, 0, 1]), diagnose=True)


class TestParityPromise:
    def test_single_output_bit_of_input_is_balanced(self):
        # f(x) = (x_1, 0): range parity equals x_1, evenly balanced
        spec = AffineSpec.from_arrays([[1, 0, 0], [0, 0, 0]], [0, 0])
        run = parity_promise(3, 2, affine_oracle(spec))
        assert run.verdict is Verdict.BALANCED

    def test_constant_vector_function(self):
        oracle = Oracle(3, 2, [3] * 8)
        run = parity_promise(3, 2, oracle)
        assert run.verdict is Verdict.CONSTANT
        assert oracle.call_count == 1

    def test_single_bit_reduces_to_deutsch_jozsa(self):
        for table in ([0, 1, 1, 0], [1, 1, 1, 1]):
            a = parity_promise(2, 1, Oracle(2, 1, table))
            b = deutsch_jozsa(2, Oracle(2, 1, table))
            assert a.verdict is b.verdict

    def test_width_check(self):
        with pytest.raises(ValueError):
            parity_promise(2, 3, Oracle(2, 3, [0] * 4))


class TestBernsteinVazirani:
    def test_zero_string(self):
        run = bernstein_vazirani(3, linear_oracle(3, 0, 0))
        assert run.a == 0 and run.b == 0

    def test_spec_example_with_global_phase(self):
        n, a, b = 4, 0b1011, 1
        run = bernstein_vazirani(n, linear_oracle(n, a, b))
        assert run.a == a and run.b == b
        assert run.a_probability > 1 - 1e-12
        # global phase (-1)^b on |a>(|0> - |1>)/sqrt2
        amp = run.state.amplitudes[a << 1]
        assert abs(amp + 1 / math.sqrt(2)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exhaustive_small_n(self, n):
        for a in range(1 << n):
            for b in (0, 1):
                oracle = linear_oracle(n, a, b)
                run = bernstein_vazirani(n, oracle)
                assert (run.a, run.b) == (a, b)
                assert oracle.call_count == 1


class TestAffine:
    def test_zero_matrix(self):
        spec = AffineSpec.from_arrays(np.zeros((2, 3), dtype=int), [1, 0])
        recovered = affine_recovery(3, 2, affine_oracle(spec))
        assert not recovered.any()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_identity_matrix(self, n):
        spec = AffineSpec.from_arrays(np.eye(n, dtype=int), np.zeros(n, dtype=int))
        oracle = affine_oracle(spec)
        recovered = affine_recovery(n, n, oracle)
        assert np.array_equal(recovered, np.eye(n, dtype=np.uint8))
        assert oracle.call_count == n

    def test_single_run_returns_row_product(self):
        rng = np.random.default_rng(17)
        matrix = rng.integers(0, 2, size=(3, 4))
        spec = AffineSpec.from_arrays(matrix, rng.integers(0, 2, size=3))
        oracle = affine_oracle(spec)
        for c in range(8):
            got = affine_row(oracle, c)
            cbits = np.array([(c >> (2 - i)) & 1 for i in range(3)])
            expected_bits = cbits @ matrix % 2
            expected = int("".join(map(str, expected_bits)), 2)
            assert got == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_random_recovery(self, seed):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        matrix = rng.integers(0, 2, size=(m, n))
        spec = AffineSpec.from_arrays(matrix, rng.integers(0, 2, size=m))
        oracle = affine_oracle(spec)
        recovered = affine_recovery(n, m, oracle)
        assert np.array_equal(recovered, matrix.astype(np.uint8))
        assert oracle.call_count == m


class TestGrover:
    def test_zero_iterations_is_uniform(self):
        run = grover_search(GroverOracle(4, 9), np.random.default_rng(0), iterations=0)
        assert abs(run.success_probability - 1 / 16) < 1e-12

    def test_two_qubits_one_iteration_is_certain(self):
        run = grover_search(GroverOracle(2, 3), np.random.default_rng(0), iterations=1)
        assert abs(run.success_probability - 1.0) < 1e-10
        assert run.outcome == 3

    def test_three_qubits_two_iterations(self):
        run = grover_search(GroverOracle(3, 5), np.random.default_rng(0), iterations=2)
        assert abs(run.success_probability - 0.9453125) < 1e-3
        assert abs(run.success_probability - grover_rotation_probability(3, 2)) < 1e-10

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_rotation_model(self, n):
        rng = np.random.default_rng(n)
        for t in (0, 1, default_grover_iterations(n)):
            run = grover_search(GroverOracle(n, (1 << n) - 1), rng, iterations=t)
            assert abs(run.success_probability - grover_rotation_probability(n, t)) < 1e-10

    def test_monotone_up_to_first_maximum(self):
        n = 4
        rng = np.random.default_rng(1)
        probs = [
            grover_search(GroverOracle(n, 6), rng, iterations=t).success_probability
            for t in range(default_grover_iterations(n) + 1)
        ]
        assert all(b > a for a, b in zip(probs, probs[1:]))

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_iteration_cap(self, n):
        limit = MAX_GROVER_ITERATIONS_FACTOR * default_grover_iterations(n)
        run = grover_search(GroverOracle(n, 0), np.random.default_rng(0), iterations=limit)
        assert run.oracle_calls == limit
        with pytest.raises(ValueError, match=f"exceeds {limit}"):
            grover_search(GroverOracle(n, 0), np.random.default_rng(0), iterations=limit + 1)

    def test_oracle_call_count_equals_iterations(self):
        run = grover_search(GroverOracle(3, 1), np.random.default_rng(2), iterations=5)
        assert run.oracle_calls == 5

    def test_only_the_tag_goes_through_f_controlled_not(self, monkeypatch):
        """The diffusion flip is no query, so it builds no Oracle of its own."""
        oracles = []

        def counting(oracle, *args):
            oracles.append(oracle)
            return f_controlled_not(oracle, *args)

        monkeypatch.setattr(algorithms, "f_controlled_not", counting)
        run = grover_search(GroverOracle(4, 9), np.random.default_rng(0), iterations=3)
        assert len(oracles) == run.oracle_calls == 3
        assert len({id(o) for o in oracles}) == 1

    def test_default_exceeds_half(self):
        for n in range(2, 9):
            run = grover_search(GroverOracle(n, 0), np.random.default_rng(n))
            assert run.success_probability > 0.5


class TestFourierEigenstate:
    def test_zero_index_is_uniform_and_shift_invariant(self):
        s = fourier_eigenstate(0, 3)
        assert np.abs(s.amplitudes - 1 / math.sqrt(8)).max() < 1e-12
        before = s.amplitudes.copy()
        s.apply_permutation(add_constant_table(3, 3), range(3))
        assert np.abs(s.amplitudes - before).max() < 1e-12

    def test_minus_state_flips_under_increment(self):
        s = fourier_eigenstate(1, 1)
        assert np.abs(s.amplitudes - np.array([1, -1]) / math.sqrt(2)).max() < 1e-12
        s.apply_permutation(add_constant_table(1, 1), [0])
        assert np.abs(s.amplitudes + np.array([1, -1]) / math.sqrt(2)).max() < 1e-12

    def test_add_k_kicks_exact_phase(self):
        l, m, k = 2, 3, 3
        s = fourier_eigenstate(l, m)
        before = s.amplitudes.copy()
        s.apply_permutation(add_constant_table(k, m), range(m))
        phase = np.exp(2j * np.pi * k * l / 2**m)
        assert np.abs(s.amplitudes - phase * before).max() < 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            fourier_eigenstate(8, 3)


class TestPatternGenerate:
    def test_zero_phases_give_uniform(self):
        s = pattern_generate(PatternSpec(3, 2, [0] * 8))
        assert np.abs(s.amplitudes - 1 / math.sqrt(8)).max() < 1e-10

    def test_single_bit_minus_state(self):
        s = pattern_generate(PatternSpec(1, 1, [0, 1]))
        assert np.abs(s.amplitudes - np.array([1, -1]) / math.sqrt(2)).max() < 1e-10

    def test_identity_map_matches_fourier_transform(self):
        s = pattern_generate(PatternSpec(2, 2, [0, 1, 2, 3]))
        f = qft(basis_state(2, 1), range(2))
        assert np.abs(s.amplitudes - f.amplitudes).max() < 1e-10

    @pytest.mark.parametrize("seed", range(6))
    def test_random_specs(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        phases = rng.integers(0, 1 << m, size=1 << n)
        s = pattern_generate(PatternSpec(n, m, phases))
        expected = np.exp(2j * np.pi * phases / (1 << m)) / math.sqrt(1 << n)
        assert np.abs(s.amplitudes - expected).max() < 1e-10

    def test_phase_map_validated(self):
        with pytest.raises(ValueError):
            PatternSpec(2, 2, [0, 1, 2])  # not total
        with pytest.raises(ValueError):
            PatternSpec(2, 2, [0, 1, 2, 4])  # out of range

    def test_spec_keeps_own_read_only_copy(self):
        p = np.array([0, 1, 2, 3], dtype=np.int64)
        spec = PatternSpec(2, 2, p)
        p[0] = 3  # the caller's array stays writeable and apart
        assert spec.phases.tolist() == [0, 1, 2, 3]
        assert not spec.phases.flags.writeable

    def test_ancilla_unentangled_internally(self):
        # reproduce the pre-extraction state and check its Schmidt tail
        spec = PatternSpec(2, 3, [1, 4, 2, 7])
        state = basis_state(5)
        anc = fourier_eigenstate(1, 3)
        state.amplitudes[:8] = anc.amplitudes
        from kickback.gates import hadamard

        for q in range(2):
            state.apply_single_qubit(hadamard(), q)
        v = np.arange(32)
        table = (v >> 3 << 3) | ((v + spec.phases[v >> 3]) % 8)
        state.apply_permutation(table, range(5))
        assert cross_minor_entanglement(state, [0, 1]) < 1e-10
