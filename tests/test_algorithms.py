import dataclasses
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
from helpers import (
    RecordingTable,
    add_constant_table,
    affine_row,
    affine_spec,
    grover_rotation_probability,
    hadamard_prepared_start,
    peak_traced_bytes,
    record_calls,
    x_prepared_basis_state,
)
from kickback.analysis import cross_minor_entanglement
from kickback import algorithms
from kickback.gates import Oracle, controlled_map, f_controlled_not, hadamard
from kickback.phase_estimation import DiagonalEigenOracle, control_distribution
from kickback.qft import qft
from kickback.statevec import CapacityError, Permutation, basis_state, sample_indices


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


class TestTheAbstractsClaims:
    """Two claims of the paper's abstract, each asserted."""

    def test_mach_zehnder_is_one_bit_phase_estimation(self):
        # "...how they are related to different instances of quantum phase
        # estimation": the interferometer is the kickback network with one
        # control qubit and the eigenphase (phi1 - phi0) / 2 pi
        rng = np.random.default_rng(19)
        for phi0, phi1 in rng.uniform(-4.0, 4.0, size=(200, 2)).tolist():
            want = control_distribution(1, DiagonalEigenOracle((phi1 - phi0) / (2 * math.pi)))
            assert np.abs(np.array(mach_zehnder(phi0, phi1)) - want).max() <= 1e-12

    @pytest.mark.parametrize("n", range(1, 7))
    def test_rounded_real_pattern_within_the_bound(self, n):
        """The abstract's "...generating any prescribed interference pattern
        with an arbitrary precision": round each real phase phi(x) to m bits,
        t(x) = round(phi(x) 2^m) mod 2^m. Then |t(x)/2^m - phi(x)| <= 2^-(m+1) of a turn, so every
        term e^{2 pi i (t(x)/2^m - phi(x))} of the overlap with the prescribed
        state lies within pi/2^m of 1, and their mean has real part at least
        cos(pi/2^m): the fidelity is at least cos^2(pi/2^m), which tends to 1
        as m grows. Half the phases sit 0.9 of a step above a grid point, so
        truncating instead of rounding would put their terms 1.8 pi/2^m from 1
        and break the real-part bound."""
        rng = np.random.default_rng(1900 + n)
        for m in range(1, 13):
            phi = rng.random(1 << n)
            phi[::2] = (np.floor(phi[::2] * (1 << m)) + 0.9) / (1 << m)
            t = np.rint(phi * (1 << m)).astype(np.int64) % (1 << m)
            state = pattern_generate(PatternSpec(n, m, t))
            overlap = np.vdot(np.exp(2j * np.pi * phi) / math.sqrt(1 << n), state.amplitudes)
            assert overlap.real >= math.cos(math.pi / (1 << m)) - 1e-12
            assert abs(overlap) ** 2 >= math.cos(math.pi / (1 << m)) ** 2 - 1e-12

    @pytest.mark.parametrize("n", range(1, 9))
    def test_promise_readout_is_the_fourier_transform_over_z2n(self, n):
        """Deutsch-Jozsa and Bernstein-Vazirani read the same way: the kicked
        back signs (-1)^f(x), then H^n, the Fourier transform over (Z_2)^n. So
        the readout of y is |2^-n sum_x (-1)^(f(x) + x.y)|^2, with the
        Sylvester matrix H[x, y] = (-1)^(x.y) built here by Kronecker products.
        An ancilla starting in |0> kicks back no sign and reads y = 0 alone."""
        sylvester = np.ones((1, 1))
        for _ in range(n):
            sylvester = np.kron(sylvester, [[1.0, 1.0], [1.0, -1.0]])
        rng = np.random.default_rng(1910 + n)
        for f in rng.integers(0, 2, size=(8, 1 << n)):
            _, dist = algorithms._kickback_readout(Oracle(n, 1, f.tolist()), n, 1, 1)
            want = ((1.0 - 2.0 * f) @ sylvester / (1 << n)) ** 2
            assert np.abs(dist - want).max() <= 1e-12


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
        with pytest.raises(ValueError, match="expected an oracle 1 -> 1, got 2 -> 1"):
            deutsch(Oracle(2, 1, [0, 0, 1, 1]))


class TestDeutschJozsa:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_constant_one_has_negative_zero_amplitude(self, n):
        oracle = Oracle(n, 1, [1] * (1 << n))
        run = deutsch_jozsa(n, oracle)
        assert run.verdict is Verdict.CONSTANT
        assert oracle.call_count == 1
        # amplitude of |0...0>(ancilla 0 component) is -1/sqrt2
        assert abs(run.state.amplitudes[0] + 1 / math.sqrt(2)) < 1e-12

    def test_first_bit_function_is_balanced(self):
        n = 3
        oracle = Oracle(n, 1, [(x >> (n - 1)) & 1 for x in range(1 << n)])
        run = deutsch_jozsa(n, oracle)
        assert run.verdict is Verdict.BALANCED
        assert run.zero_probability < 1e-12
        assert oracle.call_count == 1

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
        spec = affine_spec([[1, 0, 0], [0, 0, 0]], [0, 0])
        oracle = affine_oracle(spec)
        run = parity_promise(3, 2, oracle)
        assert run.verdict is Verdict.BALANCED
        assert oracle.call_count == 1

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
        oracle = linear_oracle(3, 0, 0)
        run = bernstein_vazirani(3, oracle)
        assert run.a == 0 and run.b == 0
        assert oracle.call_count == 1

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


class TestAffineSpecChecks:
    """An affine map is checked when it is built, not when it is first used."""

    @pytest.mark.parametrize(
        "matrix, offset",
        [
            ((), ()),
            (((),), (0,)),
            (((1, 0), (1,)), (0, 0)),
            (((1, 0),), (0, 1)),
            (((1, 0),), ()),
            (((1, 2),), (0,)),
            (((1, 0),), (2,)),
            (((1, -1),), (0,)),
        ],
        ids=[
            "empty",
            "no-columns",
            "ragged",
            "long-offset",
            "short-offset",
            "entry-2",
            "offset-2",
            "entry-minus-1",
        ],
    )
    def test_malformed_spec_refused(self, matrix, offset):
        with pytest.raises(ValueError):
            AffineSpec(matrix, offset)

    @pytest.mark.parametrize("a, b", [(7, 0), (4, 1), (-1, 0), (1, 2), (1, -1)])
    def test_linear_oracle_refuses_a_or_b_out_of_range(self, a, b):
        with pytest.raises(ValueError):
            linear_oracle(2, a, b)

    def test_linear_oracle_accepts_every_pattern(self):
        for a in range(4):
            for b in (0, 1):
                assert linear_oracle(2, a, b).table.tolist() == [
                    (bin(a & x).count("1") + b) % 2 for x in range(4)
                ]

    def test_a_bool_row_selector_is_an_integer(self):
        oracle = affine_oracle(affine_spec([[1, 0, 1], [0, 1, 1]], [1, 0]))
        assert affine_row(oracle, True) == affine_row(oracle, 1) == 0b011
        assert affine_row(oracle, False) == affine_row(oracle, 0) == 0


class TestAffine:
    def test_zero_matrix(self):
        spec = affine_spec(np.zeros((2, 3), dtype=int), [1, 0])
        recovered = affine_recovery(3, 2, affine_oracle(spec))
        assert not recovered.any()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_identity_matrix(self, n):
        spec = affine_spec(np.eye(n, dtype=int), np.zeros(n, dtype=int))
        oracle = affine_oracle(spec)
        recovered = affine_recovery(n, n, oracle)
        assert np.array_equal(recovered, np.eye(n, dtype=np.uint8))
        assert oracle.call_count == n

    def test_single_run_returns_row_product(self):
        rng = np.random.default_rng(17)
        matrix = rng.integers(0, 2, size=(3, 4))
        spec = affine_spec(matrix, rng.integers(0, 2, size=3))
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
        spec = affine_spec(matrix, rng.integers(0, 2, size=m))
        oracle = affine_oracle(spec)
        recovered = affine_recovery(n, m, oracle)
        assert np.array_equal(recovered, matrix.astype(np.uint8))
        assert oracle.call_count == m


class TestTablesCheckTheCap:
    """Each 2^n table outside the state vector is refused above the cap, before it is built."""

    @pytest.fixture(autouse=True)
    def low_cap(self, monkeypatch):
        monkeypatch.setenv("KICKBACK_MAX_QUBITS", "6")

    def test_affine_oracle(self):
        with pytest.raises(CapacityError, match="7 qubits exceeds the cap of 6"):
            affine_oracle(AffineSpec(((1,) * 7,), (0,)))
        with pytest.raises(CapacityError, match="7 qubits exceeds the cap of 6"):
            linear_oracle(7, 1, 0)
        assert linear_oracle(6, 1, 0).n_in == 6

    def test_linear_oracle_row_never_built(self):
        # a 2^16-bit pattern's row and its tuple would take about 1 MiB
        def refused():
            with pytest.raises(CapacityError, match=f"{1 << 16} qubits exceeds the cap of 6"):
                linear_oracle(1 << 16, 1, 0)

        assert peak_traced_bytes(refused) < 1 << 16

    def test_grover_tag_table(self):
        with pytest.raises(CapacityError, match="7 qubits exceeds the cap of 6"):
            GroverOracle(7, 1).as_oracle()
        assert GroverOracle(6, 1).as_oracle().table.sum() == 1

    @pytest.mark.parametrize("n", [1 << 26, 10**23])
    def test_grover_wide_register(self, n):
        # no 2^n integer is built: not by the range check, not for the iteration count
        assert peak_traced_bytes(lambda: GroverOracle(n, 0)) < 1 << 20
        with pytest.raises(CapacityError, match=f"{n + 1} qubits exceeds the cap of 6"):
            grover_search(GroverOracle(n, 0), np.random.default_rng(0))

    def test_fourier_eigenstate(self):
        # without the check, numpy would first be asked for 8 TiB of indices
        with pytest.raises(CapacityError, match="40 qubits exceeds the cap of 6"):
            fourier_eigenstate(0, 40)
        assert fourier_eigenstate(0, 6).num_qubits == 6

    def test_pattern_phase_map_never_called(self):
        phases = RecordingTable(1 << 7)
        with pytest.raises(CapacityError, match="7 qubits exceeds the cap of 6"):
            PatternSpec(7, 1, phases)
        assert phases.reads == 0


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
        calls = record_calls(monkeypatch, algorithms, "f_controlled_not")
        run = grover_search(GroverOracle(4, 9), np.random.default_rng(0), iterations=3)
        assert len(calls) == run.oracle_calls == 3
        assert len({id(args[0]) for args in calls}) == 1

    @pytest.mark.parametrize("iterations", [0, 1, None], ids=["t=0", "t=1", "default"])
    def test_two_permutations_per_search(self, monkeypatch, iterations):
        """The tag flip and the diffusion flip are built once each, whatever t is."""
        built = record_calls(monkeypatch, Permutation, "__init__")
        run = grover_search(GroverOracle(5, 9), np.random.default_rng(0), iterations=iterations)
        assert len(built) == 2
        assert run.oracle_calls == run.iterations

    def test_a_bool_tag_is_an_integer(self):
        # numpy reads a bool index as a mask, which would tag all 8 values
        assert GroverOracle(3, True) == GroverOracle(3, 1)
        assert GroverOracle(3, True).as_oracle().table.tolist() == [0, 1, 0, 0, 0, 0, 0, 0]
        for tagged in (np.True_, 2.0):
            with pytest.raises(TypeError):
                GroverOracle(3, tagged)

    @pytest.mark.parametrize(
        "n,k,iterations,seed,shots",
        [
            (1, 1, None, 0, 5),
            (4, 11, None, 3, 7),
            (9, 300, None, 7, 5),
            (5, 7, 2, 1, 3),
            (3, 5, 0, 9, 6),
        ],
    )
    def test_repeated_searches_are_draws_from_one_marginal(self, n, k, iterations, seed, shots):
        """Every search reads the same marginal and spends one uniform variate on
        it, so ``shots`` searches equal ``shots`` draws from the first one's marginal."""
        rng = np.random.default_rng(seed)
        runs = [grover_search(GroverOracle(n, k), rng, iterations) for _ in range(shots)]
        marginals = [run.state.marginal_probabilities(range(n)).tobytes() for run in runs]
        assert len(set(marginals)) == 1
        first = runs[0].state.marginal_probabilities(range(n))
        draws = sample_indices(first, np.random.default_rng(seed), shots)
        assert [run.outcome for run in runs] == draws.tolist()

    def test_default_exceeds_half(self):
        for n in range(2, 9):
            run = grover_search(GroverOracle(n, 0), np.random.default_rng(n))
            assert run.success_probability > 0.5


class TestFourierEigenstate:
    def test_zero_index_is_uniform_and_shift_invariant(self):
        s = fourier_eigenstate(0, 3)
        assert np.abs(s.amplitudes - 1 / math.sqrt(8)).max() < 1e-12
        before = s.amplitudes.copy()
        s.apply_permutation(Permutation(add_constant_table(3, 3), 3), range(3))
        assert np.abs(s.amplitudes - before).max() < 1e-12

    def test_minus_state_flips_under_increment(self):
        s = fourier_eigenstate(1, 1)
        assert np.abs(s.amplitudes - np.array([1, -1]) / math.sqrt(2)).max() < 1e-12
        s.apply_permutation(Permutation(add_constant_table(1, 1), 1), [0])
        assert np.abs(s.amplitudes + np.array([1, -1]) / math.sqrt(2)).max() < 1e-12

    def test_add_k_kicks_exact_phase(self):
        l, m, k = 2, 3, 3
        s = fourier_eigenstate(l, m)
        before = s.amplitudes.copy()
        s.apply_permutation(Permutation(add_constant_table(k, m), m), range(m))
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

    @pytest.mark.parametrize("m", range(1, 9))
    def test_rounded_real_phases_reach_any_precision(self, m):
        # rounding each real phase to the nearest k/2^m moves it by at most
        # 2^-(m+1) of a turn, so every amplitude's angle is off by at most
        # pi/2^m and the overlap with the exact pattern is at least cos(pi/2^m)
        rng = np.random.default_rng(700 + m)
        bound = math.cos(math.pi / (1 << m)) ** 2
        for n in range(1, 6):
            phi = rng.random(1 << n)
            k = np.rint(phi * (1 << m)).astype(np.int64) % (1 << m)
            state = pattern_generate(PatternSpec(n, m, k))
            exact = np.exp(2j * np.pi * phi) / math.sqrt(1 << n)
            assert abs(np.vdot(exact, state.amplitudes)) ** 2 >= bound - 1e-12

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

    @pytest.mark.parametrize("field,value", [("n", 2), ("m", 3), ("phases", np.array([1, 0]))])
    def test_spec_is_read_only(self, field, value):
        spec = PatternSpec(1, 1, [0, 1])
        before = pattern_generate(spec).amplitudes.tobytes()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(spec, field, value)
        assert (spec.n, spec.m, spec.phases.tolist()) == (1, 1, [0, 1])
        assert pattern_generate(spec).amplitudes.tobytes() == before

    def test_an_entangling_map_fails_the_product_check(self, monkeypatch):
        # the joint values (x, y) = (0, 0) and (1, 0) trade places after the
        # add, so the ancilla no longer factors out of the control register
        def entangling(n, m, g):
            perm = controlled_map(n, m, g)
            table = np.arange(1 << (n + m))
            table[perm.moved] = perm.image
            swap = np.arange(1 << (n + m))
            swap[[0, 1 << m]] = [1 << m, 0]
            return Permutation(swap[table], n + m)

        monkeypatch.setattr(algorithms, "controlled_map", entangling)
        with pytest.raises(RuntimeError, match="ancilla failed to factor out"):
            pattern_generate(PatternSpec(2, 2, [0, 1, 2, 3]))

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
        state.apply_permutation(Permutation(table, 5), range(5))
        assert cross_minor_entanglement(state, [0, 1]) < 1e-10


def same_bits(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestBasisIndexStart:
    """Every network that starts from a basis index equals, bit for bit,
    the same network started from |0...0> with X gates."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_promise_networks(self, monkeypatch, n):
        rng = np.random.default_rng(n)
        for m in range(1, min(n, 4) + 1):
            oracle = Oracle(n, m, rng.integers(0, 1 << m, size=1 << n))
            for bits in range(1 << m):
                runs = []
                for start in (basis_state, x_prepared_basis_state):
                    monkeypatch.setattr(algorithms, "basis_state", start)
                    runs.append(algorithms._kickback_readout(oracle, n, m, bits))
                (state, dist), (ref_state, ref_dist) = runs
                assert same_bits(state.amplitudes, ref_state.amplitudes)
                assert same_bits(dist, ref_dist)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_grover(self, monkeypatch, n):
        oracle = GroverOracle(n, (5 * n + 1) % (1 << n))
        for t in sorted({0, 1, default_grover_iterations(n)}):
            runs = []
            for start in (basis_state, x_prepared_basis_state):
                monkeypatch.setattr(algorithms, "basis_state", start)
                runs.append(grover_search(oracle, np.random.default_rng(t), iterations=t))
            run, ref = runs
            assert same_bits(run.state.amplitudes, ref.state.amplitudes)
            assert (run.outcome, run.success_probability) == (ref.outcome, ref.success_probability)

    def test_mach_zehnder(self, monkeypatch):
        phases = np.random.default_rng(3).uniform(-7.0, 7.0, size=(200, 2)).tolist()
        phases += [(0.0, 0.0), (0.0, math.pi), (0.5, 2.25), (-3.0, 1e-9)]
        direct = [mach_zehnder(*pair) for pair in phases]
        monkeypatch.setattr(algorithms, "basis_state", x_prepared_basis_state)
        assert [mach_zehnder(*pair) for pair in phases] == direct


class TestFannedOutStart:
    """Every network whose controls start fanned out equals, bit for bit, the
    same network with one Hadamard per control."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_promise_networks_against_the_whole_hadamard_layer(self, n):
        # the gate-by-gate network, ancillae Hadamarded after the controls
        rng = np.random.default_rng(50 + n)
        h = hadamard()
        for m in range(1, min(n, 3) + 1):
            oracle = Oracle(n, m, rng.integers(0, 1 << m, size=1 << n))
            for bits in range(1 << m):
                ref = basis_state(n + m, bits)
                for q in range(n + m):
                    ref.apply_single_qubit(h, q)
                f_controlled_not(oracle, ref, range(n), range(n, n + m))
                for q in range(n):
                    ref.apply_single_qubit(h, q)
                state, dist = algorithms._kickback_readout(oracle, n, m, bits)
                assert same_bits(state.amplitudes, ref.amplitudes)
                assert same_bits(dist, ref.marginal_probabilities(range(n)))

    @pytest.mark.parametrize(
        "network",
        [
            lambda: grover_search(GroverOracle(5, 17), np.random.default_rng(0)).state.amplitudes,
            lambda: grover_search(GroverOracle(14, 9), np.random.default_rng(1), 2).state.amplitudes,
            lambda: pattern_generate(PatternSpec(3, 4, [5, 0, 15, 7, 1, 8, 3, 12])).amplitudes,
            lambda: np.array(mach_zehnder(0.3, 2.9)),
        ],
    )
    def test_networks_against_the_hadamard_loop(self, monkeypatch, network):
        got = network()
        monkeypatch.setattr(algorithms, "fan_out", hadamard_prepared_start)
        assert same_bits(got, network())
