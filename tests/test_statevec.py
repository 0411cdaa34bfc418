import numpy as np
import pytest

from helpers import (
    SAMPLING_SHOTS,
    SAMPLING_TV_TOL,
    brute_force_permutation,
    expression_form_2x2,
    random_state,
    span_value,
    tv_distance,
)
from kickback.statevec import (
    CapacityError,
    MAX_QUBITS_ENV,
    StateVector,
    basis_state,
    total_table,
)
from kickback.gates import ModMultSpec, controlled_modmult, hadamard, pauli_x, phase_shifter, r_k
from kickback.qft import dft_reference

INV_SQRT2 = 1.0 / np.sqrt(2.0)


class TestBasisState:
    def test_two_qubit_zero(self):
        assert np.array_equal(basis_state(2, 0).amplitudes, [1, 0, 0, 0])

    def test_digit_convention_qubit0_is_msb(self):
        # |10> means qubit 0 set, which is index 2
        assert np.array_equal(basis_state(2, 2).amplitudes, [0, 0, 1, 0])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            basis_state(3, 8)

    def test_needs_at_least_one_qubit(self):
        with pytest.raises(ValueError):
            basis_state(0, 0)


class TestCapacity:
    def test_default_cap_rejects_25_qubits(self):
        with pytest.raises(CapacityError):
            StateVector(25)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(MAX_QUBITS_ENV, "4")
        with pytest.raises(CapacityError):
            basis_state(5)
        basis_state(4)  # still fine at the cap


class TestSingleQubit:
    def test_hadamard_on_zero(self):
        s = basis_state(1).apply_single_qubit(hadamard(), 0)
        assert np.abs(s.amplitudes - [INV_SQRT2, INV_SQRT2]).max() < 1e-12

    def test_identity_leaves_state(self):
        rng = np.random.default_rng(5)
        s = random_state(4, rng)
        before = s.amplitudes.copy()
        s.apply_single_qubit(np.eye(2), 2)
        assert np.abs(s.amplitudes - before).max() < 1e-12

    def test_hadamard_involution(self):
        s = basis_state(1, 1)
        s.apply_single_qubit(hadamard(), 0).apply_single_qubit(hadamard(), 0)
        assert np.abs(s.amplitudes - [0, 1]).max() < 1e-12

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            basis_state(1).apply_single_qubit(np.array([[1, 0], [0, 2.0]]), 0)

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            basis_state(2).apply_single_qubit(hadamard(), 2)


class TestControlled:
    def test_control_zero_is_identity(self):
        s = basis_state(2, 1)  # |01>: control qubit 0 is clear
        s.apply_controlled_single_qubit(pauli_x(), 0, 1)
        assert np.array_equal(np.abs(s.amplitudes), [0, 1, 0, 0])

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_controlled_rk_on_11(self, k):
        s = basis_state(2, 3)
        s.apply_controlled_single_qubit(r_k(k), 0, 1)
        expected = np.exp(2j * np.pi / 2**k)
        assert abs(s.amplitudes[3] - expected) < 1e-12

    @pytest.mark.parametrize("phi", [0.0, 0.3, np.pi / 2, np.pi, 2.5])
    def test_kickback_interference_probability(self, phi):
        # H, controlled-phase, H with the target in the phase eigenstate |1>
        s = basis_state(2, 1)
        s.apply_single_qubit(hadamard(), 0)
        s.apply_controlled_single_qubit(phase_shifter(phi), 0, 1)
        s.apply_single_qubit(hadamard(), 0)
        p0 = s.marginal_probabilities([0])[0]
        assert abs(p0 - (1 + np.cos(phi)) / 2) < 1e-12

    def test_control_equals_target(self):
        with pytest.raises(ValueError):
            basis_state(2).apply_controlled_single_qubit(pauli_x(), 1, 1)


class TestPermutation:
    def test_caller_table_is_read_not_copied(self):
        t = np.array([1, 0, 3, 2], dtype=np.int64)
        assert total_table(t, 2, 2, "table") is t
        basis_state(2).apply_permutation(t, [0, 1])
        assert t.flags.writeable

    def test_identity(self):
        rng = np.random.default_rng(0)
        s = random_state(3, rng)
        before = s.amplitudes.copy()
        s.apply_permutation(np.arange(8), range(3))
        assert np.array_equal(s.amplitudes, before)

    def test_relabels_basis_state(self):
        perm = [0, 1, 3, 2]  # swap labels 2 and 3
        s = basis_state(2, 2).apply_permutation(perm, range(2))
        assert np.array_equal(np.abs(s.amplitudes), [0, 0, 0, 1])

    def test_repeated_image_rejected(self):
        with pytest.raises(ValueError):
            basis_state(2).apply_permutation([0, 1, 1, 3], range(2))

    def test_composition_is_exact(self):
        rng = np.random.default_rng(1)
        p1 = rng.permutation(8)
        p2 = rng.permutation(8)
        s1 = random_state(3, rng)
        s2 = s1.copy()
        s1.apply_permutation(p1, range(3)).apply_permutation(p2, range(3))
        s2.apply_permutation(p2[p1], range(3))
        assert np.array_equal(s1.amplitudes, s2.amplitudes)

    def test_non_contiguous_span(self):
        # swap qubits 0 and 2 via the [q0, q2] span with table for value swap
        s = basis_state(3, 0b100).apply_permutation([0, 2, 1, 3], [0, 2])
        assert np.array_equal(np.abs(s.amplitudes), np.abs(basis_state(3, 0b001).amplitudes))

    def test_norm_exactly_preserved(self):
        rng = np.random.default_rng(2)
        s = random_state(5, rng)
        norm_before = np.abs(s.amplitudes) ** 2
        s.apply_permutation(rng.permutation(4), [1, 3])
        assert np.sort(np.abs(s.amplitudes) ** 2).sum() == np.sort(norm_before).sum()

    def test_callable_perm(self):
        s = basis_state(2, 1).apply_permutation(lambda x: x ^ 3, range(2))
        assert np.array_equal(np.abs(s.amplitudes), [0, 0, 1, 0])


class TestProbabilities:
    def test_basis(self):
        assert np.array_equal(basis_state(2, 3).probabilities(), [0, 0, 0, 1])

    def test_uniform(self):
        s = basis_state(2)
        for q in range(2):
            s.apply_single_qubit(hadamard(), q)
        assert np.abs(s.probabilities() - 0.25).max() < 1e-12

    def test_minus_state(self):
        s = basis_state(1, 1).apply_single_qubit(hadamard(), 0)
        assert np.abs(s.probabilities() - 0.5).max() < 1e-12

    def test_marginal_of_bell_state(self):
        s = basis_state(2)
        s.apply_single_qubit(hadamard(), 0)
        s.apply_permutation([0, 1, 3, 2], range(2))  # CNOT as a permutation
        assert np.abs(s.marginal_probabilities([0]) - 0.5).max() < 1e-12


class TestMeasure:
    def test_basis_state_is_deterministic(self):
        s = basis_state(3, 5)
        for seed in range(5):
            assert s.measure_all(np.random.default_rng(seed)) == 5

    def test_same_seed_same_sequence(self):
        s = basis_state(2).apply_single_qubit(hadamard(), 0)
        seq1 = [s.measure_all(np.random.default_rng(99)) for _ in range(10)]
        rng = np.random.default_rng(99)
        seq2 = [s.measure_all(rng) for _ in range(1)] + [
            s.measure_all(rng) for _ in range(9)
        ]
        assert seq1[0] == seq2[0]  # same first draw from a fresh generator

    def test_law_of_large_numbers(self):
        s = basis_state(1).apply_single_qubit(hadamard(), 0)
        rng = np.random.default_rng(12345)
        zeros = sum(s.measure_all(rng) == 0 for _ in range(SAMPLING_SHOTS))
        assert abs(zeros / SAMPLING_SHOTS - 0.5) < 0.01

    @pytest.mark.parametrize("n", [2, 4])
    def test_empirical_distribution_matches_probabilities(self, n):
        rng = np.random.default_rng(100 + n)
        s = random_state(n, rng)
        counts = np.zeros(s.dim)
        for _ in range(SAMPLING_SHOTS):
            counts[s.measure_all(rng)] += 1
        assert tv_distance(counts / SAMPLING_SHOTS, s.probabilities()) < SAMPLING_TV_TOL

    def test_unnormalized_rejected(self):
        s = basis_state(1)
        s.amplitudes *= 2.0
        with pytest.raises(ValueError):
            s.measure_all(np.random.default_rng(0))

    def test_collapse(self):
        s = basis_state(2).apply_single_qubit(hadamard(), 0)
        rng = np.random.default_rng(3)
        out = s.measure_all(rng, collapse=True)
        assert s.amplitudes[out] == 1.0
        assert np.abs(s.amplitudes).sum() == 1.0


class TestInvariants:
    @pytest.mark.parametrize("n", [1, 4, 10, 16])
    def test_norm_preserved_by_gates(self, n):
        rng = np.random.default_rng(n)
        s = random_state(n, rng)
        s.apply_single_qubit(hadamard(), rng.integers(n))
        s.apply_single_qubit(phase_shifter(1.234), rng.integers(n))
        if n > 1:
            q = int(rng.integers(n - 1))
            s.apply_controlled_single_qubit(r_k(3), q, q + 1)
        assert abs(np.linalg.norm(s.amplitudes) ** 2 - 1.0) < 1e-10
        assert np.all(np.isfinite(s.amplitudes.real))

    def test_gate_linearity(self):
        rng = np.random.default_rng(7)
        s1 = random_state(3, rng)
        # orthonormalize a second state against the first
        z = rng.normal(size=8) + 1j * rng.normal(size=8)
        z -= np.vdot(s1.amplitudes, z) * s1.amplitudes
        s2 = StateVector(3, z / np.linalg.norm(z))
        alpha, beta = 0.6, 0.8j
        combo = StateVector(3, alpha * s1.amplitudes + beta * s2.amplitudes)
        for s in (s1, s2, combo):
            s.apply_single_qubit(hadamard(), 1)
        target = alpha * s1.amplitudes + beta * s2.amplitudes
        assert np.abs(combo.amplitudes - target).max() < 1e-10

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(8)
        s = random_state(6, rng)
        assert abs(s.probabilities().sum() - 1.0) < 1e-10


def random_unitary(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def kron_all(factors) -> np.ndarray:
    out = np.eye(1)
    for f in factors:
        out = np.kron(out, f)
    return out


def diagonal_gates(rng) -> list:
    """r_k, its dagger, a phase shifter, Z, and diag(e^{i alpha}, e^{i beta})."""
    k = int(rng.integers(2, 8))
    alpha, beta = rng.uniform(0.1, 6.0, size=2)
    return [
        r_k(k).matrix,
        r_k(k).dagger().matrix,
        phase_shifter(float(rng.uniform(-7.0, 7.0))).matrix,
        np.diag([1.0, -1.0]),
        np.diag([np.exp(1j * alpha), np.exp(1j * beta)]),
    ]


def every_gate_kind(rng) -> list:
    """The diagonal gates plus H, X and a random dense unitary."""
    return diagonal_gates(rng) + [hadamard().matrix, pauli_x().matrix, random_unitary(rng)]


P0 = np.diag([1.0, 0.0])
P1 = np.diag([0.0, 1.0])
I2 = np.eye(2)


class TestDenseReference:
    """Gates against dense np.kron matrices; qubit 0 is the leftmost factor."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_single_qubit(self, n):
        rng = np.random.default_rng(200 + n)
        for target in range(n):
            u = random_unitary(rng)
            s = random_state(n, rng)
            dense = kron_all(u if q == target else I2 for q in range(n))
            expected = dense @ s.amplitudes
            s.apply_single_qubit(u, target)
            assert np.abs(s.amplitudes - expected).max() < 1e-12

    @pytest.mark.parametrize("n", range(2, 6))
    def test_controlled_every_ordered_pair(self, n):
        rng = np.random.default_rng(300 + n)
        for control in range(n):
            for target in range(n):
                if control == target:
                    continue
                u = random_unitary(rng)
                s = random_state(n, rng)
                off = kron_all(P0 if q == control else I2 for q in range(n))
                on = kron_all(
                    P1 if q == control else u if q == target else I2 for q in range(n)
                )
                expected = (off + on) @ s.amplitudes
                s.apply_controlled_single_qubit(u, control, target)
                assert np.abs(s.amplitudes - expected).max() < 1e-12


    @pytest.mark.parametrize("n", range(1, 6))
    def test_diagonal_single_qubit(self, n):
        rng = np.random.default_rng(700 + n)
        for target in range(n):
            for u in diagonal_gates(rng):
                s = random_state(n, rng)
                dense = kron_all(u if q == target else I2 for q in range(n))
                expected = dense @ s.amplitudes
                s.apply_single_qubit(u, target)
                assert np.abs(s.amplitudes - expected).max() < 1e-12

    @pytest.mark.parametrize("n", range(2, 6))
    def test_diagonal_controlled_every_ordered_pair(self, n):
        rng = np.random.default_rng(800 + n)
        for control in range(n):
            for target in range(n):
                if control == target:
                    continue
                for u in diagonal_gates(rng):
                    s = random_state(n, rng)
                    off = kron_all(P0 if q == control else I2 for q in range(n))
                    on = kron_all(
                        P1 if q == control else u if q == target else I2 for q in range(n)
                    )
                    expected = (off + on) @ s.amplitudes
                    s.apply_controlled_single_qubit(u, control, target)
                    assert np.abs(s.amplitudes - expected).max() < 1e-12


class TestBitwiseExpressionForm:
    """The in-place kernel against m00 a + m01 b, m10 a + m11 b bit for bit."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_every_gate_kind(self, n):
        rng = np.random.default_rng(900 + n)
        pairs = [(c, t) for c in range(n) for t in range(n) if c != t]
        if len(pairs) > 24:
            pairs = [pairs[i] for i in rng.choice(len(pairs), 24, replace=False)]
        for u in every_gate_kind(rng):
            s = random_state(n, rng)
            for target in range(n):
                expected = expression_form_2x2(s.amplitudes, u, [target])
                s.apply_single_qubit(u, target)
                assert np.array_equal(s.amplitudes, expected), (n, u, target)
            for control, target in pairs:
                expected = expression_form_2x2(s.amplitudes, u, [control, target])
                s.apply_controlled_single_qubit(u, control, target)
                assert np.array_equal(s.amplitudes, expected), (n, u, control, target)


class TestScratch:
    def test_copy_does_not_share_the_buffer(self):
        rng = np.random.default_rng(11)
        s1 = random_state(5, rng).apply_single_qubit(hadamard(), 2)
        s2 = s1.copy()
        expected = expression_form_2x2(s2.amplitudes, hadamard().matrix, [0])
        s2.apply_single_qubit(hadamard(), 0)
        s1.apply_single_qubit(pauli_x(), 4)
        assert np.array_equal(s2.amplitudes, expected)
        assert not np.shares_memory(s1._scratch, s2._scratch)
        assert not np.shares_memory(s1.amplitudes, s2.amplitudes)

    def test_dft_reference_keeps_vectors_apart(self):
        rng = np.random.default_rng(12)
        s1 = random_state(4, rng).apply_single_qubit(hadamard(), 1)
        s2 = s1.copy().apply_single_qubit(hadamard(), 3)
        for s in (s1, s2):
            dft_reference(s, [3, 0, 2])
        for s in (s1, s2):
            expected = expression_form_2x2(s.amplitudes, hadamard().matrix, [2, 1])
            s.apply_controlled_single_qubit(hadamard(), 2, 1)
            assert np.array_equal(s.amplitudes, expected)
            assert not np.shares_memory(s.amplitudes, s._scratch)
        assert not np.shares_memory(s1._scratch, s2._scratch)
        assert not np.shares_memory(s1.amplitudes, s2.amplitudes)


class TestBruteForceSpans:
    """Permutations and marginals against bit loops over every basis index."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_permutation_every_width(self, n):
        rng = np.random.default_rng(400 + n)
        for w in range(1, n + 1):
            for _ in range(3):
                span = [int(q) for q in rng.permutation(n)[:w]]
                table = rng.permutation(1 << w)
                s = random_state(n, rng)
                expected = brute_force_permutation(s.amplitudes, n, span, table)
                s.apply_permutation(table, span)
                assert np.array_equal(s.amplitudes, expected), (span, table)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_sparse_tables(self, n):
        """Identity, fixed points and single transpositions on shuffled spans."""
        rng = np.random.default_rng(1000 + n)
        for w in range(1, n + 1):
            size = 1 << w
            x, y = rng.choice(size, 2, replace=False)
            swap = np.arange(size)
            swap[[x, y]] = swap[[y, x]]
            fixed = np.arange(size)
            subset = rng.choice(size, int(rng.integers(0, size + 1)), replace=False)
            fixed[subset] = rng.permutation(subset)
            for table in (np.arange(size), swap, fixed):
                span = [int(q) for q in rng.permutation(n)[:w]]
                s = random_state(n, rng)
                expected = brute_force_permutation(s.amplitudes, n, span, table)
                s.apply_permutation(table, span)
                assert np.array_equal(s.amplitudes, expected), (span, table)

    @pytest.mark.parametrize("modulus", [5, 7, 15, 21])
    def test_controlled_modmult(self, modulus):
        rng = np.random.default_rng(modulus)
        w = (modulus - 1).bit_length()
        n = w + 2
        for power in range(3):
            spec = ModMultSpec(2, modulus, power)
            b = pow(2, 1 << power, modulus)
            # control bit then target value; control 0 and values >= N stay
            table = list(range(1 << w)) + [
                (1 << w) | (b * x % modulus if x < modulus else x) for x in range(1 << w)
            ]
            order = [int(q) for q in rng.permutation(n)]
            control, targets = order[0], order[1 : w + 1]
            s = random_state(n, rng)
            expected = brute_force_permutation(s.amplitudes, n, [control] + targets, table)
            controlled_modmult(spec, s, control, targets)
            assert np.array_equal(s.amplitudes, expected)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_marginal_every_width(self, n):
        rng = np.random.default_rng(500 + n)
        for w in range(1, n + 1):
            span = [int(q) for q in rng.permutation(n)[:w]]
            s = random_state(n, rng)
            expected = np.zeros(1 << w)
            for i, p in enumerate(s.probabilities()):
                expected[span_value(i, n, span)] += p
            assert np.abs(s.marginal_probabilities(span) - expected).max() < 1e-12
