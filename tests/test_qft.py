import numpy as np
import pytest

from helpers import random_state, record_calls
from kickback.analysis import cross_minor_entanglement
from kickback.gates import hadamard, r_k
from kickback.qft import dft_reference, inverse_qft, qft
from kickback.statevec import CapacityError, Gate2x2, StateVector, basis_state


def fourier_amplitudes(a: int, m: int) -> np.ndarray:
    """Direct evaluation of the transform's defining sum."""
    dim = 1 << m
    return np.exp(2j * np.pi * a * np.arange(dim) / dim) / np.sqrt(dim)


class TestQft:
    def test_width_one_is_hadamard(self):
        for a in (0, 1):
            s1 = basis_state(1, a)
            qft(s1, [0])
            s2 = basis_state(1, a).apply_single_qubit(hadamard(), 0)
            assert np.abs(s1.amplitudes - s2.amplitudes).max() < 1e-12

    def test_zero_input_gives_uniform(self):
        s = qft(basis_state(3, 0), range(3))
        assert np.abs(s.amplitudes - 1 / np.sqrt(8)).max() < 1e-12

    def test_unit_input_phases(self):
        s = qft(basis_state(3, 1), range(3))
        assert np.abs(s.amplitudes - fourier_amplitudes(1, 3)).max() < 1e-12

    @pytest.mark.parametrize("m", range(1, 7))
    def test_matches_defining_sum_on_all_basis_states(self, m):
        for a in range(1 << m):
            s = qft(basis_state(m, a), range(m))
            assert np.abs(s.amplitudes - fourier_amplitudes(a, m)).max() < 1e-10


class TestInverse:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_round_trip_all_basis_states(self, m):
        for a in range(1 << m):
            s = basis_state(m, a)
            inverse_qft(qft(s, range(m)), range(m))
            expected = np.zeros(1 << m)
            expected[a] = 1.0
            assert np.abs(s.amplitudes - expected).max() < 1e-10

    def test_extracts_bits_from_phase_state(self):
        m = 5
        for a in (0, 1, 11, 31):
            s = StateVector(m, fourier_amplitudes(a, m))
            inverse_qft(s, range(m))
            assert abs(abs(s.amplitudes[a]) - 1.0) < 1e-10

    def test_width_one_is_hadamard(self):
        s1 = basis_state(1, 1)
        inverse_qft(s1, [0])
        s2 = basis_state(1, 1).apply_single_qubit(hadamard(), 0)
        assert np.abs(s1.amplitudes - s2.amplitudes).max() < 1e-12


class TestDenseReference:
    def test_m2_unit_input(self):
        s = dft_reference(basis_state(2, 1), range(2))
        expected = np.array([1, 1j, -1, -1j]) / 2.0
        assert np.abs(s.amplitudes - expected).max() < 1e-12

    def test_unitary_round_trip(self):
        rng = np.random.default_rng(4)
        s = random_state(5, rng)
        before = s.amplitudes.copy()
        dft_reference(s, range(5))
        dft_reference(s, range(5), inverse=True)
        assert np.abs(s.amplitudes - before).max() < 1e-10

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            dft_reference(basis_state(13), range(13))

    @pytest.mark.parametrize("m", range(1, 7))
    def test_agrees_with_gate_network_on_basis_states(self, m):
        for a in range(1 << m):
            s1 = qft(basis_state(m, a), range(m))
            s2 = dft_reference(basis_state(m, a), range(m))
            assert np.abs(s1.amplitudes - s2.amplitudes).max() < 1e-10

    @pytest.mark.parametrize("m", range(1, 11))
    def test_agrees_on_random_states(self, m):
        rng = np.random.default_rng(m)
        for _ in range(3):
            s1 = random_state(m, rng)
            s2 = s1.copy()
            qft(s1, range(m))
            dft_reference(s2, range(m))
            assert np.abs(s1.amplitudes - s2.amplitudes).max() < 1e-10


class TestSpanEmbedding:
    def test_middle_span_with_bystanders(self):
        rng = np.random.default_rng(9)
        s1 = random_state(6, rng)
        s2 = s1.copy()
        span = [2, 3, 4]
        qft(s1, span)
        dft_reference(s2, span)
        assert np.abs(s1.amplitudes - s2.amplitudes).max() < 1e-10

    def test_bystanders_untouched(self):
        # basis state with a non-span bit set stays a product over that bit
        s = basis_state(4, 0b1000)
        qft(s, [1, 2, 3])
        # qubit 0 must still read 1 with certainty
        assert abs(s.marginal_probabilities([0])[1] - 1.0) < 1e-12


class TestPlan:
    """The ladder's gate plan, counted on the real transforms."""

    @pytest.mark.parametrize("m", range(1, 12))
    def test_gate_counts(self, monkeypatch, m):
        want = {
            "apply_single_qubit": m,
            "apply_controlled_single_qubit": m * (m - 1) // 2,
            "apply_permutation": m // 2,
        }
        calls = {name: record_calls(monkeypatch, StateVector, name) for name in want}
        for transform in (qft, inverse_qft):
            for recorded in calls.values():
                recorded.clear()
            transform(StateVector(m), range(m))
            assert {name: len(recorded) for name, recorded in calls.items()} == want

    @pytest.mark.parametrize("m", [1, 2, 5, 9])
    def test_each_gate_is_built_once(self, monkeypatch, m):
        """One Hadamard and one rotation per k; the inverse's is conjugated from
        one matrix, with the bytes of ``r_k(k).dagger()``."""
        built = record_calls(monkeypatch, Gate2x2, "__init__")
        for transform, rotation in ((qft, r_k), (inverse_qft, lambda k: r_k(k).dagger())):
            built.clear()
            transform(basis_state(m), range(m))
            gates = [args[0].matrix.tobytes() for args in built]
            expected = [hadamard()] + [rotation(k) for k in range(2, m + 1)]
            assert gates == [g.matrix.tobytes() for g in expected]

    def test_rejects_zero_width(self):
        for transform in (qft, inverse_qft):
            with pytest.raises(ValueError):
                transform(basis_state(2), [])


class TestFactorisation:
    @pytest.mark.parametrize("m", range(2, 6))
    def test_basis_outputs_are_product_states(self, m):
        for a in range(1 << m):
            s = qft(basis_state(m, a), range(m))
            for q in range(m):
                assert cross_minor_entanglement(s, [q]) < 1e-10
