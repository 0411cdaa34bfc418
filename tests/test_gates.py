import numpy as np
import pytest

from helpers import random_state
from kickback.gates import (
    Gate2x2,
    ModMultSpec,
    Oracle,
    controlled_modmult,
    f_controlled_not,
    hadamard,
    parse_oracle_text,
    load_oracle,
    pauli_x,
    phase_shifter,
    r_k,
)
from kickback.statevec import StateVector, basis_state, check_unitary

INV_SQRT2 = 1.0 / np.sqrt(2.0)


class TestGateConstructors:
    def test_hadamard_rows(self):
        h = hadamard().matrix
        assert np.abs(h - np.array([[1, 1], [1, -1]]) * INV_SQRT2).max() < 1e-12

    def test_hadamard_squared_is_identity(self):
        h = hadamard().matrix
        assert np.abs(h @ h - np.eye(2)).max() < 1e-12

    def test_rk_values(self):
        assert np.abs(r_k(1).matrix - np.diag([1, -1])).max() < 1e-12
        assert np.abs(r_k(2).matrix - np.diag([1, 1j])).max() < 1e-12

    @pytest.mark.parametrize("k", [1, 2, 3, 6])
    def test_rk_is_root_of_unity(self, k):
        m = np.linalg.matrix_power(r_k(k).matrix, 2**k)
        assert np.abs(m - np.eye(2)).max() < 1e-10

    def test_rk_domain(self):
        with pytest.raises(ValueError):
            r_k(0)

    def test_phase_shifter(self):
        assert np.abs(phase_shifter(0.0).matrix - np.eye(2)).max() < 1e-12
        assert np.abs(phase_shifter(np.pi).matrix - np.diag([1, -1])).max() < 1e-12
        assert np.abs(phase_shifter(np.pi / 2).matrix - np.diag([1, 1j])).max() < 1e-12

    @pytest.mark.parametrize("phi", [float("inf"), float("-inf"), float("nan")])
    def test_phase_shifter_rejects_non_finite(self, phi):
        with pytest.raises(ValueError, match="phase must be finite"):
            phase_shifter(phi)

    @pytest.mark.parametrize("k", range(1, 45, 6))
    def test_constructed_gates_pass_unitarity(self, k):
        check_unitary(r_k(k).matrix)
        check_unitary(phase_shifter(0.1 * k).matrix)

    def test_gate2x2_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            Gate2x2([[1, 1], [0, 1]])

    def test_dagger_inverts(self):
        g = phase_shifter(1.1)
        assert np.abs(g.matrix @ g.dagger().matrix - np.eye(2)).max() < 1e-12


class TestOracle:
    def test_table_and_callable_agree(self):
        a = Oracle(2, 1, [0, 1, 1, 0])
        b = Oracle(2, 1, lambda x: (x ^ (x >> 1)) & 1)
        assert np.array_equal(a.table, b.table)

    def test_range_validated(self):
        with pytest.raises(ValueError):
            Oracle(1, 1, [0, 2])

    def test_size_validated(self):
        with pytest.raises(ValueError):
            Oracle(2, 1, [0, 1, 0])

    def test_evaluate_does_not_count(self):
        o = Oracle(1, 1, [1, 0])
        assert o.evaluate(0) == 1
        assert o.call_count == 0

    def test_keeps_own_read_only_copy(self):
        t = np.array([0, 1, 1, 0], dtype=np.int64)
        o = Oracle(2, 1, t)
        t[0] = 1  # the caller's array stays writeable and apart
        assert o.table.tolist() == [0, 1, 1, 0]
        assert not o.table.flags.writeable


class TestOracleText:
    def test_round_trip(self):
        text = "00 -> 1\n01 -> 0\n10 -> 0\n11 -> 1\n"
        o = parse_oracle_text(text)
        assert (o.n_in, o.m_out) == (2, 1)
        assert list(o.table) == [1, 0, 0, 1]

    def test_file_loading(self, tmp_path):
        path = tmp_path / "oracle.txt"
        path.write_text("0 -> 11\n1 -> 01\n")
        o = load_oracle(path)
        assert (o.n_in, o.m_out) == (1, 2)
        assert list(o.table) == [3, 1]

    @pytest.mark.parametrize(
        "text",
        [
            "0 -> 0\n",  # missing input 1
            "0 -> 0\n0 -> 1\n",  # duplicate
            "0 -> 0\n1 -> 00\n",  # inconsistent width
            "0 -> 2\n1 -> 0\n",  # not a bit string
            "garbage\n",
            "",
        ],
    )
    def test_strict_validation(self, text):
        with pytest.raises(ValueError):
            parse_oracle_text(text)


class TestFControlledNot:
    def test_zero_function_is_identity(self):
        o = Oracle(2, 1, [0, 0, 0, 0])
        rng = np.random.default_rng(0)
        s = random_state(3, rng)
        before = s.amplitudes.copy()
        f_controlled_not(o, s, [0, 1], [2])
        assert np.array_equal(s.amplitudes, before)
        assert o.call_count == 1

    def test_cnot_special_case(self):
        o = Oracle(1, 1, [0, 1])  # f(x) = x
        s = basis_state(2, 2)  # |1>|0>
        f_controlled_not(o, s, [0], [1])
        assert np.array_equal(np.abs(s.amplitudes), [0, 0, 0, 1])

    def test_phase_kickback_sign(self):
        # target in (|0> - |1>)/sqrt2: each |x> component gets (-1)^f(x)
        o = Oracle(1, 1, [0, 1])
        s = basis_state(2)
        s.apply_single_qubit(hadamard(), 0)
        s.apply_single_qubit(pauli_x(), 1)
        s.apply_single_qubit(hadamard(), 1)
        f_controlled_not(o, s, [0], [1])
        # components: |0>(|0>-|1>)/2 and -|1>(|0>-|1>)/2
        expected = np.array([1, -1, -1, 1]) / 2.0
        assert np.abs(s.amplitudes - expected).max() < 1e-12

    def test_overlapping_spans_rejected(self):
        o = Oracle(2, 1, [0, 1, 1, 0])
        with pytest.raises(ValueError):
            f_controlled_not(o, basis_state(3), [0, 1], [1])

    def test_arity_mismatch_rejected(self):
        o = Oracle(2, 1, [0, 1, 1, 0])
        with pytest.raises(ValueError):
            f_controlled_not(o, basis_state(3), [0], [2])

    @pytest.mark.parametrize("n_in,m_out", [(1, 1), (2, 1), (3, 2), (4, 3)])
    def test_involution(self, n_in, m_out):
        rng = np.random.default_rng(n_in * 10 + m_out)
        o = Oracle(n_in, m_out, rng.integers(0, 1 << m_out, size=1 << n_in))
        s = random_state(n_in + m_out, rng)
        before = s.amplitudes.copy()
        f_controlled_not(o, s, range(n_in), range(n_in, n_in + m_out))
        f_controlled_not(o, s, range(n_in), range(n_in, n_in + m_out))
        assert np.array_equal(s.amplitudes, before)
        assert o.call_count == 2

    def test_one_call_per_application_in_superposition(self):
        o = Oracle(2, 1, [0, 1, 1, 0])
        s = basis_state(3)
        for q in range(3):
            s.apply_single_qubit(hadamard(), q)
        f_controlled_not(o, s, [0, 1], [2])
        assert o.call_count == 1


class TestControlledModMult:
    def test_control_zero_is_identity(self):
        spec = ModMultSpec(2, 5, 0)
        s = basis_state(4, 0b001)  # control clear, target |001>
        before = s.amplitudes.copy()
        controlled_modmult(spec, s, 0, [1, 2, 3])
        assert np.array_equal(s.amplitudes, before)

    def test_squared_multiplier(self):
        # a=2, N=5, j=1: multiplier 4, so |1> -> |4>
        spec = ModMultSpec(2, 5, 1)
        s = basis_state(4, 0b1001)  # control set, target value 1
        controlled_modmult(spec, s, 0, [1, 2, 3])
        assert np.array_equal(np.abs(s.amplitudes), np.abs(basis_state(4, 0b1100).amplitudes))

    @pytest.mark.parametrize("modulus,base", [(5, 2), (15, 7), (21, 2), (33, 5), (55, 3), (63, 62)])
    @pytest.mark.parametrize("power", range(9))
    def test_multiplier_is_repeated_squaring(self, modulus, base, power):
        b = base
        for _ in range(power):
            b = b * b % modulus
        assert ModMultSpec(base, modulus, power).multiplier() == b

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            ModMultSpec(6, 15, 0)

    def test_narrow_span_rejected(self):
        spec = ModMultSpec(2, 5, 0)
        with pytest.raises(ValueError):
            controlled_modmult(spec, basis_state(3), 0, [1, 2])

    @pytest.mark.parametrize("modulus,base", [(5, 2), (15, 7), (21, 2)])
    @pytest.mark.parametrize("j", [1, 2, 3, 6])
    def test_power_equals_repeated_base_mult(self, modulus, base, j):
        width = (modulus - 1).bit_length()
        rng = np.random.default_rng(modulus + j)
        s1 = random_state(width + 1, rng)
        s1.apply_single_qubit(pauli_x(), 0)  # force the control on
        s2 = s1.copy()
        controlled_modmult(ModMultSpec(base, modulus, j), s1, 0, range(1, width + 1))
        single = ModMultSpec(base, modulus, 0)
        for _ in range(2**j):
            controlled_modmult(single, s2, 0, range(1, width + 1))
        assert np.abs(s1.amplitudes - s2.amplitudes).max() < 1e-12

    def test_eigenvector_phase_kickback(self):
        from helpers import multiplicative_order, prepare_psi_k
        from kickback.order_finding import OrderProblem

        problem = OrderProblem(2, 5)
        r = multiplicative_order(2, 5)
        psi = prepare_psi_k(problem, 1, r)
        width = problem.target_bits
        # control in (|0> + |1>)/sqrt2, target in psi_1
        amps = np.concatenate([psi.amplitudes, psi.amplitudes]) * INV_SQRT2
        for j in [0, 1, 2]:
            state = StateVector(1 + width, amps)
            controlled_modmult(ModMultSpec(2, 5, j), state, 0, range(1, width + 1))
            phase = np.exp(2j * np.pi * (2**j) / r)
            expected = amps.copy()
            expected[2**width :] *= phase
            assert np.abs(state.amplitudes - expected).max() < 1e-10
