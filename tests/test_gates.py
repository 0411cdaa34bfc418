import copy
import pickle
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from helpers import pauli_x, peak_traced_bytes, random_state, record_calls
from kickback.gates import (
    Gate2x2,
    Oracle,
    Permutation,
    controlled_map,
    controlled_modmult,
    f_controlled_not,
    hadamard,
    parse_oracle_text,
    load_oracle,
    phase_shifter,
    r_k,
)
from kickback import statevec
from kickback.order_finding import ModMultEigenOracle, OrderProblem
from kickback.phase_estimation import kernel_state
from kickback.statevec import (
    CapacityError,
    MAX_QUBITS_ENV,
    StateVector,
    basis_state,
    check_unitary,
    fan_out,
)

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

    @pytest.mark.parametrize(
        "matrix, message",
        [
            (np.eye(3), r"expected a 2x2 matrix, got shape \(3, 3\)"),
            (np.zeros((2, 3)), r"expected a 2x2 matrix, got shape \(2, 3\)"),
            ([1, 0, 0, 1], r"expected a 2x2 matrix, got shape \(4,\)"),
            ([[np.nan, 0], [0, 1]], r"matrix contains non-finite entries"),
            ([[1, 0], [0, np.inf]], r"matrix contains non-finite entries"),
            # U+U - I = diag(2 eps + eps^2, 0): a defect of 1.01e-10
            (np.diag([1 + 0.505e-10, 1]), r"matrix is not unitary \(defect 1\.010e-10 > 1e-10\)"),
        ],
        ids=["3x3", "2x3", "1-d", "nan", "inf", "defect-above-tol"],
    )
    def test_gate2x2_refusals(self, matrix, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Gate2x2(matrix)

    def test_gate2x2_accepts_a_defect_below_tol(self):
        # a defect of 0.99e-10
        assert Gate2x2(np.diag([1 + 0.495e-10, 1])).matrix[0, 0] == 1 + 0.495e-10

    def test_dagger_inverts(self):
        g = phase_shifter(1.1)
        assert np.abs(g.matrix @ g.dagger().matrix - np.eye(2)).max() < 1e-12

    def test_gates_reexports_the_kernel_class(self):
        assert Gate2x2 is statevec.Gate2x2

    def test_matrix_is_read_only(self):
        g = hadamard()
        with pytest.raises(AttributeError):
            g.matrix = np.diag([2.0, 2.0])
        with pytest.raises(ValueError, match="read-only"):
            g.matrix[0, 0] = 2.0

    @pytest.mark.parametrize(
        "duplicate",
        [copy.copy, copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_are_read_only_gates(self, duplicate):
        g = phase_shifter(0.7)
        h = duplicate(g)
        assert type(h) is Gate2x2 and h is not g
        assert np.array_equal(h.matrix, g.matrix)
        assert not h.matrix.flags.writeable


class TestOracle:
    def test_range_validated(self):
        with pytest.raises(ValueError):
            Oracle(1, 1, [0, 2])

    def test_size_validated(self):
        with pytest.raises(ValueError):
            Oracle(2, 1, [0, 1, 0])

    def test_values_must_be_integers(self):
        # converted to int64, 0.9 and 0.2 would both have read 0
        with pytest.raises(ValueError, match="oracle table values must be integers, got float64"):
            Oracle(1, 1, [0.9, 0.2])
        with pytest.raises(ValueError, match="permutation table values must be integers"):
            Permutation([1.7, 0.2], 1)
        assert Oracle(1, 1, [True, False]).table.tolist() == [1, 0]

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

    @pytest.mark.parametrize("name", ["n_in", "m_out", "table"])
    def test_arities_and_table_are_read_only(self, name):
        o = Oracle(2, 1, [0, 1, 1, 0])
        f_controlled_not(o, basis_state(3), [0, 1], [2])  # the permutation is cached now
        with pytest.raises(AttributeError):
            setattr(o, name, getattr(o, name))

    def test_permutation_is_built_once(self, monkeypatch):
        o = Oracle(2, 1, [0, 1, 1, 0])
        built = record_calls(monkeypatch, Permutation, "__init__")
        assert built == []  # not at construction
        s = basis_state(3)
        for _ in range(3):
            f_controlled_not(o, s, [0, 1], [2])
        assert [args[0] for args in built] == [o.permutation()] and o.call_count == 3

    def test_shared_counter_under_threads(self, monkeypatch):
        built = record_calls(monkeypatch, Permutation, "__init__")
        table = [0, 1, 1, 0, 1, 0, 0, 1]
        starts = [random_state(4, np.random.default_rng(seed)) for seed in range(4)]

        def drive(oracle, state, barrier=None):
            if barrier is not None:
                barrier.wait()
            for i in range(250):
                qubits = [(q + i) % 4 for q in range(4)]  # a different split each call
                f_controlled_not(oracle, state, qubits[:3], qubits[3:])
            return state

        shared, barrier = Oracle(3, 1, table), threading.Barrier(4, timeout=30)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch often, so an unlocked first build would race
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                jobs = [pool.submit(drive, shared, s.copy(), barrier) for s in starts]
                threaded = [job.result(timeout=60) for job in jobs]
        finally:
            sys.setswitchinterval(interval)
        assert shared.call_count == 1000
        assert len(built) == 1 and shared.permutation() is built[0][0]  # one build, shared
        for start, state in zip(starts, threaded):
            alone = drive(Oracle(3, 1, table), start.copy())
            assert state.amplitudes.tobytes() == alone.amplitudes.tobytes()


class TestControlledMap:
    def test_is_a_permutation_of_the_joint_register(self):
        p = controlled_map(1, 2, lambda x, y: (y + x) % 4)  # add the control bit mod 4
        assert isinstance(p, Permutation) and p.width == 3
        assert (p.moved.tolist(), p.image.tolist()) == ([4, 5, 6, 7], [5, 6, 7, 4])

    def test_checks_the_cap_before_building_the_table(self, monkeypatch):
        monkeypatch.setenv(MAX_QUBITS_ENV, "20")
        calls = []

        def g(x, y):
            calls.append(x)
            return y

        def build():
            with pytest.raises(CapacityError, match="22 qubits exceeds the cap of 20"):
                controlled_map(12, 10, g)

        assert peak_traced_bytes(build) < 1 << 20
        assert calls == []


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

    def test_balanced_16_bit_call_peaks_near_the_register_size(self):
        # a contiguous span is one axis: two index arrays, not two per qubit
        n = 16
        oracle = Oracle(n, 1, np.arange(1 << n) & 1)
        oracle.permutation()  # built before the measured call
        s = basis_state(n + 1)
        peak = peak_traced_bytes(lambda: f_controlled_not(oracle, s, range(n), [n]))
        assert peak <= 1.25 * s.amplitudes.nbytes


class TestControlledModMult:
    def test_control_zero_is_identity(self):
        s = basis_state(4, 0b001)  # control clear, target |001>
        before = s.amplitudes.copy()
        controlled_modmult(2, 5, s, 0, [1, 2, 3])
        assert np.array_equal(s.amplitudes, before)

    def test_squared_multiplier(self):
        # a=2, N=5, j=1: multiplier 4, so |1> -> |4>
        s = basis_state(4, 0b1001)  # control set, target value 1
        controlled_modmult(pow(2, 1 << 1, 5), 5, s, 0, [1, 2, 3])
        assert np.array_equal(np.abs(s.amplitudes), np.abs(basis_state(4, 0b1100).amplitudes))

    @pytest.mark.parametrize("modulus,base", [(5, 2), (15, 7), (21, 2), (33, 5), (55, 3), (63, 62)])
    @pytest.mark.parametrize("power", range(9))
    def test_multiplier_is_repeated_squaring(self, modulus, base, power):
        b = base
        for _ in range(power):
            b = b * b % modulus
        problem = OrderProblem(base, modulus)
        w = problem.target_bits
        s = basis_state(1 + w, (1 << w) | 1)  # control set, target |1>
        ModMultEigenOracle(problem).apply_controlled_power(s, power, 0, range(1, w + 1))
        assert np.array_equal(s.amplitudes, basis_state(1 + w, (1 << w) | b).amplitudes)

    @staticmethod
    def assert_refused_before_any_amplitude_moves(multiplier, modulus, message):
        s = random_state(5, np.random.default_rng(modulus))
        before = s.amplitudes.copy()
        with pytest.raises(ValueError, match=message):
            controlled_modmult(multiplier, modulus, s, 0, [1, 2, 3, 4])
        assert np.array_equal(s.amplitudes, before)

    def test_modulus_one_rejected(self):
        self.assert_refused_before_any_amplitude_moves(1, 1, "modulus must be >= 2")

    def test_non_coprime_rejected(self):
        # the Permutation that controlled_map builds refuses 6 mod 15
        self.assert_refused_before_any_amplitude_moves(6, 15, "not a bijection")

    @pytest.mark.parametrize("multiplier", [0, 3])
    def test_zero_and_three_mod_fifteen_rejected(self, multiplier):
        # the w-bit table b y mod N repeats a value: the Permutation refuses it
        self.assert_refused_before_any_amplitude_moves(multiplier, 15, "not a bijection")

    @pytest.mark.parametrize("multiplier", [1, 16])
    def test_multiplier_one_is_the_identity(self, monkeypatch, multiplier):
        s = random_state(5, np.random.default_rng(multiplier))
        before = s.amplitudes.tobytes()
        built = record_calls(monkeypatch, Permutation, "__init__")
        controlled_modmult(multiplier, 15, s, 0, [1, 2, 3, 4])
        assert built == []
        assert s.amplitudes.tobytes() == before

    def test_kernel_peak_memory(self):
        # 5 mod 63 on 18 qubits (4 MiB): the joint-table multiplies peaked at 5.95 MiB
        oracle = ModMultEigenOracle(OrderProblem(5, 63))
        assert peak_traced_bytes(lambda: kernel_state(12, oracle)) < 4.8 * 2**20

    def test_one_multiply_peak_memory(self):
        # 2 mod 65 at j = 0 on 21 qubits (32 MiB): the joint table's gather peaked at 8.01 MiB
        s = fan_out(14, basis_state(7, 1))
        peak = peak_traced_bytes(lambda: controlled_modmult(2, 65, s, 13, range(14, 21)))
        assert peak < 0.6 * 2**20

    @pytest.mark.parametrize("multiplier, modulus, residue", [(2**70 + 2, 5, 1), (-3, 7, 4)])
    def test_multiplier_acts_as_its_residue(self, multiplier, modulus, residue):
        s1 = random_state(4, np.random.default_rng(modulus))
        s2 = s1.copy()
        controlled_modmult(multiplier, modulus, s1, 0, [1, 2, 3])
        controlled_modmult(residue, modulus, s2, 0, [1, 2, 3])
        assert np.array_equal(s1.amplitudes, s2.amplitudes)

    def test_narrow_span_rejected(self):
        with pytest.raises(ValueError):
            controlled_modmult(2, 5, basis_state(3), 0, [1, 2])

    @pytest.mark.parametrize("modulus,base", [(5, 2), (15, 7), (21, 2)])
    @pytest.mark.parametrize("j", [1, 2, 3, 6])
    def test_power_equals_repeated_base_mult(self, modulus, base, j):
        oracle = ModMultEigenOracle(OrderProblem(base, modulus))
        width = (modulus - 1).bit_length()
        rng = np.random.default_rng(modulus + j)
        s1 = random_state(width + 1, rng)
        s1.apply_single_qubit(pauli_x(), 0)  # force the control on
        s2 = s1.copy()
        oracle.apply_controlled_power(s1, j, 0, range(1, width + 1))
        for _ in range(2**j):
            oracle.apply_controlled_power(s2, 0, 0, range(1, width + 1))
        assert np.abs(s1.amplitudes - s2.amplitudes).max() < 1e-12

    def test_eigenvector_phase_kickback(self):
        from helpers import multiplicative_order, prepare_psi_k

        problem = OrderProblem(2, 5)
        r = multiplicative_order(2, 5)
        psi = prepare_psi_k(problem, 1, r)
        width = problem.target_bits
        # control in (|0> + |1>)/sqrt2, target in psi_1
        amps = np.concatenate([psi.amplitudes, psi.amplitudes]) * INV_SQRT2
        for j in [0, 1, 2]:
            state = StateVector(1 + width, amps)
            controlled_modmult(pow(2, 1 << j, 5), 5, state, 0, range(1, width + 1))
            phase = np.exp(2j * np.pi * (2**j) / r)
            expected = amps.copy()
            expected[2**width :] *= phase
            assert np.abs(state.amplitudes - expected).max() < 1e-10
