import copy
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import (
    SAMPLING_SHOTS,
    SAMPLING_TV_TOL,
    X86_64,
    RecordingTable,
    affine_spec,
    brute_force_permutation,
    controlled_table,
    expression_form_2x2,
    fsum_marginal,
    hadamard_prepared_start,
    marginal_digests,
    pauli_x,
    peak_traced_bytes,
    per_call_prefix,
    random_state,
    record_calls,
    run_at_x86_64_v2,
    span_value,
    tv_distance,
    whole_register_marginal,
)
from kickback import statevec
from kickback.algorithms import (
    GroverOracle,
    affine_oracle,
    affine_recovery,
    deutsch_jozsa,
    grover_search,
    mach_zehnder,
)
from kickback.analysis import cross_minor_entanglement
from kickback.statevec import (
    DEFAULT_MAX_QUBITS,
    CapacityError,
    MAX_QUBITS_ENV,
    _check_capacity,
    Gate2x2,
    Permutation,
    StateVector,
    basis_state,
    fan_out,
    sample_index,
    sample_indices,
    total_table,
)
from kickback.gates import (
    Oracle,
    controlled_modmult,
    f_controlled_not,
    hadamard,
    phase_shifter,
    r_k,
)
from kickback.qft import dft_reference

INV_SQRT2 = 1.0 / np.sqrt(2.0)


class TestGivenAmplitudes:
    @pytest.mark.parametrize(
        "bad", [complex(np.nan, 0.0), complex(0.0, np.inf), complex(np.nan, -np.inf)]
    )
    def test_non_finite_entries_rejected(self, bad):
        amps = np.array([INV_SQRT2, INV_SQRT2, 0.0, bad])
        with pytest.raises(ValueError, match="amplitudes contain non-finite entries"):
            StateVector(2, amps)


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

    def test_a_bool_index_is_an_integer(self):
        # numpy reads a bool index as a mask, which would set all 8 amplitudes
        assert np.array_equal(basis_state(3, True).amplitudes, basis_state(3, 1).amplitudes)
        assert np.array_equal(basis_state(3, False).amplitudes, basis_state(3, 0).amplitudes)

    @pytest.mark.parametrize("index", [np.True_, 2.0, "1"])
    def test_a_non_integer_index_is_refused(self, index):
        with pytest.raises(TypeError):
            basis_state(3, index)


class TestFanOut:
    """``fan_out`` equals, byte for byte, H on each control of |0...0> x target."""

    @pytest.mark.parametrize("width", [1, 2, 5])
    @pytest.mark.parametrize("controls", range(7))
    def test_equals_the_hadamard_loop(self, controls, width):
        for seed in range(3):
            target = random_state(width, np.random.default_rng(100 * width + seed))
            state = fan_out(controls, target)
            assert state.num_qubits == controls + width
            want = hadamard_prepared_start(controls, target).amplitudes
            assert state.amplitudes.tobytes() == want.tobytes()

    @pytest.mark.parametrize("controls,width", [(12, 3), (14, 1), (9, 7)])
    def test_registers_of_several_butterfly_pieces(self, controls, width):
        target = random_state(width, np.random.default_rng(controls))
        want = hadamard_prepared_start(controls, target).amplitudes
        assert fan_out(controls, target).amplitudes.tobytes() == want.tobytes()

    def test_target_left_alone(self):
        target = random_state(3, np.random.default_rng(5))
        before = target.amplitudes.tobytes()
        for controls in (0, 2):
            state = fan_out(controls, target)
            assert not np.shares_memory(state.amplitudes, target.amplitudes)
            state.apply_single_qubit(hadamard(), state.num_qubits - 1)
            assert target.amplitudes.tobytes() == before

    def test_a_negative_zero_is_kept(self):
        # each H writes a + b = -0.0 + 0.0 = +0.0 on its control-0 rows, so
        # after the loop only the all-ones row keeps the -0.0 part
        target = StateVector(1, np.array([complex(-0.0, INV_SQRT2), INV_SQRT2]))
        rows = fan_out(3, target).amplitudes.reshape(8, 2)
        assert np.signbit(rows[:, 0].real).all()
        loop = hadamard_prepared_start(3, target).amplitudes.reshape(8, 2)
        assert np.flatnonzero(np.signbit(loop[:, 0].real)).tolist() == [7]
        assert np.array_equal(rows, loop)  # equal as numbers

    @pytest.mark.parametrize("cap,controls,width", [(DEFAULT_MAX_QUBITS, 23, 2), (10, 8, 3)])
    def test_cap_checked_before_allocation(self, monkeypatch, cap, controls, width):
        monkeypatch.setenv(MAX_QUBITS_ENV, str(cap))
        target = basis_state(width)

        def refused():
            with pytest.raises(CapacityError, match=f"{controls + width} qubits exceeds the cap"):
                fan_out(controls, target)

        assert peak_traced_bytes(refused) < 1 << 16


def signed_zero_state(n: int, rng: np.random.Generator) -> StateVector:
    """A normalized n-qubit state whose float parts hold +0.0 and -0.0 among random values."""
    parts = rng.normal(size=2 << n)
    parts[rng.random(2 << n) < 0.25] = 0.0
    parts[rng.random(2 << n) < 0.25] = -0.0
    parts[0] = 1.0  # never all zero
    psi = (parts / np.linalg.norm(parts)).view(complex)  # a complex division would drop -0.0
    return StateVector(n, psi)


class TestHadamardLayer:
    """``apply_hadamard_layer(k)`` equals, byte for byte, H on qubits 0..k-1 one gate at a time."""

    @staticmethod
    def gate_by_gate(state: StateVector, k: int) -> bytes:
        ref = state.copy()
        for q in range(k):
            ref.apply_single_qubit(hadamard(), q)
        return ref.amplitudes.tobytes()

    @pytest.mark.parametrize("n", range(1, 9))
    def test_equals_the_gate_loop(self, n):
        rng = np.random.default_rng(1200 + n)
        for k in range(1, n + 1):
            for _ in range(3):
                state = signed_zero_state(n, rng)
                want = self.gate_by_gate(state, k)
                assert state.apply_hadamard_layer(k).amplitudes.tobytes() == want, (n, k)

    @pytest.mark.parametrize("n", [16, 17])
    def test_halves_across_several_blocks(self, n):
        rng = np.random.default_rng(1300 + n)
        state = signed_zero_state(n, rng)
        for k in range(1, n + 1):
            want = self.gate_by_gate(state, k)
            assert state.copy().apply_hadamard_layer(k).amplitudes.tobytes() == want, (n, k)

    @pytest.mark.parametrize("n", [1, 3])
    def test_bad_widths_move_nothing(self, n):
        state = signed_zero_state(n, np.random.default_rng(n))
        before = state.amplitudes.tobytes()
        for k in (0, n + 1, n + 6):
            with pytest.raises(ValueError):
                state.apply_hadamard_layer(k)
            assert state.amplitudes.tobytes() == before

    def test_numpy_buffer_size_restored(self, monkeypatch):
        # the layer sets numpy's ufunc buffer for itself and puts the caller's
        # back, also when k is refused or a butterfly raises
        state = signed_zero_state(12, np.random.default_rng(12))
        old = np.setbufsize(4096)
        try:
            state.apply_hadamard_layer(12)
            assert np.getbufsize() == 4096
            with pytest.raises(ValueError):
                state.apply_hadamard_layer(13)
            assert np.getbufsize() == 4096

            def failing(*args):
                raise FloatingPointError("a butterfly failed")

            monkeypatch.setattr(statevec, "_butterfly", failing)
            with pytest.raises(FloatingPointError):
                state.apply_hadamard_layer(3)
            assert np.getbufsize() == 4096
        finally:
            np.setbufsize(old)

    def test_the_networks_apply_no_single_gate(self, monkeypatch):
        calls = record_calls(monkeypatch, StateVector, "apply_single_qubit")
        deutsch_jozsa(3, Oracle(3, 1, [0, 1, 1, 0, 1, 0, 0, 1]))
        spec = affine_spec([[1, 0, 1], [0, 1, 1]], [1, 0])
        affine_recovery(3, 2, affine_oracle(spec))
        grover_search(GroverOracle(4, 9), np.random.default_rng(0))
        mach_zehnder(0.3, 2.9)
        assert calls == []
        StateVector(2).apply_single_qubit(hadamard(), 1)
        assert [target for _, _, target in calls] == [1]  # the recorder sees a direct call


class TestCapacity:
    def test_default_cap_rejects_25_qubits(self):
        with pytest.raises(CapacityError):
            StateVector(25)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(MAX_QUBITS_ENV, "4")
        with pytest.raises(CapacityError):
            basis_state(5)
        basis_state(4)  # still fine at the cap

    def test_total_table_checks_the_cap_before_reading(self, monkeypatch):
        monkeypatch.setenv(MAX_QUBITS_ENV, "4")
        table = RecordingTable(16)
        with pytest.raises(CapacityError, match="5 qubits exceeds the cap of 4"):
            total_table(table, 5, 1, "map")
        with pytest.raises(CapacityError, match="5 qubits exceeds the cap of 4"):
            Oracle(5, 1, table)
        assert table.reads == 0
        assert total_table(table, 4, 1, "map").tolist() == [0] * 16
        assert table.reads == 1

    def test_a_large_cap_is_checked_without_allocating(self, monkeypatch):
        # at a cap of 10^8 a 2^(cap - width) integer alone takes 12 MiB
        monkeypatch.setenv(MAX_QUBITS_ENV, "100000000")
        assert peak_traced_bytes(lambda: basis_state(3)) < 1 << 20

    @pytest.mark.parametrize("m", range(1, DEFAULT_MAX_QUBITS + 1))
    def test_table_rows_fill_the_cap_exactly(self, monkeypatch, m):
        monkeypatch.delenv(MAX_QUBITS_ENV, raising=False)
        rows = 2 ** (DEFAULT_MAX_QUBITS - m)
        for fits in (0, 1, rows):
            _check_capacity(m, fits)
        with pytest.raises(CapacityError, match=f"{rows + 1} x 2\\^{m} cells exceeds the cap"):
            _check_capacity(m, rows + 1)


class TestPhysicalMemory:
    """A register of more than the physical memory is refused before allocation."""

    @staticmethod
    def fake_sysconf(pages: int, page_size: int = 4096):
        def sysconf(name):
            return {"SC_PHYS_PAGES": pages, "SC_PAGE_SIZE": page_size}[name]

        return sysconf

    def test_register_above_the_memory_is_refused_unallocated(self, monkeypatch):
        # 2^20 bytes: 16 qubits of 16 bytes each fill it exactly
        monkeypatch.setattr(statevec.os, "sysconf", self.fake_sysconf(256))
        with pytest.raises(CapacityError, match="17 qubits needs 2\\^21 bytes, more than the 1048576"):
            StateVector(17)
        # a 2 MiB register would show in the traced peak
        assert peak_traced_bytes(lambda: pytest.raises(CapacityError, basis_state, 17)) < 1 << 16
        assert basis_state(16).dim == 1 << 16

    def test_one_byte_short_is_refused(self, monkeypatch):
        monkeypatch.setattr(statevec.os, "sysconf", self.fake_sysconf((1 << 20) - 1, 1))
        with pytest.raises(CapacityError):
            _check_capacity(16)
        _check_capacity(15)

    def test_a_platform_without_the_counts_is_not_refused(self, monkeypatch):
        def sysconf(name):
            raise ValueError(f"unrecognized configuration name {name!r}")

        monkeypatch.setattr(statevec.os, "sysconf", sysconf)
        _check_capacity(DEFAULT_MAX_QUBITS)


class TestGateKind:
    """Each gate is classified once, when built, by the kernel path it takes."""

    @pytest.mark.parametrize(
        "gate, kind",
        [
            (hadamard(), "butterfly"),
            (Gate2x2(-hadamard().matrix), "butterfly"),
            (hadamard().dagger(), "butterfly"),
            (pickle.loads(pickle.dumps(hadamard())), "butterfly"),
            (Gate2x2(1j * hadamard().matrix), "general"),
            (Gate2x2([[INV_SQRT2, INV_SQRT2], [-INV_SQRT2, INV_SQRT2]]), "general"),
            (pauli_x(), "general"),
            (r_k(3), "diagonal"),
            (r_k(3).dagger(), "diagonal"),
            (phase_shifter(2.0), "diagonal"),
            (Gate2x2(np.eye(2)), "diagonal"),
        ],
    )
    def test_kind(self, gate, kind):
        assert gate._kind == kind

    def test_negated_butterfly_matches_the_expression_form(self):
        rng = np.random.default_rng(14)
        s = random_state(5, rng)
        minus_h = Gate2x2(-hadamard().matrix)
        for target in range(5):
            expected = expression_form_2x2(s.amplitudes, minus_h.matrix, [target])
            s.apply_single_qubit(minus_h, target)
            assert s.amplitudes.tobytes() == expected.tobytes()


class TestSingleQubit:
    def test_hadamard_on_zero(self):
        s = basis_state(1).apply_single_qubit(hadamard(), 0)
        assert np.abs(s.amplitudes - [INV_SQRT2, INV_SQRT2]).max() < 1e-12

    def test_identity_leaves_state(self):
        rng = np.random.default_rng(5)
        s = random_state(4, rng)
        before = s.amplitudes.copy()
        s.apply_single_qubit(Gate2x2(np.eye(2)), 2)
        assert np.abs(s.amplitudes - before).max() < 1e-12

    def test_hadamard_involution(self):
        s = basis_state(1, 1)
        s.apply_single_qubit(hadamard(), 0).apply_single_qubit(hadamard(), 0)
        assert np.abs(s.amplitudes - [0, 1]).max() < 1e-12

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            basis_state(1).apply_single_qubit(Gate2x2(np.array([[1, 0], [0, 2.0]])), 0)

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            basis_state(2).apply_single_qubit(hadamard(), 2)


class MatrixHolder:
    """Not a Gate2x2: only a ``matrix`` attribute, and that one not unitary."""

    matrix = np.diag([3.0, 3.0])


class TestGateTrust:
    @pytest.mark.parametrize(
        "apply",
        [
            lambda s, g: s.apply_single_qubit(g, 1),
            lambda s, g: s.apply_controlled_single_qubit(g, 0, 1),
        ],
        ids=["single", "controlled"],
    )
    def test_object_with_a_matrix_attribute_is_refused(self, apply):
        s = basis_state(2, 3)
        before = s.amplitudes.copy()
        with pytest.raises(TypeError):
            apply(s, MatrixHolder())
        assert np.array_equal(s.amplitudes, before)


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
        basis_state(2).apply_permutation(Permutation(t, 2), [0, 1])
        assert t.flags.writeable

    def test_identity(self):
        rng = np.random.default_rng(0)
        s = random_state(3, rng)
        before = s.amplitudes.copy()
        s.apply_permutation(Permutation(np.arange(8), 3), range(3))
        assert np.array_equal(s.amplitudes, before)

    def test_relabels_basis_state(self):
        perm = [0, 1, 3, 2]  # swap labels 2 and 3
        s = basis_state(2, 2).apply_permutation(Permutation(perm, 2), range(2))
        assert np.array_equal(np.abs(s.amplitudes), [0, 0, 0, 1])

    def test_repeated_image_rejected(self):
        with pytest.raises(ValueError):
            basis_state(2).apply_permutation(Permutation([0, 1, 1, 3], 2), range(2))

    def test_composition_is_exact(self):
        rng = np.random.default_rng(1)
        p1 = rng.permutation(8)
        p2 = rng.permutation(8)
        s1 = random_state(3, rng)
        s2 = s1.copy()
        s1.apply_permutation(Permutation(p1, 3), range(3))
        s1.apply_permutation(Permutation(p2, 3), range(3))
        s2.apply_permutation(Permutation(p2[p1], 3), range(3))
        assert np.array_equal(s1.amplitudes, s2.amplitudes)

    def test_non_contiguous_span(self):
        # swap qubits 0 and 2 via the [q0, q2] span with table for value swap
        s = basis_state(3, 0b100).apply_permutation(Permutation([0, 2, 1, 3], 2), [0, 2])
        assert np.array_equal(np.abs(s.amplitudes), np.abs(basis_state(3, 0b001).amplitudes))

    def test_norm_exactly_preserved(self):
        rng = np.random.default_rng(2)
        s = random_state(5, rng)
        norm_before = np.abs(s.amplitudes) ** 2
        s.apply_permutation(Permutation(rng.permutation(4), 2), [1, 3])
        assert np.sort(np.abs(s.amplitudes) ** 2).sum() == np.sort(norm_before).sum()


class PermutationHolder:
    """Not a Permutation: ``width``, ``moved``, ``image`` and ``table`` that,
    trusted, would send values 0 and 1 both to 3."""

    width = 2
    moved = np.array([0, 1])
    image = np.array([3, 3])
    table = np.array([3, 3, 2, 1])


class TestPermutationTrust:
    """A ``Permutation`` is validated once, when built, and trusted by its type."""

    def test_keeps_only_the_values_it_moves(self):
        p = Permutation([0, 2, 1, 3, 4, 7, 6, 5], 3)
        assert (p.width, p.moved.tolist(), p.image.tolist()) == (3, [1, 2, 5, 7], [2, 1, 7, 5])
        assert Permutation(np.arange(16), 4).moved.size == 0

    def test_is_read_only(self):
        p = Permutation([1, 0, 2, 3], 2)
        for name in ("width", "moved", "image"):
            with pytest.raises(AttributeError):
                setattr(p, name, getattr(p, name))
        for values in (p.moved, p.image):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 3

    @pytest.mark.parametrize(
        "duplicate",
        [copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_are_validated_read_only_permutations(self, monkeypatch, duplicate):
        p = Permutation([0, 2, 1, 3, 5, 4, 6, 7], 3)
        built = record_calls(monkeypatch, Permutation, "__init__")
        q = duplicate(p)
        # rebuilt through the constructor, so validated again
        assert [args[0] for args in built] == [q]
        assert type(q) is Permutation and q is not p and q.width == p.width
        for mine, theirs in ((q.moved, p.moved), (q.image, p.image)):
            assert np.array_equal(mine, theirs) and mine is not theirs
            assert not mine.flags.writeable

    def test_a_permutation_is_applied_without_being_checked_again(self, monkeypatch):
        p = Permutation([0, 2, 1, 3], 2)
        built = record_calls(monkeypatch, Permutation, "__init__")
        # every check of a map lives in total_table and the constructor
        monkeypatch.setattr(statevec, "total_table", None)
        s = basis_state(3, 0b100).apply_permutation(p, [0, 2])
        assert built == []
        assert np.array_equal(s.amplitudes, basis_state(3, 0b001).amplitudes)

    def test_object_with_permutation_attributes_is_refused(self):
        s = random_state(2, np.random.default_rng(3))
        before = s.amplitudes.copy()
        with pytest.raises(TypeError):
            s.apply_permutation(PermutationHolder(), range(2))
        assert np.array_equal(s.amplitudes, before)

    @pytest.mark.parametrize("width, span", [(2, [0, 1, 2]), (3, [2, 0]), (1, [1, 2])])
    def test_wrong_width_refused_before_any_amplitude_moves(self, width, span):
        s = random_state(3, np.random.default_rng(width))
        before = s.amplitudes.copy()
        p = Permutation(np.arange(1 << width)[::-1], width)
        message = f"permutation of {width} bits does not fit a span of {len(span)} qubits"
        with pytest.raises(ValueError, match=message):
            s.apply_permutation(p, span)
        assert np.array_equal(s.amplitudes, before)


class KernelLookalike:
    """Not a Gate2x2 or a Permutation, but with every attribute the kernel
    reads of either: trusted, it would scale by 3 or send 0 and 1 both to 3."""

    _matrix = np.diag([3.0, 3.0]).astype(complex)
    _kind = "diagonal"
    width = 2
    moved = np.array([0, 1])
    image = np.array([3, 3])


class TestOnlyTheTwoTypesEnter:
    """The kernel takes a ``Gate2x2`` or a ``Permutation`` and nothing else."""

    @pytest.mark.parametrize(
        "apply",
        [
            lambda s, x: s.apply_single_qubit(x, 1),
            lambda s, x: s.apply_controlled_single_qubit(x, 0, 1),
            lambda s, x: s.apply_permutation(x, range(2)),
        ],
        ids=["single", "controlled", "permutation"],
    )
    @pytest.mark.parametrize(
        "value",
        [np.eye(2)[::-1], np.array([1, 0, 3, 2]), lambda x: x ^ 1, KernelLookalike()],
        ids=["raw-array", "table", "callable", "lookalike"],
    )
    def test_anything_else_raises_type_error_before_any_amplitude_moves(self, apply, value):
        s = random_state(2, np.random.default_rng(9))
        before = s.amplitudes.copy()
        with pytest.raises(TypeError):
            apply(s, value)
        assert np.array_equal(s.amplitudes, before)


class TestOneSpanCheck:
    """Callers leave span checks to the view, so bad spans fail with its message."""

    @pytest.mark.parametrize(
        "call, message",
        [
            pytest.param(
                lambda: basis_state(2).apply_controlled_single_qubit(pauli_x(), 1, 1),
                "repeated qubits",
                id="control-equals-target",
            ),
            pytest.param(
                lambda: f_controlled_not(Oracle(2, 1, [0, 1, 1, 0]), basis_state(3), [0, 1], [1]),
                "repeated qubits",
                id="f-controlled-not-overlap",
            ),
            pytest.param(
                lambda: controlled_modmult(2, 5, basis_state(4), 2, [1, 2, 3]),
                "repeated qubits",
                id="modmult-control-in-target",
            ),
            pytest.param(
                lambda: cross_minor_entanglement(basis_state(3), []),
                "span must contain at least one qubit",
                id="empty-cut",
            ),
            pytest.param(
                lambda: cross_minor_entanglement(basis_state(3), [1, 1]),
                "repeated qubits",
                id="repeated-cut",
            ),
            pytest.param(
                lambda: cross_minor_entanglement(basis_state(3), [0, 3]),
                "qubit 3 out of range for 3 qubits",
                id="out-of-range-cut",
            ),
        ],
    )
    def test_rejected_by_the_view(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


def readout(s: StateVector) -> np.ndarray:
    """The distribution of the whole register: its marginal over every qubit."""
    return s.marginal_probabilities(range(s.num_qubits))


def measure(s: StateVector, rng: np.random.Generator) -> int:
    """One measurement of the whole register, as every algorithm reads out."""
    return sample_index(readout(s), rng)


class FixedUniform:
    """A stand-in generator whose every uniform draw is ``u``."""

    def __init__(self, u: float):
        self.u = u

    def random(self, size=None):
        return self.u if size is None else np.full(size, self.u)


class TestProbabilities:
    def test_basis(self):
        assert np.array_equal(readout(basis_state(2, 3)), [0, 0, 0, 1])

    def test_uniform(self):
        s = basis_state(2)
        for q in range(2):
            s.apply_single_qubit(hadamard(), q)
        assert np.abs(readout(s) - 0.25).max() < 1e-12

    def test_minus_state(self):
        s = basis_state(1, 1).apply_single_qubit(hadamard(), 0)
        assert np.abs(readout(s) - 0.5).max() < 1e-12

    def test_marginal_of_bell_state(self):
        s = basis_state(2)
        s.apply_single_qubit(hadamard(), 0)
        s.apply_permutation(Permutation([0, 1, 3, 2], 2), range(2))  # CNOT as a permutation
        assert np.abs(s.marginal_probabilities([0]) - 0.5).max() < 1e-12

    @pytest.mark.skipif(not X86_64, reason="the cap names x86-64 dispatch levels")
    def test_marginal_bytes_at_x86_64_v2(self):
        """The marginal's bytes do not depend on numpy's SIMD dispatch level:
        the same in this process as with dispatch capped at x86-64-v2."""
        capped = run_at_x86_64_v2("import helpers\nprint(*helpers.marginal_digests(), sep='\\n')")
        assert capped == marginal_digests()


class TestMeasure:
    """``sample_index`` on a marginal: the one readout of every algorithm."""

    def test_basis_state_is_deterministic(self):
        s = basis_state(3, 5)
        for seed in range(5):
            assert measure(s, np.random.default_rng(seed)) == 5

    def test_same_seed_same_sequence(self):
        s = basis_state(2).apply_single_qubit(hadamard(), 0)
        firsts = {measure(s, np.random.default_rng(99)) for _ in range(10)}
        rng1, rng2 = np.random.default_rng(99), np.random.default_rng(99)
        seq1 = [measure(s, rng1) for _ in range(10)]
        seq2 = [measure(s, rng2) for _ in range(10)]
        assert firsts == {seq1[0]}  # same first draw from a fresh generator
        assert seq1 == seq2
        assert set(seq1) == {0, 2}  # both outcomes occur, so the order is compared

    def test_law_of_large_numbers(self):
        s = basis_state(1).apply_single_qubit(hadamard(), 0)
        rng = np.random.default_rng(12345)
        first = per_call_prefix(lambda r: measure(s, r), rng)
        draws = sample_indices(readout(s), rng, SAMPLING_SHOTS)
        assert draws[:100].tolist() == first
        zeros = np.count_nonzero(draws == 0)
        assert abs(zeros / SAMPLING_SHOTS - 0.5) < 0.01

    @pytest.mark.parametrize("n", [2, 4])
    def test_empirical_distribution_matches_probabilities(self, n):
        rng = np.random.default_rng(100 + n)
        s = random_state(n, rng)
        first = per_call_prefix(lambda r: measure(s, r), rng)
        draws = sample_indices(readout(s), rng, SAMPLING_SHOTS)
        assert draws[:100].tolist() == first
        counts = np.bincount(draws, minlength=s.dim)
        born = np.abs(s.amplitudes) ** 2
        assert tv_distance(counts / SAMPLING_SHOTS, born) < SAMPLING_TV_TOL

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_k_draws_consume_the_stream_of_k_uniforms(self, seed):
        # find_order and the benchmark's sample replay rely on one uniform per draw
        p = readout(random_state(3, np.random.default_rng(seed)))
        k = 50
        rng = np.random.default_rng(seed)
        draws = np.array([sample_index(p, rng) for _ in range(k)])
        reference = np.random.default_rng(seed)
        cdf = np.cumsum(p)
        u = reference.random(k) * cdf[-1]
        below = np.concatenate(([0.0], cdf))[draws]  # mass below each drawn index
        assert np.all(below <= u) and np.all(u < cdf[draws])
        assert rng.random() == reference.random()  # both at the same stream position
        # the k-shot form draws the same indices from the same k uniforms
        at_once = np.random.default_rng(seed)
        assert np.array_equal(sample_indices(p, at_once, k), draws)
        assert at_once.random() == np.random.default_rng(seed).random(k + 1)[k]

    def test_zero_probability_never_drawn(self):
        # support {2, 6}: zeros before, between and after it
        s = basis_state(3, 0b010).apply_single_qubit(hadamard(), 0)
        p = readout(s)
        for u in (0.0, np.nextafter(1.0, 0.0)):  # the ends of the uniform's range
            assert sample_index(p, FixedUniform(u)) in (2, 6)
        rng = np.random.default_rng(6)
        first = per_call_prefix(lambda r: measure(s, r), rng)
        draws = sample_indices(p, rng, 10_000)
        assert draws[:100].tolist() == first
        assert set(draws.tolist()) == {2, 6}

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_every_draw_lands_on_a_positive_entry(self, data):
        # unnormalised weights with zero runs at both ends and inside, and
        # subnormal entries (a subnormal total can round u up to itself)
        weight = st.one_of(
            st.just(0.0),
            st.floats(5e-324, 2.2250738585072014e-308),  # subnormal
            st.floats(0.0, 1e6),
        )
        core = data.draw(st.lists(weight, min_size=1, max_size=20).filter(lambda w: sum(w) > 0))
        zeros = st.integers(0, 3)
        p = np.array([0.0] * data.draw(zeros) + core + [0.0] * data.draw(zeros))
        ends = st.sampled_from([0.0, np.nextafter(1.0, 0.0)])  # the ends of the uniform's range
        u = data.draw(st.one_of(ends, st.floats(0.0, 1.0, exclude_max=True)))
        i = sample_index(p, FixedUniform(u))
        assert 0 <= i < len(p) and p[i] > 0


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
        assert abs(readout(s).sum() - 1.0) < 1e-10


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
            s.apply_single_qubit(Gate2x2(u), target)
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
                s.apply_controlled_single_qubit(Gate2x2(u), control, target)
                assert np.abs(s.amplitudes - expected).max() < 1e-12


    @pytest.mark.parametrize("n", range(1, 6))
    def test_diagonal_single_qubit(self, n):
        rng = np.random.default_rng(700 + n)
        for target in range(n):
            for u in diagonal_gates(rng):
                s = random_state(n, rng)
                dense = kron_all(u if q == target else I2 for q in range(n))
                expected = dense @ s.amplitudes
                s.apply_single_qubit(Gate2x2(u), target)
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
                    s.apply_controlled_single_qubit(Gate2x2(u), control, target)
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
                s.apply_single_qubit(Gate2x2(u), target)
                assert np.array_equal(s.amplitudes, expected), (n, u, target)
            for control, target in pairs:
                expected = expression_form_2x2(s.amplitudes, u, [control, target])
                s.apply_controlled_single_qubit(Gate2x2(u), control, target)
                assert np.array_equal(s.amplitudes, expected), (n, u, control, target)

    @pytest.mark.parametrize("n", [16, 17])
    def test_halves_across_several_blocks(self, n):
        # more than 2^15 floats per gate: the butterfly goes piece by piece
        rng = np.random.default_rng(950 + n)
        s = random_state(n, rng)
        h = hadamard().matrix
        for target in range(n):
            expected = expression_form_2x2(s.amplitudes, h, [target])
            s.apply_single_qubit(Gate2x2(h), target)
            assert np.array_equal(s.amplitudes, expected), (n, target)
        for later in (n - 1, n - 2, n - 3):
            for other in (0, later // 2, later - 1):
                for u in diagonal_gates(rng) + [h]:
                    for qubits in ([later, other], [other, later]):
                        expected = expression_form_2x2(s.amplitudes, u, qubits)
                        s.apply_controlled_single_qubit(Gate2x2(u), *qubits)
                        assert np.array_equal(s.amplitudes, expected), (n, u, qubits)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_signed_zero_entries(self, data):
        # the complex products' 0 * im terms are where a zero's sign can differ
        n = data.draw(st.integers(1, 7), label="n")
        parts = data.draw(
            st.lists(
                st.sampled_from([0.0, -0.0, 0.0, -0.0, 0.5, -1.0])
                | st.floats(-1.0, 1.0, allow_subnormal=False),
                min_size=2 << n,
                max_size=2 << n,
            ),
            label="parts",
        )
        norm = np.linalg.norm(parts)
        assume(norm > 1e-3)
        psi = (np.array(parts) / norm).view(complex)  # a complex division would drop -0.0
        assert np.signbit(psi.view(float)).tolist() == np.signbit(parts).tolist()
        rng = np.random.default_rng(n)
        h = hadamard().matrix
        pairs = [[c, t] for c in range(n) for t in range(n) if c != t]
        if len(pairs) > 8:
            pairs = [pairs[i] for i in rng.choice(len(pairs), 8, replace=False)]
        spans = [[t] for t in range(n)] + pairs
        for u in every_gate_kind(rng):
            for qubits in spans:
                s = StateVector(n, psi)
                expected = expression_form_2x2(psi, u, qubits)
                if len(qubits) == 1:
                    s.apply_single_qubit(Gate2x2(u), *qubits)
                else:
                    s.apply_controlled_single_qubit(Gate2x2(u), *qubits)
                assert np.array_equal(s.amplitudes, expected), (u, qubits)
                if np.array_equal(u, h):  # real arithmetic on each part, signed zeros too
                    for got, part in ((s.amplitudes.real, psi.real), (s.amplitudes.imag, psi.imag)):
                        want = expression_form_2x2(part.copy(), h.real, qubits)
                        assert got.tobytes() == want.tobytes(), qubits


class TestScratch:
    @pytest.mark.parametrize("target", [0, 10, 18, 19])
    def test_first_hadamard_allocates_no_register(self, target):
        # a 16 MiB register: the butterfly's temporary is one 256 KiB piece at a time
        s = basis_state(20)
        assert peak_traced_bytes(lambda: s.apply_single_qubit(hadamard(), target)) <= 1 << 20
        assert np.count_nonzero(s.amplitudes) == 2

    def test_copy_does_not_share_the_buffer(self):
        rng = np.random.default_rng(11)
        s1 = random_state(5, rng).apply_single_qubit(hadamard(), 2)
        s2 = s1.copy()
        expected = expression_form_2x2(s2.amplitudes, hadamard().matrix, [0])
        s2.apply_single_qubit(hadamard(), 0)
        s1.apply_single_qubit(pauli_x(), 4)
        assert np.array_equal(s2.amplitudes, expected)
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
                s.apply_permutation(Permutation(table, w), span)
                assert np.array_equal(s.amplitudes, expected), (span, table)

    @pytest.mark.parametrize(
        "span",
        [[0, 1, 2, 3, 4, 5], [2, 3, 4, 0, 1], [4, 5, 1, 2], [3, 2, 1, 0], [0, 1, 3, 4], [5, 0, 1, 2, 3, 4]],
    )
    def test_permutation_on_runs_of_adjacent_qubits(self, span):
        """Qubits listed as q, q+1, ... share one axis of the permutation's view."""
        rng = np.random.default_rng(len(span) + span[0])
        table = rng.permutation(1 << len(span))
        s = random_state(6, rng)
        expected = brute_force_permutation(s.amplitudes, 6, span, table)
        s.apply_permutation(Permutation(table, len(span)), span)
        assert np.array_equal(s.amplitudes, expected)

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
                s.apply_permutation(Permutation(table, w), span)
                assert np.array_equal(s.amplitudes, expected), (span, table)

    @pytest.mark.parametrize("modulus", [5, 7, 15, 21])
    def test_controlled_modmult(self, modulus):
        rng = np.random.default_rng(modulus)
        w = (modulus - 1).bit_length()
        n = w + 2
        for power in range(3):
            b = pow(2, 1 << power, modulus)
            # control bit then target value; control 0 and values >= N stay
            table = list(range(1 << w)) + [
                (1 << w) | (b * x % modulus if x < modulus else x) for x in range(1 << w)
            ]
            order = [int(q) for q in rng.permutation(n)]
            control, targets = order[0], order[1 : w + 1]
            s = random_state(n, rng)
            expected = brute_force_permutation(s.amplitudes, n, [control] + targets, table)
            controlled_modmult(b, modulus, s, control, targets)
            assert np.array_equal(s.amplitudes, expected)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_controlled_permutation_every_control(self, n):
        """One run (the lowest qubits, as in order finding), a scattered span and
        a reversed run, each under every control outside it: before the span,
        directly before its first qubit, between its qubits and after it."""
        rng = np.random.default_rng(700 + n)
        for w in range(1, min(6, n - 1) + 1):
            start = int(rng.integers(0, n - w + 1))
            spans = (
                list(range(n - w, n)),
                [int(q) for q in rng.permutation(n)[:w]],
                list(range(start + w - 1, start - 1, -1)),
            )
            for span in spans:
                for control in sorted(set(range(n)) - set(span)):
                    table = rng.permutation(1 << w)
                    s = random_state(n, rng)
                    expected = brute_force_permutation(
                        s.amplitudes, n, [control] + span, controlled_table(table)
                    )
                    s.apply_controlled_permutation(Permutation(table, w), control, span)
                    assert np.array_equal(s.amplitudes, expected), (control, span)

    @pytest.mark.parametrize(
        "n, control, span",
        [
            (16, 12, [13, 14, 15]),
            (16, 0, [10, 11, 12, 13, 14, 15]),
            (16, 15, [0, 1, 2, 3, 4, 5]),
            (16, 7, [15, 2, 9]),
            (17, 0, list(range(1, 17))),
            (17, 16, list(range(15, -1, -1))),
        ],
        ids=["run-after", "run-after-far", "run-before", "scattered", "w16", "w16-reversed"],
    )
    def test_controlled_permutation_in_pieces(self, n, control, span):
        """Registers cut into many 256 KiB pieces, or one row a piece at w = 16,
        against the joint-register permutation."""
        rng = np.random.default_rng(n + control)
        table = rng.permutation(1 << len(span))
        s = random_state(n, rng)
        joint = s.copy().apply_permutation(
            Permutation(controlled_table(table), len(span) + 1), [control] + span
        )
        s.apply_controlled_permutation(Permutation(table, len(span)), control, span)
        assert s.amplitudes.tobytes() == joint.amplitudes.tobytes()

    @pytest.mark.parametrize("control, span", [(2, [3, 4, 5]), (0, [5, 1, 3]), (5, [4, 3])])
    def test_controlled_identity_leaves_the_bytes(self, control, span):
        s = random_state(6, np.random.default_rng(control))
        before = s.amplitudes.tobytes()
        identity = Permutation(np.arange(1 << len(span)), len(span))
        s.apply_controlled_permutation(identity, control, span)
        assert s.amplitudes.tobytes() == before

    @pytest.mark.parametrize(
        "perm, control, span, error, message",
        [
            ([1, 0, 2, 3], 0, [1, 2], TypeError, "a map must be a Permutation, got list"),
            (
                Permutation([1, 0, 2, 3], 2),
                0,
                [1, 2, 3],
                ValueError,
                "permutation of 2 bits does not fit a span of 3 qubits",
            ),
            (Permutation([1, 0, 2, 3], 2), 2, [1, 2], ValueError, "span contains repeated qubits"),
        ],
        ids=["raw-table", "width-mismatch", "control-in-span"],
    )
    def test_controlled_refusals_move_nothing(self, perm, control, span, error, message):
        s = random_state(4, np.random.default_rng(9))
        before = s.amplitudes.tobytes()
        with pytest.raises(error, match=f"^{message}$"):
            s.apply_controlled_permutation(perm, control, span)
        assert s.amplitudes.tobytes() == before

    @pytest.mark.parametrize("n", range(1, 7))
    def test_marginal_every_width(self, n):
        rng = np.random.default_rng(500 + n)
        for w in range(1, n + 1):
            span = [int(q) for q in rng.permutation(n)[:w]]
            s = random_state(n, rng)
            expected = np.zeros(1 << w)
            for i, p in enumerate(np.abs(s.amplitudes) ** 2):
                expected[span_value(i, n, span)] += p
            assert np.abs(s.marginal_probabilities(span) - expected).max() < 1e-12


def marginal_spans(n: int) -> dict:
    """The spans that ``TestPieces`` reads out on n qubits, by kind."""
    return {
        "prefix": range(n // 2),
        "first": [0],  # rows longer than a piece above 15 qubits
        "whole": range(n),  # rows of one amplitude
        "long-prefix": range(n - 4),  # rows of 16 amplitudes
        "suffix": range(n - 3, n),  # strided rows, copied to contiguous memory
        "last": [n - 1],  # strided rows longer than a piece
        "most": range(1, n),
        "reversed-suffix": range(n - 1, n - 8, -1),  # a run listed backwards: one axis per qubit
        "middle": range(3, n - 3),
        "out-of-order": range(n - 1, 0, -2),
        "non-contiguous": [1, 4, n // 2, n - 2],
    }


class TestPieces:
    """Registers that the marginal (above 2^15 floats, on any span) and a
    permutation (above 2^15 floats moved) take a piece at a time, against
    whole-register references that share no code with the pieces, from the
    largest register taken in one piece on."""

    @pytest.mark.parametrize("n", range(15, 19))
    @pytest.mark.parametrize("kind", list(marginal_spans(15)))
    def test_marginal_bytes(self, n, kind):
        span = marginal_spans(n)[kind]
        s = random_state(n, np.random.default_rng(n))
        expected = whole_register_marginal(s.amplitudes, n, span)
        assert s.marginal_probabilities(span).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", range(15, 19))
    @pytest.mark.parametrize("kind", list(marginal_spans(15)))
    def test_marginal_values(self, n, kind):
        """Every value within 1e-14 relative of its correctly rounded
        ``math.fsum``: the bitwise test above restates the runtime's own
        arithmetic, this one checks what it computes."""
        span = marginal_spans(n)[kind]
        s = random_state(n, np.random.default_rng(n))
        exact = np.array(fsum_marginal(s.amplitudes, n, span))
        assert np.all(np.abs(s.marginal_probabilities(span) - exact) <= 1e-14 * exact)

    @pytest.mark.parametrize("n", range(15, 19))
    @pytest.mark.parametrize("kind", ["outer", "quarter", "adjacent"])
    def test_swap_bytes(self, n, kind):
        """The QFT's reversal swaps, qubit i with n - 1 - i, and a swap of neighbours."""
        i = {"outer": 0, "quarter": n // 4, "adjacent": n // 2}[kind]
        span = [i, i + 1] if kind == "adjacent" else [i, n - 1 - i]
        s = random_state(n, np.random.default_rng(100 + n))
        expected = brute_force_permutation(s.amplitudes, n, span, [0, 2, 1, 3])
        s.apply_permutation(Permutation([0, 2, 1, 3], 2), span)
        assert s.amplitudes.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("w", [8, 15])
    def test_wide_permutation_bytes(self, w):
        """Hundreds of moved values, a few pieces of the other axes each, and
        more moved values than a piece holds, one element of them a piece."""
        rng = np.random.default_rng(w)
        span = [int(q) for q in rng.permutation(16)[:w]]
        table = rng.permutation(1 << w)
        s = random_state(16, rng)
        expected = brute_force_permutation(s.amplitudes, 16, span, table)
        s.apply_permutation(Permutation(table, w), span)
        assert s.amplitudes.tobytes() == expected.tobytes()

    def test_peak_memory(self):
        # 20 qubits (16 MiB): a whole-register |a|^2 and its reordered copy
        # peaked at 16 MiB, and a swap's gather of half the register at 8 MiB;
        # the whole register's marginal is itself 8 MiB
        s = random_state(20, np.random.default_rng(20))
        assert peak_traced_bytes(lambda: s.marginal_probabilities(range(10))) < 1 << 20
        assert peak_traced_bytes(lambda: s.marginal_probabilities(range(20))) < 9 << 20
        assert peak_traced_bytes(lambda: s.marginal_probabilities(range(10, 20))) < 1 << 20
        assert peak_traced_bytes(lambda: s.marginal_probabilities([1, 4, 10, 18])) < 2 << 20
        swap = Permutation([0, 2, 1, 3], 2)
        assert peak_traced_bytes(lambda: s.apply_permutation(swap, [0, 19])) < 1 << 20
