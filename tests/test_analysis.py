import io
import math

import numpy as np
import pytest

from helpers import max_abs_minor, random_state
from kickback.analysis import (
    SUCCESS_BOUND,
    cross_minor_entanglement,
    offset_phase_grid,
    sweep_success_bound,
    sweep_tail_bound,
)
from kickback.gates import hadamard
from kickback.statevec import StateVector, basis_state


class TestCrossMinor:
    def test_product_state_is_flat(self):
        s = basis_state(2).apply_single_qubit(hadamard(), 1)  # |0> x |+>
        assert cross_minor_entanglement(s, [0]) < 1e-12

    def test_bell_state_is_half(self):
        amps = np.zeros(4, dtype=complex)
        amps[0] = amps[3] = 1 / math.sqrt(2)
        s = StateVector(2, amps)
        # Schmidt coefficients 1/sqrt 2 and 1/sqrt 2: half the mass is tail
        assert abs(cross_minor_entanglement(s, [0]) - 1 / math.sqrt(2)) < 1e-12

    @pytest.mark.parametrize("n", range(2, 9))
    def test_tail_bounds_every_minor(self, n):
        rng = np.random.default_rng(600 + n)
        for _ in range(5):
            s = random_state(n, rng)
            w = int(rng.integers(1, n))
            cut = [int(q) for q in rng.permutation(n)[:w]]
            rest = [q for q in range(n) if q not in cut]
            mat = np.transpose(s.amplitudes.reshape([2] * n), cut + rest).reshape(1 << w, -1)
            assert cross_minor_entanglement(s, cut) >= max_abs_minor(mat)

    def test_random_product_states(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            a = random_state(2, rng)
            b = random_state(3, rng)
            s = StateVector(5, np.kron(a.amplitudes, b.amplitudes))
            assert cross_minor_entanglement(s, [0, 1]) < 1e-12
            # any reordering of the cut is still a product
            assert cross_minor_entanglement(s, [3, 2, 4]) < 1e-12

    def test_generic_states_are_entangled(self):
        rng = np.random.default_rng(1)
        s = random_state(4, rng)
        assert cross_minor_entanglement(s, [0, 1]) > 1e-3

    def test_cut_validation(self):
        s = basis_state(2)
        with pytest.raises(ValueError):
            cross_minor_entanglement(s, [])
        with pytest.raises(ValueError):
            cross_minor_entanglement(s, [0, 1])  # nothing left on the right
        with pytest.raises(ValueError):
            cross_minor_entanglement(s, [0, 0])


class TestSuccessSweep:
    def test_dyadic_margin(self):
        report = sweep_success_bound(m_list=[4], phi_grid=[0.25, 0.5])
        for entry in report.entries:
            assert abs(entry["margin"] - (1.0 - SUCCESS_BOUND)) < 1e-12

    def test_small_sweep_passes(self):
        report = sweep_success_bound(m_list=[3, 4], phi_grid=np.linspace(0, 1, 50, endpoint=False))
        assert report.worst_margin >= -1e-12

    def test_worst_point_near_cell_boundary(self):
        m = 5
        grid = [(2 * 3 + 1) / 2 ** (m + 1) - 1e-9]  # just inside a tie point
        report = sweep_success_bound(m_list=[m], phi_grid=grid)
        assert report.worst_margin >= -1e-12
        assert report.worst_margin < 0.02


class TestTailSweep:
    def test_half_circle_tail_is_zero(self):
        m = 5
        report = sweep_tail_bound(m_list=[m], k_values=[1 << (m - 1)], phi_grid=offset_phase_grid(20))
        for entry in report.entries:
            assert entry["value"] == 0.0
            assert entry["margin"] > 0

    def test_m8_k4_below_one_seventh(self):
        report = sweep_tail_bound(m_list=[8], k_values=[4], phi_grid=offset_phase_grid(50))
        entry = report.entries[0]
        assert entry["bound"] == pytest.approx(1 / 7)
        assert entry["value"] < 1 / 7

    def test_small_full_sweep_passes(self):
        report = sweep_tail_bound(m_list=[3, 4, 5], phi_grid=offset_phase_grid(50))
        assert report.worst_margin > 0


class TestReport:
    def test_csv_round_trip(self):
        report = sweep_success_bound(m_list=[3], phi_grid=[0.0, 0.1, 0.2])
        buf = io.StringIO()
        report.to_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0].split(",") == ["m", "phi", "value", "bound", "margin"]
        assert len(lines) == 4

    def test_record_shape(self):
        report = sweep_success_bound(m_list=[3], phi_grid=[0.1])
        record = report.to_record()
        assert record["points"] == 1
        assert "worst_margin" in record
        assert record["worst_entry"]["m"] == 3

