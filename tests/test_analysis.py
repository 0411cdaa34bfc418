import io
import json
import math
import warnings

import numpy as np
import pytest

from helpers import (
    complex_ratio_readout,
    max_abs_minor,
    peak_traced_bytes,
    random_state,
    reference_analytic_distribution,
    reference_sweep_success_bound,
    reference_sweep_tail_bound,
    reference_table,
    sorted_tails,
)
from kickback.analysis import (
    SUCCESS_BOUND,
    _tails,
    cross_minor_entanglement,
    default_phase_grid,
    offset_phase_grid,
    sweep_success_bound,
    sweep_tail_bound,
)
from kickback.gates import hadamard
from kickback.phase_estimation import _BLOCK_CELLS, analytic_distribution, wrap_half
from kickback.statevec import CapacityError, StateVector, basis_state


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
        report = sweep_tail_bound(m_list=[m], phi_grid=offset_phase_grid(20))
        entry = report.entries[-1]
        assert entry["k"] == 1 << (m - 1)
        assert entry["value"] == 0.0
        assert entry["margin"] > 0

    def test_m8_k4_below_one_seventh(self):
        report = sweep_tail_bound(m_list=[8], phi_grid=offset_phase_grid(50))
        entry = report.entries[2]
        assert entry["k"] == 4
        assert entry["bound"] == pytest.approx(1 / 7)
        assert entry["value"] < 1 / 7

    def test_small_full_sweep_passes(self):
        report = sweep_tail_bound(m_list=[3, 4, 5], phi_grid=offset_phase_grid(50))
        assert report.worst_margin > 0

    def test_memory_bounded_by_one_block(self):
        # the whole 200 x 4095 tail table plus its blocks peaked at 12.8 MiB
        grid = offset_phase_grid(200)
        peak = peak_traced_bytes(lambda: sweep_tail_bound(m_list=[13], phi_grid=grid))
        assert peak < 10 << 20

    def test_report_memory_is_its_columns(self):
        # 2^15 values of k on one phase: one entry dict per k peaked at 16.1 MiB
        grid = offset_phase_grid(1)
        peak = peak_traced_bytes(lambda: sweep_tail_bound(m_list=[16], phi_grid=grid))
        assert peak < 8 << 20

    def test_csv_writer_holds_one_piece_of_rows(self):
        # 2^15 - 1 rows of six fields: converting every column at once peaked at 5.6 MiB
        report = sweep_tail_bound(m_list=[16], phi_grid=offset_phase_grid(1))

        class Discard:
            def write(self, text):
                return len(text)

        assert peak_traced_bytes(lambda: report.to_csv(Discard())) < 2 << 20


def reference_grids(m: int) -> dict:
    """Phase grids whose rows cover every kind of readout row at width m.

    Above m = 8 the default, offset and random grids keep every 2^(m-8)th
    point, so the point-by-point reference stays within a second or two.
    """
    dim = 1 << m
    every = 1 << max(0, m - 8)
    picks = np.unique(np.linspace(0, dim - 1, min(dim, 64)).astype(np.int64))
    return {
        "default": default_phase_grid()[::every],
        "offset": offset_phase_grid()[::every],
        "random": np.random.default_rng(m).random(300)[::every],
        "tie": (2 * picks + 1) / (2 * dim),  # half-way between two estimates
        "dyadic": picks / dim,  # exactly on an estimate
    }


class TestAgainstPointByPoint:
    """The table sweeps equal the point-by-point reference field for field."""

    @pytest.mark.parametrize("m", range(1, 13))
    def test_every_entry_equal(self, m):
        for grid in reference_grids(m).values():
            got = sweep_success_bound(m_list=[m], phi_grid=grid).entries
            assert got == reference_sweep_success_bound(m_list=[m], phi_grid=grid)
            if m >= 2:
                got = sweep_tail_bound(m_list=[m], phi_grid=grid).entries
                assert got == reference_sweep_tail_bound(m_list=[m], phi_grid=grid)

    @pytest.mark.parametrize("m", range(1, 13))
    def test_analytic_distribution_equal(self, m):
        for grid in reference_grids(m).values():
            for phi in grid[:: max(1, len(grid) // 50)].tolist():
                got, want = analytic_distribution(phi, m), reference_analytic_distribution(phi, m)
                assert got.best == want.best
                assert got.delta == want.delta
                assert got.success_prob == want.success_prob
                assert np.array_equal(got.distribution, want.distribution)


class TestWideRows:
    """Rows wider than a piece of ``_fill_readouts`` (``_BLOCK_CELLS >> 2``
    cells), evaluated a piece of columns at a time, equal the point-by-point
    reference, which evaluates the whole row at once, and hold about the
    row's one array of readouts."""

    @pytest.mark.parametrize("m", [17, 18, 19])
    def test_pieces_equal_the_whole_row(self, m):
        dim, piece = 1 << m, _BLOCK_CELLS >> 2
        t = dim - piece + 5  # a cell in the last piece
        phases = [
            t / dim,  # exactly on readout t: d = 0 there, P = 1
            (dim - 1) / dim,
            (2 * t + 1) / (2 * dim),  # half-way between readouts t and t + 1
            (2 * piece - 1) / (2 * dim),  # half-way across the first piece boundary
            *np.random.default_rng(m).random(2),
        ]
        for phi in phases:
            want = reference_analytic_distribution(phi, m)
            got = analytic_distribution(phi, m)
            assert (got.best, got.delta) == (want.best, want.delta)
            assert got.success_prob == want.success_prob
            assert got.distribution.tobytes() == want.distribution.tobytes()
        exact = analytic_distribution(phases[0], m)
        assert exact.distribution[t] == 1.0 and exact.best == (t,) and exact.delta == 0.0
        assert analytic_distribution(phases[2], m).best == (t, t + 1)

    def test_analytic_distribution_peak_memory(self):
        # 2^19 cells: the whole row's complex temporaries peaked at 40.5 MiB, a
        # whole-row |d| and mask to find the best estimates at 12.6 MiB, the
        # complex ratio's piece temporaries at 11.0 MiB, a whole-row array of
        # d beside the probabilities at 10.0 MiB, and pieces of 2^16 columns at
        # 6.5 MiB; the row alone is 4 MiB
        assert peak_traced_bytes(lambda: analytic_distribution(0.3, 19)) < 5.0 * 2**20

    def test_analytic_distribution_peak_memory_at_20(self):
        # 2^20 cells: a whole-row |d| and mask to find the best estimates peaked at
        # 25.0 MiB, the complex ratio's piece temporaries at 19.0 MiB, a whole-row
        # array of d beside the probabilities at 18.0 MiB, and pieces of 2^16
        # columns at 10.5 MiB; the row alone is 8 MiB
        assert peak_traced_bytes(lambda: analytic_distribution(0.3, 20)) < 9.0 * 2**20

    def test_tail_sweep_row_peak_memory(self):
        # a tail sweep of one 2^20-cell row: with its last block's tails, their
        # argmax and max alive through the report, it peaked at 72.5 MiB; the
        # report's six columns of 2^19 - 1 values are 24 MiB, and their
        # concatenated copies 24 MiB more
        grid = offset_phase_grid(1)
        peak = peak_traced_bytes(lambda: sweep_tail_bound(m_list=[20], phi_grid=grid))
        assert peak < 53.0 * 2**20

    def test_tails_row_peak_memory(self):
        # the tails of one 2^20-cell row, 2^19 - 1 values of k, evaluation
        # included: sorting the row, with its sorted errors and their ceil keys,
        # peaked at 48.0 MiB beside the row, and a table in column order gathered
        # into the walk at 28.0 MiB; the walk's readouts, filled in place with
        # their probabilities and then their cumsum, are 8 MiB, and a tail per
        # k 4 MiB
        grid, ks = offset_phase_grid(1), np.arange(2, (1 << 19) + 1)
        assert peak_traced_bytes(lambda: _tails(grid, 1 << 20, ks)) < 20.5 * 2**20


def walk_grids(m: int) -> dict:
    """Phases where a walk outward from the nearest readout could part from a
    sort by |d|: the estimates t/2^m and the half-way ties (2t + 1)/2^(m+1),
    exact (their errors tie), one ulp either side and 2^-52, 2^-40 and 1e-9
    either side (they nearly tie, and float errors round); 2^-53 and
    1 - 2^-53; and the offset, default and random grids. Each grid is
    thinned to at most 2^15 cells, one row above that."""
    dim = 1 << m
    picks = np.unique(np.linspace(0, dim - 1, 16).astype(np.int64))
    marks = np.concatenate([picks / dim, (2 * picks + 1) / (2 * dim)])
    near = [np.nextafter(marks, 0.0), np.nextafter(marks, 1.0)]
    near += [marks + e for e in (2**-52, -(2**-52), 2**-40, -(2**-40), 1e-9, -1e-9)]
    near = np.concatenate(near)
    grids = {
        "marks": marks,
        "near": near[(near >= 0.0) & (near < 1.0)],
        "ends": np.array([2**-53, 1 - 2**-53]),
        "offset": offset_phase_grid(),
        "default": default_phase_grid(),
        "random": np.random.default_rng(m).random(300),
    }
    return {name: grid[:: -(-(len(grid) << m) >> 15)] for name, grid in grids.items()}


class TestWalkOrder:
    """``_tails`` evaluates each row in a walk outward from its nearest
    readout; it equals the sort by |d| it replaced (``sorted_tails``) of the
    point-by-point reference rows (``reference_table``) bit for bit, ties and
    near ties included."""

    @pytest.mark.parametrize("m", range(2, 19))
    def test_equals_the_sort(self, m):
        ks = np.arange(2, (1 << (m - 1)) + 1)
        for name, grid in walk_grids(m).items():
            want = sorted_tails(grid, reference_table(grid, m), ks)
            assert _tails(grid, 1 << m, ks).tobytes() == want.tobytes(), name


class TestNoWarnings:
    """The closed form evaluates every cell, an exact readout (d = 0) too, with
    no warning scope: ``np.sinc`` takes x = 0 to exactly 1, so no 0/0 is read
    and no warning may reach the caller."""

    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @pytest.mark.parametrize("m", [1, 3, 8])
    def test_analytic_distribution_at_dyadic_phases(self, m):
        for t in range(0, 1 << m, max(1, (1 << m) // 16)):
            ana = analytic_distribution(t / (1 << m), m)
            assert ana.best == (t,) and ana.distribution[t] == 1.0

    def test_sweeps_over_dyadic_phases(self):
        grid = default_phase_grid(64)  # 0, 1/64, ... hold dyadics at every width
        assert sweep_success_bound(m_list=[1, 2, 6, 10], phi_grid=grid).worst_margin > 0
        assert sweep_tail_bound(m_list=[2, 6, 10], phi_grid=grid).worst_margin > 0

    def test_wide_row(self):
        m = 17
        probs = analytic_distribution(5 / 8, m).distribution
        assert probs[5 << (m - 3)] == 1.0 and np.isfinite(probs).all()


def edge_grids(m: int) -> dict:
    """Phase grids at the edges of the success sweep's two-cell search.

    The float neighbours above and below the estimates t/2^m and the
    half-way ties (2t + 1)/2^(m+1): every one up to m = 8, 256 of each kind
    to m = 12 and 64 at m = 13 and 14, where each point-by-point reference
    row costs 2^m cells. Then the largest phase below 1 and single points.
    """
    dim = 1 << m
    count = dim if m <= 8 else 256 if m <= 12 else 64
    picks = np.unique(np.linspace(0, dim - 1, count).astype(np.int64))
    marks = np.concatenate([picks / dim, (2 * picks + 1) / (2 * dim)])
    above, below = np.nextafter(marks, 1.0), np.nextafter(marks, 0.0)
    return {
        "above": above,
        "below": below,
        "top": [1 - 2**-53],
        "single tie": [marks[-1]],
        "single above": [above[1]],
        "single below": [below[-1]],
    }


class TestSweepEdges:
    """The two-cell success sweep equals the point-by-point reference on the
    grids where the nearest readout changes, and stays small."""

    @pytest.mark.parametrize("m", range(1, 15))
    def test_every_entry_equal(self, m):
        for name, grid in edge_grids(m).items():
            got = sweep_success_bound(m_list=[m], phi_grid=grid).entries
            assert got == reference_sweep_success_bound(m_list=[m], phi_grid=grid), name

    def test_memory_at_the_widest_default_sweep(self):
        # m = 14 is the widest the qubit cap allows at the default 1000 phases;
        # the whole 1000 x 2^14 table, in blocks, peaked at 6.6 MiB
        peak = peak_traced_bytes(lambda: sweep_success_bound(m_list=[14]))
        assert peak < 2 << 20


def accuracy_grid(m: int) -> np.ndarray:
    """``edge_grids``' phases at m, up to 256 estimates t/2^m themselves, 0
    among them (their rows hold d = 0 and d = 1/2), and 16 random phases:
    every k-th of them, k chosen so the table holds about 2^20 cells."""
    dim = 1 << m
    dyadic = np.unique(np.linspace(0, dim - 1, min(dim, 256)).astype(np.int64)) / dim
    grid = np.concatenate([*edge_grids(m).values(), dyadic, np.random.default_rng(m).random(16)])
    return grid[:: max(1, (len(grid) << m) >> 20)]


class TestAgainstTheComplexRatio:
    """The readout's values equal its geometric sum as a complex ratio,
    a form that shares no code with the sinc one, to 1e-13. The largest
    difference found, on these grids unthinned up to m = 14 and every 8th
    phase of them above, was 8.9e-16."""

    @pytest.mark.parametrize("m", [*range(1, 15), 17, 18, 19])
    def test_table_values(self, m):
        dim = 1 << m
        for phi in accuracy_grid(m).tolist():
            probs = analytic_distribution(phi, m).distribution
            delta = wrap_half(phi - np.arange(dim) / dim)
            assert np.abs(probs - complex_ratio_readout(delta, dim)).max() <= 1e-13


class TestSweepInputs:
    @pytest.mark.parametrize(
        "sweep, kwargs, name",
        [
            (sweep_success_bound, {"phi_grid": []}, "phi_grid"),
            (sweep_success_bound, {"m_list": []}, "m_list"),
            (sweep_tail_bound, {"m_list": [1]}, "m_list"),
        ],
    )
    def test_empty_input_rejected(self, sweep, kwargs, name):
        with pytest.raises(ValueError, match=name):
            sweep(**kwargs)

    @pytest.mark.parametrize("sweep", [sweep_success_bound, sweep_tail_bound])
    @pytest.mark.parametrize("bad", [1.0, -0.1, float("nan")])
    def test_phase_outside_unit_interval_rejected(self, sweep, bad):
        with pytest.raises(ValueError, match=r"phase must lie in \[0, 1\)"):
            sweep(m_list=[3], phi_grid=[0.25, bad])

    @pytest.mark.parametrize("sweep", [sweep_success_bound, sweep_tail_bound])
    def test_table_bounded_by_the_qubit_cap(self, monkeypatch, sweep):
        monkeypatch.setenv("KICKBACK_MAX_QUBITS", "8")
        grid = offset_phase_grid(32)
        assert sweep(m_list=[3], phi_grid=grid).worst_margin > 0  # 2^5 x 2^3 cells: at the cap
        with pytest.raises(CapacityError, match=r"33 x 2\^3 cells exceeds the cap of 2\^8"):
            sweep(m_list=[3], phi_grid=offset_phase_grid(33))
        with pytest.raises(CapacityError, match="9 qubits exceeds the cap of 8"):
            sweep(m_list=[9], phi_grid=[0.5])


class TestReport:
    @pytest.mark.parametrize(
        "sweep, grid",
        [(sweep_success_bound, default_phase_grid(16)), (sweep_tail_bound, offset_phase_grid(16))],
    )
    def test_numpy_widths_give_the_same_bytes(self, sweep, grid):
        def outputs(m_list):
            report = sweep(m_list=m_list, phi_grid=grid)
            buf = io.StringIO()
            report.to_csv(buf)
            return json.dumps(report.to_record()), buf.getvalue()

        assert outputs(np.arange(3, 5)) == outputs([3, 4])

    @pytest.mark.parametrize("sweep", [sweep_success_bound, sweep_tail_bound])
    def test_float_width_rejected(self, sweep):
        with pytest.raises(TypeError):
            sweep(m_list=[3.0], phi_grid=[0.25])

    def test_csv_round_trip(self):
        report = sweep_success_bound(m_list=[3], phi_grid=[0.0, 0.1, 0.2])
        buf = io.StringIO()
        report.to_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0].split(",") == ["m", "phi", "value", "bound", "margin"]
        assert len(lines) == 4

    @pytest.mark.parametrize("sweep", [sweep_success_bound, sweep_tail_bound])
    def test_entries_are_python_scalars_and_the_worst_is_the_first_minimum(self, sweep):
        # every phase here is an estimate at m = 4 and 5, so the success margins all tie
        report = sweep(m_list=[4, 5], phi_grid=[0.25, 0.5, 0.0625])
        entries = report.entries
        assert all(type(e["m"]) is int and type(e["value"]) is float for e in entries)
        assert all(type(e["k"]) is int for e in entries if "k" in e)
        assert report.worst_entry == min(entries, key=lambda e: e["margin"])
        assert report.worst_margin == report.worst_entry["margin"]
        if sweep is sweep_success_bound:
            assert report.worst_entry == entries[0]

    def test_record_shape(self):
        report = sweep_success_bound(m_list=[3], phi_grid=[0.1])
        record = report.to_record()
        assert record["points"] == 1
        assert "worst_margin" in record
        assert record["worst_entry"]["m"] == 3

