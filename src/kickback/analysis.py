"""Product-state check and bound sweeps, independent of the gate ladders.

``cross_minor_entanglement`` measures how far a state is from a product
across a qubit cut; the sweeps check the paper's phase-estimation bounds on
the closed-form readout distribution of a grid x 2^m table per width m. The
tail sweep evaluates every cell of the table, a block of rows at a time, in
the order it reads them: outward from the readout nearest each phase. The
success sweep evaluates only the two cells nearest each phase. Both are
bounded by the qubit cap (``KICKBACK_MAX_QUBITS``): the table may hold no
more cells than the largest allowed register holds amplitudes. A sweep's
report is columns, one array per field, built from the arrays the sweep
computes, so it holds a few numbers per point and no Python object per
point until ``entries`` or ``to_csv`` reads it; ``to_csv`` reads a piece of
rows at a time, so writing a report holds one piece of Python rows, not all
of them. States are equal, and probabilities sum, to 1e-10.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .phase_estimation import _BLOCK_CELLS, _fill_readouts, _nearest_readouts, _readout_grid
from .phase_estimation import _readout_probability, tail_bound
from .statevec import StateVector

STATE_ATOL = 1e-10

SUCCESS_BOUND = 4.0 / math.pi**2


def cross_minor_entanglement(state: StateVector, left: Sequence[int]) -> float:
    """Schmidt tail of the state across a qubit cut.

    Reshape the state as a matrix M[left value, right value] with singular
    values s_1 >= s_2 >= ...; the state is a product across the cut iff
    rank M = 1. Returns sqrt(s_2^2 + s_3^2 + ...), the Frobenius distance
    from M to the nearest product (Eckart-Young); 0 up to tolerance for
    product states. By Cauchy-Binet every 2x2 minor of M is at most this
    tail in modulus when the state is normalized, so the tail is the
    stricter test.
    """
    view, axes = state._view(left)
    if len(axes) == state.num_qubits:
        raise ValueError("cut must leave at least one qubit on each side")
    mat = StateVector._span_first(view, axes).reshape(1 << len(axes), -1)
    sigma = np.linalg.svd(mat, compute_uv=False)  # descending
    return float(np.linalg.norm(sigma[1:]))


@dataclass(eq=False)  # columns are arrays: compare reports by their entries
class BoundSweepReport:
    """Outcome of sweeping a computed quantity against a stated bound.

    ``columns`` holds one array per field, one element per grid point, in
    field order: the grid point, the computed value, the bound, and
    ``margin`` = distance into the allowed region (positive means the bound
    holds with room to spare). A sweep passes when worst_margin > 0.
    ``entries`` reads the columns as one dict of Python scalars per point.
    """

    description: str
    columns: dict[str, np.ndarray]

    @property
    def entries(self) -> list[dict]:
        return [dict(zip(self.columns, row)) for row in self._rows()]

    @property
    def worst_margin(self) -> float:
        return float(self.columns["margin"].min())

    @property
    def worst_entry(self) -> dict:
        """The first point of least margin."""
        worst = self.columns["margin"].argmin()
        return {name: column[worst].item() for name, column in self.columns.items()}

    def to_record(self) -> dict:
        """Compact JSON-compatible summary."""
        return {
            "description": self.description,
            "points": len(self.columns["margin"]),
            "worst_margin": self.worst_margin,
            "worst_entry": self.worst_entry,
        }

    def to_csv(self, f) -> None:
        """Write one row per grid point (for plots)."""
        writer = csv.writer(f)
        writer.writerow(self.columns)
        writer.writerows(self._rows())

    def _rows(self):
        """The points as tuples of Python scalars, converted 4096 rows at a time."""
        columns = list(self.columns.values())
        for start in range(0, len(columns[0]), 4096):
            yield from zip(*(column[start : start + 4096].tolist() for column in columns))


def default_phase_grid(points: int = 1000) -> np.ndarray:
    """Evenly spaced phases in [0, 1), including dyadic points."""
    return np.arange(points) / points


def offset_phase_grid(points: int = 200) -> np.ndarray:
    """Evenly spaced phases avoiding exact dyadics (worst cases live here)."""
    return (np.arange(points) + 0.5) / points


def sweep_success_bound(
    m_list: Iterable[int] = range(3, 11),
    phi_grid: Sequence[float] | None = None,
) -> BoundSweepReport:
    """Check best-estimate success probability >= 4/pi^2 over a phase grid.

    The best estimates of phi are the one or two readouts nearest it
    (``_nearest_readouts``, the rule ``analytic_distribution`` uses), so
    only those two cells of the closed-form table are evaluated, with the
    bytes of the whole table: each cell's probability is the same
    elementwise expression (``_readout_probability``), and a row of zeros
    plus the one or two values sums to the same rounding of a + b as the
    two values alone. The inputs are checked, and the table capped, as for
    the whole table (``_readout_grid``).
    """
    ms, grid = _sweep_inputs(m_list, phi_grid, default_phase_grid)
    parts = []
    for m in ms:
        grid, dim = _readout_grid(grid, m)
        _, delta, best = _nearest_readouts(grid, dim)
        success = np.where(best, _readout_probability(delta, dim), 0.0).sum(axis=1)
        bound = np.full_like(success, SUCCESS_BOUND)
        parts.append((np.full(len(grid), m), grid, success, bound, success - bound))
    return _report(
        "best-estimate success probability vs 4/pi^2", ("m", "phi", "value", "bound", "margin"), parts
    )


def sweep_tail_bound(
    m_list: Iterable[int] = range(3, 11),
    phi_grid: Sequence[float] | None = None,
) -> BoundSweepReport:
    """Check P[wrap error > k/2^m] < 1/(2k-1) for k = 2..2^(m-1), worst case
    over a phase grid.

    The closed-form table is read a block of about ``_BLOCK_CELLS`` cells (at
    least one row) at a time: ``_tails`` evaluates each row of the block in
    order of |d|, outward from the phase's nearest readout, with no sort and
    no table in column order. Only the worst tail per k and its first row
    outlive a block.
    """
    ms, grid = _sweep_inputs(m_list, phi_grid, offset_phase_grid)
    if min(ms) < 2:
        raise ValueError("m_list must hold widths m >= 2, for k = 2..2^(m-1)")
    parts = []
    for m in ms:
        grid, dim = _readout_grid(grid, m)
        ks, step = np.arange(2, (1 << (m - 1)) + 1), max(1, _BLOCK_CELLS >> m)
        # per k, the largest tail so far and the first row that reached it
        worst, worst_tail = np.zeros(len(ks), dtype=int), np.full(len(ks), -np.inf)
        for start in range(0, len(grid), step):
            tails = _tails(grid[start : start + step], dim, ks)
            rows, best = tails.argmax(axis=0), tails.max(axis=0)
            better = best > worst_tail  # strictly, so an earlier row keeps a tie
            worst[better], worst_tail[better] = start + rows[better], best[better]
        del tails, rows, best, better  # the last block, freed before the report
        bound = tail_bound(ks)
        parts.append((np.full(len(ks), m), ks, grid[worst], worst_tail, bound, bound - worst_tail))
    return _report(
        "tail probability of error > k/2^m vs 1/(2k-1)",
        ("m", "k", "phi", "value", "bound", "margin"),
        parts,
    )


def _report(description: str, names: Sequence[str], parts: list[tuple]) -> BoundSweepReport:
    """A report whose column ``names[i]`` joins element i of every width's part."""
    return BoundSweepReport(description, dict(zip(names, map(np.concatenate, zip(*parts)))))


def _sweep_inputs(m_list, phi_grid, default_grid) -> tuple[list, np.ndarray]:
    """A sweep's widths, as Python ints, and phases; ValueError for an empty one."""
    ms = [operator.index(m) for m in m_list]
    grid = default_grid() if phi_grid is None else np.asarray(phi_grid, dtype=float)
    for name, values in (("m_list", ms), ("phi_grid", grid)):
        if len(values) == 0:
            raise ValueError(f"{name} is empty")
    return ms, grid


def _tails(phases: np.ndarray, dim: int, ks: np.ndarray) -> np.ndarray:
    """Per phase and k, the total probability of a wrap error strictly above
    k/2^m in the closed-form readout of 2^m = ``dim`` cells.

    By the closed form, a phase's readouts in order of |d| are the nearest
    readout t0 (``_nearest_readouts``), then the two sides alternately: t0,
    t0 + s, t0 - s, t0 + 2s, ... mod 2^m, where s = +-1 points to the other
    side of the phase (at a tie, the two cells hold equal probabilities, so
    their order moves no sum). Each row is that walk, evaluated in place in
    its order (``_fill_readouts``). So the errors <= k/2^m are the first 2k
    cells of the walk, or 2k + 1 when d = 0 at t0, and each tail is the
    row's total less the walk's cumsum there.
    """
    cells, delta, best = _nearest_readouts(phases, dim)
    # s = +1 when t0 is floor(phi 2^m), the readout below the phase, else -1; the
    # walk is t0 + s (0, 1, -1, 2, -2, ..., 2^(m-1)) mod 2^m, built in place
    walk = np.where(best[:, :1], 1, -1) * (np.arange(1, dim + 1, dtype=np.int64) >> 1)
    walk[:, 2::2] *= -1
    walk += np.where(best[:, :1], cells[:, :1], cells[:, 1:]).astype(np.int64)
    walk &= dim - 1
    cum = _fill_readouts(phases, walk, dim)  # the row's probabilities in walk order
    np.cumsum(cum, axis=1, out=cum)
    last = np.minimum(2 * ks - 1 + (delta[:, :1] == 0.0), dim - 1)  # the last cell with |d| <= k/2^m
    return cum[:, -1:] - np.take_along_axis(cum, last, axis=1)
