"""Product-state check and bound sweeps, independent of the gate ladders.

``cross_minor_entanglement`` measures how far a state is from a product
across a qubit cut; the sweeps check the paper's phase-estimation bounds on
the closed-form readout distribution. States are equal, and probabilities
sum, to 1e-10.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .phase_estimation import analytic_distribution, tail_bound, wrap_half
from .statevec import StateVector, _check_capacity

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


@dataclass
class BoundSweepReport:
    """Outcome of sweeping a computed quantity against a stated bound.

    Each entry carries the grid point, the computed value, the bound, and
    ``margin`` = distance into the allowed region (positive means the bound
    holds with room to spare). A sweep passes when worst_margin > 0.
    """

    description: str
    entries: list[dict] = field(default_factory=list)

    @property
    def worst_margin(self) -> float:
        return min(e["margin"] for e in self.entries)

    @property
    def worst_entry(self) -> dict:
        return min(self.entries, key=lambda e: e["margin"])

    def to_record(self) -> dict:
        """Compact JSON-compatible summary."""
        return {
            "description": self.description,
            "points": len(self.entries),
            "worst_margin": float(self.worst_margin),
            "worst_entry": {k: _plain(v) for k, v in self.worst_entry.items()},
        }

    def to_csv(self, f) -> None:
        """Write one row per grid point (for plots)."""
        fields = list(self.entries[0].keys())
        writer = csv.DictWriter(f, fieldnames=fields)
        writer.writeheader()
        for entry in self.entries:
            writer.writerow({k: _plain(v) for k, v in entry.items()})


def _plain(v):
    if isinstance(v, (np.floating, float)):
        return float(v)
    if isinstance(v, (np.integer, int)):
        return int(v)
    return v


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
    """Check best-estimate success probability >= 4/pi^2 over a phase grid."""
    grid = default_phase_grid() if phi_grid is None else np.asarray(phi_grid)
    report = BoundSweepReport(
        description="best-estimate success probability vs 4/pi^2"
    )
    for m in m_list:
        for phi in grid:
            success = analytic_distribution(float(phi), m).success_prob
            report.entries.append(
                {
                    "m": m,
                    "phi": float(phi),
                    "value": success,
                    "bound": SUCCESS_BOUND,
                    "margin": success - SUCCESS_BOUND,
                }
            )
    return report


def sweep_tail_bound(
    m_list: Iterable[int] = range(3, 11),
    k_values: Sequence[int] | None = None,
    phi_grid: Sequence[float] | None = None,
) -> BoundSweepReport:
    """Check P[wrap error > k/2^m] < 1/(2k-1), worst case over a phase grid."""
    grid = offset_phase_grid() if phi_grid is None else np.asarray(phi_grid)
    report = BoundSweepReport(
        description="tail probability of error > k/2^m vs 1/(2k-1)"
    )
    for m in m_list:
        _check_capacity(m)
        dim = 1 << m
        ks = np.asarray(
            k_values if k_values is not None else range(2, (1 << (m - 1)) + 1),
            dtype=np.int64,
        )
        worst_tail = np.full(ks.shape, -1.0)
        worst_phi = np.zeros(ks.shape)
        t_over = np.arange(dim) / dim
        for phi in grid:
            probs = analytic_distribution(float(phi), m).distribution
            errs = np.abs(wrap_half(phi - t_over))
            order = np.argsort(errs)
            cum = np.cumsum(probs[order])
            # tail(k) = total mass with wrap error strictly above k/2^m
            cut = np.searchsorted(errs[order], ks / dim, side="right")
            tails = cum[-1] - np.where(cut > 0, cum[np.maximum(cut - 1, 0)], 0.0)
            better = tails > worst_tail
            worst_tail[better] = tails[better]
            worst_phi[better] = phi
        for k, tail, phi in zip(ks, worst_tail, worst_phi):
            bound = tail_bound(int(k))
            report.entries.append(
                {
                    "m": m,
                    "k": int(k),
                    "phi": float(phi),
                    "value": float(tail),
                    "bound": bound,
                    "margin": bound - float(tail),
                }
            )
    return report
