"""Median nanoseconds per amplitude of the Fourier network's two gate kernels,
of order finding's controlled multiply, of the Hadamard layer, of the
Fourier network's reversal swap and of a readout's marginal, and per cell
of the closed-form readout and of the tail sweep's tails.

For each register width 12, 16, 20 and 22, and each of its first, middle,
second-to-last and last qubits q, the first table gives the time of a
Hadamard on q and of r_2 controlled by q (with target q - 1, or qubit 1 when
q is 0), divided by the 2^n amplitudes of the register: the same unit as the
benchmark's ``ns_per_amp``. The second table gives, for controls q = 0,
(n - 6) // 2 and n - 7, the time of ``controlled_modmult(5, 63, state, q,
range(n - 6, n))``: multiply by 5 mod 63 on the six lowest qubits, the
target of an order-finding network for N = 63. The third table gives the
time of ``apply_hadamard_layer(n)``, a Hadamard on every qubit, divided by
n 2^n: per amplitude per qubit, the unit of the first table's H column. The
fourth table gives, for i = 0 and n // 4, the time of ``apply_permutation(
Permutation([0, 2, 1, 3], 2), [i, n - 1 - i])``: one swap of the QFT's bit
reversal, qubit i with qubit n - 1 - i. The fifth table gives the time of
``marginal_probabilities``: on n // 2 qubits, the prefix span 0, 1, ...,
as a readout's control register, the out-of-order span n - 1, n - 3, ...,
1, every other qubit listed from the last down, and the suffix run n // 2,
..., n - 1, whose rows are strided; and on qubit 0 alone, whose two rows are
longer than a piece from 16 qubits on. The sixth table
gives, for m = 12, 16, 20 and 22, the time of ``_fill_readouts`` on the
cells of the tail sweep's first block of ``offset_phase_grid(200)`` at m,
in column order (readouts 0..2^m - 1 on each row, copied fresh for each
call, since the fill overwrites them), divided by the block's cells: 16 rows
of 2^12 cells at m = 12, one row of 2^m cells above. It passes only that
block's phases, since the whole table is over the default qubit cap above
m = 16. Its second column gives, on the same phases, the time of
``_tails(grid, 2^m, ks)``: each row's walk outward from the nearest
readout, evaluated in place, and its tail mass at every k = 2..2^(m-1),
divided by the block's cells. Each cell is the median of seven timed
batches on a random state; a batch at width n (or of 2^n readout cells)
runs 2^max(0, 20 - n) calls, so a small register is not timed one call at
a time::

    PYTHONPATH=src python tools/kernel_ns.py

``kickback`` is imported from ``PYTHONPATH``, so the same file times any
tree. Run nothing else at the same time; a width-22 register takes 64 MiB.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from kickback.analysis import _tails, offset_phase_grid
from kickback.gates import controlled_modmult, hadamard, r_k
from kickback.phase_estimation import _BLOCK_CELLS, _fill_readouts
from kickback.statevec import Permutation, StateVector

WIDTHS = (12, 16, 20, 22)
BATCHES = 7


def ns_per_amp(apply, n: int) -> float:
    calls = 1 << max(0, 20 - n)
    apply()  # warm-up: first-touch faults and caches
    times = []
    for _ in range(BATCHES):
        start = time.perf_counter()
        for _ in range(calls):
            apply()
        times.append((time.perf_counter() - start) / calls)
    return statistics.median(times) * 1e9 / (1 << n)


def main() -> None:
    rng = np.random.default_rng(1)
    h, r2, swap = hadamard(), r_k(2), Permutation([0, 2, 1, 3], 2)
    print(f"{'n':>3} {'qubit':>5} {'H':>8} {'c-r_2':>8}   (ns per amplitude)")
    multiplies, layers, swaps, marginals = [], [], [], []
    for n in WIDTHS:
        z = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        state = StateVector(n, z / np.linalg.norm(z))
        del z
        for q in (0, n // 2, n - 2, n - 1):
            target = q - 1 if q else 1
            single = ns_per_amp(lambda: state.apply_single_qubit(h, q), n)
            controlled = ns_per_amp(lambda: state.apply_controlled_single_qubit(r2, q, target), n)
            print(f"{n:>3} {q:>5} {single:>8.2f} {controlled:>8.2f}")
        span = range(n - 6, n)
        for q in (0, (n - 6) // 2, n - 7):
            mult = ns_per_amp(lambda: controlled_modmult(5, 63, state, q, span), n)
            multiplies.append((n, q, mult))
        layers.append((n, ns_per_amp(lambda: state.apply_hadamard_layer(n), n) / n))
        for i in (0, n // 4):
            reversal = [i, n - 1 - i]
            swaps.append((n, i, ns_per_amp(lambda: state.apply_permutation(swap, reversal), n)))
        spans = range(n // 2), range(n - 1, 0, -2), range(n // 2, n), [0]
        times = [ns_per_amp(lambda: state.marginal_probabilities(s), n) for s in spans]
        marginals.append((n, *times))
    print(f"\n{'n':>3} {'ctrl':>5} {'c-mult':>8}   (5 mod 63 on qubits n-6..n-1, ns per amplitude)")
    for n, q, mult in multiplies:
        print(f"{n:>3} {q:>5} {mult:>8.2f}")
    print(f"\n{'n':>3} {'H-layer':>8}   (H on all n qubits, ns per amplitude per qubit)")
    for n, layer in layers:
        print(f"{n:>3} {layer:>8.2f}")
    print(f"\n{'n':>3} {'i':>5} {'swap':>8}   (qubit i with qubit n-1-i, ns per amplitude)")
    for n, i, t in swaps:
        print(f"{n:>3} {i:>5} {t:>8.2f}")
    print(
        f"\n{'n':>3} {'prefix':>8} {'scatter':>8} {'suffix':>8} {'first':>8}"
        "   (marginal, ns per amplitude)"
    )
    for n, *times in marginals:
        print(f"{n:>3}", *(f"{t:>8.2f}" for t in times))
    print(f"\n{'m':>3} {'readout':>8} {'tails':>8}   (first block of 200 phases, ns per cell)")
    for m in WIDTHS:
        # the block's own phases: the whole table is over the qubit cap above m = 16
        grid = offset_phase_grid(200)[: max(1, _BLOCK_CELLS >> m)]
        dim, ks = 1 << m, np.arange(2, (1 << (m - 1)) + 1)
        cells = np.tile(np.arange(dim, dtype=np.int64), (len(grid), 1))
        log_cells = (len(grid) << m).bit_length() - 1  # the block holds 2^log_cells cells
        readout = ns_per_amp(lambda: _fill_readouts(grid, cells.copy(), dim), log_cells)
        tails = ns_per_amp(lambda: _tails(grid, dim, ks), log_cells)
        del cells
        print(f"{m:>3} {readout:>8.2f} {tails:>8.2f}")


if __name__ == "__main__":
    main()
