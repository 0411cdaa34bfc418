"""Fourier transform over Z_{2^m} as a gate network.

The network is the usual ladder: for each span qubit a Hadamard followed by
controlled rotations r_k with controls on the later qubits, finished by an
explicit qubit reversal (swaps). Keeping the reversal inside qft means the
output convention is exactly

    |a>  ->  2^{-m/2} sum_y exp(2 pi i a y / 2^m) |y>

and callers never track reversed qubit order. ``dft_reference`` applies the
same map as a dense matrix, serving as an independent oracle for tests.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .gates import _rotation, hadamard
from .statevec import CapacityError, Permutation, StateVector

DENSE_MAX_WIDTH = 12


def _ladder(state: StateVector, span: Sequence[int], inverse: bool) -> StateVector:
    """The Fourier network on ``span``; ``inverse`` runs it backwards.

    Step (i, 1) is the Hadamard on span qubit i and step (i, k > 1) the
    rotation r_k controlled by span qubit i + k - 1; the inverse takes the
    steps in reverse order with conjugated rotations.
    """
    qubits = list(span)
    state._view(qubits)  # check the span before building any step
    m = len(qubits)
    steps = [(i, k) for i in range(m) for k in range(1, m - i + 1)]
    if inverse:
        _reverse_qubits(state, qubits)
        steps.reverse()
    h = hadamard()
    rotations = {k: _rotation(k, np.conj if inverse else np.asarray) for k in range(2, m + 1)}
    for i, k in steps:
        if k == 1:
            state.apply_single_qubit(h, qubits[i])
        else:
            state.apply_controlled_single_qubit(rotations[k], qubits[i + k - 1], qubits[i])
    if not inverse:
        _reverse_qubits(state, qubits)
    return state


def _reverse_qubits(state: StateVector, qubits: list[int]) -> None:
    m = len(qubits)
    swap = Permutation([0, 2, 1, 3], 2)  # built per transform, never at import
    for i in range(m // 2):
        state.apply_permutation(swap, [qubits[i], qubits[m - 1 - i]])


def qft(state: StateVector, span: Sequence[int]) -> StateVector:
    """Fourier-transform the span (qubit span[0] is the MSB of the value)."""
    return _ladder(state, span, inverse=False)


def inverse_qft(state: StateVector, span: Sequence[int]) -> StateVector:
    """Exact inverse: the same network backwards with conjugated rotations."""
    return _ladder(state, span, inverse=True)


def dft_reference(state: StateVector, span: Sequence[int], inverse: bool = False) -> StateVector:
    """Dense 2^m x 2^m Fourier matrix applied by direct multiplication.

    Mathematically identical to qft / inverse_qft but shares no gate code
    with them. Capped at 12 qubits by the dense cost.
    """
    qubits = list(span)
    m = len(qubits)
    if m > DENSE_MAX_WIDTH:
        raise CapacityError(f"dense reference capped at {DENSE_MAX_WIDTH} qubits, got {m}")
    dim = 1 << m
    y = np.arange(dim)
    sign = -1.0 if inverse else 1.0
    roots = np.exp(sign * 2j * np.pi * y / dim) / np.sqrt(dim)
    f = roots[np.outer(y, y) % dim]  # e^{+-2 pi i xy / 2^m} depends on xy mod 2^m only

    n = state.num_qubits
    rest = [q for q in range(n) if q not in qubits]
    order = qubits + rest
    t = state.amplitudes.reshape([2] * n)
    t = np.transpose(t, order).reshape(dim, -1)
    t = f @ t
    t = np.transpose(t.reshape([2] * n), np.argsort(order))
    state.amplitudes = np.ascontiguousarray(t).reshape(-1)
    return state
