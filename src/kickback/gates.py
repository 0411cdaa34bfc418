"""Gate and oracle constructors.

Single-qubit gates are validated 2x2 unitaries. Classical functions enter
the simulation as reversible oracles: the f-controlled-NOT sends the basis
component (x, y) to (x, y XOR f(x)). Oracles are applied wholesale as
validated ``Permutation``s of the joint register rather than decomposed into
elementary gate networks; an ``Oracle`` builds its permutation once, on
first use. The semantics are identical, and the O(width^2) elementary-gate
cost of a decomposed controlled modular multiplication is a bookkeeping
fact, not something this module materializes. ``controlled_modmult`` takes
its multiplier as an integer (order finding passes a^(2^j) mod N), builds
the w-bit map of the target alone (y -> b y mod N, values y >= N fixed) and
has ``StateVector.apply_controlled_permutation`` move it on the control-1
slice; it leaves the coprimality check to the ``Permutation`` it builds. A
multiplier b = 1 mod N is the identity: after the span checks it returns at
once, building and moving nothing.

Oracle tables can be loaded from text, one line per input::

    00 -> 1
    01 -> 0
    ...

Every input pattern must appear exactly once (totality is enforced).
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Sequence

import numpy as np

from .statevec import INV_SQRT2, Gate2x2, MapSpec, Permutation, StateVector, _check_capacity
from .statevec import total_table


def hadamard() -> Gate2x2:
    """Rows (1, 1)/sqrt 2 and (1, -1)/sqrt 2."""
    return Gate2x2([[INV_SQRT2, INV_SQRT2], [INV_SQRT2, -INV_SQRT2]])


def r_k(k: int) -> Gate2x2:
    """diag(1, e^{2 pi i / 2^k}); the rotation ladder step of the Fourier net."""
    return _rotation(k, np.asarray)


def _rotation(k: int, form: Callable) -> Gate2x2:
    """r_k's matrix, passed through ``form`` before the one check: ``np.conj`` builds
    the inverse transform's step, whose e^{-2 pi i / 2^k} is conj(e^{2 pi i / 2^k})
    to the bit, as ``r_k(k).dagger()`` has it."""
    if k < 1:
        raise ValueError(f"rotation index must be >= 1, got {k}")
    return Gate2x2(form([[1, 0], [0, np.exp(2j * math.pi / (1 << k))]]))


def phase_shifter(phi: float) -> Gate2x2:
    """diag(1, e^{i phi}), the relative-phase convention phi = phi_1 - phi_0."""
    if not math.isfinite(phi):
        raise ValueError(f"phase must be finite, got {phi}")
    return Gate2x2([[1, 0], [0, np.exp(1j * phi)]])


class Oracle:
    """A total map f: {0,1}^n_in -> {0,1}^m_out with an invocation counter.

    ``call_count`` counts f-controlled-NOT gate applications (the query
    notion of the algorithms here), not classical table lookups; it is
    incremented exactly once per application regardless of how wide a
    superposition the gate acts on. Updates are lock-protected so oracles
    can be shared across threads driving distinct state vectors.
    ``f`` is a table of 2^n_in integers in [0, 2^m_out). ``n_in``,
    ``m_out`` and ``table`` are read-only, so the permutation built from
    them on first use cannot go stale.
    """

    def __init__(self, n_in: int, m_out: int, f: MapSpec):
        if n_in < 1 or m_out < 1:
            raise ValueError("oracle arities must be >= 1")
        table = total_table(f, n_in, m_out, "oracle table").copy()
        table.setflags(write=False)
        self._n_in, self._m_out, self._table = n_in, m_out, table
        self._permutation = None
        self.call_count = 0
        self._lock = threading.Lock()

    n_in = property(lambda self: self._n_in)
    m_out = property(lambda self: self._m_out)
    table = property(lambda self: self._table)

    def evaluate(self, x: int) -> int:
        """Classical evaluation; does not touch call_count."""
        if not 0 <= x < (1 << self.n_in):
            raise ValueError(f"input {x} out of range")
        return int(self.table[x])

    def permutation(self) -> Permutation:
        """(x, y) -> (x, y ^ f(x)) on n_in + m_out bits, built once, on first use."""
        with self._lock:
            if self._permutation is None:
                f = self._table
                self._permutation = controlled_map(self._n_in, self._m_out, lambda x, y: y ^ f[x])
            return self._permutation

    def _record_call(self) -> None:
        with self._lock:
            self.call_count += 1


def parse_oracle_text(text: str) -> Oracle:
    """Parse the ``x_bits -> y_bits`` table format, one line per input."""
    entries: dict[int, int] = {}
    n_in = m_out = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split("->")
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'x_bits -> y_bits'")
        x_bits, y_bits = parts[0].strip(), parts[1].strip()
        for bits in (x_bits, y_bits):
            if not bits or set(bits) - {"0", "1"}:
                raise ValueError(f"line {lineno}: {bits!r} is not a bit string")
        if n_in is None:
            n_in, m_out = len(x_bits), len(y_bits)
        elif (len(x_bits), len(y_bits)) != (n_in, m_out):
            raise ValueError(f"line {lineno}: inconsistent bit widths")
        x = int(x_bits, 2)
        if x in entries:
            raise ValueError(f"line {lineno}: duplicate input {x_bits}")
        entries[x] = int(y_bits, 2)
    if n_in is None:
        raise ValueError("oracle table is empty")
    if len(entries) != (1 << n_in):
        raise ValueError(
            f"oracle table is not total: {len(entries)} of {1 << n_in} inputs given"
        )
    return Oracle(n_in, m_out, [entries[x] for x in range(1 << n_in)])


def load_oracle(path) -> Oracle:
    """Read an oracle table from a file in the text format."""
    with open(path, "r", encoding="utf-8") as f:
        return parse_oracle_text(f.read())


def f_controlled_not(
    oracle: Oracle,
    state: StateVector,
    input_span: Sequence[int],
    output_span: Sequence[int],
) -> StateVector:
    """XOR f(input span) into the output span: (x, y) -> (x, y ^ f(x))."""
    ispan = list(input_span)
    ospan = list(output_span)
    if len(ispan) != oracle.n_in or len(ospan) != oracle.m_out:
        raise ValueError(
            f"span widths ({len(ispan)}, {len(ospan)}) do not match oracle "
            f"arities ({oracle.n_in}, {oracle.m_out})"
        )
    state._view(ispan + ospan)  # check the spans before building the permutation
    state.apply_permutation(oracle.permutation(), ispan + ospan)
    oracle._record_call()
    return state


def controlled_map(
    control_bits: int,
    target_bits: int,
    g: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> Permutation:
    """The permutation (x, y) -> (x, g(x, y)) of x on the high bits, y on the low.

    ``g`` is called once, on the arrays of every (x, y) pair of the joint
    register, and must permute the target values for each x. Every oracle
    of this package is such a map, applied as one permutation.
    """
    m = target_bits
    _check_capacity(control_bits + m)  # before the joint table is built
    v = np.arange(1 << (control_bits + m))
    x, y = v >> m, v & ((1 << m) - 1)
    return Permutation((x << m) | g(x, y), control_bits + m)


def controlled_modmult(
    multiplier: int,
    modulus: int,
    state: StateVector,
    control: int,
    target_span: Sequence[int],
) -> StateVector:
    """Apply x -> multiplier*x mod N on the target span when control is 1.

    The multiplier acts as its residue mod N. Values x >= N are fixed
    points, which makes the map a bijection on the whole span when the
    multiplier is coprime to N, and is unobservable as long as inputs stay
    below N. A multiplier that is not coprime is refused by the
    ``Permutation`` check, before any amplitude moves; a multiplier of 1 mod
    N builds no table and moves nothing.
    """
    targets = list(target_span)
    w = len(targets)
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    if (1 << w) < modulus:
        raise ValueError(f"target span of {w} qubits cannot hold values mod {modulus}")
    b = multiplier % modulus  # reduced first: a multiplier of N or more can overflow int64
    state._view([control] + targets)  # check the span before building the permutation
    if b == 1:  # the identity: nothing to build or move
        return state
    table = np.concatenate((b * np.arange(modulus) % modulus, np.arange(modulus, 1 << w)))
    return state.apply_controlled_permutation(Permutation(table, w), control, targets)
