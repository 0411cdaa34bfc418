"""Gate and oracle constructors.

Single-qubit gates are validated 2x2 unitaries. Classical functions enter
the simulation as reversible oracles: the f-controlled-NOT sends the basis
component (x, y) to (x, y XOR f(x)). Oracles are applied wholesale as
register permutations rather than decomposed into elementary gate networks;
the semantics are identical, and the O(width^2) elementary-gate cost of a
decomposed controlled modular multiplication is a bookkeeping fact, not
something this module materializes.

Oracle tables can be loaded from text, one line per input::

    00 -> 1
    01 -> 0
    ...

Every input pattern must appear exactly once (totality is enforced).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .statevec import MapSpec, StateVector, check_unitary, total_table


class Gate2x2:
    """A 2x2 unitary, validated at construction and immutable after."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        m = np.array(matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
        check_unitary(m)
        m.setflags(write=False)
        self.matrix = m

    def dagger(self) -> Gate2x2:
        """Conjugate transpose (the inverse gate)."""
        return Gate2x2(self.matrix.conj().T)


def hadamard() -> Gate2x2:
    """Rows (1, 1)/sqrt 2 and (1, -1)/sqrt 2."""
    s = 1.0 / math.sqrt(2.0)
    return Gate2x2([[s, s], [s, -s]])


def pauli_x() -> Gate2x2:
    """Bit flip; used to prepare |1> ancillae."""
    return Gate2x2([[0, 1], [1, 0]])


def r_k(k: int) -> Gate2x2:
    """diag(1, e^{2 pi i / 2^k}); the rotation ladder step of the Fourier net."""
    if k < 1:
        raise ValueError(f"rotation index must be >= 1, got {k}")
    return Gate2x2([[1, 0], [0, np.exp(2j * math.pi / (1 << k))]])


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
    """

    def __init__(self, n_in: int, m_out: int, f: MapSpec):
        if n_in < 1 or m_out < 1:
            raise ValueError("oracle arities must be >= 1")
        table = total_table(f, n_in, m_out, "oracle table").copy()
        table.setflags(write=False)
        self.n_in = n_in
        self.m_out = m_out
        self.table = table
        self.call_count = 0
        self._count_lock = threading.Lock()

    def evaluate(self, x: int) -> int:
        """Classical evaluation; does not touch call_count."""
        if not 0 <= x < (1 << self.n_in):
            raise ValueError(f"input {x} out of range")
        return int(self.table[x])

    def _record_call(self) -> None:
        with self._count_lock:
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
    if set(ispan) & set(ospan):
        raise ValueError("input and output spans overlap")
    apply_controlled_map(state, ispan, ospan, lambda x, y: y ^ oracle.table[x])
    oracle._record_call()
    return state


def apply_controlled_map(
    state: StateVector,
    control_span: Sequence[int],
    target_span: Sequence[int],
    g: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> StateVector:
    """Send (x, y) to (x, g(x, y)), x read on the control span, y on the target.

    ``g`` is called once, on the arrays of every (x, y) pair of the joint
    register, and must permute the target values for each x. Every oracle
    of this package is such a map: the table is built here and applied as
    one permutation.
    """
    controls, targets = list(control_span), list(target_span)
    m = len(targets)
    v = np.arange(1 << (len(controls) + m))
    x, y = v >> m, v & ((1 << m) - 1)
    return state.apply_permutation((x << m) | g(x, y), controls + targets)


@dataclass(frozen=True)
class ModMultSpec:
    """Controlled multiply-by-base^(2^power) mod modulus.

    The realized multiplier is computed classically, so one gate stands in
    for 2^power sequential multiplications.
    """

    base: int
    modulus: int
    power: int

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError("modulus must be >= 2")
        if not 1 <= self.base < self.modulus:
            raise ValueError("base must satisfy 1 <= base < modulus")
        if math.gcd(self.base, self.modulus) != 1:
            raise ValueError(
                f"base {self.base} and modulus {self.modulus} are not coprime"
            )
        if self.power < 0:
            raise ValueError("power must be >= 0")

    def multiplier(self) -> int:
        return pow(self.base, 1 << self.power, self.modulus)


def controlled_modmult(
    spec: ModMultSpec,
    state: StateVector,
    control: int,
    target_span: Sequence[int],
) -> StateVector:
    """Apply x -> multiplier*x mod N on the target span when control is 1.

    Values x >= N are fixed points, which makes the map a bijection on the
    whole span and is unobservable as long as inputs stay below N.
    """
    targets = list(target_span)
    w = len(targets)
    if (1 << w) < spec.modulus:
        raise ValueError(f"target span of {w} qubits cannot hold values mod {spec.modulus}")
    if control in targets:
        raise ValueError("control qubit cannot be part of the target span")
    b, mod = spec.multiplier(), spec.modulus
    return apply_controlled_map(
        state, [control], targets, lambda c, y: np.where((c == 1) & (y < mod), b * y % mod, y)
    )
