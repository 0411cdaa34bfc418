"""Dense state-vector simulation of an n-qubit register.

A register of n qubits is a numpy array of 2**n complex amplitudes indexed
by basis integer. Qubit 0 is the most significant bit of that integer:
|a1 a2 ... an> sits at index 2**(n-1)*a1 + ... + 2**0*an. Every module in
this package uses this single convention.

All randomness flows through numpy Generator objects (PCG64, as returned by
``np.random.default_rng``), so a fixed seed reproduces the same outcome
sequence on every platform.

Every kernel addresses amplitudes through one view: the amplitude array
reshaped with one length-2 axis per qubit it acts on, the other qubits
merged into the axes in between. A gate updates the amplitude pairs of its
target axis (on the control-1 slice for a controlled gate):

- A diagonal gate scales the target-0 and target-1 slices in place and
  skips a factor that is exactly 1, so a controlled phase writes only the
  control-1/target-1 quarter.
- A general gate writes its products into a scratch array of 2**n
  amplitudes that each vector allocates on first use and keeps, so no gate
  allocates a temporary the size of the register.
- Products are written scalar first (``c * x``), because numpy's complex
  ``x * c`` can differ in the last bit; results equal the whole-array
  expression ``m00 a + m01 b`` bit for bit.

A permutation and a marginal move the span's axes to the front, so that
index x on those axes holds every amplitude whose span reads x; a
permutation moves only the span values its table does not fix. No kernel
builds an index array over the whole register.

Gate and permutation methods mutate the vector in place and return ``self``
so calls can be chained. A vector must be driven from one thread at a time;
distinct vectors are fully independent.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence, Union

import numpy as np

# a total map on w-bit inputs: a table of 2**w entries or a callable
MapSpec = Union[Sequence[int], np.ndarray, Callable[[int], int]]

DEFAULT_MAX_QUBITS = 24
MAX_QUBITS_ENV = "KICKBACK_MAX_QUBITS"

UNITARY_TOL = 1e-10
MEASURE_NORM_TOL = 1e-8


class CapacityError(ValueError):
    """Requested register exceeds the configured qubit cap."""


def max_qubits() -> int:
    """Soft cap on register width; override with KICKBACK_MAX_QUBITS."""
    raw = os.environ.get(MAX_QUBITS_ENV)
    if raw is None:
        return DEFAULT_MAX_QUBITS
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{MAX_QUBITS_ENV} must be an integer, got {raw!r}") from None


def _check_capacity(num_qubits: int) -> None:
    """Raise CapacityError for a width above the cap, before any allocation."""
    cap = max_qubits()
    if num_qubits > cap:
        raise CapacityError(
            f"{num_qubits} qubits exceeds the cap of {cap} "
            f"(override with {MAX_QUBITS_ENV})"
        )


def check_unitary(matrix: np.ndarray, tol: float = UNITARY_TOL) -> np.ndarray:
    """Return ``matrix`` as a complex array, raising unless it is unitary.

    Unitarity means every entry of U+U - I is below ``tol`` in modulus.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix contains non-finite entries")
    defect = float(np.abs(m.conj().T @ m - np.eye(m.shape[0])).max())
    if defect > tol:
        raise ValueError(f"matrix is not unitary (defect {defect:.3e} > {tol:.0e})")
    return m


def _gate_matrix(gate) -> np.ndarray:
    """Coerce ``gate`` to a validated 2x2 unitary array.

    Objects exposing a ``matrix`` attribute (gates.Gate2x2) are trusted to
    have been validated at construction; raw arrays are checked here.
    """
    trusted = hasattr(gate, "matrix")
    m = np.asarray(getattr(gate, "matrix", gate), dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 gate matrix, got shape {m.shape}")
    if not trusted:
        check_unitary(m)
    return m


def sample_index(probabilities: np.ndarray, rng: np.random.Generator) -> int:
    """Draw one index from a probability vector using one uniform variate."""
    cdf = np.cumsum(probabilities)
    u = rng.random() * cdf[-1]
    return int(np.searchsorted(cdf, u, side="right"))


class StateVector:
    """2**n complex amplitudes of an n-qubit register."""

    __slots__ = ("num_qubits", "amplitudes", "_scratch")

    def __init__(self, num_qubits: int, amplitudes: np.ndarray | None = None):
        if num_qubits < 1:
            raise ValueError("a register needs at least one qubit")
        _check_capacity(num_qubits)
        dim = 1 << num_qubits
        if amplitudes is None:
            amps = np.zeros(dim, dtype=complex)
            amps[0] = 1.0
        else:
            amps = np.array(amplitudes, dtype=complex)
            if amps.shape != (dim,):
                raise ValueError(f"expected {dim} amplitudes, got shape {amps.shape}")
            if not np.all(np.isfinite(amps.real)) or not np.all(np.isfinite(amps.imag)):
                raise ValueError("amplitudes contain non-finite entries")
            if abs(np.vdot(amps, amps).real - 1.0) > MEASURE_NORM_TOL:
                raise ValueError("amplitudes are not normalized")
        self.num_qubits = num_qubits
        self.amplitudes = amps
        self._scratch = None  # 2**n amplitudes for the general 2x2 update

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits

    def copy(self) -> StateVector:
        out = StateVector.__new__(StateVector)
        out.num_qubits = self.num_qubits
        out.amplitudes = self.amplitudes.copy()
        out._scratch = None
        return out

    def __repr__(self) -> str:
        return f"StateVector(num_qubits={self.num_qubits})"

    def _view(self, qubits: Sequence[int]) -> tuple[np.ndarray, list[int]]:
        """A reshape of the amplitudes with one length-2 axis per listed qubit.

        The other qubits are merged into the axes between them, so the view
        has shape (2^a, 2, 2^b, 2, ..., 2^z) in qubit order. Returns the view
        and the axis of each listed qubit, in the order listed.
        """
        listed = [int(q) for q in qubits]
        if not listed:
            raise ValueError("span must contain at least one qubit")
        if len(set(listed)) != len(listed):
            raise ValueError("span contains repeated qubits")
        for q in listed:
            if not 0 <= q < self.num_qubits:
                raise ValueError(f"qubit {q} out of range for {self.num_qubits} qubits")
        order = sorted(listed)
        shape, prev = [], -1
        for q in order:
            shape += [1 << (q - prev - 1), 2]
            prev = q
        shape.append(1 << (self.num_qubits - 1 - prev))
        axes = [2 * order.index(q) + 1 for q in listed]
        return self.amplitudes.reshape(shape), axes

    @staticmethod
    def _span_first(view: np.ndarray, axes: list[int]) -> np.ndarray:
        """``view`` with the listed axes moved to the front, in listed order."""
        return view.transpose(axes + [a for a in range(view.ndim) if a not in axes])

    # -- gates ----------------------------------------------------------

    def _apply_2x2(self, gate, qubits: Sequence[int]) -> StateVector:
        """Apply ``gate`` to the last listed qubit where every other one reads 1."""
        m = _gate_matrix(gate)
        view, axes = self._view(qubits)
        # length-1 slices keep every operand an array, even on one qubit
        pick = [slice(None)] * view.ndim
        for ax in axes:
            pick[ax] = slice(1, 2)
        one = tuple(pick)
        pick[axes[-1]] = slice(0, 1)
        zero = tuple(pick)
        a, b = view[zero], view[one]
        if a.size == 1:
            # numpy rounds a one-element product written in place differently,
            # so one amplitude per half keeps the expression form
            a[...], b[...] = m[0, 0] * a + m[0, 1] * b, m[1, 0] * a + m[1, 1] * b
            return self
        if m[0, 1] == 0 and m[1, 0] == 0:
            for c, x in ((m[0, 0], a), (m[1, 1], b)):
                if c != 1:
                    np.multiply(c, x, out=x)
            return self
        # a product is written in place or into the scratch array, never onto
        # other amplitudes: numpy rounds overlapping operands differently
        if self._scratch is None:
            self._scratch = np.empty(self.dim, dtype=complex)
        t = self._scratch[: a.size].reshape(a.shape)
        u = self._scratch[a.size : 2 * a.size].reshape(a.shape)
        np.multiply(m[0, 0], a, out=t)
        np.multiply(m[0, 1], b, out=u)
        np.add(t, u, out=t)  # new a = m00 a + m01 b
        np.multiply(m[1, 0], a, out=u)
        np.multiply(m[1, 1], b, out=b)
        np.add(u, b, out=b)  # new b = m10 a + m11 b
        a[...] = t
        return self

    def apply_single_qubit(self, gate, target: int) -> StateVector:
        """Apply a 2x2 unitary to ``target``; qubit 0 is the MSB."""
        return self._apply_2x2(gate, [target])

    def apply_controlled_single_qubit(self, gate, control: int, target: int) -> StateVector:
        """Apply ``gate`` to ``target`` on the subspace where ``control`` is 1."""
        if control == target:
            raise ValueError("control and target must be different qubits")
        return self._apply_2x2(gate, [control, target])

    def apply_permutation(self, perm: MapSpec, span: Sequence[int]) -> StateVector:
        """Relabel the basis values of ``span`` by a bijection.

        The amplitude whose span bits read x moves to span bits perm(x);
        all other bits are untouched, so the norm is preserved exactly.
        ``span`` lists qubits MSB-first with respect to the span value; it
        does not have to be contiguous. ``perm`` is a table (length
        2**len(span)) or a callable, and is verified to be a bijection.
        Only the span values the table moves are read and written: the
        amplitudes of a fixed point x = perm(x) stay where they are.
        """
        view, axes = self._view(span)
        w = len(axes)
        table = _permutation_table(perm, w)
        moved = np.flatnonzero(table != np.arange(1 << w))
        if moved.size:
            front = self._span_first(view, axes)  # index x on the w span axes: span reads x
            span_shape = front.shape[:w]
            src = np.unravel_index(moved, span_shape)
            dst = np.unravel_index(table[moved], span_shape)
            front[dst] = front[src]  # the gather copies before the scatter writes
        return self

    # -- readout --------------------------------------------------------

    def probabilities(self) -> np.ndarray:
        """Born-rule probabilities |amplitude_i|**2 for every basis index."""
        return np.abs(self.amplitudes) ** 2

    def marginal_probabilities(self, span: Sequence[int]) -> np.ndarray:
        """Distribution of the span's value, summed over all other qubits."""
        view, axes = self._view(span)
        p = self._span_first(np.abs(view) ** 2, axes)
        return p.reshape(1 << len(axes), -1).sum(axis=1)

    def measure_all(self, rng: np.random.Generator, collapse: bool = False) -> int:
        """Sample a basis index; optionally collapse onto the outcome.

        Raises if the squared norm strays from 1 by more than 1e-8.
        """
        p = self.probabilities()
        total = float(p.sum())
        if abs(total - 1.0) > MEASURE_NORM_TOL:
            raise ValueError(f"state is not normalized (probability mass {total})")
        outcome = sample_index(p, rng)
        if collapse:
            self.amplitudes[:] = 0.0
            self.amplitudes[outcome] = 1.0
        return outcome


def total_table(spec: MapSpec, in_bits: int, out_bits: int, what: str) -> np.ndarray:
    """``spec`` as an int64 table, checked to be total with values in [0, 2**out_bits).

    A table is returned as ``np.asarray`` gives it, so it may be the caller's
    own array; a caller that keeps it makes its own copy.
    """
    size = 1 << in_bits
    if callable(spec):
        table = np.fromiter((spec(x) for x in range(size)), dtype=np.int64, count=size)
    else:
        table = np.asarray(spec, dtype=np.int64)
    if table.shape != (size,):
        raise ValueError(f"{what} must have {size} entries, got shape {table.shape}")
    if table.min() < 0 or table.max() >= (1 << out_bits):
        raise ValueError(f"{what} values must lie in [0, 2^{out_bits})")
    return table


def _permutation_table(perm: MapSpec, width: int) -> np.ndarray:
    table = total_table(perm, width, width, "permutation table")
    if not (np.bincount(table, minlength=1 << width) == 1).all():
        raise ValueError("mapping is not a bijection (repeated image)")
    return table


def basis_state(num_qubits: int, index: int = 0) -> StateVector:
    """The computational basis state |index> on ``num_qubits`` qubits."""
    state = StateVector(num_qubits)
    if not 0 <= index < state.dim:
        raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
    state.amplitudes[0] = 0.0
    state.amplitudes[index] = 1.0
    return state
