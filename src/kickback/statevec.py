"""Dense state-vector simulation of an n-qubit register.

A register of n qubits is a numpy array of 2**n complex amplitudes indexed
by basis integer. Qubit 0 is the most significant bit of that integer:
|a1 a2 ... an> sits at index 2**(n-1)*a1 + ... + 2**0*an. Every module in
this package uses this single convention.

All randomness flows through numpy Generator objects (PCG64, as returned by
``np.random.default_rng``), so a fixed seed draws the same outcomes on every
platform. Printed amplitudes can still differ in their last bits between
numpy's SIMD dispatch levels, because its complex multiply, which the
diagonal gates use, rounds differently by level; the marginal, in real
arithmetic, does not.

Every gate kernel addresses amplitudes through one view: the amplitude
array reshaped with one length-2 axis per qubit it acts on, the other qubits
merged into the axes in between. ``apply_hadamard_layer`` and ``fan_out``
reshape the register directly instead, since they act on the leading qubits
0..k-1: the layer to (2^q, 2, rest) for each qubit q, ``fan_out`` to 2^k
rows. A gate updates the amplitude pairs (a, b) of its target axis, on the
control-1 slice for a controlled gate, by the path its ``Gate2x2`` chose
when built:

- diagonal: a and b are scaled in place, skipping a factor of exactly 1, so
  a controlled phase writes only the control-1/target-1 quarter;
- butterfly, the real [[c, c], [c, -c]] of H: on the float64 parts,
  t = c (a, b), a = t_a + t_b and b = t_a - t_b, in pieces of at most 2^15
  floats (256 KiB, which stay in L2), so no gate allocates an array the
  size of the register;
- general (in this package only test gates, such as X): the whole-array
  expression m00 a + m01 b, m10 a + m11 b.

numpy's inner loop runs along the last axis, which is a contiguous run of
32 bytes or less when the target or a control is qubit n-1 or n-2. The
diagonal and butterfly paths then move every axis that short first and
iterate in C order, so the inner loop runs along a long strided axis (a
half of 4 KiB or less is left as it is: its short loops cost less than the
transpose).

Products are written scalar first (``c * x``), because numpy's complex
``x * c`` can differ in the last bit. Every path equals the expression form
as numbers (``np.array_equal``); only the sign of an exact zero can differ:
the butterfly's real arithmetic keeps a -0.0 part that the complex 0 * im
terms turn into +0.0, and the diagonal path leaves out the 0 * b terms.

Every kickback network opens and closes its controls with a Hadamard layer
on qubits 0..k-1. ``fan_out`` opens it: it writes the Hadamards of k controls
that read 0 over a target directly, since each H scales by c = 2^(-1/2) and
adds an exact zero, so every row is the target's float parts times c, k
times. It keeps a -0.0 part, which the butterfly turns into +0.0 in all rows
but the last; no start state has one. ``apply_hadamard_layer`` closes it: the
butterfly on each of the k qubits in turn, the same float operations as k
single-qubit Hadamards. c has one definition, ``INV_SQRT2``, which
``gates.hadamard`` reads too, so the three agree to the bit.

A permutation and a marginal move the span's axes to the front, so that
index x on those axes holds every amplitude whose span reads x, and view
each run of span qubits listed as q, q+1, ... as one axis. A permutation
moves only the span values it does not fix: it builds one source and one
destination index array per run, each as long as the list of moved values,
so a span that is one run costs two. Every gather takes a piece of the
other axes at a time, at most ``_BLOCK`` floats each (one amplitude per
moved value if more move): a small register is one piece, and a QFT swap
above 15 qubits holds 256 KiB, not half the register. A marginal views the
amplitudes as floats, so that row x holds the real and imaginary parts of
every amplitude whose span reads x, in the order of the other qubits' value,
and sums re^2 + im^2 along each row: it squares a piece of whole rows of at
most ``_BLOCK`` floats at a time (one row if a row is longer) into contiguous
memory, which copies strided rows, and sums each row pairwise. It takes no
complex ``abs``, a hypot whose last bit varies with numpy's SIMD level. The
rows of a prefix span 0, 1, ..., w-1 (every marginal this package takes) are
contiguous; any other span's are copied a piece at a time. The pieces keep
the bytes of the whole-register expressions. The view is the one place a span is
checked; a measurement is the span's marginal and one ``sample_index`` draw.

A controlled permutation (order finding's y -> b y mod N) moves whole rows
instead. On the control-1 slice, which keeps the control an axis of its own,
the span's axes go last in listed order as one axis of 2^w values: a view
when the span is one run, as every target register here is, else a copy
written back. One ``np.take`` per piece of at most ``_BLOCK`` / 4 amplitudes
gathers along it; take copies a strided piece first (the slice is strided
unless the control is qubit 0), so its two temporaries hold ``_BLOCK``
floats. Two of 256 KiB each made glibc return the heap top after every piece
and fault it in again, 1.3 ms against 0.4 ms per multiply at 18 qubits.
``apply_permutation`` keeps its moved-only gather: its callers move two
values of a whole register (Grover's flips), swap two qubits (the QFT) or
permute a span with no other axes (oracles), where whole rows would copy
more than they move.

The kernel takes two inputs and no others: a gate is a ``Gate2x2``, checked
unitary, and a map is a ``Permutation``, built from an integer table and
checked to be a bijection. Each is checked once, when built, and read-only
after, so the kernel trusts it by its type; anything else, such as a raw
2x2 array or a table, raises ``TypeError`` before any amplitude moves.

Gate and permutation methods mutate the vector in place and return ``self``
so calls can be chained. A vector must be driven from one thread at a time;
distinct vectors are fully independent.
"""

from __future__ import annotations

import math
import operator
import os
from typing import Sequence, Union

import numpy as np

# a total map on w-bit inputs: a table of 2**w integers
MapSpec = Union[Sequence[int], np.ndarray]

DEFAULT_MAX_QUBITS = 24
MAX_QUBITS_ENV = "KICKBACK_MAX_QUBITS"

UNITARY_TOL = 1e-10
MEASURE_NORM_TOL = 1e-8

# c = 2^(-1/2), the entry of every Hadamard (see the module docstring)
INV_SQRT2 = 1.0 / math.sqrt(2.0)


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


def _check_capacity(num_qubits: int, rows: int = 1) -> None:
    """Raise CapacityError, before any allocation, for a width above the cap,
    for ``rows`` tables of 2^width cells that hold more than 2^cap in all, or
    for a register whose 16 * 2^width bytes exceed the physical memory."""
    cap = max_qubits()
    if num_qubits > cap:
        raise CapacityError(
            f"{num_qubits} qubits exceeds the cap of {cap} "
            f"(override with {MAX_QUBITS_ENV})"
        )
    # rows > 2^(cap - width) compared by bit length: no 2^(cap - width) integer
    if rows > 1 and num_qubits + (rows - 1).bit_length() > cap:
        raise CapacityError(
            f"{rows} x 2^{num_qubits} cells exceeds the cap of 2^{cap} "
            f"(override with {MAX_QUBITS_ENV})"
        )
    try:
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # a platform that does not report it
        return
    # 2^(width + 4) > memory, by bit length again
    if memory > 0 and num_qubits + 4 >= memory.bit_length():
        raise CapacityError(
            f"a register of {num_qubits} qubits needs 2^{num_qubits + 4} bytes, "
            f"more than the {memory} bytes of physical memory"
        )


def check_unitary(m: np.ndarray) -> None:
    """Raise unless the complex 2x2 array ``m`` is unitary: finite, with every
    entry of U+U - I below UNITARY_TOL in modulus. ``Gate2x2`` converts and
    shapes ``m`` first."""
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    defect = float(np.abs(m.conj().T @ m - np.eye(2)).max())
    if defect > UNITARY_TOL:
        raise ValueError(f"matrix is not unitary (defect {defect:.3e} > {UNITARY_TOL:.0e})")


class Gate2x2:
    """A 2x2 unitary, validated at construction; ``matrix`` is read-only."""

    __slots__ = ("_matrix", "_kind")

    def __init__(self, matrix):
        m = np.array(matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
        check_unitary(m)
        m.setflags(write=False)
        self._matrix = m
        # the kernel path, chosen once (see the module docstring)
        if m[0, 1] == 0 and m[1, 0] == 0:
            self._kind = "diagonal"
        elif not m.imag.any() and m[0, 0] == m[0, 1] == m[1, 0] == -m[1, 1]:
            self._kind = "butterfly"
        else:
            self._kind = "general"

    matrix = property(lambda self: self._matrix)

    def __reduce__(self):
        # copies and unpickled gates are rebuilt, so they are checked and read-only too
        return Gate2x2, (self._matrix,)

    def dagger(self) -> Gate2x2:
        """Conjugate transpose (the inverse gate)."""
        return Gate2x2(self._matrix.conj().T)


class Permutation:
    """A bijection of ``width``-bit values, validated at construction.

    Only the values it moves and their images are kept, both read-only.
    """

    __slots__ = ("_width", "_moved", "_image")

    def __init__(self, perm: MapSpec, width: int):
        table = total_table(perm, width, width, "permutation table")
        if not (np.bincount(table, minlength=1 << width) == 1).all():
            raise ValueError("mapping is not a bijection (repeated image)")
        moved = np.flatnonzero(table != np.arange(1 << width))
        image = table[moved]
        moved.setflags(write=False)
        image.setflags(write=False)
        self._width, self._moved, self._image = width, moved, image

    width = property(lambda self: self._width)
    moved = property(lambda self: self._moved)  # the values x with perm(x) != x, ascending
    image = property(lambda self: self._image)  # perm(x) for each moved x

    def __reduce__(self):
        # copies and unpickled permutations are rebuilt from the whole table, so checked too
        table = np.arange(1 << self._width)
        table[self._moved] = self._image
        return Permutation, (table, self._width)


def sample_indices(probabilities: np.ndarray, rng: np.random.Generator, shots: int) -> np.ndarray:
    """Draw ``shots`` indices from a probability vector, one uniform variate each."""
    cdf = np.cumsum(probabilities)
    u = rng.random(shots) * cdf[-1]
    # a subnormal total can round u up to itself: then draw the first index reaching it
    return np.minimum(np.searchsorted(cdf, u, side="right"), np.searchsorted(cdf, cdf[-1]))


def sample_index(probabilities: np.ndarray, rng: np.random.Generator) -> int:
    """Draw one index from a probability vector using one uniform variate."""
    return int(sample_indices(probabilities, rng, 1)[0])


class StateVector:
    """2**n complex amplitudes of an n-qubit register.

    The kernels update ``amplitudes`` in place through views of it, so an
    array put in its place must be C-contiguous complex128 as well.
    """

    __slots__ = ("num_qubits", "amplitudes")

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
            if not np.isfinite(amps).all():
                raise ValueError("amplitudes contain non-finite entries")
            if abs(np.vdot(amps, amps).real - 1.0) > MEASURE_NORM_TOL:
                raise ValueError("amplitudes are not normalized")
        self.num_qubits = num_qubits
        self.amplitudes = amps

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits

    def copy(self) -> StateVector:
        out = StateVector.__new__(StateVector)
        out.num_qubits = self.num_qubits
        out.amplitudes = self.amplitudes.copy()
        return out

    def __repr__(self) -> str:
        return f"StateVector(num_qubits={self.num_qubits})"

    def _view(self, qubits: Sequence[int], runs: bool = False) -> tuple[np.ndarray, list[int]]:
        """A reshape of the amplitudes with one length-2 axis per listed qubit.

        The other qubits are merged into the axes between them, so the view
        has shape (2^a, 2, 2^b, 2, ..., 2^z) in qubit order. Returns the view
        and the axis of each listed qubit, in the order listed. With ``runs``,
        each maximal run of qubits listed in a row as q, q+1, ... shares one
        axis of length 2^(run length) instead, and there is one axis per run.
        """
        listed = [int(q) for q in qubits]
        if not listed:
            raise ValueError("span must contain at least one qubit")
        if len(set(listed)) != len(listed):
            raise ValueError("span contains repeated qubits")
        for q in listed:
            if not 0 <= q < self.num_qubits:
                raise ValueError(f"qubit {q} out of range for {self.num_qubits} qubits")
        heads = []  # (first qubit, qubit count) of each axis, in listed order
        for q in listed:
            if runs and heads and sum(heads[-1]) == q:
                heads[-1] = (heads[-1][0], heads[-1][1] + 1)
            else:
                heads.append((q, 1))
        order = sorted(heads)
        shape, prev = [], -1
        for q, k in order:
            shape += [1 << (q - prev - 1), 1 << k]
            prev = q + k - 1
        shape.append(1 << (self.num_qubits - 1 - prev))
        axes = [2 * order.index(h) + 1 for h in heads]
        return self.amplitudes.reshape(shape), axes

    @staticmethod
    def _span_first(view: np.ndarray, axes: list[int]) -> np.ndarray:
        """``view`` with the listed axes moved to the front, in listed order."""
        return view.transpose(axes + [a for a in range(view.ndim) if a not in axes])

    # -- gates ----------------------------------------------------------

    def _apply_2x2(self, gate, qubits: Sequence[int]) -> StateVector:
        """Apply ``gate`` to the last listed qubit where every other one reads 1."""
        if not isinstance(gate, Gate2x2):
            raise TypeError(f"a gate must be a Gate2x2, got {type(gate).__name__}")
        m, kind = gate._matrix, gate._kind
        view, axes = self._view(qubits)
        # length-1 slices keep every operand an array, even on one qubit
        pick = [slice(None)] * view.ndim
        for ax in axes:
            pick[ax] = slice(1, 2)
        one = tuple(pick)
        if kind == "butterfly":
            # the control-1 slice of the amplitudes as floats, real and imaginary parts side by side
            pick[axes[-1]] = slice(None)
            _butterfly(m[0, 0].real, view.view(np.float64)[tuple(pick)], axes[-1])
            return self
        pick[axes[-1]] = slice(0, 1)
        zero = tuple(pick)
        a, b = view[zero], view[one]
        # numpy rounds a one-element product written in place differently, so
        # a diagonal gate with one amplitude per half takes the expression form
        if kind == "diagonal" and a.size > 1:
            for c, x in ((m[0, 0], a), (m[1, 1], b)):
                if c != 1:
                    x = _short_first(x)
                    np.multiply(c, x, out=x, order="C")
        else:
            a[...], b[...] = m[0, 0] * a + m[0, 1] * b, m[1, 0] * a + m[1, 1] * b
        return self

    def apply_single_qubit(self, gate, target: int) -> StateVector:
        """Apply the ``Gate2x2`` ``gate`` to ``target``; qubit 0 is the MSB."""
        return self._apply_2x2(gate, [target])

    def apply_hadamard_layer(self, k: int) -> StateVector:
        """Apply H to qubits 0..k-1 in order, byte for byte as k calls of
        ``apply_single_qubit(hadamard(), q)``: the same butterfly on the same view."""
        self._view(range(k))  # check k before any amplitude moves
        # numpy's buffered iterator copies an operand whose contiguous runs are
        # under a quarter of its buffer (2048 of 8192 elements by default), as
        # the middle qubits' runs are; for this layer only, the quarter is 128
        old = np.setbufsize(512)
        try:
            for q in range(k):
                _butterfly(INV_SQRT2, self.amplitudes.reshape(1 << q, 2, -1).view(np.float64), 1)
        finally:
            np.setbufsize(old)
        return self

    def apply_controlled_single_qubit(self, gate, control: int, target: int) -> StateVector:
        """Apply ``gate`` to ``target`` on the subspace where ``control`` is 1."""
        return self._apply_2x2(gate, [control, target])

    def apply_permutation(self, perm: Permutation, span: Sequence[int]) -> StateVector:
        """Relabel the basis values of ``span`` by a bijection.

        The amplitude whose span bits read x moves to span bits perm(x);
        all other bits are untouched, so the norm is preserved exactly.
        ``span`` lists qubits MSB-first with respect to the span value; it
        does not have to be contiguous. ``perm`` must be a ``Permutation``
        of len(span) bits, trusted as built; anything else raises
        ``TypeError``. Only the span values it moves are read and written:
        the amplitudes of a fixed point x = perm(x) stay where they are.
        """
        if not isinstance(perm, Permutation):
            raise TypeError(f"a map must be a Permutation, got {type(perm).__name__}")
        view, axes = self._view(span, runs=True)
        w = len(span)
        if perm.width != w:
            raise ValueError(f"permutation of {perm.width} bits does not fit a span of {w} qubits")
        if perm.moved.size:
            front = self._span_first(view, axes)  # index x on the span's run axes: span reads x
            span_shape = front.shape[: len(axes)]
            src = np.unravel_index(perm.moved, span_shape)
            dst = np.unravel_index(perm.image, span_shape)
            # a piece of the other axes at a time (all of them in one piece on a
            # small register), so that a gather holds at most _BLOCK floats, or one
            # amplitude per moved value; each gather copies before its scatter writes
            budget = max(1, _BLOCK // (2 * perm.moved.size))  # 2 floats per amplitude
            for piece in _blocks(front.shape[len(axes) :], budget):
                front[dst + piece] = front[src + piece]
        return self

    def apply_controlled_permutation(self, perm, control: int, span: Sequence[int]) -> StateVector:
        """Relabel the basis values of ``span`` by ``perm`` where ``control`` reads 1.

        The permutation counterpart of ``apply_controlled_single_qubit``, with
        the span and trust rules of ``apply_permutation``. On the control-1
        slice the span's axes go last, in listed order, as one axis of 2^w
        values (a view when the span is one run, else a copy written back),
        and each piece of at most ``_BLOCK`` / 4 amplitudes gathers its whole
        rows along that axis.
        """
        if not isinstance(perm, Permutation):
            raise TypeError(f"a map must be a Permutation, got {type(perm).__name__}")
        view, axes = self._view([control, *span])  # the control keeps an axis of its own
        w = len(axes) - 1
        if perm.width != w:
            raise ValueError(f"permutation of {perm.width} bits does not fit a span of {w} qubits")
        last = np.moveaxis(view, axes, [0, *range(-w, 0)])[1]  # control 1, the span's axes last
        rows = last.reshape(last.shape[: last.ndim - w] + (1 << w,))
        source = np.arange(1 << w)  # the value each span value's amplitude comes from
        source[perm.image] = perm.moved
        # a strided piece makes take copy it first: the copy and the result, of
        # _BLOCK / 4 amplitudes each (rows are never cut), are _BLOCK floats in all
        for piece in _blocks(rows.shape[:-1], max(1, (_BLOCK // 4) >> w)):
            rows[piece] = np.take(rows[piece], source, axis=-1)
        if not np.may_share_memory(rows, view):
            last[...] = rows.reshape(last.shape)
        return self

    # -- readout --------------------------------------------------------

    def marginal_probabilities(self, span: Sequence[int]) -> np.ndarray:
        """Distribution of the span's value, summed over all other qubits.

        Value x sums re^2 + im^2 over every amplitude whose span reads x: the
        squares of one row of floats, the amplitudes in the order of the
        other qubits' value, real part first, summed pairwise from contiguous
        memory, a piece of whole rows at a time (see the module docstring).
        """
        view, axes = self._view(span, runs=True)
        # index x on the span's axes: the real and imaginary parts of every amplitude of span value x
        front = self._span_first(view.view(np.float64), axes)
        runs = len(axes)
        out = np.empty(front.shape[:runs])
        # at least one row, else at most _BLOCK floats; squaring in C order copies strided rows
        for piece in _blocks(out.shape, max(1, _BLOCK // math.prod(front.shape[runs:]))):
            rows = front[piece]
            np.square(rows, order="C").reshape(rows.shape[:runs] + (-1,)).sum(axis=-1, out=out[piece])
        return out.reshape(-1)


# floats in one piece of the butterfly: its temporary is 256 KiB, which stays in L2
_BLOCK = 1 << 15


def _short_first(x: np.ndarray) -> np.ndarray:
    """``x`` with every axis of 32 bytes or less moved first, in order, when
    its last axis is such a run and ``x`` is more than 4 KiB: a ufunc given
    the result and ``order="C"`` then loops innermost along a long axis."""
    if x.nbytes <= 4096 or x.shape[-1] * x.itemsize > 32:
        return x
    return x.transpose(sorted(range(x.ndim), key=lambda i: x.shape[i] * x.itemsize > 32))


def _blocks(shape: tuple[int, ...], budget: int):
    """Tuples of slices that cut an array of ``shape`` into pieces of at most
    ``budget`` (at least 1) elements, in memory order."""
    inner = math.prod(shape[1:])
    if inner > budget:
        for i in range(shape[0]):
            for rest in _blocks(shape[1:], budget):
                yield (slice(i, i + 1), *rest)
    else:
        step = budget // inner
        for i in range(0, shape[0], step):
            yield (slice(i, i + step),)


def _butterfly(c: float, pair: np.ndarray, ax: int) -> None:
    """a, b = c a + c b, c a - c b, in place, for a, b the halves of the
    float array ``pair`` along axis ``ax``, one piece of at most ``_BLOCK``
    floats at a time: the other axes are cut to ``_BLOCK`` / 2 elements and
    the pair axis kept whole. t = c pair rounds each product as the
    expression form's m00 a, m01 b, m10 a and -m11 b do."""
    zero, one = (slice(None),) * ax + (0,), (slice(None),) * ax + (1,)
    pieces = [pair]
    if pair.size > _BLOCK:  # built only here: a small register pays for no generator
        rest = pair.shape[:ax] + pair.shape[ax + 1 :]
        pieces = (pair[(*i[:ax], slice(None), *i[ax:])] for i in _blocks(rest, _BLOCK // 2))
    for p in pieces:
        t = np.multiply(c, p)
        a, b, ta, tb = map(_short_first, (p[zero], p[one], t[zero], t[one]))
        np.add(ta, tb, out=a, order="C")
        np.subtract(ta, tb, out=b, order="C")


def total_table(spec: MapSpec, in_bits: int, out_bits: int, what: str) -> np.ndarray:
    """``spec`` as an int64 table, checked to be total with values in [0, 2**out_bits).

    A table is returned as ``np.asarray`` gives it, so it may be the caller's
    own array; a caller that keeps it makes its own copy.
    """
    _check_capacity(in_bits)
    if out_bits > 63:  # the int64 table would overflow before any range check
        raise ValueError(f"{what} values must fit in 63 bits, got {out_bits}-bit outputs")
    size = 1 << in_bits
    table = np.asarray(spec)
    if table.shape != (size,):
        raise ValueError(f"{what} must have {size} entries, got shape {table.shape}")
    if table.dtype.kind not in "biu":  # Python ints of 2^64 or more arrive as objects
        raise ValueError(f"{what} values must be integers, got {table.dtype}")
    table = table.astype(np.int64, copy=False)
    if table.min() < 0 or table.max() >= (1 << out_bits):
        raise ValueError(f"{what} values must lie in [0, 2^{out_bits})")
    return table


def fan_out(controls: int, target: StateVector) -> StateVector:
    """2^(-k/2) sum_x |x>|target> on k = ``controls`` qubits 0..k-1 and the target."""
    state = StateVector(controls + target.num_qubits)
    row = target.amplitudes.view(np.float64)
    for _ in range(controls):
        row = INV_SQRT2 * row
    state.amplitudes.view(np.float64).reshape(1 << controls, -1)[...] = row
    return state


def basis_state(num_qubits: int, index: int = 0) -> StateVector:
    """The computational basis state |index> on ``num_qubits`` qubits."""
    index = operator.index(index)  # a bool is 0 or 1, never a numpy mask
    state = StateVector(num_qubits)
    if not 0 <= index < state.dim:
        raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
    state.amplitudes[0] = 0.0
    state.amplitudes[index] = 1.0
    return state
