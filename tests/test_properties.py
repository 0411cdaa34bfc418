"""Property tests: controlled maps, total tables, oracle text, permutations and spans.

Each expected result comes from a reference that shares no code with the
package: Python-int tables built entry by entry, the bit-loop
``brute_force_permutation``, and spans drawn together with the message
their defect must raise.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import brute_force_permutation, pauli_x, peak_traced_bytes, random_state
from kickback.algorithms import PatternSpec
from kickback.analysis import cross_minor_entanglement
from kickback.gates import (
    Oracle,
    controlled_map,
    controlled_modmult,
    f_controlled_not,
    hadamard,
    parse_oracle_text,
)
from kickback.qft import inverse_qft, qft
from kickback.statevec import Permutation, basis_state

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)

seeds = st.integers(0, 2**32 - 1)


@st.composite
def joint_spans(draw, max_qubits=7, controls=None):
    """(n, control span, target span): disjoint, shuffled, not necessarily all qubits."""
    n = draw(st.integers(2, max_qubits))
    order = draw(st.permutations(range(n)))
    c = controls if controls is not None else draw(st.integers(1, n - 1))
    t = draw(st.integers(1, n - c))
    return n, list(order[:c]), list(order[c : c + t])


def joint_table(c: int, t: int, g) -> list[int]:
    """(x, y) -> (x, g(x, y)) on c control and t target bits, one Python int at a time."""
    return [(x << t) | g(x, y) for x in range(1 << c) for y in range(1 << t)]


def check_controlled_map(n, controls, targets, g_array, g_int, seed):
    s = random_state(n, np.random.default_rng(seed))
    table = joint_table(len(controls), len(targets), g_int)
    expected = brute_force_permutation(s.amplitudes, n, controls + targets, table)
    s.apply_permutation(controlled_map(len(controls), len(targets), g_array), controls + targets)
    assert np.array_equal(s.amplitudes, expected)


class TestControlledMapProperties:
    @PROPERTY_SETTINGS
    @given(spans=joint_spans(), data=st.data(), seed=seeds)
    def test_xor(self, spans, data, seed):
        n, controls, targets = spans
        t = len(targets)
        size = 1 << len(controls)
        f = data.draw(st.lists(st.integers(0, (1 << t) - 1), min_size=size, max_size=size))
        fa = np.array(f)
        check_controlled_map(
            n, controls, targets, lambda x, y: y ^ fa[x], lambda x, y: y ^ f[x], seed
        )

    @PROPERTY_SETTINGS
    @given(spans=joint_spans(), data=st.data(), seed=seeds)
    def test_add_mod_power_of_two(self, spans, data, seed):
        n, controls, targets = spans
        size, inputs = 1 << len(targets), 1 << len(controls)
        k = data.draw(st.lists(st.integers(0, size - 1), min_size=inputs, max_size=inputs))
        ka = np.array(k)
        check_controlled_map(
            n,
            controls,
            targets,
            lambda x, y: (y + ka[x]) % size,
            lambda x, y: (y + k[x]) % size,
            seed,
        )

    @PROPERTY_SETTINGS
    @given(spans=joint_spans(max_qubits=7, controls=1), data=st.data(), seed=seeds)
    def test_multiply_mod_n(self, spans, data, seed):
        n, controls, targets = spans
        w = len(targets)
        modulus = data.draw(st.integers(2, 1 << w))
        base = data.draw(st.integers(1, modulus - 1))
        assume(math.gcd(base, modulus) == 1)

        def mult(c, y):
            return base * y % modulus if c == 1 and y < modulus else y

        check_controlled_map(
            n,
            controls,
            targets,
            lambda c, y: np.where((c == 1) & (y < modulus), base * y % modulus, y),
            mult,
            seed,
        )
        # controlled_modmult is the same map
        s = random_state(n, np.random.default_rng(seed))
        expected = brute_force_permutation(
            s.amplitudes, n, controls + targets, joint_table(1, w, mult)
        )
        controlled_modmult(base, modulus, s, controls[0], targets)
        assert np.array_equal(s.amplitudes, expected)


def table_readers(in_bits: int, out_bits: int):
    """The three readers of a total map, each as a one-argument call."""
    return {
        "Oracle": lambda table: Oracle(in_bits, out_bits, table),
        "PatternSpec": lambda table: PatternSpec(in_bits, out_bits, table),
        "apply_permutation": lambda table: basis_state(in_bits).apply_permutation(
            Permutation(table, in_bits), range(in_bits)
        ),
    }


READERS = ["Oracle", "PatternSpec", "apply_permutation"]


class TestTotalTableProperties:
    @pytest.mark.parametrize("reader", READERS)
    @PROPERTY_SETTINGS
    @given(in_bits=st.integers(1, 5), out_bits=st.integers(1, 4), data=st.data())
    def test_wrong_length_rejected(self, reader, in_bits, out_bits, data):
        if reader == "apply_permutation":
            out_bits = in_bits
        size = 1 << in_bits
        length = data.draw(st.integers(0, 2 * size).filter(lambda k: k != size))
        table = data.draw(
            st.lists(st.integers(0, (1 << out_bits) - 1), min_size=length, max_size=length)
        )
        with pytest.raises(ValueError, match=f"must have {size} entries"):
            table_readers(in_bits, out_bits)[reader](table)

    @pytest.mark.parametrize("reader", READERS)
    @PROPERTY_SETTINGS
    @given(in_bits=st.integers(1, 5), out_bits=st.integers(1, 4), data=st.data())
    def test_out_of_range_rejected(self, reader, in_bits, out_bits, data):
        if reader == "apply_permutation":
            out_bits = in_bits
        size, top = 1 << in_bits, 1 << out_bits
        table = data.draw(st.lists(st.integers(0, top - 1), min_size=size, max_size=size))
        at = data.draw(st.integers(0, size - 1))
        table[at] = data.draw(st.one_of(st.integers(top, 4 * top), st.integers(-4 * top, -1)))
        with pytest.raises(ValueError, match=rf"must lie in \[0, 2\^{out_bits}\)"):
            table_readers(in_bits, out_bits)[reader](table)

    @pytest.mark.parametrize("reader", READERS)
    @PROPERTY_SETTINGS
    @given(in_bits=st.integers(1, 5), out_bits=st.integers(1, 4), data=st.data())
    def test_non_integer_rejected(self, reader, in_bits, out_bits, data):
        # a float, even a whole one, would be truncated; an int of 2^64 or more has no int64
        if reader == "apply_permutation":
            out_bits = in_bits
        size, top = 1 << in_bits, 1 << out_bits
        table = data.draw(st.lists(st.integers(0, top - 1), min_size=size, max_size=size))
        at = data.draw(st.integers(0, size - 1))
        table[at] = data.draw(st.one_of(st.floats(0, top - 1), st.integers(1 << 64, 1 << 70)))
        dtype = "object" if isinstance(table[at], int) else "float64"
        with pytest.raises(ValueError, match=f"values must be integers, got {dtype}"):
            table_readers(in_bits, out_bits)[reader](table)


class TestOracleTextProperties:
    @PROPERTY_SETTINGS
    @given(n_in=st.integers(1, 5), m_out=st.integers(1, 4), data=st.data())
    def test_render_then_parse_round_trips(self, n_in, m_out, data):
        size = 1 << n_in
        values = st.integers(0, (1 << m_out) - 1)
        table = data.draw(st.lists(values, min_size=size, max_size=size))
        lines = [f"{x:0{n_in}b} -> {y:0{m_out}b}" for x, y in enumerate(table)]
        text = "\n".join(data.draw(st.permutations(lines)))
        oracle = parse_oracle_text(text)
        assert (oracle.n_in, oracle.m_out) == (n_in, m_out)
        assert oracle.table.tolist() == table


class TestPermutationProperties:
    @PROPERTY_SETTINGS
    @given(n=st.integers(1, 7), data=st.data(), seed=seeds)
    def test_norm_preserved(self, n, data, seed):
        w = data.draw(st.integers(1, n))
        span = data.draw(st.permutations(range(n)))[:w]
        table = data.draw(st.permutations(range(1 << w)))
        s = random_state(n, np.random.default_rng(seed))
        before = s.amplitudes.copy()
        s.apply_permutation(Permutation(table, w), span)
        # the amplitudes are only moved, so the multiset of values is unchanged
        assert np.array_equal(np.sort_complex(before), np.sort_complex(s.amplitudes))
        assert abs(np.linalg.norm(s.amplitudes) - 1.0) < 1e-12


# Every call that takes a span, as (fewest qubits, most qubits, call on a
# state and one flat span). A span is split into the call's arguments.
SPAN_CALLS = {
    "apply_single_qubit": (1, 1, lambda s, span: s.apply_single_qubit(hadamard(), *span)),
    "apply_controlled_single_qubit": (
        2,
        2,
        lambda s, span: s.apply_controlled_single_qubit(pauli_x(), *span),
    ),
    "apply_permutation": (
        0,
        4,
        # the reversal is a bijection at every width, the empty span's too
        lambda s, span: s.apply_permutation(
            Permutation(np.arange(1 << len(span))[::-1], len(span)), span
        ),
    ),
    "marginal_probabilities": (0, 4, lambda s, span: s.marginal_probabilities(span)),
    "f_controlled_not": (
        2,
        4,
        lambda s, span: f_controlled_not(
            Oracle(len(span) - 1, 1, np.arange(1 << (len(span) - 1)) & 1), s, span[:-1], span[-1:]
        ),
    ),
    "controlled_modmult": (
        2,
        4,
        lambda s, span: controlled_modmult(1, 2, s, span[0], span[1:]),
    ),
    "cross_minor_entanglement": (0, 4, lambda s, span: cross_minor_entanglement(s, span)),
    "qft": (0, 4, lambda s, span: qft(s, span)),
    "inverse_qft": (0, 4, lambda s, span: inverse_qft(s, span)),
}


@st.composite
def span_cases(draw, fewest: int, most: int):
    """(n, span, message): the view's message for a defective span, None for a valid one.

    A valid span leaves at least one qubit of the register out, which every
    call accepts.
    """
    kinds = ["valid", "out of range"]
    kinds += ["empty"] if fewest == 0 else []
    kinds += ["repeated"] if most >= 2 else []
    kind = draw(st.sampled_from(kinds))
    if kind == "empty":
        size = 0
    else:
        size = draw(st.integers(max(fewest, 2 if kind == "repeated" else 1), most))
    n = draw(st.integers(size + 1, size + 3))
    span = list(draw(st.permutations(range(n)))[:size])
    message = None
    if kind == "empty":
        message = "span must contain at least one qubit"
    elif kind == "repeated":
        i = draw(st.integers(1, size - 1))
        span[i] = span[draw(st.integers(0, i - 1))]
        message = "span contains repeated qubits"
    elif kind == "out of range":
        i = draw(st.integers(0, size - 1))
        span[i] = draw(st.one_of(st.integers(n, n + 4), st.integers(-4, -1)))
        message = f"qubit {span[i]} out of range for {n} qubits"
    return n, span, message


class TestSpanProperties:
    @pytest.mark.parametrize("call", SPAN_CALLS)
    @PROPERTY_SETTINGS
    @given(data=st.data(), seed=seeds)
    def test_only_the_view_rejects_a_span(self, call, data, seed):
        fewest, most, run = SPAN_CALLS[call]
        n, span, message = data.draw(span_cases(fewest, most))
        s = random_state(n, np.random.default_rng(seed))
        if message is None:
            run(s, span)
        else:
            with pytest.raises(ValueError, match=f"^{message}$"):
                run(s, span)


class TestSpanCheckedFirst:
    """A span far past a 3-qubit register fails in the view before 1 MiB is allocated."""

    @staticmethod
    def check(call):
        s = basis_state(3)

        def run():
            with pytest.raises(ValueError, match="^qubit 3 out of range for 3 qubits$"):
                call(s)

        assert peak_traced_bytes(run) < 1 << 20

    @pytest.mark.parametrize("controls, targets", [(16, 4), (20, 8)])
    def test_f_controlled_not(self, controls, targets):
        oracle = Oracle(controls, targets, np.zeros(1 << controls, dtype=np.int64))
        span = range(controls + targets)
        self.check(lambda s: f_controlled_not(oracle, s, span[:controls], span[controls:]))

    def test_controlled_modmult(self):
        self.check(lambda s: controlled_modmult(2, 3, s, 0, range(1, 19)))

    @pytest.mark.parametrize("transform", [qft, inverse_qft])
    @pytest.mark.parametrize("width", [600, 1100])  # r_k overflows past 1023 qubits
    def test_fourier_transform(self, transform, width):
        self.check(lambda s: transform(s, range(width)))
