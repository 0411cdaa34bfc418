"""Property tests: controlled maps, total tables, oracle text and permutations.

Each expected result comes from a reference that shares no code with the
package: Python-int tables built entry by entry and the bit-loop
``brute_force_permutation``.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import brute_force_permutation, random_state
from kickback.algorithms import PatternSpec
from kickback.gates import (
    ModMultSpec,
    Oracle,
    apply_controlled_map,
    controlled_modmult,
    parse_oracle_text,
)
from kickback.statevec import basis_state

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
    apply_controlled_map(s, controls, targets, g_array)
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
        controlled_modmult(ModMultSpec(base, modulus, 0), s, controls[0], targets)
        assert np.array_equal(s.amplitudes, expected)


def table_readers(in_bits: int, out_bits: int):
    """The three readers of a total map, each as a one-argument call."""
    return {
        "Oracle": lambda table: Oracle(in_bits, out_bits, table),
        "PatternSpec": lambda table: PatternSpec(in_bits, out_bits, table),
        "apply_permutation": lambda table: basis_state(in_bits).apply_permutation(
            table, range(in_bits)
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
        s.apply_permutation(table, span)
        # the amplitudes are only moved, so the multiset of values is unchanged
        assert np.array_equal(np.sort_complex(before), np.sort_complex(s.amplitudes))
        assert abs(np.linalg.norm(s.amplitudes) - 1.0) < 1e-12
