"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
All tolerances are fixed here; nothing is calibrated at runtime.
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from kickback.algorithms import (
    GroverOracle,
    PatternSpec,
    Verdict,
    affine_oracle,
    affine_recovery,
    bernstein_vazirani,
    default_grover_iterations,
    deutsch,
    deutsch_jozsa,
    grover_search,
    linear_oracle,
    pattern_generate,
)
from helpers import (
    PsiKOracle,
    affine_spec,
    closed_form_order_distribution,
    coprime_bases,
    coprime_pair_probability,
    grover_rotation_probability,
    multiplicative_order,
    totient_decrypt,
)
from kickback.analysis import (
    cross_minor_entanglement,
    offset_phase_grid,
    sweep_success_bound,
    sweep_tail_bound,
)
from kickback.gates import Oracle
from kickback.order_finding import (
    OrderProblem,
    RsaInstance,
    control_distribution,
    find_order,
    rsa_crack,
)
from kickback.phase_estimation import (
    DiagonalEigenOracle,
    analytic_distribution,
    control_distribution as estimation_distribution,
    estimate_phase,
    precision_for_error,
    round_to_bits,
    wrap_half,
)
from kickback.qft import dft_reference, qft
from kickback.statevec import Permutation, basis_state


@contextmanager
def criterion(number: int, name: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS ({time.perf_counter() - start:.1f}s)")


def test_criterion_1_deutsch_certainty():
    with criterion(1, "Deutsch certainty"):
        for table in ([0, 0], [1, 1], [0, 1], [1, 0]):
            oracle = Oracle(1, 1, table)
            run = deutsch(oracle)
            expected = Verdict.CONSTANT if table[0] == table[1] else Verdict.BALANCED
            assert run.verdict is expected
            assert oracle.call_count == 1
            success = max(run.zero_probability, 1 - run.zero_probability)
            assert success >= 1 - 1e-12


def test_criterion_2_deutsch_jozsa():
    with criterion(2, "Deutsch-Jozsa"):
        # exhaustive balanced functions and both constants for n <= 4
        for n in range(1, 5):
            size = 1 << n
            for const in (0, 1):
                oracle = Oracle(n, 1, [const] * size)
                run = deutsch_jozsa(n, oracle)
                assert run.verdict is Verdict.CONSTANT
                assert abs(run.zero_probability - 1.0) < 1e-10
                assert oracle.call_count == 1
            for ones in itertools.combinations(range(size), size // 2):
                table = np.zeros(size, dtype=np.int64)
                table[list(ones)] = 1
                oracle = Oracle(n, 1, table)
                run = deutsch_jozsa(n, oracle)
                assert run.verdict is Verdict.BALANCED
                assert run.zero_probability < 1e-10
                assert oracle.call_count == 1
        # 100 random balanced functions at n = 10
        n, size = 10, 1 << 10
        rng = np.random.default_rng(2)
        for _ in range(100):
            table = np.zeros(size, dtype=np.int64)
            table[rng.permutation(size)[: size // 2]] = 1
            oracle = Oracle(n, 1, table)
            run = deutsch_jozsa(n, oracle)
            assert run.verdict is Verdict.BALANCED
            assert run.zero_probability < 1e-10
            assert oracle.call_count == 1


def test_criterion_3_bernstein_vazirani_and_affine():
    with criterion(3, "Bernstein-Vazirani / affine recovery"):
        for n in range(1, 9):
            for a in range(1 << n):
                for b in (0, 1):
                    oracle = linear_oracle(n, a, b)
                    run = bernstein_vazirani(n, oracle)
                    assert (run.a, run.b) == (a, b)
                    assert oracle.call_count == 1
        rng = np.random.default_rng(3)
        for m in range(1, 6):
            for n in range(1, 6):
                matrix = rng.integers(0, 2, size=(m, n))
                offset = rng.integers(0, 2, size=m)
                oracle = affine_oracle(affine_spec(matrix, offset))
                recovered = affine_recovery(n, m, oracle)
                assert np.array_equal(recovered, matrix.astype(np.uint8))
                assert oracle.call_count == m


def test_criterion_4_qft_vs_dense_reference():
    with criterion(4, "QFT vs dense reference"):
        rng = np.random.default_rng(4)
        for m in range(1, 11):
            dim = 1 << m
            y = np.arange(dim)
            dense = np.exp(2j * np.pi * np.outer(y, y) / dim) / math.sqrt(dim)
            for a in range(dim):
                out = qft(basis_state(m, a), range(m))
                assert np.abs(out.amplitudes - dense[:, a]).max() < 1e-10
                for q in range(m if m >= 2 else 0):
                    assert cross_minor_entanglement(out, [q]) < 1e-10
            for _ in range(10):  # 10 random states per m, 100 total
                z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
                z /= np.linalg.norm(z)
                from kickback.statevec import StateVector

                s1 = StateVector(m, z)
                s2 = s1.copy()
                qft(s1, range(m))
                dft_reference(s2, range(m))
                assert np.abs(s1.amplitudes - s2.amplitudes).max() < 1e-10


def test_criterion_5_phase_estimation_bound():
    with criterion(5, "phase-estimation success bound"):
        report = sweep_success_bound(
            m_list=range(3, 11), phi_grid=np.arange(1000) / 1000
        )
        assert report.worst_margin >= -1e-12
        # gate-level circuit reproduces the closed form for m <= 8
        phis = [0.0, 1 / 3, 1 / 7, 0.123456, 0.5, 0.9990234375, 2 / 3]
        for m in range(1, 9):
            tie = (2 * min(3, (1 << m) - 1) + 1) / 2 ** (m + 1)
            for phi in phis + [tie]:
                circuit = estimation_distribution(m, DiagonalEigenOracle(phi))
                ana = analytic_distribution(phi, m).distribution
                assert np.abs(circuit - ana).max() < 1e-10


def test_criterion_6_tail_bound_and_amplified_precision():
    with criterion(6, "tail bound / amplified precision"):
        report = sweep_tail_bound(
            m_list=range(3, 11), phi_grid=offset_phase_grid(200)
        )
        assert report.worst_margin > 0  # strict: tail < 1/(2k-1) everywhere
        # end-to-end: n accurate bits with failure budget 0.1
        n, epsilon = 6, 0.1
        total_bits = precision_for_error(n, epsilon)
        assert total_bits == 9
        rng = np.random.default_rng(3)
        hits = 0
        runs = 500
        for _ in range(runs):
            phi = float(rng.random())
            est = estimate_phase(total_bits, DiagonalEigenOracle(phi), rng)
            rounded = round_to_bits(est, n)
            err = abs(float(wrap_half(rounded.value - phi)))
            hits += err <= 2.0 ** -(n + 1) + 1e-15
        assert hits >= 0.9 * runs


def test_criterion_7_order_finding():
    with criterion(7, "order finding"):
        rng = np.random.default_rng(7)
        for modulus in (5, 7, 15, 21):
            for a in coprime_bases(modulus):
                problem = OrderProblem(a, modulus)
                assert problem.precision_bits == 2 * (modulus - 1).bit_length()
                result = find_order(problem, rng)
                assert result.order == multiplicative_order(a, modulus)
        # |1> start behaves as the uniform eigenvector average
        for modulus in (5, 7, 15):
            for a in coprime_bases(modulus)[1:]:  # a = 1 left out
                problem = OrderProblem(a, modulus)
                r = multiplicative_order(a, modulus)
                direct = control_distribution(problem)
                averaged = np.mean(
                    [
                        estimation_distribution(
                            problem.precision_bits, PsiKOracle(problem, k, r)
                        )
                        for k in range(1, r + 1)
                    ],
                    axis=0,
                )
                assert np.abs(direct - averaged).max() < 1e-10
        # the network against the closed form at the default width: every base
        # mod 5, 7, 15 and 21, one base per order mod 33 and 35, one 21-qubit run
        cases = [(a, n) for n in (5, 7, 15, 21) for a in coprime_bases(n)]
        for n in (33, 35):
            first_base = {}
            for a in coprime_bases(n):
                first_base.setdefault(multiplicative_order(a, n), a)
            cases += [(a, n) for a in first_base.values()]
        for a, n in cases + [(2, 65)]:
            problem = OrderProblem(a, n)
            reference = closed_form_order_distribution(a, n, problem.precision_bits)
            assert np.abs(control_distribution(problem) - reference).max() < 1e-10
        for r in range(1, 501):
            assert coprime_pair_probability(r) > 0.54


def test_criterion_8_rsa_crack():
    with criterion(8, "RSA crack"):
        result = rsa_crack(RsaInstance(33, 3, 26), np.random.default_rng(8))
        assert result.plaintext == 5
        assert pow(result.plaintext, 3, 33) == 26
        d_reference = totient_decrypt({3: 1, 11: 1}, 3)
        assert pow(26, d_reference, 33) == result.plaintext


def test_criterion_9_grover():
    with criterion(9, "Grover search"):
        rng = np.random.default_rng(9)
        for n in range(2, 13):
            tagged = int(rng.integers(1 << n))
            default = default_grover_iterations(n)
            for t in (0, 1, default):
                run = grover_search(GroverOracle(n, tagged), rng, iterations=t)
                model = grover_rotation_probability(n, t)
                assert abs(run.success_probability - model) < 1e-10
            run = grover_search(GroverOracle(n, tagged), rng)
            assert run.iterations == default
            assert run.success_probability > 0.5


def test_criterion_10_pattern_generation():
    from kickback.algorithms import fourier_eigenstate
    from kickback.gates import hadamard

    with criterion(10, "interference-pattern generation"):
        rng = np.random.default_rng(10)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 7))
            phases = rng.integers(0, 1 << m, size=1 << n)
            spec = PatternSpec(n, m, phases)
            state = pattern_generate(spec)
            expected = np.exp(2j * np.pi * phases / (1 << m)) / math.sqrt(1 << n)
            assert np.abs(state.amplitudes - expected).max() < 1e-10
            # rebuild the joint control+ancilla state and check it is a product
            joint = basis_state(n + m)
            joint.amplitudes[: 1 << m] = fourier_eigenstate(1, m).amplitudes
            h = hadamard()
            for q in range(n):
                joint.apply_single_qubit(h, q)
            v = np.arange(1 << (n + m))
            table = (v >> m << m) | ((v + spec.phases[v >> m]) % (1 << m))
            joint.apply_permutation(Permutation(table, n + m), range(n + m))
            assert cross_minor_entanglement(joint, range(n)) < 1e-10
