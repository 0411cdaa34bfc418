import math
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    JointTableOracle,
    PsiKOracle,
    closed_form_order_distribution,
    coprime_bases,
    coprime_pair_probability,
    full_register_distribution,
    multiplicative_order,
    peak_traced_bytes,
    prepare_psi_k,
    record_calls,
    scattered_kernel_amplitudes,
    totient_decrypt,
)
from kickback import phase_estimation
from kickback.phase_estimation import kernel_state
from kickback.order_finding import (
    ModMultEigenOracle,
    OrderProblem,
    RsaInstance,
    TrialLimitError,
    _verified_order,
    control_distribution,
    convergents,
    find_order,
    rsa_crack,
)
from kickback.statevec import DEFAULT_MAX_QUBITS, MAX_QUBITS_ENV, Permutation


class TestPsiK:
    def test_k_equals_r_has_flat_phases(self):
        problem = OrderProblem(2, 5)
        r = multiplicative_order(2, 5)
        psi = prepare_psi_k(problem, r, r)
        powers = {1, 2, 4, 3}  # 2^j mod 5
        for v in powers:
            assert abs(psi.amplitudes[v] - 1 / math.sqrt(r)) < 1e-12

    @pytest.mark.parametrize("modulus", [5, 7, 15, 21])
    def test_eigenvector_property_all_k(self, modulus):
        for a in coprime_bases(modulus)[1:]:  # a = 1 left out
            problem = OrderProblem(a, modulus)
            r = multiplicative_order(a, modulus)
            width = problem.target_bits
            x = np.arange(1 << width)
            mult = Permutation(np.where(x < modulus, a * x % modulus, x), width)
            for k in range(1, r + 1):
                psi = prepare_psi_k(problem, k, r)
                moved = psi.copy().apply_permutation(mult, range(width))
                phase = np.exp(2j * np.pi * k / r)
                assert np.abs(moved.amplitudes - phase * psi.amplitudes).max() < 1e-10

    def test_sum_over_k_gives_one_state(self):
        problem = OrderProblem(7, 15)
        r = multiplicative_order(7, 15)
        acc = sum(prepare_psi_k(problem, k, r).amplitudes for k in range(1, r + 1))
        acc /= np.linalg.norm(acc)
        expected = np.zeros(1 << problem.target_bits)
        expected[1] = 1.0
        assert np.abs(acc - expected).max() < 1e-10

    def test_wrong_order_rejected(self):
        with pytest.raises(ValueError):
            prepare_psi_k(OrderProblem(2, 5), 1, 3)


def fraction_candidate(x, denom, bound):
    """The last convergent denominator of x/denom below bound, or 1: each
    convergent is evaluated as a Fraction from its own coefficient list."""
    coeffs, rest = [], Fraction(x, denom)
    while True:
        coeffs.append(math.floor(rest))
        if rest == coeffs[-1]:
            break
        rest = 1 / (rest - coeffs[-1])
    candidate = 1
    for n in range(1, len(coeffs) + 1):
        value = Fraction(coeffs[n - 1])
        for q in reversed(coeffs[: n - 1]):
            value = q + 1 / value
        if value.denominator < bound:
            candidate = value.denominator
    return candidate


class TestConvergents:
    def test_zero_numerator(self):
        assert convergents(0, 64, 10) == 1

    def test_one_half(self):
        assert convergents(1 << 5, 1 << 6, 15) == 2

    def test_spec_example(self):
        assert convergents(1365, 4096, 15) == 3

    def test_candidate_matches_fraction_expansion(self):
        for x in range(64):
            for bound in range(1, 70):
                assert convergents(x, 64, bound) == fraction_candidate(x, 64, bound), (x, bound)

    def test_domain(self):
        with pytest.raises(ValueError):
            convergents(8, 8, 5)


class TestControlDistribution:
    def test_dyadic_order_concentrates_exactly(self):
        problem = OrderProblem(2, 5, control_bits=6)  # r = 4 divides 2^6
        dist = control_distribution(problem)
        support = np.flatnonzero(dist > 1e-12)
        assert list(support) == [0, 16, 32, 48]
        assert np.abs(dist[support] - 0.25).max() < 1e-10

    @pytest.mark.parametrize("modulus", [5, 7, 15])
    def test_measurement_commutation(self, modulus):
        for a in coprime_bases(modulus)[1:]:  # a = 1 left out
            problem = OrderProblem(a, modulus)
            r = multiplicative_order(a, modulus)
            direct = control_distribution(problem)
            averaged = np.mean(
                [
                    phase_estimation.control_distribution(
                        problem.precision_bits, PsiKOracle(problem, k, r)
                    )
                    for k in range(1, r + 1)
                ],
                axis=0,
            )
            assert np.abs(direct - averaged).max() < 1e-10

    def test_matches_closed_form_every_base(self):
        # the network against the mean closed-form readout of k/r, which
        # shares no gate code with it, for every valid base up to N = 65
        for modulus in range(2, 66):
            for a in coprime_bases(modulus):
                dist = control_distribution(OrderProblem(a, modulus, control_bits=6))
                reference = closed_form_order_distribution(a, modulus, 6)
                assert np.abs(dist - reference).max() < 1e-10

    def test_a_network_at_the_qubit_cap(self, monkeypatch):
        # 2 mod 129 (r = 14): m = 16 controls and w = 8 target qubits fill the
        # default cap of 24, and the readout copies 14 columns onto 20 qubits.
        # The traced peak is the 256 MiB register plus that 16 MiB readout
        # (272.5 MiB); the marginal sums its |a|^2 a piece at a time.
        monkeypatch.delenv(MAX_QUBITS_ENV, raising=False)
        problem = OrderProblem(2, 129)
        assert problem.precision_bits + problem.target_bits == DEFAULT_MAX_QUBITS
        dists = []
        peak = peak_traced_bytes(lambda: dists.append(control_distribution(problem)))
        assert peak < 280 * 2**20
        assert np.abs(dists[0] - closed_form_order_distribution(2, 129, 16)).max() < 1e-10


class TestReadoutRegister:
    """The readout transforms the r target values a^x mod N, or the whole
    register in place when r > 2^(w-1); bit for bit as the transform over the
    whole register either way."""

    @pytest.mark.parametrize("modulus", [15, 21, 33, 35, 39])
    def test_every_base_bitwise(self, modulus):
        for a in coprime_bases(modulus):
            problem = OrderProblem(a, modulus)
            dist = control_distribution(problem)
            reference = full_register_distribution(
                problem.precision_bits, ModMultEigenOracle(problem)
            )
            assert dist.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("a, modulus, k", [(7, 15, 1), (2, 21, 5), (5, 33, 3)])
    def test_psi_k_target_bitwise(self, a, modulus, k):
        # complex amplitudes in the r columns, not one real column
        problem = OrderProblem(a, modulus)
        oracle = PsiKOracle(problem, k, multiplicative_order(a, modulus))
        dist = phase_estimation.control_distribution(problem.precision_bits, oracle)
        reference = full_register_distribution(problem.precision_bits, oracle)
        assert dist.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("a, modulus", [(2, 59), (3, 17)])
    def test_wide_orders_bitwise(self, a, modulus):
        # r = 58 > 2^5 runs in place; r = 16 = 2^4 fills a register of w - 1 target qubits
        problem = OrderProblem(a, modulus)
        dist = control_distribution(problem)
        reference = full_register_distribution(problem.precision_bits, ModMultEigenOracle(problem))
        assert dist.tobytes() == reference.tobytes()

    def test_in_place_peak_memory(self):
        # r = 58 on 18 qubits (4 MiB): a copied readout would double the state
        peak = peak_traced_bytes(lambda: control_distribution(OrderProblem(2, 59)))
        assert peak < 1.6 * 4 * 2**20


class TestJointTablePath:
    """The controlled multiplies leave the kernel in its closed-form scatter,
    and move the amplitudes the joint-register table moved, so the kernel and
    the readout keep every byte."""

    @pytest.mark.parametrize("modulus", range(2, 64))
    def test_kernel_every_base(self, modulus):
        for a in coprime_bases(modulus):
            problem = OrderProblem(a, modulus)
            m = problem.precision_bits
            state = kernel_state(m, ModMultEigenOracle(problem)).amplitudes
            assert state.tobytes() == scattered_kernel_amplitudes(problem).tobytes(), a

    @pytest.mark.parametrize("modulus", [15, 21, 33, 35, 63])
    def test_readout_every_base(self, modulus):
        for a in coprime_bases(modulus):
            problem = OrderProblem(a, modulus)
            dist = control_distribution(problem)
            reference = phase_estimation.control_distribution(
                problem.precision_bits, JointTableOracle(problem)
            )
            assert dist.tobytes() == reference.tobytes(), a

    @pytest.mark.parametrize("a, modulus", [(2, 65), (3, 127)])
    def test_21_qubits(self, a, modulus):
        problem = OrderProblem(a, modulus)
        m = problem.precision_bits
        for run in (kernel_state, phase_estimation.control_distribution):
            got = run(m, ModMultEigenOracle(problem))
            reference = run(m, JointTableOracle(problem))
            if run is kernel_state:
                got, reference = got.amplitudes, reference.amplitudes
            assert got.tobytes() == reference.tobytes()


class TestVerifiedOrder:
    def test_least_verifying_divisor_is_the_order(self):
        # c = 0 is no candidate: a^0 = 1 says nothing about the order
        for modulus in range(2, 128):
            for a in coprime_bases(modulus):
                r = multiplicative_order(a, modulus)
                for c in range(modulus + 1):
                    expected = r if c >= 1 and pow(a, c, modulus) == 1 else None
                    assert _verified_order(a, modulus, c) == expected


class TestFindOrder:
    def test_base_one_single_trial(self):
        result = find_order(OrderProblem(1, 7), np.random.default_rng(0))
        assert result.order == 1
        assert result.trials == 1

    def test_four_mod_fifteen(self):
        result = find_order(OrderProblem(4, 15), np.random.default_rng(7))
        assert result.order == 2

    def test_two_mod_five_measurements(self):
        problem = OrderProblem(2, 5, control_bits=6)
        result = find_order(problem, np.random.default_rng(3))
        assert result.order == 4
        assert all(x in (0, 16, 32, 48) for x in result.measured)

    def test_non_dyadic_order(self):
        result = find_order(OrderProblem(2, 7), np.random.default_rng(11))
        assert result.order == 3

    @pytest.mark.parametrize("modulus", [5, 7, 15, 21])
    def test_all_bases_verified(self, modulus):
        rng = np.random.default_rng(modulus)
        for a in coprime_bases(modulus):
            result = find_order(OrderProblem(a, modulus), rng)
            assert result.order == multiplicative_order(a, modulus)
            assert result.trials <= 64

    def test_trial_cap(self):
        with pytest.raises(TrialLimitError):
            find_order(OrderProblem(2, 7), np.random.default_rng(0), max_runs=0)

    def test_negative_run_budget_rejected(self):
        with pytest.raises(ValueError, match="max_runs"):
            find_order(OrderProblem(2, 7), np.random.default_rng(0), max_runs=-1)

    def test_one_network_per_call(self, monkeypatch):
        calls = record_calls(monkeypatch, phase_estimation, "kernel_state")
        result = find_order(OrderProblem(2, 33), np.random.default_rng(3))
        assert result.trials == 6
        assert result.order == 10
        assert [m for m, _ in calls] == [12]

    def test_record_shape(self):
        result = find_order(OrderProblem(4, 15), np.random.default_rng(1))
        record = result.to_record()
        assert record["r"] == 2
        assert record["verified"] is True
        assert len(record["measured_x"]) == record["trials"]


class TestCoprimePairs:
    def test_trivial(self):
        assert coprime_pair_probability(1) == 1.0

    def test_two(self):
        assert coprime_pair_probability(2) == 0.75

    @pytest.mark.parametrize("r", [3, 10, 50, 211, 500])
    def test_exceeds_bound(self, r):
        assert coprime_pair_probability(r) > 0.54


class TestRsa:
    def test_identity_exponent(self):
        result = rsa_crack(RsaInstance(33, 1, 26), np.random.default_rng(0))
        assert result.plaintext == 26
        assert result.trials == 0

    def test_spec_instance(self):
        result = rsa_crack(RsaInstance(33, 3, 26), np.random.default_rng(5))
        assert result.plaintext == 5
        assert result.order == multiplicative_order(26, 33)
        assert result.decryption_exponent == 7
        assert pow(5, 3, 33) == 26

    @pytest.mark.parametrize("plaintext", [2, 5, 7, 13, 17])
    def test_recovery_round_trip(self, plaintext):
        e, modulus = 3, 33
        ciphertext = pow(plaintext, e, modulus)
        result = rsa_crack(
            RsaInstance(modulus, e, ciphertext), np.random.default_rng(plaintext)
        )
        assert pow(result.plaintext, e, modulus) == ciphertext
        assert result.plaintext == plaintext

    def test_non_invertible_exponent(self):
        # ord(2 mod 15) = 4 shares a factor with e = 2
        with pytest.raises(ValueError):
            rsa_crack(RsaInstance(15, 2, 2), np.random.default_rng(0))

    def test_instance_validation(self):
        with pytest.raises(ValueError):
            RsaInstance(33, 3, 33)
        with pytest.raises(ValueError):
            RsaInstance(33, 3, 3)  # shares a factor


class TestTotientDecrypt:
    def test_phi_of_33(self):
        assert totient_decrypt({3: 1, 11: 1}, 3) == 7

    def test_agrees_with_crack(self):
        d = totient_decrypt({3: 1, 11: 1}, 3)
        assert pow(26, d, 33) == 5

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            totient_decrypt({3: 1, 11: 1}, 5)  # gcd(5, 20) = 5

    def test_composite_factor_rejected(self):
        with pytest.raises(ValueError):
            totient_decrypt({4: 1}, 3)

    @pytest.mark.parametrize("factorization", [{3: 1, 11: 1}, {5: 1, 11: 1}, {2: 3, 7: 1}, {3: 2}])
    @pytest.mark.parametrize("e", [1, 3, 5, 7, 9])
    def test_against_brute_force(self, factorization, e):
        modulus = math.prod(p**k for p, k in factorization.items())
        phi = len(coprime_bases(modulus))
        inverses = [d for d in range(phi) if e * d % phi == 1 % phi]
        if not inverses:
            with pytest.raises(ValueError, match="not invertible"):
                totient_decrypt(factorization, e)
        else:
            assert totient_decrypt(factorization, e) == inverses[0]


class TestOrderProblemValidation:
    def test_non_coprime(self):
        with pytest.raises(ValueError):
            OrderProblem(6, 15)

    @pytest.mark.parametrize(
        "base, modulus, message",
        [
            (1, 1, "modulus must be >= 2"),
            (0, 7, "base must satisfy 1 <= base < modulus"),
            (6, 15, "base 6 and modulus 15 are not coprime"),
        ],
    )
    def test_same_checks_as_modmult(self, base, modulus, message):
        with pytest.raises(ValueError) as info:
            OrderProblem(base, modulus)
        assert str(info.value) == message

    def test_base_range(self):
        with pytest.raises(ValueError):
            OrderProblem(15, 15)

    def test_default_precision_is_twice_target(self):
        p = OrderProblem(2, 21)
        assert p.target_bits == 5
        assert p.precision_bits == 10
