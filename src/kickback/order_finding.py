"""Order finding over the full simulated network, and the RSA crack on it.

The quantum part estimates an eigenvalue phase k/r of the multiply-by-a
map: the oracle's ``eigenstate()`` is |1>, the uniform combination of the r
eigenvectors psi_k, so the readout is the mean over k in [0, r) of the
closed-form readouts of k/r. The control qubit of weight 2^j drives one
``controlled_modmult`` by a^(2^j) mod N, computed classically: a w-bit
relabelling of the target values on that control's 1 slice, which moves
whole rows of target values and skips a multiplier of 1 (once a^(2^j) = 1,
every later power is 1 too); (a, N) is checked once, by ``OrderProblem``.
The network is simulated once per problem, its readout transforms only the
r target columns a^x mod N (all 2^w when r > 2^(w-1)), and every run samples
it afresh. Continued fractions pull a candidate c for r out of the measured
x/2^m. The order divides every exponent that verifies (a^c = 1 mod N), so it
is the least divisor of c that verifies.
When single runs keep failing, the loop also tries the least common multiple of two.

The default control width is twice the target width, which gives continued
fractions enough precision to isolate any denominator below the modulus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import phase_estimation
from .gates import controlled_modmult
from .phase_estimation import EigenOracle
from .statevec import basis_state, sample_index

SINGLE_RUN_ATTEMPTS = 4
MAX_NETWORK_RUNS = 64


class TrialLimitError(RuntimeError):
    """Order finding exhausted its run budget without a verified order."""


@dataclass(frozen=True)
class OrderProblem:
    """Find the least r > 0 with base**r = 1 mod modulus."""

    base: int
    modulus: int
    control_bits: int | None = None

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError("modulus must be >= 2")
        if not 1 <= self.base < self.modulus:
            raise ValueError("base must satisfy 1 <= base < modulus")
        if math.gcd(self.base, self.modulus) != 1:
            raise ValueError(f"base {self.base} and modulus {self.modulus} are not coprime")

    @property
    def target_bits(self) -> int:
        """Width of the register holding values mod modulus."""
        return (self.modulus - 1).bit_length()

    @property
    def precision_bits(self) -> int:
        """Control register width; defaults to twice the target width."""
        return self.control_bits if self.control_bits is not None else 2 * self.target_bits


class ModMultEigenOracle(EigenOracle):
    """Controlled multiply-by-base powers on a target that starts in |1>."""

    def __init__(self, problem: OrderProblem):
        self.problem = problem

    def eigenstate(self):
        return basis_state(self.problem.target_bits, 1)

    def apply_controlled_power(self, state, j, control, target_span):
        base, modulus = self.problem.base, self.problem.modulus
        controlled_modmult(pow(base, 1 << j, modulus), modulus, state, control, target_span)


def convergents(x: int, denom: int, bound: int) -> int:
    """The candidate: the last continued-fraction convergent denominator of
    x/denom below ``bound``, or 1 when there is none.

    Denominators never decrease, so the expansion stops at the first one
    >= bound. x = 0 expands to 0/1, candidate 1.
    """
    if denom < 1:
        raise ValueError("denominator must be >= 1")
    if not 0 <= x < denom:
        raise ValueError(f"numerator {x} out of range for denominator {denom}")
    if bound < 1:
        raise ValueError("bound must be >= 1")
    k, k_prev = 1, 0  # x/denom < 1 starts at 0/1
    a, b = denom, x
    while b:
        q = a // b
        a, b = b, a - q * b
        k, k_prev = q * k + k_prev, k
        if k >= bound:
            return k_prev
    return k


def control_distribution(problem: OrderProblem) -> np.ndarray:
    """Exact pre-measurement distribution of the control register."""
    return phase_estimation.control_distribution(
        problem.precision_bits, ModMultEigenOracle(problem)
    )


def _verified_order(a: int, modulus: int, candidate: int) -> int | None:
    """The order of a (the least divisor of the candidate that verifies), or None."""
    if candidate < 1 or pow(a, candidate, modulus) != 1:
        return None
    small = [d for d in range(1, math.isqrt(candidate) + 1) if candidate % d == 0]
    divisors = small + [candidate // d for d in reversed(small)]  # ascending
    return next(d for d in divisors if pow(a, d, modulus) == 1)


@dataclass
class OrderResult:
    """An order, verified by a^r = 1 mod N, plus the evidence that produced it."""

    base: int
    modulus: int
    precision_bits: int
    order: int
    trials: int
    measured: list[int] = field(default_factory=list)
    candidates: list[int] = field(default_factory=list)

    def to_record(self) -> dict:
        return {
            "a": self.base,
            "N": self.modulus,
            "m": self.precision_bits,
            "trials": self.trials,
            "measured_x": list(self.measured),
            "convergents": list(self.candidates),
            "r": self.order,
            "verified": True,
        }


def find_order(
    problem: OrderProblem,
    rng: np.random.Generator,
    max_runs: int = MAX_NETWORK_RUNS,
) -> OrderResult:
    """Sample the network until a candidate order verifies.

    The network is simulated once; each run then measures x afresh from its
    control distribution, takes the largest convergent denominator of x/2^m
    below N as the candidate, and returns its least divisor d with a^d = 1
    mod N, if any. After SINGLE_RUN_ATTEMPTS failures, later runs also try
    the least common multiple of the two most recent informative candidates.
    Raises TrialLimitError at ``max_runs``.
    """
    if max_runs < 0:
        raise ValueError("max_runs must be >= 0")
    a, modulus, m = problem.base, problem.modulus, problem.precision_bits
    dist = control_distribution(problem)
    measured: list[int] = []
    candidates: list[int] = []
    previous = None
    for runs in range(1, max_runs + 1):
        x = sample_index(dist, rng)
        measured.append(x)
        candidate = convergents(x, 1 << m, modulus)
        candidates.append(candidate)
        order = _verified_order(a, modulus, candidate)
        if order is None and runs > SINGLE_RUN_ATTEMPTS and previous is not None:
            combined = math.lcm(previous, candidate)
            if combined < modulus:
                order = _verified_order(a, modulus, combined)
        if order is not None:
            return OrderResult(
                base=a,
                modulus=modulus,
                precision_bits=m,
                order=order,
                trials=runs,
                measured=measured,
                candidates=candidates,
            )
        if candidate > 1:
            previous = candidate
    raise TrialLimitError(
        f"no verified order for base {a} mod {modulus} after {max_runs} runs"
    )


@dataclass(frozen=True)
class RsaInstance:
    """Ciphertext C = P**e mod N with the plaintext P to be recovered."""

    modulus: int
    public_exponent: int
    ciphertext: int

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError("modulus must be >= 2")
        if self.public_exponent < 1:
            raise ValueError("public exponent must be >= 1")
        if not 1 <= self.ciphertext < self.modulus:
            raise ValueError("ciphertext must lie in [1, modulus)")
        if math.gcd(self.ciphertext, self.modulus) != 1:
            raise ValueError("ciphertext shares a factor with the modulus")


@dataclass
class CrackResult:
    plaintext: int
    order: int | None
    decryption_exponent: int
    trials: int


def rsa_crack(inst: RsaInstance, rng: np.random.Generator) -> CrackResult:
    """Recover P from (C, e, N) via the order of C.

    The order of C equals the order of P, so d with e*d = 1 mod ord(C)
    satisfies C**d = P**(e*d) = P. The recovered value is
    always re-encrypted and checked against C before being returned.
    """
    modulus, e, c = inst.modulus, inst.public_exponent, inst.ciphertext
    if e == 1:
        return CrackResult(plaintext=c, order=None, decryption_exponent=1, trials=0)
    found = find_order(OrderProblem(c, modulus), rng)
    if math.gcd(e, found.order) != 1:
        raise ValueError(
            f"public exponent {e} is not invertible modulo {found.order}, "
            f"the order of {c} mod {modulus}"
        )
    d = pow(e, -1, found.order)
    plaintext = pow(c, d, modulus)
    if pow(plaintext, e, modulus) != c:
        raise RuntimeError("recovered plaintext failed the re-encryption check")
    return CrackResult(
        plaintext=plaintext,
        order=found.order,
        decryption_exponent=d,
        trials=found.trials,
    )
