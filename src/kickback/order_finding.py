"""Order finding over the full simulated network, and the RSA crack on it.

The quantum part estimates an eigenvalue phase k/r of the multiply-by-a
map: target register prepared in |1> (the uniform combination of all the
eigenvectors), m control bits through the controlled-power kernel, inverse
Fourier transform, measure. That pre-measurement distribution depends only
on (a, N, m), so the network is simulated once per problem and every run
samples it afresh. Continued fractions pull a candidate for r out of the
measured dyadic x/2^m; candidates are verified classically and the loop
retries until verification succeeds, falling back to combining two runs by
least common multiple when single runs keep failing.

The default control width is twice the target width, which gives continued
fractions enough precision to isolate any denominator below the modulus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import phase_estimation
from .gates import ModMultSpec, controlled_modmult, pauli_x
from .phase_estimation import EigenOracle
from .statevec import sample_index

SINGLE_RUN_ATTEMPTS = 4
MAX_NETWORK_RUNS = 64


class TrialLimitError(RuntimeError):
    """Order finding exhausted its run budget without a verified order."""


def mod_exp(base: int, exponent: int, modulus: int) -> int:
    """base**exponent mod modulus."""
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    if exponent < 0:
        raise ValueError("exponent must be >= 0")
    return pow(base, exponent, modulus)


@dataclass(frozen=True)
class OrderProblem:
    """Find the least r > 0 with base**r = 1 mod modulus."""

    base: int
    modulus: int
    control_bits: int | None = None

    def __post_init__(self):
        ModMultSpec(self.base, self.modulus, 0)  # validates base and modulus

    @property
    def target_bits(self) -> int:
        """Width of the register holding values mod modulus."""
        return max(1, (self.modulus - 1).bit_length())

    @property
    def precision_bits(self) -> int:
        """Control register width; defaults to twice the target width."""
        return self.control_bits if self.control_bits is not None else 2 * self.target_bits


class ModMultEigenOracle(EigenOracle):
    """Controlled multiply-by-base powers; eigenstate defaults to |1>."""

    def __init__(self, problem: OrderProblem, eigenstate: np.ndarray | None = None):
        self.problem = problem
        self.target_width = problem.target_bits
        if eigenstate is not None:
            eigenstate = np.asarray(eigenstate, dtype=complex)
            if eigenstate.shape != (1 << self.target_width,):
                raise ValueError("eigenstate has the wrong dimension for the target span")
        self._eigenstate = eigenstate

    def prepare_eigenstate(self, state, target_span):
        if self._eigenstate is None:
            state.apply_single_qubit(pauli_x(), target_span[-1])  # target value 1
        else:
            # the whole register is still |0...0>, so the target span owns
            # the low amplitude block
            state.amplitudes[: self._eigenstate.size] = self._eigenstate

    def apply_controlled_power(self, state, j, control, target_span):
        spec = ModMultSpec(self.problem.base, self.problem.modulus, j)
        controlled_modmult(spec, state, control, target_span)


@dataclass(frozen=True)
class Convergent:
    numerator: int
    denominator: int


def convergents(x: int, denom: int, bound: int) -> tuple[int, list[Convergent]]:
    """Continued-fraction convergents of x/denom.

    Returns (candidate, all) where candidate is the denominator of the last
    convergent with denominator < bound. x = 0 expands to 0/1, candidate 1.
    """
    if denom < 1:
        raise ValueError("denominator must be >= 1")
    if not 0 <= x < denom:
        raise ValueError(f"numerator {x} out of range for denominator {denom}")
    if bound < 1:
        raise ValueError("bound must be >= 1")
    coeffs = []
    a, b = x, denom
    while b:
        q = a // b
        coeffs.append(q)
        a, b = b, a - q * b
    convs = []
    h1, h2, k1, k2 = 1, 0, 0, 1
    for q in coeffs:
        h1, h2 = q * h1 + h2, h1
        k1, k2 = q * k1 + k2, k1
        convs.append(Convergent(h1, k1))
    candidate = 1
    for c in convs:
        if c.denominator < bound:
            candidate = c.denominator
    return candidate, convs


def control_distribution(
    problem: OrderProblem, eigenstate: np.ndarray | None = None
) -> np.ndarray:
    """Exact pre-measurement distribution of the control register."""
    return phase_estimation.control_distribution(
        problem.precision_bits, ModMultEigenOracle(problem, eigenstate)
    )


def _prime_factors(value: int) -> list[int]:
    factors = []
    v = value
    p = 2
    while p * p <= v:
        if v % p == 0:
            factors.append(p)
            while v % p == 0:
                v //= p
        p += 1
    if v > 1:
        factors.append(v)
    return factors


def _order_from_multiple(a: int, modulus: int, multiple: int) -> int:
    """Shrink a verified multiple of the order down to the order itself."""
    order = multiple
    for p in _prime_factors(multiple):
        while order % p == 0 and mod_exp(a, order // p, modulus) == 1:
            order //= p
    return order


def _verified_order(a: int, modulus: int, candidate: int) -> int | None:
    if candidate >= 1 and mod_exp(a, candidate, modulus) == 1:
        return _order_from_multiple(a, modulus, candidate)
    return None


@dataclass
class OrderResult:
    """A verified order plus the evidence that produced it."""

    base: int
    modulus: int
    precision_bits: int
    order: int
    trials: int
    measured: list[int] = field(default_factory=list)
    candidates: list[int] = field(default_factory=list)
    verified: bool = True

    def to_record(self) -> dict:
        return {
            "a": self.base,
            "N": self.modulus,
            "m": self.precision_bits,
            "trials": self.trials,
            "measured_x": list(self.measured),
            "convergents": list(self.candidates),
            "r": self.order,
            "verified": self.verified,
        }


def find_order(
    problem: OrderProblem,
    rng: np.random.Generator,
    max_runs: int = MAX_NETWORK_RUNS,
    single_run_attempts: int = SINGLE_RUN_ATTEMPTS,
) -> OrderResult:
    """Sample the network until a candidate order verifies.

    The network is simulated once; each run then measures x afresh from its
    control distribution, takes the largest convergent denominator of x/2^m
    below N as the candidate, and accepts it if a^candidate = 1 mod N
    (shrunk to the minimal such exponent). After ``single_run_attempts``
    failures, later runs also try the least common multiple of the two most
    recent informative candidates. Raises TrialLimitError at ``max_runs``.
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
        candidate, _ = convergents(x, 1 << m, modulus)
        candidates.append(candidate)
        order = _verified_order(a, modulus, candidate)
        if order is None and runs > single_run_attempts and previous is not None:
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


def _mod_inverse(a: int, modulus: int) -> int:
    try:
        return pow(a, -1, modulus)
    except ValueError:
        raise ValueError(f"{a} is not invertible modulo {modulus}") from None


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
    d = _mod_inverse(e, found.order)
    plaintext = mod_exp(c, d, modulus)
    if mod_exp(plaintext, e, modulus) != c:
        raise RuntimeError("recovered plaintext failed the re-encryption check")
    return CrackResult(
        plaintext=plaintext,
        order=found.order,
        decryption_exponent=d,
        trials=found.trials,
    )
