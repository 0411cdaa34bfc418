"""The three benchmark workloads: job slots, seeded job makers, job runners.

A workload is a fixed cycle of job slots. A slot fixes the kind and size of
a job; the seed fills it with concrete inputs (bases and moduli, oracle
tables, widths, phases, CLI argv lists). Every seed therefore asks for the
same simulation work, and the spread between seeds is the machine's.

Every runner times only the program calls, inside ``with clock:``, and then
checks the answer against a reference that shares no code with the path it
checks. A wrong answer raises CheckFailed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

import kickback as kb
from kickback import cli, phase_estimation

TOL = 1e-10


class CheckFailed(Exception):
    """A job's output disagrees with its reference."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def expect_close(got, want, what: str) -> None:
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    expect(err <= TOL, f"{what}: max error {err:.3e}")


# -- references written here, sharing no code with kickback --------------


def brute_order(a: int, modulus: int) -> int:
    """Least r >= 1 with a^r = 1 mod modulus, by stepping through the powers."""
    r, y = 1, a % modulus
    while y != 1:
        y = y * a % modulus
        r += 1
    return r


def fourier_column(m: int, a: int) -> np.ndarray:
    """2^{-m/2} e^{2 pi i a y / 2^m} for every y, with the exponent reduced exactly."""
    dim = 1 << m
    y = np.arange(dim, dtype=np.int64)
    return np.exp(2j * np.pi * ((a * y) % dim) / dim) / math.sqrt(dim)


def direct_distribution(phi: float, m: int) -> np.ndarray:
    """P(t) = |2^-m sum_y e^{2 pi i y (phi - t/2^m)}|^2 by direct summation."""
    dim = 1 << m
    arg = np.outer(phi - np.arange(dim) / dim, np.arange(dim))
    return np.abs(np.exp(2j * np.pi * arg).sum(axis=1) / dim) ** 2


def nearest_estimate(phi: float, m: int) -> int:
    return round(phi * (1 << m)) % (1 << m)


def wrap_error(phi: float, m: int) -> np.ndarray:
    d = (phi - np.arange(1 << m) / (1 << m)) % 1.0
    return np.minimum(d, 1.0 - d)


def replay_samples(dist: np.ndarray, stream: int, count: int) -> list:
    """Outcomes of ``count`` inverse-CDF draws from ``dist``, one uniform each.

    The program documents that it samples this way, so a fixed stream must
    give these outcomes. A draw within 1e-9 of a cell edge is None: either
    neighbour is then right.
    """
    cdf = np.cumsum(dist)
    rng = np.random.default_rng(stream)
    out = []
    for _ in range(count):
        u = rng.random() * cdf[-1]
        i = int(np.searchsorted(cdf, u, side="right"))
        lo = cdf[i - 1] if i > 0 else 0.0
        hi = cdf[i] if i < len(cdf) else math.inf
        out.append(None if min(u - lo, hi - u) < 1e-9 else i)
    return out


def expect_samples(got, dist, stream, what) -> None:
    want = replay_samples(dist, stream, len(got))
    expect(all(w is None or g == w for g, w in zip(got, want)), f"{what}: drew {got}, expected {want}")


def grover_success(n: int, t: int) -> float:
    """sin^2((2t+1) theta) with sin theta = 2^{-n/2}."""
    return math.sin((2 * t + 1) * math.asin(2.0 ** (-n / 2))) ** 2


def grover_iterations(n: int) -> int:
    return math.floor(math.pi / 4 * math.sqrt(1 << n))


def bits(value: int, width: int) -> str:
    return format(value, f"0{width}b")


def table_text(table, n_in: int, m_out: int) -> str:
    return ",".join(f"{bits(x, n_in)}->{bits(int(y), m_out)}" for x, y in enumerate(table))


# -- random functions with a known answer ---------------------------------


def promise_table(rng, n: int, m: int, constant: bool) -> tuple:
    """f: n -> m bits whose output parity is constant, or balanced."""
    size = 1 << n
    values = rng.integers(0, 1 << m, size)
    if constant:
        want = np.full(size, rng.integers(2))
    else:
        want = rng.permutation(np.arange(size) % 2)
    parity = np.array([bin(int(v)).count("1") & 1 for v in values])
    return tuple(int(v) for v in values ^ (parity != want))


def affine_spec(rng, n: int, m: int) -> tuple:
    rows = tuple(tuple(int(b) for b in rng.integers(0, 2, n)) for _ in range(m))
    return rows, tuple(int(b) for b in rng.integers(0, 2, m))


def affine_table(rows, offset) -> list:
    n, m = len(rows[0]), len(rows)
    out = []
    for x in range(1 << n):
        xb = [(x >> (n - 1 - j)) & 1 for j in range(n)]
        y = 0
        for row, b in zip(rows, offset):
            y = (y << 1) | ((sum(r * v for r, v in zip(row, xb)) + b) & 1)
        out.append(y)
    return out


# -- order-find -----------------------------------------------------------

# Target registers of 4, 5 and 6 qubits: networks of 12, 15 and 18 qubits.
ORDER_CLASSES = {12: range(15, 17), 15: range(17, 33), 18: range(33, 64)}
RSA_MODULI = {12: (15,), 15: (21,), 18: (33, 35, 39, 51, 55, 57)}


def _units_by_order(moduli) -> dict:
    by_order = defaultdict(list)
    for modulus in moduli:
        for a in range(2, modulus):
            if math.gcd(a, modulus) == 1:
                by_order[brute_order(a, modulus)].append((a, modulus))
    return by_order


def make_order(rng, width: int, order: int, stream: int) -> tuple:
    """A base of the slot's order modulo a modulus of the slot's width.

    The network's output distribution depends only on the order and the
    width, and the measurement stream is fixed per slot, so the trial count
    is the slot's whatever base and modulus the seed picks.
    """
    pairs = _units_by_order(ORDER_CLASSES[width])[order]
    a, modulus = pairs[rng.integers(len(pairs))]
    return ("order", a, modulus, stream)


def make_rsa(rng, width: int, order: int, stream: int) -> tuple:
    pairs = _units_by_order(RSA_MODULI[width])[order]
    plaintext, modulus = pairs[rng.integers(len(pairs))]
    lam = math.lcm(*(brute_order(u, modulus) for u in range(2, modulus) if math.gcd(u, modulus) == 1))
    exponents = [e for e in range(3, 64) if math.gcd(e, lam) == 1]
    e = exponents[rng.integers(len(exponents))]
    return ("rsa", modulus, e, pow(plaintext, e, modulus), plaintext, stream)


def run_order(job, clock) -> dict:
    _, a, modulus, stream = job
    with clock:
        result = kb.find_order(kb.OrderProblem(a, modulus), np.random.default_rng(stream))
    r = result.order
    expect(pow(a, r, modulus) == 1, f"{a}^{r} mod {modulus} != 1")
    expect(brute_order(a, modulus) == r, f"order {r} of {a} mod {modulus} is not minimal")
    return {"trials": result.trials}


def run_rsa(job, clock) -> dict:
    _, modulus, e, c, plaintext, stream = job
    with clock:
        result = kb.rsa_crack(kb.RsaInstance(modulus, e, c), np.random.default_rng(stream))
    p = result.plaintext
    expect(pow(p, e, modulus) == c and p == plaintext, f"RSA N={modulus} e={e}: got P={p}")
    return {"trials": result.trials}


# -- wide-qft -------------------------------------------------------------


def make_roundtrip(rng, width: int) -> tuple:
    return ("roundtrip", width, int(rng.integers(1 << width)))


def make_control(rng, width: int) -> tuple:
    return ("control", width, float(rng.random()))


def run_roundtrip(job, clock) -> dict:
    _, width, a = job
    span = range(width)
    with clock:
        state = kb.basis_state(width, a)
        kb.qft(state, span)
    expect_close(state.amplitudes, fourier_column(width, a), f"qft |{a}> on {width} qubits")
    with clock:
        kb.inverse_qft(state, span)
    unit = np.zeros(1 << width)
    unit[a] = 1.0
    expect_close(state.amplitudes, unit, f"inverse qft back to |{a}> on {width} qubits")
    return {}


def run_control(job, clock) -> dict:
    _, width, phi = job
    m = width - 1
    with clock:
        dist = phase_estimation.control_distribution(m, kb.DiagonalEigenOracle(phi))
    want = kb.analytic_distribution(phi, m).distribution
    expect_close(dist, want, f"control distribution phi={phi!r} m={m}")
    return {}


# -- suite-small ----------------------------------------------------------


def make_dj(rng, n: int) -> tuple:
    constant = bool(rng.integers(2))
    return ("dj", n, promise_table(rng, n, 1, constant), constant)


def make_parity(rng, n: int, m: int) -> tuple:
    constant = bool(rng.integers(2))
    return ("parity", n, m, promise_table(rng, n, m, constant), constant)


def make_bv(rng, n: int) -> tuple:
    return ("bv", n, int(rng.integers(1 << n)), int(rng.integers(2)))


def make_affine(rng, n: int, m: int) -> tuple:
    return ("affine", n, m, *affine_spec(rng, n, m))


def make_grover(rng, n: int) -> tuple:
    return ("grover", n, int(rng.integers(1 << n)), int(rng.integers(2**32)))


def make_pattern(rng, n: int, m: int) -> tuple:
    return ("pattern", n, m, tuple(int(v) for v in rng.integers(0, 1 << m, 1 << n)))


def make_estimate(rng, m: int, shots: int) -> tuple:
    return ("estimate", m, float(rng.random()), shots, int(rng.integers(2**32)))


def make_sweep(rng, kind: str, m: int, points: int) -> tuple:
    return (kind, m, tuple(float(p) for p in rng.random(points)))


def make_qft(rng, m: int) -> tuple:
    return ("qft", m, int(rng.integers(1 << m)))


def _verdict(constant: bool) -> str:
    return kb.Verdict.CONSTANT.value if constant else kb.Verdict.BALANCED.value


def run_dj(job, clock) -> dict:
    _, n, table, constant = job
    with clock:
        run = kb.deutsch_jozsa(n, kb.Oracle(n, 1, table))
    expect(run.verdict.value == _verdict(constant), f"Deutsch-Jozsa n={n} said {run.verdict.value}")
    return {"queries": 1}


def run_parity(job, clock) -> dict:
    _, n, m, table, constant = job
    with clock:
        run = kb.parity_promise(n, m, kb.Oracle(n, m, table))
    expect(run.verdict.value == _verdict(constant), f"parity promise {n}->{m} said {run.verdict.value}")
    return {"queries": 1}


def run_bv(job, clock) -> dict:
    _, n, a, b = job
    with clock:
        run = kb.bernstein_vazirani(n, kb.linear_oracle(n, a, b))
    expect((run.a, run.b) == (a, b), f"Bernstein-Vazirani n={n}: got {(run.a, run.b)}, want {(a, b)}")
    return {"queries": 1}


def run_affine(job, clock) -> dict:
    _, n, m, rows, offset = job
    with clock:
        matrix = kb.affine_recovery(n, m, kb.affine_oracle(kb.AffineSpec(rows, offset)))
    expect(matrix.tolist() == [list(r) for r in rows], f"affine recovery {n}->{m} got {matrix.tolist()}")
    return {"queries": m}


def run_grover(job, clock) -> dict:
    _, n, tagged, stream = job
    with clock:
        run = kb.grover_search(kb.GroverOracle(n, tagged), np.random.default_rng(stream))
    t = grover_iterations(n)
    expect(run.iterations == t and run.oracle_calls == t, f"Grover n={n}: {run.iterations} iterations")
    expect(abs(run.success_probability - grover_success(n, t)) <= TOL, f"Grover n={n} success probability")
    expect(0 <= run.outcome < (1 << n), f"Grover n={n} outcome {run.outcome}")
    return {"queries": t}


def run_pattern(job, clock) -> dict:
    _, n, m, phases = job
    with clock:
        state = kb.pattern_generate(kb.PatternSpec(n, m, phases))
    want = np.exp(2j * np.pi * np.array(phases) / (1 << m)) / math.sqrt(1 << n)
    expect_close(state.amplitudes, want, f"pattern {n}+{m}")
    return {"queries": 0}


def run_estimate(job, clock) -> dict:
    _, m, phi, shots, stream = job
    with clock:
        oracle = kb.DiagonalEigenOracle(phi)
        rng = np.random.default_rng(stream)
        got = [kb.estimate_phase(m, oracle, rng).numerator for _ in range(shots)]
    expect_samples(got, kb.analytic_distribution(phi, m).distribution, stream, f"estimate_phase m={m}")
    return {}


def run_sweep_success(job, clock) -> dict:
    _, m, grid = job
    with clock:
        report = kb.sweep_success_bound(m_list=[m], phi_grid=np.array(grid))
    worst = report.worst_entry
    phi = worst["phi"]
    value = direct_distribution(phi, m)[nearest_estimate(phi, m)]
    expect(len(report.entries) == len(grid) and report.worst_margin > 0, "success sweep bound")
    expect(abs(worst["value"] - value) <= TOL, f"success sweep worst value at phi={phi!r}")
    return {}


def run_sweep_tail(job, clock) -> dict:
    _, m, grid = job
    with clock:
        report = kb.sweep_tail_bound(m_list=[m], phi_grid=np.array(grid))
    worst = report.worst_entry
    phi, k = worst["phi"], worst["k"]
    tail = direct_distribution(phi, m)[wrap_error(phi, m) > k / (1 << m)].sum()
    expect(len(report.entries) == (1 << (m - 1)) - 1 and report.worst_margin > 0, "tail sweep bound")
    expect(abs(worst["value"] - tail) <= TOL, f"tail sweep worst value at phi={phi!r} k={k}")
    return {}


def run_qft(job, clock) -> dict:
    _, m, a = job
    with clock:
        state = kb.basis_state(m, a)
        kb.qft(state, range(m))
        dense = kb.basis_state(m, a)
        kb.dft_reference(dense, range(m))
    want = fourier_column(m, a)
    expect_close(state.amplitudes, want, f"qft |{a}> on {m} qubits")
    expect_close(dense.amplitudes, want, f"dft_reference |{a}> on {m} qubits")
    return {}


# -- suite-small: in-process CLI calls ------------------------------------


def make_cli(rng, command: str, *size) -> tuple:
    """An argv list for ``kickback <command> ... --json`` and what it must print."""
    if command == "qft":
        (m,) = size
        a = int(rng.integers(1 << m))
        return ("cli", ("qft", "--m", str(m), "--a", str(a)), {"m": m, "a": a})
    if command == "dj":
        (n,) = size
        constant = bool(rng.integers(2))
        table = promise_table(rng, n, 1, constant)
        return ("cli", ("dj", "--table", table_text(table, n, 1)), {"verdict": _verdict(constant)})
    if command == "bv":
        (n,) = size
        a, b = int(rng.integers(1 << n)), int(rng.integers(2))
        table = [(bin(a & x).count("1") + b) & 1 for x in range(1 << n)]
        return ("cli", ("bv", "--table", table_text(table, n, 1)), {"a": bits(a, n), "b": b})
    if command == "affine":
        n, m = size
        rows, offset = affine_spec(rng, n, m)
        text = table_text(affine_table(rows, offset), n, m)
        return ("cli", ("affine", "--table", text), {"matrix": ["".join(map(str, r)) for r in rows]})
    if command == "grover":
        n, shots = size
        k, seed = int(rng.integers(1 << n)), int(rng.integers(2**31))
        argv = ("grover", "--n", str(n), "--k", str(k), "--seed", str(seed), "--shots", str(shots))
        return ("cli", argv, {"n": n, "shots": shots})
    if command == "phase-est":
        m, shots = size
        phi, seed = float(rng.random()), int(rng.integers(2**31))
        argv = ("phase-est", "--phi", repr(phi), "--m", str(m), "--seed", str(seed), "--shots", str(shots))
        return ("cli", argv, {"phi": phi, "m": m, "seed": seed})
    if command == "order-find":
        (modulus,) = size
        units = [a for a in range(2, modulus) if math.gcd(a, modulus) == 1]
        a, seed = units[rng.integers(len(units))], int(rng.integers(2**31))
        argv = ("order-find", "--a", str(a), "--N", str(modulus), "--seed", str(seed))
        return ("cli", argv, {"a": a, "N": modulus})
    if command == "mach-zehnder":
        phi0, phi1 = (float(v) for v in rng.uniform(-math.pi, math.pi, 2))
        return ("cli", ("mach-zehnder", "--phi0", repr(phi0), "--phi1", repr(phi1)), {})
    if command == "pattern":
        n, m = size
        phases = [int(v) for v in rng.integers(0, 1 << m, 1 << n)]
        return ("cli", ("pattern", "--table", table_text(phases, n, m)), {"phases": phases, "m": m})
    raise ValueError(f"no CLI job for {command!r}")


def _amplitudes(record) -> np.ndarray:
    pairs = np.array(record["amplitudes"], dtype=float)
    return pairs[:, 0] + 1j * pairs[:, 1]


def _check_cli(command: str, want: dict, rec: dict) -> dict:
    """Check one CLI record; returns the oracle queries or trials it must have made."""
    if command == "qft":
        expect_close(_amplitudes(rec), fourier_column(want["m"], want["a"]), "cli qft amplitudes")
        return {"queries": 0}
    if command == "dj":
        expect(rec["verdict"] == want["verdict"] and rec["oracle_calls"] == 1, f"cli dj: {rec}")
        return {"queries": 1}
    if command == "bv":
        expect((rec["a"], rec["b"], rec["oracle_calls"]) == (want["a"], want["b"], 1), f"cli bv: {rec}")
        return {"queries": 1}
    if command == "affine":
        expect(rec["matrix"] == want["matrix"], f"cli affine: {rec}")
        return {"queries": len(want["matrix"])}
    if command == "grover":
        n, shots = want["n"], want["shots"]
        t = grover_iterations(n)
        expect(rec["iterations"] == t and rec["oracle_calls"] == t, f"cli grover: {rec['iterations']}")
        expect(abs(rec["success_probability"] - grover_success(n, t)) <= TOL, "cli grover success")
        outcomes = rec["outcomes"]
        expect(len(outcomes) == shots and all(0 <= o < 1 << n for o in outcomes), "cli grover outcomes")
        return {"queries": shots * t}
    if command == "phase-est":
        phi, m = want["phi"], want["m"]
        dist = direct_distribution(phi, m)
        best = nearest_estimate(phi, m)
        expect(rec["best"] == [best], f"cli phase-est best {rec['best']}, want [{best}]")
        expect(abs(rec["analytic_success"] - dist[best]) <= TOL, "cli phase-est analytic success")
        expect_samples(rec["estimates"], dist, want["seed"], "cli phase-est estimates")
        return {"queries": 0}
    if command == "order-find":
        r = brute_order(want["a"], want["N"])
        expect(rec["r"] == r and rec["verified"] is True, f"cli order-find: {rec}")
        return {"trials": rec["trials"]}
    if command == "mach-zehnder":
        p0 = (1 + math.cos(rec["phi1"] - rec["phi0"])) / 2
        expect(abs(rec["p0"] - p0) <= TOL and abs(rec["p1"] - (1 - p0)) <= TOL, f"cli mach-zehnder: {rec}")
        return {"queries": 0}
    if command == "pattern":
        n = len(want["phases"]).bit_length() - 1
        phases = np.array(want["phases"])
        expect_close(_amplitudes(rec), np.exp(2j * np.pi * phases / (1 << want["m"])) / math.sqrt(1 << n),
                     "cli pattern amplitudes")
        return {"queries": 0}
    raise ValueError(f"no CLI check for {command!r}")


def run_cli(job, clock) -> dict:
    _, argv, want = job
    out = io.StringIO()
    with clock, contextlib.redirect_stdout(out):
        code = cli.main([*argv, "--json"])
    text = out.getvalue()
    expect(code == 0, f"kickback {' '.join(argv)} exited {code}")
    info = _check_cli(argv[0], want, json.loads(text))
    return {**info, "bytes_out": len(text.encode())}


# -- the workloads ------------------------------------------------------------

MAKERS = {
    "order": make_order,
    "rsa": make_rsa,
    "roundtrip": make_roundtrip,
    "control": make_control,
    "dj": make_dj,
    "parity": make_parity,
    "bv": make_bv,
    "affine": make_affine,
    "grover": make_grover,
    "pattern": make_pattern,
    "estimate": make_estimate,
    "sweep-success": lambda rng, m, points: make_sweep(rng, "sweep-success", m, points),
    "sweep-tail": lambda rng, m, points: make_sweep(rng, "sweep-tail", m, points),
    "qft": make_qft,
    "cli": make_cli,
}

RUNNERS = {
    "order": run_order,
    "rsa": run_rsa,
    "roundtrip": run_roundtrip,
    "control": run_control,
    "dj": run_dj,
    "parity": run_parity,
    "bv": run_bv,
    "affine": run_affine,
    "grover": run_grover,
    "pattern": run_pattern,
    "estimate": run_estimate,
    "sweep-success": run_sweep_success,
    "sweep-tail": run_sweep_tail,
    "qft": run_qft,
    "cli": run_cli,
}


@dataclass(frozen=True)
class Workload:
    """A cycle of job slots, its nominal seconds, and a warm-up.

    A run of ``seconds`` does ceil(seconds / cycle_seconds) whole cycles, so
    runs of one length measure the same kinds and sizes of job whatever the
    machine's speed. ``cycle_seconds`` is about one cycle at seed on 2 cores.
    """

    slots: tuple
    cycle_seconds: float
    trace_cycles: int
    warmup: tuple


WORKLOADS = {
    # (kind, width, order, measurement stream). The 18-qubit slots carry
    # most of the time. Slots were picked for their trial counts: 1 to 5 at
    # 12 and 18 qubits, and 1 to 8 at 15 qubits, where each count has one
    # slot but 2, which has two. In a run of four cycles the median job is
    # then a 15-qubit job of 3 trials and the tail job (the eleventh
    # slowest) an 18-qubit job of 3 trials, each between jobs of 2 and 4
    # trials. Neighbouring trial counts differ in cost by 1.25 to 1.5
    # times, so a machine that runs 1.4 times slower for part of a run
    # moves both statistics by part of that, not by a whole step.
    "order-find": Workload(
        slots=(
            ("order", 18, 6, 1003),
            ("order", 15, 6, 1005),
            ("order", 12, 2, 1000),
            ("order", 15, 4, 1000),
            ("order", 18, 2, 1005),
            ("order", 12, 2, 1005),
            ("rsa", 15, 6, 1007),
            ("order", 18, 6, 1001),
            ("order", 12, 2, 1002),
            ("order", 15, 6, 1004),
            ("order", 15, 2, 1000),
            ("order", 18, 4, 1001),
            ("order", 12, 4, 1001),
            ("order", 15, 4, 1003),
            ("rsa", 12, 2, 1005),
            ("order", 15, 6, 1002),
            ("order", 18, 2, 1004),
            ("order", 12, 2, 1004),
            ("order", 15, 8, 1009),
        ),
        cycle_seconds=8.0,
        trace_cycles=1,
        warmup=(("order", 12, 4, 1000), ("rsa", 12, 2, 1000)),
    ),
    # The 20-qubit distribution, the one job whose vector fills 16 MiB, takes
    # about a third of a cycle's time: its speed follows the memory traffic
    # of the rest of the machine, so a larger share would let that noise
    # carry jobs_per_s. In a run of two cycles (--seconds 30) the two 20-
    # and four 18-qubit distributions lead sixteen 17-qubit round trips, so
    # the tail job (the eleventh slowest) is the fifth of those. The median
    # job is among the thirty-two 16-qubit round trips and 17-qubit
    # distributions, which cost about the same, with twenty-eight 16-qubit
    # distributions below them.
    "wide-qft": Workload(
        slots=(
            ("control", 16),
            ("roundtrip", 16),
            ("roundtrip", 17),
            ("control", 17),
            ("control", 16),
            ("roundtrip", 16),
            ("control", 16),
            ("roundtrip", 17),
            ("control", 16),
            ("control", 17),
            ("control", 18),
            ("roundtrip", 16),
            ("roundtrip", 17),
            ("control", 16),
            ("roundtrip", 16),
            ("control", 16),
            ("control", 17),
            ("roundtrip", 17),
            ("roundtrip", 16),
            ("control", 16),
            ("control", 20),
            ("control", 16),
            ("roundtrip", 16),
            ("roundtrip", 17),
            ("control", 17),
            ("control", 16),
            ("roundtrip", 16),
            ("control", 16),
            ("roundtrip", 17),
            ("control", 16),
            ("control", 17),
            ("control", 18),
            ("roundtrip", 16),
            ("roundtrip", 17),
            ("control", 16),
            ("roundtrip", 16),
            ("control", 16),
            ("control", 17),
            ("roundtrip", 17),
            ("roundtrip", 16),
            ("control", 16),
        ),
        cycle_seconds=15.0,
        trace_cycles=1,
        warmup=(("roundtrip", 12), ("control", 12)),
    ),
    # Per cycle, eighteen jobs are cheaper than the 10-qubit Grover search
    # and eighteen dearer, so the median job is near it, among nine slots
    # of 9 to 23 ms (QFT at m=8, the CLI's order-find, qft --m 12 and 13
    # and phase-est, Grover n=10, estimate_phase with 3 to 6 shots) that
    # each cost 1.05 to 1.3 times the next cheaper one. A slow stretch then
    # moves the median smoothly, as it would not inside a group of equal
    # jobs. The two 7+6 patterns and the 13-qubit Grover search of each
    # cycle are the slowest jobs, so in a run of twelve cycles the tail job
    # is the eleventh of those thirty-six.
    "suite-small": Workload(
        slots=(
            ("dj", 6),
            ("estimate", 10, 3),
            ("cli", "qft", 12),
            ("pattern", 6, 6),
            ("dj", 8),
            ("bv", 12),
            ("grover", 10),
            ("cli", "dj", 4),
            ("pattern", 7, 6),
            ("estimate", 10, 16),
            ("grover", 11),
            ("qft", 8),
            ("cli", "grover", 10, 4),
            ("parity", 8, 3),
            ("estimate", 10, 5),
            ("cli", "qft", 13),
            ("sweep-success", 10, 1000),
            ("dj", 10),
            ("cli", "bv", 6),
            ("bv", 8),
            ("grover", 12),
            ("affine", 8, 4),
            ("cli", "phase-est", 8, 8),
            ("estimate", 10, 4),
            ("qft", 10),
            ("cli", "order-find", 15),
            ("pattern", 6, 6),
            ("parity", 6, 2),
            ("cli", "qft", 14),
            ("pattern", 7, 6),
            ("sweep-tail", 10, 200),
            ("cli", "affine", 5, 3),
            ("estimate", 10, 6),
            ("grover", 13),
            ("dj", 6),
            ("cli", "mach-zehnder"),
            ("cli", "pattern", 4, 3),
        ),
        cycle_seconds=2.5,
        trace_cycles=3,
        warmup=(
            ("dj", 4),
            ("bv", 6),
            ("grover", 6),
            ("pattern", 3, 3),
            ("estimate", 6, 4),
            ("qft", 6),
            ("sweep-success", 4, 50),
            ("cli", "dj", 2),
        ),
    ),
}


def make_jobs(rng, slots) -> list:
    return [MAKERS[slot[0]](rng, *slot[1:]) for slot in slots]


def cycles_for(name: str, seconds: float) -> int:
    return max(1, math.ceil(seconds / WORKLOADS[name].cycle_seconds))


def job_list(name: str, seed: int, cycles: int) -> list:
    """The seeded job list: ``cycles`` cycles of the workload's slots."""
    rng = np.random.default_rng(seed)
    slots = WORKLOADS[name].slots
    return [job for _ in range(cycles) for job in make_jobs(rng, slots)]


def run_job(job, clock) -> dict:
    return RUNNERS[job[0]](job, clock)
