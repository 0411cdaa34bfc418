"""Command-line interface: one subcommand per algorithm and sweep.

Each subcommand has a handler of its own, which calls the library when it
runs and returns the record to print. Every subcommand is reproducible: the
same flags produce byte-identical ``--json`` output. Only the sampling
subcommands (grover, phase-est, order-find, rsa-crack) take a ``--seed``, a
non-negative integer; the rest are deterministic.
Exit codes: 0 success, 2 domain or validation error or an allocation the
system refuses, 3 probabilistic failure report, 64 unknown subcommand.

Oracles are given inline (``--table "0->0,1->1"``) or as a file in the same
text format, one ``x_bits -> y_bits`` line per input.

The register-width cap (24 qubits by default) can be raised through the
KICKBACK_MAX_QUBITS environment variable. tail-sweep evaluates the
closed-form readout's whole table of grid x 2^m cells, phase-sweep only the
two cells nearest each phase; either table may hold no more cells than the
largest allowed register holds amplitudes, so phase-sweep --m 15 at the
default grid exits 2 at once.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import algorithms, analysis, order_finding, phase_estimation
from .gates import Oracle, load_oracle, parse_oracle_text
from .qft import inverse_qft, qft as qft_transform
from .statevec import _check_capacity, basis_state, sample_indices

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_PROBABILISTIC = 3
EXIT_USAGE = 64

# bounds --shots: one simulated search each (grover), or one draw each, all
# from one cumulative sum (phase-est)
MAX_SHOTS = 100_000


def _load_table(args) -> Oracle:
    if args.table is not None:
        return parse_oracle_text(args.table.replace(",", "\n"))
    if args.file is not None:
        return load_oracle(args.file)
    raise ValueError("provide an oracle with --table or --file")


def _add_oracle_flags(sub) -> None:
    source = sub.add_mutually_exclusive_group()
    source.add_argument("--table", help='inline oracle table, e.g. "0->0,1->1"')
    source.add_argument("--file", help="path to an oracle table file")


def _int_in(low: int, high: int | None = None):
    """An argparse type: an integer >= ``low`` and, if ``high`` is given, <= ``high``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _add_common_flags(sub, seed: bool = False, shots: bool = False) -> None:
    if seed:
        sub.add_argument("--seed", type=_int_in(0), default=0, help="PRNG seed (default 0)")
    if shots:
        sub.add_argument(
            "--shots", type=_int_in(1, MAX_SHOTS), default=1, help="number of samples (default 1)"
        )
    sub.add_argument("--json", action="store_true", help="emit one JSON record")


def _amplitude_pairs(state) -> list[list[float]]:
    a = state.amplitudes
    return np.stack((a.real, a.imag), axis=-1).tolist()


# -- handlers ------------------------------------------------------------


def _run_mach_zehnder(args) -> dict:
    p0, p1 = algorithms.mach_zehnder(args.phi0, args.phi1)
    return {"phi0": args.phi0, "phi1": args.phi1, "p0": p0, "p1": p1}


def _run_deutsch(args) -> dict:
    oracle = _load_table(args)
    run = algorithms.deutsch(oracle)
    return {"verdict": run.verdict.value, "oracle_calls": oracle.call_count}


def _run_dj(args) -> dict:
    oracle = _load_table(args)
    run = algorithms.deutsch_jozsa(oracle.n_in, oracle, diagnose=args.diagnose)
    return {
        "n": oracle.n_in,
        "verdict": run.verdict.value,
        "oracle_calls": oracle.call_count,
        "zero_probability": run.zero_probability,
    }


def _run_bv(args) -> dict:
    oracle = _load_table(args)
    run = algorithms.bernstein_vazirani(oracle.n_in, oracle)
    return {
        "a": format(run.a, f"0{oracle.n_in}b"),
        "b": run.b,
        "oracle_calls": oracle.call_count,
        "classical_calls_needed": oracle.n_in,
    }


def _run_affine(args) -> dict:
    oracle = _load_table(args)
    matrix = algorithms.affine_recovery(oracle.n_in, oracle.m_out, oracle)
    return {
        "matrix": ["".join(str(b) for b in row) for row in matrix],
        "oracle_calls": oracle.call_count,
    }


def _run_grover(args) -> dict:
    spec = algorithms.GroverOracle(args.n, args.k)
    rng = np.random.default_rng(args.seed)
    outcomes = []
    run = None
    for _ in range(args.shots):
        run = algorithms.grover_search(spec, rng, iterations=args.iterations)
        outcomes.append(run.outcome)
    return {
        "n": args.n,
        "k": args.k,
        "iterations": run.iterations,
        "oracle_calls": run.oracle_calls,
        "success_probability": run.success_probability,
        "outcomes": outcomes,
    }


def _run_qft(args) -> dict:
    state = basis_state(args.m, args.a)
    if args.inverse:
        inverse_qft(state, range(args.m))
    else:
        qft_transform(state, range(args.m))
    return {
        "m": args.m,
        "a": args.a,
        "inverse": bool(args.inverse),
        "amplitudes": _amplitude_pairs(state),
    }


def _run_phase_est(args) -> dict:
    if not 0.0 <= args.phi < 1.0:
        raise ValueError("--phi must lie in [0, 1)")
    oracle = phase_estimation.DiagonalEigenOracle(args.phi)
    rng = np.random.default_rng(args.seed)
    dist = phase_estimation.control_distribution(args.m, oracle)
    estimates = sample_indices(dist, rng, args.shots).tolist()
    ana = phase_estimation.analytic_distribution(args.phi, args.m)
    return {
        "phi": args.phi,
        "m": args.m,
        "estimates": estimates,
        "best": list(ana.best),
        "analytic_success": ana.success_prob,
    }


def _run_sweep(args, sweep, phase_grid) -> dict:
    _check_capacity(args.m, args.grid)  # before the grid is built
    report = sweep(m_list=[args.m], phi_grid=phase_grid(args.grid))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as f:
            report.to_csv(f)
    return report.to_record()


def _run_phase_sweep(args) -> dict:
    return _run_sweep(args, analysis.sweep_success_bound, analysis.default_phase_grid)


def _run_tail_sweep(args) -> dict:
    return _run_sweep(args, analysis.sweep_tail_bound, analysis.offset_phase_grid)


def _run_order_find(args) -> dict:
    problem = order_finding.OrderProblem(args.a, args.N, control_bits=args.m)
    rng = np.random.default_rng(args.seed)
    return order_finding.find_order(problem, rng, max_runs=args.max_runs).to_record()


def _run_rsa_crack(args) -> dict:
    inst = order_finding.RsaInstance(args.N, args.e, args.C)
    result = order_finding.rsa_crack(inst, np.random.default_rng(args.seed))
    return {
        "N": args.N,
        "e": args.e,
        "C": args.C,
        "P": result.plaintext,
        "order": result.order,
        "d": result.decryption_exponent,
        "verified": True,
    }


def _run_pattern(args) -> dict:
    oracle = _load_table(args)  # reuse the table format: x_bits -> phase_bits
    spec = algorithms.PatternSpec(oracle.n_in, oracle.m_out, oracle.table)
    state = algorithms.pattern_generate(spec)
    return {
        "n": oracle.n_in,
        "m": oracle.m_out,
        "amplitudes": _amplitude_pairs(state),
    }


# -- plumbing ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kickback",
        description="Phase-kickback algorithm suite on a dense state-vector simulator.",
    )
    subs = parser.add_subparsers(dest="command")

    sub = subs.add_parser("mach-zehnder", help="two-path interferometer probabilities")
    sub.add_argument("--phi0", type=float, default=0.0)
    sub.add_argument("--phi1", type=float, default=0.0)
    _add_common_flags(sub)
    sub.set_defaults(handler=_run_mach_zehnder)

    sub = subs.add_parser("deutsch", help="constant-vs-balanced, one bit")
    _add_oracle_flags(sub)
    _add_common_flags(sub)
    sub.set_defaults(handler=_run_deutsch)

    sub = subs.add_parser("dj", help="constant-vs-balanced, n bits")
    _add_oracle_flags(sub)
    sub.add_argument("--diagnose", action="store_true", help="flag promise violations")
    _add_common_flags(sub)
    sub.set_defaults(handler=_run_dj)

    sub = subs.add_parser("bv", help="recover a from f(x) = (a.x) xor b")
    _add_oracle_flags(sub)
    _add_common_flags(sub)
    sub.set_defaults(handler=_run_bv)

    sub = subs.add_parser("affine", help="recover A from f(x) = (A.x) xor b")
    _add_oracle_flags(sub)
    _add_common_flags(sub)
    sub.set_defaults(handler=_run_affine)

    sub = subs.add_parser("grover", help="search for a tagged value")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--k", type=int, required=True, help="tagged value")
    sub.add_argument("--iterations", type=int, default=None)
    _add_common_flags(sub, seed=True, shots=True)
    sub.set_defaults(handler=_run_grover)

    sub = subs.add_parser("qft", help="Fourier-transform a basis state")
    sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--a", type=int, default=0)
    sub.add_argument("--inverse", action="store_true")
    _add_common_flags(sub)
    sub.set_defaults(handler=_run_qft)

    sub = subs.add_parser("phase-est", help="estimate a synthetic phase")
    sub.add_argument("--phi", type=float, required=True)
    sub.add_argument("--m", type=int, required=True)
    _add_common_flags(sub, seed=True, shots=True)
    sub.set_defaults(handler=_run_phase_est)

    sub = subs.add_parser("phase-sweep", help="success probability vs 4/pi^2")
    sub.add_argument("--m", type=_int_in(1), required=True)
    sub.add_argument("--grid", type=_int_in(1), default=1000)
    sub.add_argument("--csv", help="write per-point rows to this file")
    _add_common_flags(sub)
    sub.set_defaults(handler=_run_phase_sweep)

    sub = subs.add_parser("tail-sweep", help="tail probability vs 1/(2k-1)")
    sub.add_argument("--m", type=_int_in(2), required=True)
    sub.add_argument("--grid", type=_int_in(1), default=200)
    sub.add_argument("--csv", help="write per-point rows to this file")
    _add_common_flags(sub)
    sub.set_defaults(handler=_run_tail_sweep)

    sub = subs.add_parser("order-find", help="multiplicative order of a mod N")
    sub.add_argument("--a", type=int, required=True)
    sub.add_argument("--N", type=int, required=True)
    sub.add_argument("--m", type=int, default=None, help="control bits (default 2n)")
    sub.add_argument(
        "--max-runs",
        type=_int_in(0),
        default=order_finding.MAX_NETWORK_RUNS,
        help="network-run budget before reporting failure",
    )
    _add_common_flags(sub, seed=True)
    sub.set_defaults(handler=_run_order_find)

    sub = subs.add_parser("rsa-crack", help="recover P from C = P^e mod N")
    sub.add_argument("--N", type=int, required=True)
    sub.add_argument("--e", type=int, required=True)
    sub.add_argument("--C", type=int, required=True)
    _add_common_flags(sub, seed=True)
    sub.set_defaults(handler=_run_rsa_crack)

    sub = subs.add_parser("pattern", help="generate an interference pattern")
    _add_oracle_flags(sub)
    _add_common_flags(sub)
    sub.set_defaults(handler=_run_pattern)

    parser.set_defaults(commands=subs.choices)
    return parser


# main parses with one tree per process, as building one costs more than a
# small command. A tree keeps nothing from one call for the next: no action
# accumulates into its default (no append or count), prog is given, so
# sys.argv[0] is never read, and each handler looks up its library function
# when it runs, so a patched or traced function is the one called.
_parser = functools.cache(build_parser)


def _emit(record: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(record, sort_keys=True))
    else:
        for key in sorted(record):
            print(f"{key}: {record[key]}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _parser()
    commands = {"-h", "--help", *parser.get_default("commands")}
    if not argv or argv[0] not in commands:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        record = args.handler(args)
    except order_finding.TrialLimitError as exc:
        _emit({"verified": False, "error": str(exc)}, args.json)
        return EXIT_PROBABILISTIC
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    _emit(record, args.json)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
