import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import kickback
from helpers import record_calls
from kickback import algorithms, analysis, phase_estimation
from kickback.cli import MAX_SHOTS, build_parser, main


def run_json(capsys, *argv):
    code = main(list(argv) + ["--json"])
    out = capsys.readouterr().out
    return code, out


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 64

    def test_no_arguments(self, capsys):
        assert main([]) == 64

    def test_domain_error(self, capsys):
        # non-total oracle table
        code = main(["deutsch", "--table", "0->0"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_validation_error_passthrough(self, capsys):
        code = main(["rsa-crack", "--N", "33", "--e", "3", "--C", "33"])
        assert code == 2

    def test_rsa_names_the_exponent_and_the_order(self, capsys):
        # the order of 4 mod 15 is 2, and e = 2 has no inverse modulo 2
        assert main(["rsa-crack", "--N", "15", "--e", "2", "--C", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: public exponent 2 is not invertible modulo 2, the order of 4 mod 15\n"
        )

    def test_missing_oracle(self, capsys):
        assert main(["deutsch"]) == 2

    def test_probabilistic_failure(self, capsys):
        code = main(
            ["order-find", "--a", "2", "--N", "7", "--max-runs", "0", "--json"]
        )
        assert code == 3
        assert '"verified": false' in capsys.readouterr().out


class TestInputValidation:
    """Bad input exits 2 with a message naming the culprit, never a traceback."""

    @pytest.mark.parametrize(
        "argv, culprit",
        [
            (["grover", "--n", "3", "--k", "1", "--shots", "0"], "--shots"),
            (["grover", "--n", "3", "--k", "1", "--shots", "-3"], "--shots"),
            (["phase-est", "--phi", "0.25", "--m", "3", "--shots", "-1"], "--shots"),
            (["phase-sweep", "--m", "4", "--grid", "0"], "--grid"),
            (["tail-sweep", "--m", "1"], "--m"),
            (["order-find", "--a", "2", "--N", "7", "--max-runs", "-1"], "--max-runs"),
            (["phase-sweep", "--m", "0"], "--m"),
        ],
    )
    def test_rejected_at_parse_time(self, capsys, argv, culprit):
        assert main(argv + ["--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {culprit}: must be >=" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["grover", "--n", "3", "--k", "1"],
            ["phase-est", "--phi", "0.25", "--m", "3"],
            ["order-find", "--a", "2", "--N", "7"],
            ["rsa-crack", "--N", "33", "--e", "3", "--C", "26"],
        ],
    )
    def test_negative_seed_named(self, capsys, argv):
        assert main(argv + ["--seed", "-1", "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --seed: must be >= 0, got -1" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["grover", "--n", "3", "--k", "1"],
            ["phase-est", "--phi", "0.5", "--m", "3"],
        ],
    )
    @pytest.mark.parametrize("shots", [MAX_SHOTS + 1, 100_000_000])
    def test_shots_capped_at_parse_time(self, capsys, monkeypatch, argv, shots):
        def no_simulation(*args, **kwargs):
            raise AssertionError("a simulation ran for an over-cap --shots")

        monkeypatch.setattr(algorithms, "grover_search", no_simulation)
        monkeypatch.setattr(phase_estimation, "kernel_state", no_simulation)
        assert main(argv + ["--shots", str(shots), "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --shots: must be <= {MAX_SHOTS}, got {shots}" in captured.err

    def test_phase_est_at_the_shots_cap_simulates_once(self, capsys, monkeypatch):
        calls = record_calls(monkeypatch, phase_estimation, "control_distribution")
        argv = ["phase-est", "--phi", "0.5", "--m", "3", "--shots", str(MAX_SHOTS)]
        code, out = run_json(capsys, *argv)
        assert code == 0
        assert json.loads(out)["estimates"] == [4] * MAX_SHOTS  # phi = 4/8 exactly
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["grover", "--n", "40", "--k", "1"],
            ["grover", "--n", "1024", "--k", "0"],
            ["grover", "--n", "99999999999999999999999", "--k", "0"],
            ["phase-sweep", "--m", "40"],
            ["tail-sweep", "--m", "40", "--grid", "1"],
        ],
    )
    def test_qubit_cap_checked_before_allocation(self, capsys, monkeypatch, argv):
        monkeypatch.delenv("KICKBACK_MAX_QUBITS", raising=False)
        assert main(argv + ["--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exceeds the cap of 24" in captured.err

    @pytest.mark.parametrize(
        "argv, table",
        [
            (["phase-sweep", "--m", "3", "--grid", "100000000"], "100000000 x 2^3"),
            (["phase-sweep", "--m", "15"], "1000 x 2^15"),
            (["tail-sweep", "--m", "17"], "200 x 2^17"),
            (["tail-sweep", "--m", "2", "--grid", "4194305"], "4194305 x 2^2"),
        ],
    )
    def test_sweep_table_capped_before_the_grid_is_built(self, capsys, monkeypatch, argv, table):
        def no_grid(*args):
            raise AssertionError("a grid was built for an over-cap sweep")

        monkeypatch.delenv("KICKBACK_MAX_QUBITS", raising=False)
        monkeypatch.setattr(analysis, "default_phase_grid", no_grid)
        monkeypatch.setattr(analysis, "offset_phase_grid", no_grid)
        assert main(argv + ["--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: {table} cells exceeds the cap of 2^24 "
            "(override with KICKBACK_MAX_QUBITS)"
        ]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["grover", "--n", "3", "--k", "1", "--iterations", "100000000"], "exceeds 8"),
            (["mach-zehnder", "--phi0", "inf"], "phase must be finite"),
            (["mach-zehnder", "--phi0", "nan", "--phi1", "1"], "phase must be finite"),
        ],
    )
    def test_rejected_with_one_line(self, capfd, argv, message):
        # capfd, not capsys: a numpy warning is written by the C layer too
        assert main(argv + ["--json"]) == 2
        captured = capfd.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert message in captured.err

    @pytest.mark.parametrize("command", ["dj", "bv", "affine", "pattern"])
    def test_table_outputs_wider_than_63_bits(self, capsys, command):
        table = f"0->{'1' * 70},1->{'0' * 70}"
        assert main([command, "--table", table, "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: oracle table values must fit in 63 bits, got 70-bit outputs"
        ]

    @pytest.mark.parametrize("command", ["deutsch", "dj", "bv", "affine", "pattern"])
    def test_table_and_file_together(self, capsys, command):
        argv = [command, "--table", "0->0,1->1", "--file", "/nonexistent", "--json"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: kickback {command} ")
        assert "argument --file: not allowed with argument --table" in captured.err

    def test_refused_allocation_exits_2(self, capsys, monkeypatch):
        # 2^50 amplitudes are 16 PiB, past the 128 TiB user address space, so
        # the allocation fails before any memory is touched; the physical
        # memory reported as 2^60 bytes lets the request reach numpy
        monkeypatch.setenv("KICKBACK_MAX_QUBITS", "60")
        monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": 1 << 48, "SC_PAGE_SIZE": 4096}.get)
        assert main(["qft", "--m", "50", "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: Unable to allocate 16.0 PiB")

    def test_register_above_the_physical_memory_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("KICKBACK_MAX_QUBITS", "60")
        assert main(["qft", "--m", "50", "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: a register of 50 qubits needs 2^54 bytes, more than")
        assert captured.err.endswith(" bytes of physical memory\n")

    def test_malformed_qubit_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("KICKBACK_MAX_QUBITS", "abc")
        assert main(["qft", "--m", "3", "--json"]) == 2
        assert "KICKBACK_MAX_QUBITS must be an integer, got 'abc'" in capsys.readouterr().err

    def test_malformed_qubit_cap_in_a_fresh_interpreter(self):
        # importing the package reads no cap: the command reports it and exits 2
        src = str(Path(kickback.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
        env["KICKBACK_MAX_QUBITS"] = "abc"
        done = subprocess.run(
            [sys.executable, "-m", "kickback.cli", "qft", "--m", "3"],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.splitlines() == [
            "error: KICKBACK_MAX_QUBITS must be an integer, got 'abc'"
        ]

    @pytest.mark.parametrize(
        "argv",
        [
            ["mach-zehnder"],
            ["deutsch", "--table", "0->0,1->1"],
            ["qft", "--m", "2"],
            ["phase-sweep", "--m", "3", "--grid", "8"],
            ["pattern", "--table", "0->0,1->1"],
        ],
    )
    @pytest.mark.parametrize("flag", ["--seed", "--shots"])
    def test_deterministic_commands_take_no_sampling_flags(self, capsys, argv, flag):
        assert main(argv + [flag, "1"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["order-find", "--a", "4", "--N", "15"],
            ["rsa-crack", "--N", "33", "--e", "3", "--C", "26"],
        ],
    )
    def test_single_run_commands_take_no_shots(self, capsys, argv):
        assert main(argv + ["--shots", "2"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestDeutsch:
    def test_balanced_record(self, capsys):
        code, out = run_json(capsys, "deutsch", "--table", "0->0,1->1")
        assert code == 0
        assert json.loads(out) == {"verdict": "Balanced", "oracle_calls": 1}

    def test_constant_record(self, capsys):
        code, out = run_json(capsys, "deutsch", "--table", "0->1,1->1")
        assert json.loads(out)["verdict"] == "Constant"

    def test_oracle_from_file(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("0 -> 1\n1 -> 0\n")
        code, out = run_json(capsys, "deutsch", "--file", str(path))
        assert code == 0
        assert json.loads(out)["verdict"] == "Balanced"


class TestReproducibility:
    @pytest.mark.parametrize(
        "argv",
        [
            ["order-find", "--a", "7", "--N", "15", "--seed", "3"],
            ["grover", "--n", "3", "--k", "5", "--seed", "9", "--shots", "4"],
            ["phase-est", "--phi", "0.3333", "--m", "5", "--seed", "2", "--shots", "3"],
        ],
    )
    def test_identical_bytes(self, capsys, argv):
        code1, out1 = run_json(capsys, *argv)
        code2, out2 = run_json(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2


    @pytest.mark.parametrize(
        "argv, key, recorded",
        [
            (["order-find", "--a", "7", "--N", "15", "--seed", "3"], "measured_x", [0, 0, 192]),
            (["grover", "--n", "3", "--k", "5", "--seed", "9", "--shots", "4"], "outcomes", [5, 5, 5, 5]),
            (
                ["phase-est", "--phi", "0.3333", "--m", "5", "--seed", "2", "--shots", "3"],
                "estimates",
                [11, 11, 11],
            ),
            (
                ["phase-est", "--phi", "0.3333", "--m", "8", "--shots", "10"],
                "estimates",
                [85, 85, 84, 81, 86, 86, 85, 85, 85, 86],
            ),
            (
                ["order-find", "--a", "2", "--N", "33", "--seed", "3"],
                "measured_x",
                [0, 819, 3274, 2048, 0, 1638],
            ),
        ],
    )
    def test_recorded_outcomes(self, capsys, argv, key, recorded):
        """Seeded draws are pinned as literals, so a kernel that moves one shows."""
        code, out = run_json(capsys, *argv)
        assert code == 0
        assert json.loads(out)[key] == recorded


class TestParser:
    """``main`` parses with one tree per process; ``build_parser`` builds a new one."""

    def test_build_parser_returns_a_new_tree(self):
        first, second = build_parser(), build_parser()
        assert first is not second
        assert first.get_default("commands") is not second.get_default("commands")

    def test_usage_names_kickback_whatever_argv0(self, capsys, monkeypatch):
        # prog is given, so no tree reads sys.argv[0] and one tree serves any
        monkeypatch.setattr(sys, "argv", ["/elsewhere/other-name"])
        assert main([]) == 64
        assert capsys.readouterr().err.startswith("usage: kickback [-h]")
        build_parser().print_usage(sys.stderr)
        assert capsys.readouterr().err.startswith("usage: kickback [-h]")

    def test_a_call_leaves_nothing_for_the_next(self, capsys):
        argv = ["grover", "--n", "3", "--k", "5", "--shots", "4"]
        code, seeded = run_json(capsys, *argv, "--seed", "9")
        assert code == 0
        assert main(argv[:2] + ["--bogus"]) == 2
        capsys.readouterr()
        assert run_json(capsys, *argv) == run_json(capsys, *argv, "--seed", "0")
        assert run_json(capsys, *argv, "--seed", "9") == (0, seeded)

    @pytest.mark.parametrize(
        "command, sweep",
        [("phase-sweep", "sweep_success_bound"), ("tail-sweep", "sweep_tail_bound")],
        ids=["phase-sweep", "tail-sweep"],
    )
    def test_sweeps_are_looked_up_at_call_time(self, capsys, monkeypatch, command, sweep):
        argv = [command, "--m", "3", "--grid", "8"]
        code, unpatched = run_json(capsys, *argv)
        assert code == 0
        calls = []
        original = getattr(analysis, sweep)

        def counted(**kwargs):
            calls.append(kwargs["m_list"])
            return original(**kwargs)

        monkeypatch.setattr(analysis, sweep, counted)
        code, out = run_json(capsys, *argv)
        assert code == 0
        assert calls == [[3]]
        assert json.loads(out)["points"] == json.loads(unpatched)["points"]


class TestSubcommands:
    def test_mach_zehnder(self, capsys):
        code, out = run_json(capsys, "mach-zehnder", "--phi0", "0", "--phi1", "0")
        record = json.loads(out)
        assert code == 0
        assert record["p0"] == pytest.approx(1.0)

    def test_dj(self, capsys):
        code, out = run_json(capsys, "dj", "--table", "00->1,01->1,10->1,11->1")
        record = json.loads(out)
        assert record["verdict"] == "Constant"
        assert record["oracle_calls"] == 1

    def test_bv(self, capsys):
        # f(x) = x1 xor x3 xor 1  (a = 101, b = 1)
        table = "000->1,001->0,010->1,011->0,100->0,101->1,110->0,111->1"
        code, out = run_json(capsys, "bv", "--table", table)
        record = json.loads(out)
        assert record["a"] == "101"
        assert record["b"] == 1
        assert record["oracle_calls"] == 1
        assert record["classical_calls_needed"] == 3

    def test_affine(self, capsys):
        # A = [[1,0],[0,1]], b = (0,1)
        table = "00->01,01->00,10->11,11->10"
        code, out = run_json(capsys, "affine", "--table", table)
        record = json.loads(out)
        assert record["matrix"] == ["10", "01"]
        assert record["oracle_calls"] == 2

    def test_grover(self, capsys):
        code, out = run_json(capsys, "grover", "--n", "2", "--k", "3", "--seed", "0")
        record = json.loads(out)
        assert record["iterations"] == 1
        assert record["success_probability"] == pytest.approx(1.0)
        assert record["outcomes"] == [3]

    def test_qft(self, capsys):
        code, out = run_json(capsys, "qft", "--m", "2", "--a", "1")
        record = json.loads(out)
        amps = record["amplitudes"]
        assert amps[1][1] == pytest.approx(0.5)  # amplitude i/2 at index 1

    def test_qft_inverse(self, capsys):
        code, out = run_json(capsys, "qft", "--m", "2", "--a", "1", "--inverse")
        record = json.loads(out)
        assert record["amplitudes"][1][1] == pytest.approx(-0.5)

    def test_phase_est_exact(self, capsys):
        code, out = run_json(capsys, "phase-est", "--phi", "0.3125", "--m", "4")
        record = json.loads(out)
        assert record["estimates"] == [5]
        assert record["analytic_success"] == pytest.approx(1.0)

    def test_phase_sweep(self, capsys):
        code, out = run_json(capsys, "phase-sweep", "--m", "4", "--grid", "64")
        record = json.loads(out)
        assert code == 0
        assert record["worst_margin"] > 0

    def test_tail_sweep(self, capsys, tmp_path):
        csv_path = tmp_path / "tail.csv"
        code, out = run_json(
            capsys, "tail-sweep", "--m", "5", "--grid", "32", "--csv", str(csv_path)
        )
        record = json.loads(out)
        assert record["worst_margin"] > 0
        assert csv_path.read_text().startswith("m,k,phi,value,bound,margin")

    def test_order_find(self, capsys):
        code, out = run_json(capsys, "order-find", "--a", "4", "--N", "15", "--seed", "7")
        record = json.loads(out)
        assert code == 0
        assert record["r"] == 2
        assert record["verified"] is True
        assert record["m"] == 8

    def test_rsa_crack(self, capsys):
        code, out = run_json(
            capsys, "rsa-crack", "--N", "33", "--e", "3", "--C", "26", "--seed", "1"
        )
        record = json.loads(out)
        assert code == 0
        assert record["P"] == 5
        assert record["d"] == 7
        assert record["verified"] is True

    def test_pattern(self, capsys):
        code, out = run_json(capsys, "pattern", "--table", "0->0,1->1")
        record = json.loads(out)
        assert code == 0
        # phases (1, -1)/sqrt2
        assert record["amplitudes"][1][0] == pytest.approx(-(0.5**0.5))

    def test_text_output(self, capsys):
        code = main(["deutsch", "--table", "0->0,1->1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: Balanced" in out


# -- exit-code contract ----------------------------------------------------

EXIT_CODES = {0, 2, 3, 64}


def mostly(usual, rare, one_in: int = 10):
    """Draws from ``rare`` once in ``one_in`` times, else from ``usual``."""
    return st.integers(1, one_in).flatmap(lambda i: rare if i == 1 else usual)


def ints(low: int, high: int):
    """In-range integers, and now and then text that is not one."""
    return mostly(st.integers(low, high).map(str), st.sampled_from(["x", "1.5", ""]))


# phases in [0, 1), and now and then one outside it or text that is not a number
floats = mostly(
    st.floats(0, 1, exclude_max=True).map(repr),
    st.sampled_from(["-0.25", "1.0", "1.5", "inf", "-inf", "nan", "1e400", "x"]),
)


@st.composite
def oracle_tables(draw):
    """A --table value: a total table on at most 3 input bits, or broken text;
    now and then its outputs are 64 to 70 bits wide, with values past int64."""
    n, m = draw(st.integers(1, 3)), draw(mostly(st.integers(1, 2), st.integers(64, 70)))
    low = 1 << 63 if m > 63 else 0
    values = draw(st.lists(st.integers(low, (1 << m) - 1), min_size=1 << n, max_size=1 << n))
    lines = draw(st.permutations([f"{x:0{n}b}->{y:0{m}b}" for x, y in enumerate(values)]))
    keep = draw(st.integers(0, len(lines) - 1))  # fewer than all lines: not total
    broken = st.one_of(st.just(",".join(lines[:keep])), st.text(alphabet="01->, x", max_size=12))
    return draw(mostly(st.just(",".join(lines)), broken))


def flags(draw, required: dict, optional: dict) -> list[str]:
    """Required flags nine times in ten and optional ones half the time, with values."""
    argv = []
    usually = mostly(st.just(True), st.just(False))
    for names, keep in ((required, usually), (optional, st.booleans())):
        for name, strategy in names.items():
            if draw(keep):
                argv += ["--" + name.replace("_", "-"), draw(strategy)]
    return argv


@st.composite
def cli_argv(draw):
    """argv for any subcommand: small widths, --table oracles, some of it
    malformed, and now and then a Grover register far over the qubit cap."""
    shots = mostly(ints(-1, 4), st.just(str(MAX_SHOTS + 1)))
    seed = mostly(st.integers(0, 2**40).map(str), st.sampled_from(["-1", "x"]))
    over_cap = st.sampled_from(["1024", "2000", str(10**23)])
    oracle_commands = ["deutsch", "dj", "bv", "affine", "pattern"]
    command = draw(
        mostly(
            st.sampled_from(
                oracle_commands
                + ["mach-zehnder", "grover", "qft", "phase-est", "phase-sweep", "tail-sweep"]
                + ["order-find", "rsa-crack"]
            ),
            st.sampled_from(["frobnicate", "", "--json"]),
        )
    )
    if command in oracle_commands:
        argv = flags(draw, {"table": oracle_tables()}, {})
        argv += draw(st.sampled_from([[], ["--diagnose"]])) if command == "dj" else []
    elif command == "mach-zehnder":
        argv = flags(draw, {}, {"phi0": floats, "phi1": floats})
    elif command == "grover":
        argv = flags(
            draw,
            {"n": mostly(ints(-1, 6), over_cap, one_in=3), "k": ints(-2, 70)},
            {"iterations": ints(-2, 6), "shots": shots, "seed": seed},
        )
    elif command == "qft":
        argv = flags(draw, {"m": ints(-1, 8)}, {"a": ints(-2, 300)})
        argv += draw(st.sampled_from([[], ["--inverse"]]))
    elif command == "phase-est":
        argv = flags(draw, {"phi": floats, "m": ints(-1, 8)}, {"shots": shots, "seed": seed})
    elif command in ("phase-sweep", "tail-sweep"):
        argv = flags(draw, {"m": ints(-1, 6)}, {"grid": ints(-1, 16)})
    elif command == "order-find":
        argv = flags(
            draw,
            {"a": ints(-2, 22), "N": ints(-2, 22)},
            {"m": ints(-2, 8), "max_runs": ints(-1, 3), "seed": seed},
        )
    elif command == "rsa-crack":
        numbers = {"N": ints(-1, 22), "e": ints(-1, 8), "C": ints(-2, 25)}
        argv = flags(draw, numbers, {"seed": seed})
    else:
        argv = []
    return [command] + argv + draw(st.sampled_from([[], ["--json"]]))


class TestExitCodeContract:
    @settings(max_examples=400, deadline=None)
    @given(argv=cli_argv())
    def test_every_input_exits_with_a_documented_code(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in EXIT_CODES
        assert "Traceback" not in err.getvalue()
