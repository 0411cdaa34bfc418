"""Digest of the CLI's output over a fixed list of commands.

Runs each command below through ``kickback.cli.main`` in one process and
prints one line per command: the sha256 of its stdout (followed by any file
it wrote, such as ``--csv`` output), the sha256 of its stderr, its exit
code (or ``raised <ExceptionClass>`` for a command that raises out of
``main``), and the command. A header of ``#`` lines names the Python and
numpy versions that made it. Two trees give the same bytes on every command
exactly when their digests are equal. ``tests/test_json_digest.py`` runs
the same commands through the same runner and compares them with the
committed ``tests/json_digest.txt``, which this tool regenerates::

    PYTHONPATH=src python tools/json_digest.py > tests/json_digest.txt

``kickback`` is imported from ``PYTHONPATH``, so the same file digests any
tree. The list holds 145 commands: every command pinned in
``tests/test_cli.py``, the Fourier transform at m = 1..12, 16 and 17, and
the sampling (``phase-est`` up to 5000 shots at m = 16), order-finding (its refused
(a, N) pairs too), sweep and oracle subcommands, and Grover at n = 14 and 15, whose
registers span several pieces of the Hadamard kernel. It leaves out inputs over
the ``--shots`` cap, which older trees run without bound. The last nine
commands are the expected differences between trees. ``phase-sweep --m 15`` is over the sweep cap
(1000 phases x 2^15 cells is more than 2^24): trees without that cap run it
in a few seconds and exit 0, later trees exit 2. ``qft --m 50`` under a cap
of 60 qubits asks numpy for 16 PiB, which fails before any memory is
touched: older trees raise ``_ArrayMemoryError``, later trees exit 2, and
trees that compare a register with the physical memory exit 2 before asking,
with a different stderr line.
``deutsch`` on a 2-bit table exits 2 in every tree, with a different stderr
line: older trees say ``deutsch needs a 1-bit -> 1-bit oracle``,
later trees ``expected an oracle 1 -> 1, got 2 -> 1``. ``grover`` at
n = 2000 and n = 10^23 - 1 works on 2^n before checking the qubit cap in
older trees, which raise ``OverflowError``; later trees check the cap first
and exit 2. ``dj`` on a table with 70-bit outputs raises ``OverflowError``
in older trees, which convert it to int64 unchecked, and exits 2 in later
trees. ``dj`` given both ``--table`` and ``--file`` reads the table and
exits 0 in older trees, which ignore ``--file``; later trees refuse the pair
with a usage line and exit 2. ``rsa-crack`` with an exponent that has no
inverse modulo the order of C exits 2 in every tree: older trees say
``2 is not invertible modulo 2``, later trees name the public exponent and
the order, ``public exponent 2 is not invertible modulo 2, the order of 4 mod
15``. ``grover`` with ``--seed -1`` exits 2 in every tree: older trees pass
the seed to numpy, which says ``expected non-negative integer``, later trees
refuse it while parsing, naming the flag. A leading ``NAME=value`` sets an environment variable for that command only;
``{tmp}`` is a scratch directory holding an oracle file ``f.txt``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import platform
import shlex
import sys
import tempfile
from typing import Iterator

import numpy as np

from kickback import cli

QFT = [f"qft --m {m} --a {(5 * m) % (1 << m)} --json" for m in range(1, 13)]
QFT += [f"qft --m {m} --a 1 --inverse --json" for m in (1, 4, 8, 12)]
# widths whose Hadamard halves span several blocks of the kernel
QFT += ["qft --m 16 --a 40503 --json", "qft --m 17 --a 1 --inverse --json"]

ORDERS = [(7, 15), (2, 21), (5, 33), (2, 35), (2, 39), (2, 51), (2, 55), (2, 57), (2, 65)]

# (N, e, C) with C = 2^e mod N
RSA = [(15, 3, 8), (21, 5, 11), (33, 3, 8), (35, 5, 32), (55, 3, 8), (65, 5, 32)]

COMMANDS = [
    # tests/test_cli.py
    "frobnicate",
    "",
    "deutsch --table 0->0",
    "rsa-crack --N 33 --e 3 --C 33",
    "deutsch",
    "order-find --a 2 --N 7 --max-runs 0 --json",
    "grover --n 3 --k 1 --shots 0 --json",
    "grover --n 3 --k 1 --shots -3 --json",
    "phase-est --phi 0.25 --m 3 --shots -1 --json",
    "phase-sweep --m 4 --grid 0 --json",
    "tail-sweep --m 1 --json",
    "order-find --a 2 --N 7 --max-runs -1 --json",
    "grover --n 40 --k 1 --json",
    "phase-sweep --m 40 --json",
    "tail-sweep --m 40 --grid 1 --json",
    "grover --n 3 --k 1 --iterations 100000000 --json",
    "mach-zehnder --phi0 inf --json",
    "mach-zehnder --phi0 nan --phi1 1 --json",
    "KICKBACK_MAX_QUBITS=abc qft --m 3 --json",
    *(
        f"{argv} {flag} 1"
        for argv in (
            "mach-zehnder",
            "deutsch --table 0->0,1->1",
            "qft --m 2",
            "phase-sweep --m 3 --grid 8",
            "pattern --table 0->0,1->1",
        )
        for flag in ("--seed", "--shots")
    ),
    "order-find --a 4 --N 15 --shots 2",
    "rsa-crack --N 33 --e 3 --C 26 --shots 2",
    "deutsch --table 0->0,1->1 --json",
    "deutsch --table 0->1,1->1 --json",
    "deutsch --file {tmp}/f.txt --json",
    "order-find --a 7 --N 15 --seed 3 --json",
    "grover --n 3 --k 5 --seed 9 --shots 4 --json",
    "phase-est --phi 0.3333 --m 5 --seed 2 --shots 3 --json",
    "phase-est --phi 0.3333 --m 8 --shots 10 --json",
    "order-find --a 2 --N 33 --seed 3 --json",
    "mach-zehnder --phi0 0 --phi1 0 --json",
    "dj --table 00->1,01->1,10->1,11->1 --json",
    "bv --table 000->1,001->0,010->1,011->0,100->0,101->1,110->0,111->1 --json",
    "affine --table 00->01,01->00,10->11,11->10 --json",
    "grover --n 2 --k 3 --seed 0 --json",
    "qft --m 2 --a 1 --json",
    "qft --m 2 --a 1 --inverse --json",
    "phase-est --phi 0.3125 --m 4 --json",
    "phase-sweep --m 4 --grid 64 --json",
    "tail-sweep --m 5 --grid 32 --csv {tmp}/tail.csv --json",
    "order-find --a 4 --N 15 --seed 7 --json",
    "rsa-crack --N 33 --e 3 --C 26 --seed 1 --json",
    "pattern --table 0->0,1->1 --json",
    "deutsch --table 0->0,1->1",
    # the Fourier transform at every width up to 12, and at 16 and 17
    *QFT,
    # sampling subcommands
    "pattern --table 00->00,01->01,10->10,11->11 --json",
    "pattern --table 000->11,001->01,010->10,011->00,100->01,101->11,110->00,111->10 --json",
    "pattern --table 00->101,01->011,10->110,11->000",
    *(
        f"phase-est --phi {phi} --m {m} --seed {seed} --shots 25 --json"
        for phi, m, seed in ((0.5, 3, 0), (0.1, 6, 1), (0.7071, 9, 2), (0.999, 12, 3))
    ),
    "phase-est --phi 0.3 --m 6 --shots 3",
    # many shots from one distribution
    *(f"phase-est --phi 0.3 --m {m} --seed 4 --shots 5000 --json" for m in (12, 16)),
    *(
        f"grover --n {n} --k {k} --seed {seed} --shots 5 --json"
        for n, k, seed in ((1, 1, 0), (4, 11, 3), (6, 40, 5), (9, 300, 7))
    ),
    "grover --n 5 --k 7 --iterations 2 --seed 1 --shots 3 --json",
    "grover --n 4 --k 2 --seed 2",
    # order finding and RSA at N = 15 to 65
    *(f"order-find --a {a} --N {n} --seed 1 --json" for a, n in ORDERS),
    "order-find --a 2 --N 15 --m 4 --seed 2 --json",
    "order-find --a 2 --N 21 --max-runs 1 --seed 5 --json",
    "order-find --a 4 --N 15 --seed 7",
    # the (a, N) checks, made once, by OrderProblem
    "order-find --a 6 --N 15 --json",
    "order-find --a 0 --N 7 --json",
    "order-find --a 1 --N 1 --json",
    "order-find --a 15 --N 15 --json",
    # a verified candidate cut to the order (48 to 6), and the exit-3 record
    "order-find --a 2 --N 63 --m 6 --seed 1 --json",
    "order-find --a 5 --N 63 --m 5 --seed 3 --json",
    *(f"rsa-crack --N {n} --e {e} --C {c} --seed 2 --json" for n, e, c in RSA),
    # sweeps and the one-query subcommands
    "phase-sweep --m 6 --grid 100 --json",
    "phase-sweep --m 3 --json",
    "tail-sweep --m 6 --grid 40 --json",
    "tail-sweep --m 3 --json",
    # the sweeps the benchmark runs, record and per-point rows
    "phase-sweep --m 10 --json",
    "phase-sweep --m 10 --csv {tmp}/phase.csv --json",
    "tail-sweep --m 10 --json",
    "tail-sweep --m 10 --csv {tmp}/tail.csv --json",
    # a tail sweep of 8,191 rows, one per k, from a table of only 3 x 2^14 cells
    "tail-sweep --m 14 --grid 3 --csv {tmp}/tail14.csv --json",
    # the success sweep on 4096 phases, half of them estimates at m = 11 and
    # half at half-way ties, and at the widest m the cap allows at 1000 phases
    "phase-sweep --m 11 --grid 4096 --csv {tmp}/phase.csv --json",
    "phase-sweep --m 14 --json",
    "dj --table 000->0,001->1,010->1,011->0,100->1,101->0,110->0,111->1 --json",
    "dj --table 00->0,01->0,10->0,11->1 --diagnose --json",
    "dj --table 00->0,01->0,10->0,11->1 --json",
    "bv --table 00->1,01->1,10->0,11->0 --json",
    "bv --table 00->0,01->1,10->1,11->1 --json",
    "affine --table 000->110,001->111,010->010,011->011,100->100,101->101,110->000,111->001 --json",
    "affine --table 0->0,1->1",
    "mach-zehnder --phi0 0.5 --phi1 2.25 --json",
    "mach-zehnder --phi0 -3 --phi1 1e-9",
    # Grover registers of several butterfly pieces, from a fanned-out start
    "grover --n 15 --k 12345 --iterations 3 --seed 1 --json",
    "grover --n 14 --k 0 --iterations 2 --seed 2 --json",
    # readouts transformed in place (r = 58 of 64 target values) and on 3 of 7
    # target qubits (r = 7), and a 20-qubit register read out on 19
    "order-find --a 2 --N 59 --seed 1 --json",
    "order-find --a 2 --N 127 --seed 1 --json",
    "phase-est --phi 0.3 --m 19 --shots 10 --seed 1 --json",
    # the expected differences (see above)
    "phase-sweep --m 15 --json",
    "KICKBACK_MAX_QUBITS=60 qft --m 50 --json",
    "deutsch --table 00->0,01->1,10->0,11->1 --json",
    "grover --n 2000 --k 0 --json",
    "grover --n 99999999999999999999999 --k 0 --json",
    f"dj --table 0->{'1' * 70},1->{'0' * 70} --json",
    "dj --table 0->0,1->1 --file /nonexistent --json",
    "rsa-crack --N 15 --e 2 --C 4",
    "grover --n 3 --k 1 --seed -1 --json",
]


HEADER = f"""\
# sha256(stdout, then any file written) sha256(stderr) exit command, per command of tools/json_digest.py
# made with Python {platform.python_version()} and numpy {np.__version__}
# "KICKBACK_MAX_QUBITS=60 qft --m 50 --json" writes the physical memory of the machine that
# runs it to stderr; tests/test_json_digest.py matches that stderr against its sentence with
# any byte count, and compares the stdout digest and the exit code as for every other command"""


@contextlib.contextmanager
def environment() -> Iterator[str]:
    """The environment every command runs in, restored on exit: no qubit cap
    set, usage lines wrapped at 80 columns, and a scratch directory, yielded,
    that holds the oracle file ``f.txt``."""
    saved = {name: os.environ.get(name) for name in ("KICKBACK_MAX_QUBITS", "COLUMNS")}
    os.environ.pop("KICKBACK_MAX_QUBITS", None)
    os.environ["COLUMNS"] = "80"  # argparse wraps usage lines to the terminal width
    try:
        with tempfile.TemporaryDirectory() as tmp:
            with open(os.path.join(tmp, "f.txt"), "w", encoding="utf-8") as f:
                f.write("0 -> 1\n1 -> 0\n")
            yield tmp
    finally:
        _restore(saved)


def _restore(saved: dict[str, str | None]) -> None:
    for name, value in saved.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value


def run(command: str, tmp: str) -> tuple[bytes, bytes, int | str]:
    """stdout, then any file the command wrote to ``tmp`` (removed after), and
    stderr and exit code of one command run through ``main``; ``raised
    <ExceptionClass>`` in place of the code when ``main`` raises."""
    words = shlex.split(command.replace("{tmp}", tmp))
    env = {}
    while words and "=" in words[0] and words[0].split("=")[0].isupper():
        name, value = words.pop(0).split("=", 1)
        env[name] = value
    saved = {name: os.environ.get(name) for name in env}
    os.environ.update(env)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(words)
    except Exception as exc:  # noqa: BLE001  (recorded, so the remaining commands still run)
        code = f"raised {type(exc).__qualname__}"
    finally:
        _restore(saved)
    written = out.getvalue().encode()
    for name in sorted(os.listdir(tmp)):
        if name != "f.txt":  # a file the command wrote
            path = os.path.join(tmp, name)
            with open(path, "rb") as f:
                written += f.read()
            os.remove(path)
    return written, err.getvalue().encode(), code


def line(command: str, out: bytes, err: bytes, code: int | str) -> str:
    """The digest line of one command's ``run``."""
    return f"{hashlib.sha256(out).hexdigest()} {hashlib.sha256(err).hexdigest()} {code} {command}"


def main() -> int:
    print(HEADER)
    # the output must not depend on the caller's environment
    with environment() as tmp:
        for command in COMMANDS:
            print(line(command, *run(command, tmp)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
