"""The CLI's bytes on every command of ``tools/json_digest.py`` equal the
committed ``json_digest.txt``, and those of every command but ``qft`` do too
with numpy's SIMD dispatch capped at x86-64-v2.

A change that means to move bytes regenerates the file in the same diff
(``PYTHONPATH=src python tools/json_digest.py > tests/json_digest.txt``)."""

import importlib.util
import json
import platform
import re
from pathlib import Path

import numpy as np
import pytest

from helpers import X86_64, run_at_x86_64_v2

ROOT = Path(__file__).resolve().parent.parent
DIGEST = Path(__file__).resolve().parent / "json_digest.txt"

_spec = importlib.util.spec_from_file_location("json_digest", ROOT / "tools" / "json_digest.py")
json_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(json_digest)

# its stderr names the physical memory of the machine that runs it
MEMORY_COMMAND = "KICKBACK_MAX_QUBITS=60 qft --m 50 --json"
MEMORY_STDERR = re.compile(
    r"error: a register of 50 qubits needs 2\^54 bytes, more than the \d+ bytes of physical memory\n"
)


# every command but the 22 of the ``qft`` subcommand, whose diagonal gates take
# numpy's complex multiply (ROADMAP item 14a); the two that name ``qft`` after a
# variable exit on that variable before any gate
NOT_QFT = [command for command in json_digest.COMMANDS if command.split(" ", 1)[0] != "qft"]

# runs the commands given after the tools directory: each one's digest line and stderr, as JSON
CAPPED_RUN = """
import json
import sys
sys.path.insert(0, sys.argv[1])
import json_digest
with json_digest.environment() as tmp:
    for command in sys.argv[2:]:
        out, err, code = json_digest.run(command, tmp)
        print(json.dumps([json_digest.line(command, out, err, code), err.decode()]))
"""


def without_stderr(line: str) -> str:
    sha_out, _, rest = line.split(" ", 2)
    return f"{sha_out} {rest}"


def matches(command: str, got: str, err: str, want: str) -> bool:
    """Whether a command's digest line is the committed one; the memory
    command's stderr is matched by its sentence instead of its digest."""
    if command == MEMORY_COMMAND:
        return without_stderr(got) == without_stderr(want) and MEMORY_STDERR.fullmatch(err) is not None
    return got == want


def committed() -> tuple[str, list[str]]:
    """The committed file's ``made with`` line and its digest lines, in command order."""
    lines = DIGEST.read_text(encoding="utf-8").splitlines()
    made_with = next(line for line in lines if line.startswith("# made with "))
    return made_with, [line for line in lines if not line.startswith("#")]


def test_cli_bytes_equal_the_committed_digest():
    made_with, expected = committed()
    assert len(expected) == len(json_digest.COMMANDS)
    assert all(want.endswith(f" {command}") for want, command in zip(expected, json_digest.COMMANDS))
    differ = []
    with json_digest.environment() as tmp:
        for want, command in zip(expected, json_digest.COMMANDS):
            out, err, code = json_digest.run(command, tmp)
            if not matches(command, json_digest.line(command, out, err, code), err.decode(), want):
                differ.append(command)
    assert not differ, (
        f"{len(differ)} commands differ from {DIGEST.name} ({made_with[2:]}; this run: Python "
        f"{platform.python_version()} and numpy {np.__version__}):\n" + "\n".join(differ)
    )


@pytest.mark.skipif(not X86_64, reason="the cap names x86-64 dispatch levels")
def test_bytes_equal_the_digest_at_x86_64_v2():
    assert len(NOT_QFT) == 123
    expected = dict(zip(json_digest.COMMANDS, committed()[1]))
    capped = [json.loads(line) for line in run_at_x86_64_v2(CAPPED_RUN, str(ROOT / "tools"), *NOT_QFT)]
    assert len(capped) == len(NOT_QFT)
    differ = [
        command
        for command, (got, err) in zip(NOT_QFT, capped)
        if not matches(command, got, err, expected[command])
    ]
    assert not differ, "\n".join(differ)
