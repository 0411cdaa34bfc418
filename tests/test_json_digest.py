"""The CLI's bytes on every command of ``tools/json_digest.py`` equal the
committed ``json_digest.txt``.

A change that means to move bytes regenerates the file in the same diff
(``PYTHONPATH=src python tools/json_digest.py > tests/json_digest.txt``)."""

import importlib.util
import platform
import re
from pathlib import Path

import numpy as np

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


def without_stderr(line: str) -> str:
    sha_out, _, rest = line.split(" ", 2)
    return f"{sha_out} {rest}"


def test_cli_bytes_equal_the_committed_digest():
    lines = DIGEST.read_text(encoding="utf-8").splitlines()
    made_with = next(line for line in lines if line.startswith("# made with "))
    expected = [line for line in lines if not line.startswith("#")]
    assert len(expected) == len(json_digest.COMMANDS)
    assert all(want.endswith(f" {command}") for want, command in zip(expected, json_digest.COMMANDS))
    differ = []
    with json_digest.environment() as tmp:
        for want, command in zip(expected, json_digest.COMMANDS):
            out, err, code = json_digest.run(command, tmp)
            got = json_digest.line(command, out, err, code)
            if command == MEMORY_COMMAND:
                same = without_stderr(got) == without_stderr(want) and MEMORY_STDERR.fullmatch(err.decode())
            else:
                same = got == want
            if not same:
                differ.append(command)
    assert not differ, (
        f"{len(differ)} commands differ from {DIGEST.name} ({made_with[2:]}; this run: Python "
        f"{platform.python_version()} and numpy {np.__version__}):\n" + "\n".join(differ)
    )
