"""The CLI's bytes on every command of ``tools/json_digest.py`` equal the
committed ``json_digest.txt``, and the closed-form commands' bytes do too
with numpy's SIMD dispatch capped at x86-64-v2.

A change that means to move bytes regenerates the file in the same diff
(``PYTHONPATH=src python tools/json_digest.py > tests/json_digest.txt``)."""

import importlib.util
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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


# the 32 commands that print closed-form readout probabilities (``_readout_probability``)
CLOSED_FORM = [
    command
    for command in json_digest.COMMANDS
    if command.split(" ", 1)[0] in ("phase-est", "phase-sweep", "tail-sweep")
]

# numpy's dispatch targets above x86-64-v2 (AVX2/FMA and AVX-512), switched off for one process
X86_V2_CAP = "AVX512_SPR AVX512_ICL X86_V4 X86_V3"

# runs the commands given after the tools directory, after checking the cap took effect
CAPPED_RUN = """
import sys
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
assert not any(__cpu_features__[name] for name in __cpu_dispatch__), "dispatch not capped"
sys.path.insert(0, sys.argv[1])
import json_digest
with json_digest.environment() as tmp:
    for command in sys.argv[2:]:
        print(json_digest.line(command, *json_digest.run(command, tmp)))
"""


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


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"), reason="the cap names x86-64 dispatch levels"
)
def test_closed_form_bytes_equal_the_digest_at_x86_64_v2():
    assert len(CLOSED_FORM) == 32
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=X86_V2_CAP)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    capped = subprocess.run(
        [sys.executable, "-c", CAPPED_RUN, str(ROOT / "tools"), *CLOSED_FORM],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    committed = set(DIGEST.read_text(encoding="utf-8").splitlines())
    assert len(capped) == len(CLOSED_FORM)
    differ = [line.split(" ", 3)[3] for line in capped if line not in committed]
    assert not differ, "\n".join(differ)
