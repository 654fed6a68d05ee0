"""`rvaft run` on a trace of hostile lines gives recorded output, byte for byte.

`data/hostile.trace.jsonl` holds NaN and ±Infinity (top level and nested),
overflowing literals (`1e400`, `-1E+999`, a 400-digit integer), nesting 140,
600 and 100000 deep, invalid UTF-8, a byte order mark, a lone carriage return
between tokens and inside a string, non-objects, a missing, non-string or
duplicated `topic`, blank lines, and the topics `a`, `/a` and `//a` (all
subscribed by `data/hostile.rvaft.json`) next to `b`, `/b` and `//b` (not
subscribed). `data/hostile.goldens.json` records the exit code, stdout and
stderr of a run, warnings included, as given by the reader that normalizes
every event in full: once plain and once with `--strict`. A file, stdin and
a TCP connection must each give that output, on every Python version: a
line nested deeper than the reader's fixed limit is refused with a fixed
message, not where the interpreter's stack runs out. To record it from a
source tree:

    python tests/test_hostile_input.py path/to/src
"""

import json
import os
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

DATA = Path(__file__).resolve().parent / "data"
TREE = DATA / "hostile.rvaft.json"
TRACE = DATA / "hostile.trace.jsonl"
GOLDENS = DATA / "hostile.goldens.json"
SRC = Path(__file__).resolve().parent.parent / "src"

CASES = [f"{source}{flag}" for source in ("file", "stdin", "listen")
         for flag in ("", " --strict")]


def golden_key(case):
    """The recording that ``case`` must give: its flag, or ``plain``."""
    return case.partition(" ")[2] or "plain"


def _free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def run_case(case, src=SRC):
    """Exit code, stdout and stderr of `rvaft run` on the hostile trace, read
    as ``case`` says: from a file, stdin or a TCP connection, optionally
    --strict. Bytes that are not UTF-8 survive as surrogate escapes."""
    source, _, flag = case.partition(" ")
    env = {k: v for k, v in os.environ.items() if k != "RVAFT_LOG"}
    env["PYTHONPATH"] = str(src)
    env["PYTHONIOENCODING"] = "utf-8:surrogateescape"
    cmd = [sys.executable, "-m", "rvaft.cli", "run", str(TREE)] + ([flag] if flag else [])
    payload = TRACE.read_bytes()
    if source == "file":
        proc = subprocess.run(cmd + ["--trace", str(TRACE)], capture_output=True,
                              env=env, timeout=60)
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    elif source == "stdin":
        proc = subprocess.run(cmd, input=payload, capture_output=True, env=env, timeout=60)
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    else:
        port = _free_port()
        proc = subprocess.Popen(cmd + ["--listen", str(port)], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            for _ in range(200):
                try:
                    conn = socket.create_connection(("127.0.0.1", port), timeout=1)
                    break
                except OSError:
                    time.sleep(0.05)
            else:
                raise RuntimeError("rvaft run --listen never came up")
            with conn:
                conn.sendall(payload)
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.wait()
        code = proc.returncode
    return {"exit_code": code, "stdout": out.decode("utf-8", "surrogateescape"),
            "stderr": err.decode("utf-8", "surrogateescape")}


@pytest.mark.parametrize("case", CASES)
def test_hostile_trace_gives_the_recorded_output(case):
    goldens = json.loads(GOLDENS.read_text(encoding="utf-8"))
    assert run_case(case) == goldens[golden_key(case)]


if __name__ == "__main__":
    src = Path(sys.argv[1]).resolve()
    goldens = {golden_key(case): run_case(case, src) for case in CASES
               if case.startswith("file")}
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n", encoding="utf-8")
