import contextlib
import gc
import io
import json
import os
import random
import re
import select
import signal
import socket
import subprocess
import sys
import threading
import time
import tracemalloc

import pytest

from conftest import CASES

from rvaft import cli
from rvaft.cli import main
from rvaft.casestudy import OUTCOMES, SCENARIOS, pruned_tree
from rvaft.engine import Verdict, VerdictState
from rvaft.fileformat import (
    parse_tree,
    serialize_tree,
    verdict_record_body,
    verdict_record_line,
)


@pytest.fixture(scope="module")
def tree_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("trees") / "case.rvaft.json"
    path.write_text(serialize_tree(pruned_tree()))
    return str(path)


@pytest.fixture(scope="module")
def full_tree_path():
    return str(CASES / "full_inspection.rvaft.json")


def test_validate_ok(tree_path, capsys):
    assert main(["validate", tree_path]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_flags_bad_tree(tmp_path, capsys):
    doc = {
        "name": "bad", "root": "r",
        "nodes": {
            "r": {"gate": {"kind": "VOT", "k": 4, "children": ["a", "b", "c"]}},
            "a": {}, "b": {}, "c": {},
        },
    }
    path = tmp_path / "bad.rvaft.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path), "--no-runtime-ready"]) == 1
    err = capsys.readouterr().err
    assert "k=4 exceeds child count 3" in err and "r:" in err


def test_validate_unparseable_file(tmp_path, capsys):
    path = tmp_path / "garbage.rvaft.json"
    path.write_text("{")
    assert main(["validate", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_prune_cli_matches_library(full_tree_path, tmp_path, capsys):
    out = tmp_path / "pruned.rvaft.json"
    code = main(["prune", full_tree_path, "--remove", "take_imagery,battery_dead",
                 "-o", str(out)])
    assert code == 0
    assert parse_tree(out.read_text()).nodes.keys() == pruned_tree().nodes.keys()


def test_annotate_cli(full_tree_path, tmp_path):
    out = tmp_path / "annotated.rvaft.json"
    code = main([
        "annotate", full_tree_path, "--node", "battery_dead", "--name", "battery",
        "--pattern", '{"topic": "battery_state", "level": {"bind": "Level"}}',
        "--guard", "Level <= 5",
        "-o", str(out),
    ])
    assert code == 0
    ann = parse_tree(out.read_text()).nodes["battery_dead"].annotation
    assert ann.name == "battery"
    assert ann.bound_vars() == ("Level",)


@pytest.mark.parametrize("pattern", ['{"a": {"bind": 5}}', '[1]'])
def test_annotate_rejects_a_bad_pattern_with_a_message(pattern, full_tree_path, capsys):
    assert main(["annotate", full_tree_path, "--node", "battery_dead", "--name", "battery",
                 "--pattern", pattern]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: battery_dead: ") and captured.err.count("\n") == 1


def test_annotate_reads_a_topic_as_a_tree_document_does(full_tree_path, tmp_path):
    out = tmp_path / "annotated.rvaft.json"
    assert main(["annotate", full_tree_path, "--node", "battery_dead", "--name", "battery",
                 "--pattern", '{"topic": "/command"}', "-o", str(out)]) == 0
    assert '"topic": "command"' in out.read_text()


def test_an_annotated_guard_with_a_small_constant_validates(full_tree_path, tmp_path, capsys):
    out = tmp_path / "annotated.rvaft.json"
    assert main(["annotate", full_tree_path, "--node", "battery_dead", "--name", "battery",
                 "--pattern", '{"topic": "battery", "charge": {"bind": "C"}}',
                 "--guard", "C >= 0.00001", "-o", str(out)]) == 0
    assert '"guard": "C >= 0.00001"' in out.read_text()
    assert main(["validate", str(out), "--no-runtime-ready"]) == 0
    assert capsys.readouterr().err == ""


def test_branches_table(tree_path, capsys):
    assert main(["branches", tree_path]) == 0
    out = capsys.readouterr().out
    for pid, cls in [("phi1", "fault"), ("phi2", "fault"),
                     ("phi3", "attack"), ("phi4", "attack")]:
        assert any(pid in line and cls in line for line in out.splitlines())


def test_branches_two_leaf_toy(tmp_path, capsys):
    doc = {
        "name": "toy", "root": "root",
        "nodes": {
            "root": {"gate": {"kind": "OR", "children": ["a", "b"]}},
            "a": {"class": "fault", "event": {"name": "a", "pattern": {"topic": "t"}}},
            "b": {"class": "attack", "event": {"name": "b", "pattern": {"topic": "u"}}},
        },
    }
    path = tmp_path / "toy.rvaft.json"
    path.write_text(json.dumps(doc))
    assert main(["branches", str(path)]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 2


def test_compile_merged_and_split(tree_path, tmp_path):
    merged = tmp_path / "merged.spec.txt"
    split = tmp_path / "split.spec.txt"
    assert main(["compile", tree_path, "--merge", "-o", str(merged)]) == 0
    assert main(["compile", tree_path, "-o", str(split)]) == 0
    assert "Main = " in merged.read_text()
    assert merged.read_text().count("\\/") >= 2
    assert len([l for l in split.read_text().splitlines() if l.startswith("Main_phi")]) == 4


def test_compile_prints_boolean_and_negative_pattern_values(tmp_path, capsys):
    """Pattern values are printed, never parsed back, so the guard printer's
    read-back refusal does not apply to them."""
    def leaf(name, pattern):
        return {"class": "fault", "event": {"name": name, "pattern": pattern}}

    doc = {
        "name": "pat", "root": "root",
        "nodes": {
            "root": {"gate": {"kind": "AND", "children": ["a", "b"]}},
            "a": leaf("a", {"topic": "x", "ok": True}),
            "b": leaf("b", {"topic": "y", "v": -1, "w": -2.5, "z": False}),
        },
    }
    path = tmp_path / "pat.rvaft.json"
    path.write_text(json.dumps(doc))
    for merge in ([], ["--merge"]):
        assert main(["compile", str(path), *merge]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[:2] == ["a matches { topic: 'x', ok: true };",
                           "b matches { topic: 'y', v: -1, w: -2.5, z: false };"]


def test_simulate_fault_moving_block(tmp_path):
    out = tmp_path / "t.trace.jsonl"
    assert main(["simulate", "fault-moving", "bad", "-o", str(out)]) == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(lines) == 4
    assert lines[-1] == {"topic": "/command", "time": 30.241, "name": "move",
                         "waypoint": 1}


def test_simulate_at_waypoint_head():
    import io, contextlib

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["simulate", "fault-at-waypoint", "bad"]) == 0
    first = json.loads(buf.getvalue().splitlines()[0])
    assert first["topic"] == "/move_base/result"
    assert first["time"] == 8.2 and first["result"] == "success"


def test_run_detection_exit_codes(tree_path, tmp_path, capsys):
    trace = tmp_path / "bad.trace.jsonl"
    main(["simulate", "fault-moving", "bad", "-o", str(trace)])
    out = tmp_path / "v.verdicts.jsonl"
    code = main(["run", tree_path, "--trace", str(trace), "-o", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "detected=fault" in err and "phi1" in err
    records = [json.loads(l) for l in out.read_text().splitlines()]
    assert [r["verdict"] for r in records] == ["?", "?", "?", "top"]
    assert records[-1]["live_branches"] == ["phi1"]
    assert [r["event_index"] for r in records] == [0, 1, 2, 3]


def test_run_skips_a_line_with_a_nan_time(tree_path, tmp_path, capsys, caplog):
    """A NaN time would bind T1 = NaN and make `T2 >= T1 + 10` false; the line
    is malformed instead, and no verdict line carries a NaN."""
    lines = [
        '{"topic": "/command", "time": 10.4, "name": "move", "waypoint": 0}',
        '{"topic": "/command", "time": 15.6, "name": "inspect", "waypoint": 0}',
        '{"topic": "/radiation_sensor_plugin/sensor_0", "value": 300, "time": %s}',
        '{"topic": "/command", "time": 30.241, "name": "move", "waypoint": 1}',
    ]
    trace = tmp_path / "t.trace.jsonl"
    trace.write_text("\n".join(lines) % "16.1")
    assert main(["run", tree_path, "--trace", str(trace)]) == 2
    capsys.readouterr()
    trace.write_text("\n".join(lines) % "NaN")
    assert main(["run", tree_path, "--trace", str(trace)]) == 0
    captured = capsys.readouterr()
    assert "trace: lines=4 events=3 malformed=1\n" in captured.err
    out = captured.out.splitlines()
    assert [json.loads(line)["event_index"] for line in out] == [0, 1, 2]
    assert not any("NaN" in line for line in out)
    assert "skipping malformed trace line 3" in caplog.text


def test_run_good_trace_exits_zero(tree_path, tmp_path):
    trace = tmp_path / "good.trace.jsonl"
    main(["simulate", "attack-at-waypoint", "good", "-o", str(trace)])
    assert main(["run", tree_path, "--trace", str(trace), "--property", "phi4"]) == 0


def test_run_empty_stdin_is_unknown(tree_path, monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    assert main(["run", tree_path]) == 0
    assert "verdict=?" in capsys.readouterr().err


def test_run_noisy_trace_still_detects(tree_path, tmp_path):
    trace = tmp_path / "noisy.trace.jsonl"
    main(["simulate", "fault-moving", "bad", "--noise", "5", "-o", str(trace)])
    assert main(["run", tree_path, "--trace", str(trace)]) == 2


def test_run_all_properties_writes_per_property_files(tree_path, tmp_path):
    trace = tmp_path / "bad.trace.jsonl"
    main(["simulate", "attack-moving", "bad", "-o", str(trace)])
    out = tmp_path / "out.verdicts.jsonl"
    code = main(["run", tree_path, "--trace", str(trace), "--property", "all",
                 "-o", str(out)])
    assert code == 2
    produced = sorted(p.name for p in tmp_path.glob("out.*"))
    assert produced == [
        "out.merged.verdicts.jsonl",
        "out.phi1.verdicts.jsonl",
        "out.phi2.verdicts.jsonl",
        "out.phi3.verdicts.jsonl",
        "out.phi4.verdicts.jsonl",
    ]
    phi3 = [json.loads(l) for l in
            (tmp_path / "out.phi3.verdicts.jsonl").read_text().splitlines()]
    assert phi3[-1]["verdict"] == "top"


def test_run_all_without_output_is_usage_error(tree_path, tmp_path, monkeypatch, capsys):
    # `-o -` would name every property's file after "-"
    monkeypatch.chdir(tmp_path)
    for output in ([], ["-o", "-"]):
        argv = ["run", tree_path, "--property", "all", "--trace", "/dev/null"] + output
        assert main(argv) == 1, output
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1, output
        assert list(tmp_path.iterdir()) == [], output


def test_run_an_empty_trace_path_is_an_input_error(tree_path, monkeypatch, capsys):
    """An empty ``--trace`` names no file: it exits 1 and does not read stdin."""
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    assert main(["run", tree_path, "--trace", ""]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["validate", "prune", "annotate", "branches",
                                     "compile", "run", "simulate"])
def test_usage_errors_exit_1_and_help_exits_0(command, capsys):
    """Exit code 2 is a detection, so a mistyped command must not give it: a
    missing argument and an unknown flag exit 1 with the usage on stderr."""
    for argv in ([command], [command, "x", "--no-such-flag"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 1, argv
        assert captured.out == "" and captured.err.startswith("usage: rvaft"), argv
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: rvaft {command}")


@pytest.mark.parametrize("port", ["70000", "65536", "-1", "abc"])
def test_listen_on_a_bad_port_is_a_usage_error(port, tree_path, monkeypatch, capsys):
    """A port outside 0-65535 is rejected while the arguments are parsed,
    before any socket is made."""
    def no_socket(*_args, **_kwargs):
        raise AssertionError("a socket was made")

    monkeypatch.setattr(socket, "socket", no_socket)
    with pytest.raises(SystemExit) as exc:
        main(["run", tree_path, "--listen", port])
    captured = capsys.readouterr()
    assert exc.value.code == 1 and captured.out == ""
    assert captured.err.splitlines()[-1] == (
        f"rvaft run: error: argument --listen: not a port from 0 to 65535: '{port}'")


@pytest.mark.parametrize("output,expected", [
    ("./x.verdicts.jsonl", "x.{}.verdicts.jsonl"),
    ("d.d/x.jsonl", "d.d/x.{}.jsonl"),
    ("x", "x.{}"),
])
def test_run_all_puts_the_property_into_the_file_name_of_o(output, expected, tree_path,
                                                           tmp_path, monkeypatch):
    """A dot in a directory of the path is not the file name's suffix."""
    trace = tmp_path / "bad.trace.jsonl"
    main(["simulate", "attack-moving", "bad", "-o", str(trace)])
    work = tmp_path / "work"
    (work / "d.d").mkdir(parents=True)
    monkeypatch.chdir(work)
    code = main(["run", tree_path, "--trace", str(trace), "--property", "all", "-o", output])
    assert code == 2
    produced = {str(p.relative_to(work)) for p in work.rglob("*") if p.is_file()}
    assert produced == {expected.format(w) for w in ("merged", "phi1", "phi2", "phi3", "phi4")}


def test_run_unknown_property(tree_path, tmp_path, capsys):
    trace = tmp_path / "t.trace.jsonl"
    main(["simulate", "fault-moving", "bad", "-o", str(trace)])
    assert main(["run", tree_path, "--trace", str(trace), "--property", "phi9"]) == 1
    assert "phi9" in capsys.readouterr().err


def test_tcp_ingestion_matches_file_ingestion(tree_path, tmp_path, capsys):
    trace = tmp_path / "bad.trace.jsonl"
    main(["simulate", "fault-at-waypoint", "bad", "-o", str(trace)])
    payload = trace.read_bytes()

    file_out = tmp_path / "file.verdicts.jsonl"
    main(["run", tree_path, "--trace", str(trace), "-o", str(file_out)])

    port = _free_port()
    tcp_out = tmp_path / "tcp.verdicts.jsonl"
    result = {}

    def serve():
        result["code"] = main(["run", tree_path, "--listen", str(port),
                               "-o", str(tcp_out)])

    thread = threading.Thread(target=serve)
    thread.start()
    with _connect_when_listening(port) as conn:
        conn.sendall(payload)
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert result["code"] == 2
    assert tcp_out.read_text() == file_out.read_text()


def _free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _connect_when_listening(port, attempts=100):
    for _ in range(attempts):
        try:
            return socket.create_connection(("127.0.0.1", port), timeout=1)
        except OSError:
            time.sleep(0.05)
    raise RuntimeError("server never came up")


def _lines_within(path, count, seconds=10.0):
    """The file's lines once it holds ``count`` of them, or what it holds
    after ``seconds``."""
    deadline = time.monotonic() + seconds
    while True:
        lines = path.read_text().splitlines() if path.exists() else []
        if len(lines) >= count or time.monotonic() > deadline:
            return lines
        time.sleep(0.02)


def test_tcp_verdicts_arrive_while_the_sender_holds_the_connection(tree_path, tmp_path):
    trace = tmp_path / "bad.trace.jsonl"
    main(["simulate", "fault-moving", "bad", "-o", str(trace)])
    port = _free_port()
    out = tmp_path / "tcp.verdicts.jsonl"
    result = {}

    def serve():
        result["code"] = main(["run", tree_path, "--listen", str(port), "-o", str(out)])

    thread = threading.Thread(target=serve)
    thread.start()
    try:
        with _connect_when_listening(port) as conn:
            conn.sendall(trace.read_bytes())
            # the last event decides (top), so no line waits for the next event
            lines = _lines_within(out, 4)
            assert [json.loads(line)["verdict"] for line in lines] == ["?", "?", "?", "top"]
    finally:
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert result["code"] == 2
    assert out.read_text().splitlines() == lines


@contextlib.contextmanager
def _listening_child():
    """`rvaft run --listen 0` in a child process at RVAFT_LOG=info; yields it
    once it logs the port it listens on, with that port and what it wrote to
    stderr after that line."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), os.pardir, "src"),
               RVAFT_LOG="info")
    cmd = [sys.executable, "-m", "rvaft.cli", "run",
           str(CASES / "remote_inspection.rvaft.json"), "--listen", "0"]
    # A shell may start the tests with SIGINT ignored, which a child would
    # inherit; a handled signal is reset to its default in the child.
    handler = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    finally:
        signal.signal(signal.SIGINT, handler)
    with proc:
        try:
            fd, err = proc.stderr.fileno(), b""
            deadline = time.monotonic() + 30
            while not (match := re.search(rb"INFO rvaft: listening on 127\.0\.0\.1:(\d+)\n",
                                          err)):
                left = deadline - time.monotonic()
                chunk = os.read(fd, 4096) if select.select([fd], [], [], max(left, 0))[0] else b""
                if not chunk:
                    raise RuntimeError(f"the child logged no port: {err!r}")
                err += chunk
            yield proc, int(match.group(1)), err[match.end():]
        finally:
            proc.kill()


def test_listen_0_logs_the_port_it_is_bound_to(tmp_path):
    trace = tmp_path / "bad.trace.jsonl"
    main(["simulate", "fault-moving", "bad", "-o", str(trace)])
    with _listening_child() as (proc, port, _):
        assert port != 0
        with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
            conn.sendall(trace.read_bytes())
        out, err = proc.communicate(timeout=30)
    assert proc.returncode == 2, err
    assert [json.loads(line)["verdict"] for line in out.splitlines()] == ["?", "?", "?", "top"]


def test_sigint_while_listening_exits_130_without_a_traceback():
    with _listening_child() as (proc, _, before):
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=30)
    assert proc.returncode == 130
    assert out == b""
    assert (before + err).decode() == "interrupted\n"


def _next_line(fd, buffer, seconds=30.0):
    """The next line the child writes to ``fd`` after ``buffer``, and what
    follows it; fails if no whole line comes within ``seconds``."""
    deadline = time.monotonic() + seconds
    while b"\n" not in buffer:
        left = deadline - time.monotonic()
        ready = select.select([fd], [], [], max(left, 0))[0]
        chunk = os.read(fd, 4096) if ready else b""
        if not chunk:
            raise AssertionError(f"no whole line within {seconds} s: {buffer!r}")
        buffer += chunk
    line, _, rest = buffer.partition(b"\n")
    return line, rest


def test_listen_writes_each_line_before_the_next_event_and_leaves_the_end_open(tmp_path):
    """Each event's verdict line comes out while the sender waits for it.
    Closing the connection on an undecided trace closes nothing: the last
    line stays `?`, and so does the verdict on stderr."""
    trace = tmp_path / "good.trace.jsonl"
    main(["simulate", "fault-moving", "good", "--noise", "3", "-o", str(trace)])
    events = trace.read_bytes().splitlines(keepends=True)
    lines, rest = [], b""
    with _listening_child() as (proc, port, _):
        with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
            for event in events:
                conn.sendall(event)
                line, rest = _next_line(proc.stdout.fileno(), rest)
                lines.append(json.loads(line))
        out, err = proc.communicate(timeout=30)
    assert proc.returncode == 0, err
    assert rest + out == b""
    assert [record["event_index"] for record in lines] == list(range(len(events)))
    assert lines[-1]["verdict"] == "?" and lines[-1]["live_branches"]
    assert err.decode().endswith("\nmerged: verdict=?\n")


@pytest.mark.parametrize("read", [0, 1, 7, 20])
def test_an_interrupt_writes_the_line_of_every_event_read(tree_path, tmp_path, monkeypatch,
                                                          capsys, read):
    """A replay batches its lines; an interrupt after ``read`` events still
    writes all of them, the last one ``?`` as it stood, since the input did
    not end."""
    trace = tmp_path / "good.trace.jsonl"
    main(["simulate", "fault-moving", "good", "--noise", "30", "--seed", "1", "-o", str(trace)])
    whole = tmp_path / "whole.verdicts.jsonl"
    assert main(["run", tree_path, "--trace", str(trace), "-o", str(whole)]) == 0
    capsys.readouterr()
    read_trace = cli.read_trace

    def interrupted(*args):
        for i, event in enumerate(read_trace(*args)):
            if i == read:
                raise KeyboardInterrupt
            yield event

    monkeypatch.setattr(cli, "read_trace", interrupted)
    out = tmp_path / "out.verdicts.jsonl"
    assert main(["run", tree_path, "--trace", str(trace), "-o", str(out)]) == 130
    assert capsys.readouterr().err == "interrupted\n"
    lines = out.read_text().splitlines()
    assert lines == whole.read_text().splitlines()[:read]
    assert all(json.loads(line)["verdict"] == "?" for line in lines)


class _CountingStdout:
    """Stands in for stdout: keeps no text, counts writes, flushes and lines."""

    def __init__(self):
        self.writes = self.flushes = self.lines = 0

    def write(self, text):
        self.writes += 1
        self.lines += text.count("\n")
        return len(text)

    def flush(self):
        self.flushes += 1


def _patrol_lines(n):
    """A move to waypoint 0, then ``n - 1`` low radiation readings and odometry
    lines, made one at a time."""
    for i in range(n):
        if i == 0:
            yield '{"topic": "/command", "time": 0, "name": "move", "waypoint": 0}\n'
        elif i % 2:
            yield '{"topic": "/odom", "time": %.2f, "seq": %d}\n' % (i / 10, i)
        else:
            yield ('{"topic": "/radiation_sensor_plugin/sensor_0", "time": %.2f, '
                   '"value": %d}\n' % (i / 10, 20 + i % 100))


def _stdin_run_peak_bytes(tree_path, monkeypatch, events):
    monkeypatch.setattr("sys.stdin", _patrol_lines(events))
    out = _CountingStdout()
    monkeypatch.setattr("sys.stdout", out)
    gc.collect()  # so that no collection of earlier garbage lands in the run
    tracemalloc.start()
    try:
        assert main(["run", tree_path]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.lines == events
    return peak


def test_run_memory_does_not_grow_with_the_stream(tree_path, monkeypatch):
    _stdin_run_peak_bytes(tree_path, monkeypatch, 200)  # warm lazy imports and caches
    small = _stdin_run_peak_bytes(tree_path, monkeypatch, 2_000)
    large = _stdin_run_peak_bytes(tree_path, monkeypatch, 20_000)
    assert large <= 1.2 * small, (small, large)


def test_replay_batches_its_writes(tree_path, tmp_path, monkeypatch):
    events = 3_000
    trace = tmp_path / "patrol.trace.jsonl"
    trace.write_text("".join(_patrol_lines(events)))
    out = _CountingStdout()
    monkeypatch.setattr("sys.stdout", out)
    assert main(["run", tree_path, "--trace", str(trace)]) == 0
    assert out.lines == events
    assert out.writes <= events / 500 + 2


class _TextStdout(_CountingStdout):
    """A counting stdout that keeps what is written."""

    def __init__(self):
        super().__init__()
        self.text = []

    def write(self, text):
        self.text.append(text)
        return super().write(text)

    def records(self):
        return [json.loads(line) for line in "".join(self.text).splitlines()]


BOUNDARY = [cli.REPLAY_BATCH_LINES, cli.REPLAY_BATCH_LINES + 1]


@pytest.mark.parametrize("events", BOUNDARY)
def test_a_replay_at_the_batch_boundary_closes_its_newest_line(tree_path, tmp_path,
                                                               monkeypatch, events):
    """A replay that ends undecided with a full batch pending, or one line
    past it: its closing state replaces the newest line, which reads
    `bottom`, every `event_index` is written once, and each batch goes out
    in one write and one flush."""
    trace = tmp_path / "patrol.trace.jsonl"
    trace.write_text("".join(_patrol_lines(events)))
    out = _TextStdout()
    monkeypatch.setattr("sys.stdout", out)
    assert main(["run", tree_path, "--trace", str(trace)]) == 0
    records = out.records()
    assert [r["event_index"] for r in records] == list(range(events))
    assert [r["verdict"] for r in records] == ["?"] * (events - 1) + ["bottom"]
    assert records[-1]["live_branches"] == [] and records[-2]["live_branches"]
    batches = -(-events // cli.REPLAY_BATCH_LINES)
    assert out.writes == out.flushes == batches


@pytest.mark.parametrize("read", BOUNDARY)
def test_an_interrupt_at_the_batch_boundary_leaves_the_newest_line_as_it_stood(
        tree_path, tmp_path, monkeypatch, capsys, read):
    """An interrupt after a full batch of events, or one past it, writes the
    line of every event read once, the newest a `?` line as it stood: the
    same line an uninterrupted replay of a longer trace writes there."""
    trace = tmp_path / "patrol.trace.jsonl"
    trace.write_text("".join(_patrol_lines(read + 5)))
    whole = _TextStdout()
    monkeypatch.setattr("sys.stdout", whole)
    assert main(["run", tree_path, "--trace", str(trace)]) == 0
    read_trace = cli.read_trace

    def interrupted(*args):
        for i, event in enumerate(read_trace(*args)):
            if i == read:
                raise KeyboardInterrupt
            yield event

    monkeypatch.setattr(cli, "read_trace", interrupted)
    out = _TextStdout()
    monkeypatch.setattr("sys.stdout", out)
    capsys.readouterr()
    assert main(["run", tree_path, "--trace", str(trace)]) == 130
    assert capsys.readouterr().err == "interrupted\n"
    records = out.records()
    assert [r["event_index"] for r in records] == list(range(read))
    assert records == whole.records()[:read]
    assert records[-1]["verdict"] == "?" and records[-1]["live_branches"]


# Bindings a record may carry: non-ASCII strings, integer-valued floats,
# tuple and dict values (which a line leaves out), and `True` next to `1.0`,
# which are equal in Python but written differently.
_BINDINGS = (
    None,
    {"Wp": 2.0, "T1": 16.1},
    {"Wp": "entrée", "Name": "π ≥ 3"},
    {"X": True},
    {"X": 1.0},
    {"Path": (1.0, 2.0), "Pose": {"x": 1.0}, "T": 3.5},
)


def _writer_states(seed, n=600):
    """Seeded states in runs of one object, as `TraceRunner.feed` hands
    them on, each run begun by a new state that sets one member or holds
    equal bindings in a fresh object. The last state is a `?` state that is
    the one before it."""
    rng = random.Random(seed)
    members = {"verdict": Verdict.UNKNOWN, "property": "merged",
               "live_branches": ("phi1", "phi2"), "skipped": True, "bindings": None}
    choices = {
        "verdict": list(Verdict),
        "property": ["merged", "phi1", "phi2"],
        "live_branches": [(), ("phi1",), ("phi1", "phi2"), ("phi2", "phi3", "phi4")],
        "skipped": [False, True],
        "bindings": list(_BINDINGS),
    }
    state = VerdictState(**members)
    states = []
    for i in range(n):
        roll = rng.random() if i < n - 2 else 1.0
        if roll < 0.15:
            member = rng.choice(sorted(choices))
            value = rng.choice(choices[member])
            members[member] = dict(value) if isinstance(value, dict) else value
            state = VerdictState(**members)
        elif roll < 0.25 and members["bindings"] is not None:
            members["bindings"] = dict(members["bindings"])
            state = VerdictState(**members)
        if i == n - 2:
            members["verdict"] = Verdict.UNKNOWN
            state = VerdictState(**members)
        states.append(state)
    return states


def _line(index, state):
    return verdict_record_line(index, verdict_record_body(state)) + "\n"


@pytest.mark.parametrize("replay", [False, True], ids=["live", "replay"])
def test_writer_output_equals_a_line_built_afresh_per_record(replay, monkeypatch):
    """The writer writes the bytes that building every line afresh gives,
    and builds a line's body again only for a state that is not the
    previous state object: also for equal bindings in a fresh object, and
    for the closing state that replaces a replay's newest `?` line with
    `bottom`. A live writer keeps nothing pending: when a push returns, that
    state's line is out, and the last `?` line stays as written."""
    built = []

    def counted_body(state):
        built.append(state)
        return verdict_record_body(state)

    monkeypatch.setattr(cli, "verdict_record_body", counted_body)
    for seed in range(20):
        states = _writer_states(seed)
        out = io.StringIO()
        writer = cli._VerdictWriter(out, replay)
        built.clear()
        written = 0
        for i, state in enumerate(states):
            writer.push(state)
            if not replay:
                line = _line(i, state)
                assert out.getvalue()[written:] == line
                written += len(line)
        last = states[-1]
        # what TraceRunner.finish returns on a replay; the runner's state live
        closing = (VerdictState(Verdict.VIOLATED, last.property, (), last.bindings,
                                last.skipped) if replay else last)
        writer.close(closing)
        assert out.getvalue() == "".join(
            _line(i, state) for i, state in enumerate(states[:-1] + [closing]))
        changes = sum(a is not b for a, b in zip(states, states[1:]))
        assert len(built) == 1 + changes + replay
        # the last state is the one before it, so only a closing one is built
        assert built[-1] is closing and (built[-2] is last) == replay


def test_stdin_writes_and_flushes_each_line_as_it_is_final(tree_path, monkeypatch, capsys):
    """A patrol that never decides: each `?` line is final once its event is
    stepped, so it is written and flushed before the next input line is
    read, and the end of the input closes nothing."""
    events = 300
    out = _CountingStdout()
    written_before = []  # verdict lines written before each input line is read

    def stdin():
        for line in _patrol_lines(events):
            written_before.append(out.lines)
            yield line

    monkeypatch.setattr("sys.stdin", stdin())
    monkeypatch.setattr("sys.stdout", out)
    assert main(["run", tree_path]) == 0
    assert (out.writes, out.flushes, out.lines) == (events, events, events)
    assert written_before == list(range(events))
    assert capsys.readouterr().err.endswith("\nmerged: verdict=?\n")


def test_cli_import_leaves_out_what_a_run_does_not_use():
    """Importing the command line loads neither the TCP stack, which only
    --listen needs, nor statistics."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    check = ("import rvaft.cli, sys; "
             "print(sorted({'socket', 'statistics'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True).stdout
    assert out.strip() == "[]"


def test_cli_import_leaves_out_what_only_simulate_uses():
    """Only `simulate` draws noise and only the shipped tree reads package
    data, so importing the command line loads neither `random` nor
    `importlib.resources`. Run without `site`, which may import them itself."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    check = ("import rvaft.cli, sys; "
             "print(sorted({'random', 'importlib.resources'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", check], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True).stdout
    assert out.strip() == "[]"


def test_simulate_help_lists_the_scenarios_and_outcomes(capsys):
    with pytest.raises(SystemExit):
        main(["simulate", "--help"])
    out = capsys.readouterr().out
    assert "{fault-moving,fault-at-waypoint,attack-moving,attack-at-waypoint}" in out
    assert "{bad,good}" in out


def test_run_all_detects_a_vote_over_interleaved_sequences(tmp_path, capsys):
    """Two of three children of a vote, each a two-event sequence, detect
    when their events interleave, as under an AND gate."""
    def leaf(name):
        return {"class": "attack", "event": {"name": name, "pattern": {"topic": name}}}

    doc = {
        "name": "vote", "root": "root",
        "nodes": {
            "root": {"gate": {"kind": "VOT", "k": 2, "children": ["a", "b", "c"]}},
            "a": {"gate": {"kind": "SAND_LR", "children": ["a1", "a2"]}},
            "b": {"gate": {"kind": "SAND_LR", "children": ["b1", "b2"]}},
            **{name: leaf(name) for name in ("a1", "a2", "b1", "b2", "c")},
        },
    }
    tree = tmp_path / "vote.rvaft.json"
    tree.write_text(json.dumps(doc))
    trace = tmp_path / "t.trace.jsonl"
    trace.write_text("".join(json.dumps({"topic": t}) + "\n" for t in ("a1", "b1", "a2", "b2")))
    out = tmp_path / "out.verdicts.jsonl"
    code = main(["run", str(tree), "--trace", str(trace), "--property", "all", "-o", str(out)])
    assert code == 2, capsys.readouterr().err
    for which in ("merged", "phi1"):
        lines = (tmp_path / f"out.{which}.verdicts.jsonl").read_text().splitlines()
        assert [json.loads(line)["verdict"] for line in lines] == ["?", "?", "?", "top"]


def _closed_last_line(live, replay):
    """Checks that a live run wrote a replay's lines, but for a last `?` line
    that the replay closed to `bottom` and the live run left `?` with its
    live branches and bindings; returns whether the replay closed it."""
    live_lines, replay_lines = live.splitlines(), replay.splitlines()
    assert len(live_lines) == len(replay_lines)
    assert live_lines[:-1] == replay_lines[:-1]
    if live_lines[-1:] == replay_lines[-1:]:
        return False
    left_open, closed = json.loads(live_lines[-1]), json.loads(replay_lines[-1])
    assert left_open["verdict"] == "?" and left_open["live_branches"]
    assert closed == dict(left_open, verdict="bottom", live_branches=[])
    return True


def test_stdin_bytes_that_are_not_utf8_are_replaced_as_in_a_trace_file(tmp_path):
    """An interpreter whose stdin decodes with strict errors still reads a
    line with a byte that is not UTF-8, as --trace does."""
    payload = (b'{"topic": "a", "s": "\xff"}\n'
               b'{"topic": "command", "name": "move", "waypoint": 1}\n')
    trace = tmp_path / "t.trace.jsonl"
    trace.write_bytes(payload)
    env = {k: v for k, v in os.environ.items() if k != "RVAFT_LOG"}
    env.update(PYTHONPATH=os.path.join(os.path.dirname(__file__), os.pardir, "src"),
               PYTHONIOENCODING="utf-8")
    cmd = [sys.executable, "-m", "rvaft.cli", "run", str(CASES / "remote_inspection.rvaft.json")]
    stdin = subprocess.run(cmd, input=payload, capture_output=True, env=env, timeout=60)
    assert stdin.returncode == 0, stdin.stderr
    assert stdin.stderr.decode().splitlines()[0] == "trace: lines=2 events=2 malformed=0"
    assert len(stdin.stdout.splitlines()) == 2
    from_file = subprocess.run(cmd + ["--trace", str(trace)], capture_output=True, env=env,
                               timeout=60)
    assert from_file.returncode == 0, from_file.stderr
    # the move leaves the run undecided: the replay closes its line, stdin does not
    assert _closed_last_line(stdin.stdout, from_file.stdout)
    assert stdin.stderr.decode().splitlines()[1:] == ["merged: verdict=?"]
    assert from_file.stderr.decode().splitlines() == ["trace: lines=2 events=2 malformed=0",
                                                      "merged: verdict=⊥"]


def test_stdin_stream_matches_file_stream_byte_for_byte(tree_path, tmp_path, monkeypatch):
    trace = tmp_path / "t.trace.jsonl"
    main(["simulate", "attack-at-waypoint", "bad", "-o", str(trace)])
    file_out = tmp_path / "file.verdicts.jsonl"
    main(["run", tree_path, "--trace", str(trace), "-o", str(file_out)])
    stdin_out = tmp_path / "stdin.verdicts.jsonl"
    monkeypatch.setattr("sys.stdin", io.StringIO(trace.read_text()))
    main(["run", tree_path, "-o", str(stdin_out)])
    assert stdin_out.read_bytes() == file_out.read_bytes()


def test_stdin_run_leaves_the_last_line_open_at_the_end_of_the_input(tree_path, tmp_path,
                                                                     monkeypatch, capsys):
    """The merged monitor is still `?` after the last event of a good trace.
    The end of stdin only means that the feed stopped: the last line stays
    `?`, and so does the verdict on stderr. A replay of the same trace ends
    with the mission, so its end closes the verdict to `⊥`."""
    trace = tmp_path / "good.trace.jsonl"
    main(["simulate", "fault-at-waypoint", "good", "-o", str(trace)])
    monkeypatch.setattr("sys.stdin", io.StringIO(trace.read_text()))
    assert main(["run", tree_path]) == 0
    live = capsys.readouterr()
    assert [json.loads(line)["verdict"] for line in live.out.splitlines()] == ["?"] * 4
    assert live.err.endswith("\nmerged: verdict=?\n")
    assert main(["run", tree_path, "--trace", str(trace)]) == 0
    replay = capsys.readouterr()
    assert _closed_last_line(live.out, replay.out)
    assert replay.err.endswith("\nmerged: verdict=⊥\n")


@pytest.mark.parametrize("which", ["merged", "phi2"])
def test_a_closing_line_lists_no_live_branches(which, tree_path, tmp_path, monkeypatch,
                                               capsys):
    """Both monitors are still `?` after the last event of a good fault-moving
    trace. A replay's closing `bottom` line lists no live branch; the merged
    one keeps the bindings held when the input ended. From stdin the same
    line stays `?` and lists the branches still live."""
    trace = tmp_path / "good.trace.jsonl"
    main(["simulate", "fault-moving", "good", "-o", str(trace)])
    assert main(["run", tree_path, "--property", which, "--trace", str(trace)]) == 0
    from_file = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO(trace.read_text()))
    assert main(["run", tree_path, "--property", which]) == 0
    assert _closed_last_line(capsys.readouterr().out, from_file)
    *_, held, closing = map(json.loads, from_file.splitlines())
    assert held["verdict"] == "?" and held["live_branches"]
    assert closing["verdict"] == "bottom" and closing["live_branches"] == []
    assert ("bindings" in closing) == (which == "merged")


def test_run_all_from_stdin_matches_all_from_a_file(tree_path, tmp_path, monkeypatch):
    """Each property's stdin file holds its replay's lines. phi1 is decided
    `bottom` and phi3 and merged `top`; phi2 and phi4 are still `?` at the
    end, which only the replay closes."""
    trace = tmp_path / "t.trace.jsonl"
    main(["simulate", "attack-moving", "bad", "--noise", "20", "-o", str(trace)])
    (tmp_path / "file").mkdir()
    (tmp_path / "stdin").mkdir()
    assert main(["run", tree_path, "--trace", str(trace), "--property", "all",
                 "-o", str(tmp_path / "file" / "v.jsonl")]) == 2
    monkeypatch.setattr("sys.stdin", io.StringIO(trace.read_text()))
    assert main(["run", tree_path, "--property", "all",
                 "-o", str(tmp_path / "stdin" / "v.jsonl")]) == 2
    produced = {p.name: p.read_bytes() for p in (tmp_path / "file").iterdir()}
    assert len(produced) == 5
    live = {p.name: p.read_bytes() for p in (tmp_path / "stdin").iterdir()}
    assert live.keys() == produced.keys()
    closed = {name for name in live if _closed_last_line(live[name], produced[name])}
    assert closed == {"v.phi2.jsonl", "v.phi4.jsonl"}


@pytest.mark.parametrize("scenario,branch", [
    ("fault-moving", "phi1"), ("fault-at-waypoint", "phi2"),
    ("attack-moving", "phi3"), ("attack-at-waypoint", "phi4"),
])
def test_every_scenario_decides_for_merged_and_branch(scenario, branch, tree_path, tmp_path):
    for outcome, expected in (("bad", 2), ("good", 0)):
        trace = tmp_path / f"{scenario}.{outcome}.jsonl"
        main(["simulate", scenario, outcome, "-o", str(trace)])
        for which in ("merged", branch):
            code = main(["run", tree_path, "--trace", str(trace),
                         "--property", which, "-o", "/dev/null"])
            assert code == expected, (scenario, outcome, which)


@pytest.mark.parametrize("outcome", OUTCOMES)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_run_all_writes_what_each_property_writes_alone(scenario, outcome, tmp_path, capsys):
    """ROADMAP law L8, on the shipped tree: each file of `--property all`
    equals, byte for byte, the file of a run of that property alone, and so
    do its verdict line on stderr and the exit code."""
    tree = str(CASES / "remote_inspection.rvaft.json")
    trace = tmp_path / "t.trace.jsonl"
    main(["simulate", scenario, outcome, "--noise", "30",
          "--seed", str(SCENARIOS.index(scenario)), "-o", str(trace)])
    (tmp_path / "all").mkdir()
    capsys.readouterr()
    code = main(["run", tree, "--trace", str(trace), "--property", "all",
                 "-o", str(tmp_path / "all" / "v.jsonl")])
    summary = capsys.readouterr().err.splitlines()[1:]
    written = {p.name: p.read_bytes() for p in (tmp_path / "all").iterdir()}
    selectors = ["phi1", "phi2", "phi3", "phi4", "merged"]
    assert sorted(written) == sorted(f"v.{which}.jsonl" for which in selectors)
    alone = []
    for which, line in zip(selectors, summary, strict=True):
        out = tmp_path / f"{which}.jsonl"
        alone.append(main(["run", tree, "--trace", str(trace), "--property", which,
                           "-o", str(out)]))
        assert out.read_bytes() == written[f"v.{which}.jsonl"], which
        assert capsys.readouterr().err.splitlines()[1:] == [line]
    assert code == max(alone) == (2 if outcome == "bad" else 0)


def _simulated(scenario, outcome, tmp_path):
    """The events of a noisy `rvaft simulate` trace, seeded per scenario."""
    trace = tmp_path / "simulated.trace.jsonl"
    main(["simulate", scenario, outcome, "--noise", "30",
          "--seed", str(SCENARIOS.index(scenario)), "-o", str(trace)])
    return [json.loads(line) for line in trace.read_text().splitlines()]


def _run_shipped(events, path, which, capsys):
    """Exit code, stdout and stderr of `rvaft run --trace` on the shipped tree
    over ``events``, written one per line to ``path``."""
    path.write_text("".join(json.dumps(event) + "\n" for event in events))
    capsys.readouterr()
    code = main(["run", str(CASES / "remote_inspection.rvaft.json"), "--trace", str(path),
                 "--property", which])
    out, err = capsys.readouterr()
    return code, out, err


SELECTORS = ["merged", "phi1", "phi2", "phi3", "phi4"]


@pytest.mark.parametrize("outcome", OUTCOMES)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_an_unsubscribed_event_before_every_event_changes_no_line(scenario, outcome,
                                                                   tmp_path, capsys):
    """ROADMAP law L4, on the shipped tree: with an `/odom` event before every
    event, each original event's line is as it was but for its `event_index`,
    each inserted line is skipped with the verdict of the line before it, and
    the exit code is the same."""
    events = _simulated(scenario, outcome, tmp_path)
    padded = [e for event in events for e in ({"topic": "/odom", "seq": 1}, event)]
    for which in SELECTORS:
        code, out, _ = _run_shipped(events, tmp_path / "plain.jsonl", which, capsys)
        padded_code, padded_out, _ = _run_shipped(padded, tmp_path / "padded.jsonl", which,
                                                  capsys)
        assert padded_code == code, which
        lines = [json.loads(line) for line in out.splitlines()]
        padded_lines = [json.loads(line) for line in padded_out.splitlines()]
        originals, inserted = padded_lines[1::2], padded_lines[::2]
        assert originals == [dict(line, event_index=2 * line["event_index"] + 1)
                             for line in lines], which
        assert all(line["skipped"] is True for line in inserted), which
        before = ["?"] + [line["verdict"] for line in originals[:-1]]
        assert [line["verdict"] for line in inserted] == before, which


@pytest.mark.parametrize("outcome", OUTCOMES)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_respelling_every_topic_changes_nothing(scenario, outcome, tmp_path, capsys):
    """ROADMAP law L5, on the shipped tree: with every topic `/t` spelled `t`
    and every `t` spelled `/t`, stdout, stderr and the exit code are the
    same."""
    events = _simulated(scenario, outcome, tmp_path)
    def respell(topic):
        return topic[1:] if topic.startswith("/") else "/" + topic

    respelled = [dict(event, topic=respell(event["topic"])) for event in events]
    assert respelled != events
    for which in SELECTORS:
        assert (_run_shipped(respelled, tmp_path / "respelled.jsonl", which, capsys)
                == _run_shipped(events, tmp_path / "plain.jsonl", which, capsys)), which


def test_run_rejects_non_runtime_ready_tree(full_tree_path, tmp_path, capsys):
    trace = tmp_path / "t.trace.jsonl"
    main(["simulate", "fault-moving", "bad", "-o", str(trace)])
    assert main(["run", full_tree_path, "--trace", str(trace)]) == 1
    assert "runtime-ready" in capsys.readouterr().err


@pytest.fixture(scope="module")
def deep_tree_path(tmp_path_factory):
    """A chain of 1,500 nested SAND gates, deeper than Python's recursion limit."""
    depth = 1500

    def leaf(i):
        return {"class": "fault", "event": {"name": f"e{i}", "pattern": {"topic": f"t{i}"}}}

    nodes = {f"g{depth}": leaf(depth)}
    for i in range(depth):
        nodes[f"g{i}"] = {"gate": {"kind": "SAND_LR", "children": [f"e{i}", f"g{i + 1}"]}}
        nodes[f"e{i}"] = leaf(i)
    path = tmp_path_factory.mktemp("trees") / "deep.rvaft.json"
    path.write_text(json.dumps({"name": "deep", "root": "g0", "nodes": nodes}))
    return str(path)


@pytest.mark.parametrize("command", ["validate", "compile", "run"])
def test_deep_tree_is_an_input_error(deep_tree_path, command, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    assert main([command, deep_tree_path]) == 1
    assert capsys.readouterr().err == "error: input is nested too deeply\n"


def test_deep_guard_is_an_input_error(full_tree_path, capsys):
    guard = "(" * 5000 + "Level" + ")" * 5000 + " <= 0"
    assert main(["annotate", full_tree_path, "--node", "battery_dead", "--name", "battery",
                 "--guard", guard]) == 1
    assert capsys.readouterr().err == "error: input is nested too deeply\n"
