"""The JSONL streams of a run: the event trace read in and the verdict log
written out.

A trace holds one JSON object per line, each with a string ``topic``; a
malformed line is counted and skipped with a warning. A regular file is
read a block of lines at a time, and a block is decoded with one JSON parse
where a per-line proof allows it; every other stream is read a line at a
time. A verdict log holds one JSON object per event read.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import re
import stat

from .errors import Log
from .record import Record
from .terms import TOO_DEEP, canonical_topic, normalize_event, normalize_value

# The malformed-line warning keeps the logger name ``rvaft.fileformat`` it
# had before the streams had a module of their own: the recorded stderr of
# hostile input, and filters on what ``RVAFT_LOG`` lets through, match it.
log = Log("rvaft.fileformat")


def _json_value(value):
    """``value`` as it is written: an integer-valued float as an integer,
    and a tuple as a list."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

class TraceStats(Record):
    """Counts of one read: non-blank lines, events yielded, lines skipped as
    malformed."""

    __slots__ = ("lines", "events", "malformed")

    def __init__(self, lines=0, events=0, malformed=0):
        self.lines = lines
        self.events = events
        self.malformed = malformed


# A line this short, in which no "e" is followed by a digit or a sign and no
# "E" appears, holds no exponent: it can hold neither a number too large for
# a double (that takes 309 digits or an exponent) nor nesting deeper than
# normalize_value allows, so its only non-finite numbers are the constants
# that the block decoder refuses while it parses.
_SHORT_LINE = 300
_EXPONENT = re.compile(r"e[-+0-9]")

# Lines of a replay read and decoded as one block, and verdict lines joined
# into one write.
REPLAY_BATCH_LINES = 1000


def _refuse_constant(name):
    raise ValueError(f"not a finite number: {name}")


# Strict, as a JSONDecoder is by default: a string holding a raw control
# character, a newline among them, fails the parse.
_FIELD_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)


def _field_table(fields):
    """Every raw spelling of a topic in ``fields`` (``t`` and ``/t``, as
    ``canonical_topic`` maps them) -> (canonical topic, keys read on it)."""
    table = {}
    for topic, keys in fields.items():
        entry = (topic, tuple(k for k in keys if k != "topic"))
        for spelling in (topic, "/" + topic):
            if canonical_topic(spelling) == topic:
                table[spelling] = entry
    return table


def _field_event(raw, table):
    """The event of an object that ``_FIELD_DECODER`` decoded from a short
    line without an exponent: its canonical topic plus the keys that
    ``table`` lists for its spelling. None when the line is malformed, so
    that ``_line_event`` names the fault."""
    topic = raw.get("topic")
    if not isinstance(topic, str):
        return None
    entry = table.get(topic)
    if entry is None:
        return {"topic": canonical_topic(topic)}
    topic, keys = entry
    event = {"topic": topic}
    try:
        for key in keys:
            if key in raw:
                # What normalize_value does, without a call for the common
                # kinds: such a line's numbers are all finite doubles.
                value = raw[key]
                kind = type(value)
                if kind is int:
                    value = float(value)
                elif kind is not str and kind is not float:
                    value = normalize_value(value)
                event[key] = value
    except (ValueError, TypeError):
        return None
    return event


def _block_events(lines, table):
    """The events of stripped, non-blank ``lines``, decoded at once as the
    JSON array of the lines joined by a comma and a newline; None where that
    could differ from reading each line in full with ``_line_event``, or
    where some line is malformed.

    The array is decoded only when every line starts with ``{`` and ends
    with ``}``, no line holds ``[`` or ``]``, and every line is short with
    no exponent, so that the decoder refuses every number that
    ``_line_event`` refuses; its events are taken only when it has one
    element per line. Then each element is its line's value. A string
    cannot run past its line, since the strict decoder refuses the
    separator's newline in it. An array cannot, since no line holds a
    bracket. An object cannot either: in an open object the next line's
    ``{`` comes where a key or ``}`` must. So each line gives one or more
    whole elements, and with as many elements as lines, exactly one."""
    joined = ",\n".join(lines)
    # No line holds a newline, so the only "},\n{" are separators flanked
    # by a line's last "}" and the next line's first "{".
    if (joined[:1] != "{" or joined[-1:] != "}"
            or joined.count("},\n{") != len(lines) - 1
            or max(map(len, lines)) > _SHORT_LINE
            or "[" in joined or "]" in joined or "E" in joined
            or _EXPONENT.search(joined)):
        return None
    try:
        raws = _FIELD_DECODER.decode("[" + joined + "]")
    except ValueError:
        return None
    if len(raws) != len(lines):
        return None
    events = []
    for raw in raws:
        event = _field_event(raw, table)
        if event is None:
            return None
        events.append(event)
    return events


def _line_blocks(stream):
    """The stripped, non-blank lines of ``stream`` in lists: a block of up
    to ``REPLAY_BATCH_LINES`` lines from a regular file (a ``--trace``
    replay, or stdin redirected from one), where reading never waits for
    more input, else one line each."""
    try:
        whole = stat.S_ISREG(os.fstat(stream.fileno()).st_mode)
    except (AttributeError, OSError, ValueError):  # no file descriptor, or closed
        whole = False
    if not whole:
        for line in stream:
            if isinstance(line, bytes):
                line = line.decode("utf-8", "replace")
            line = line.strip()
            if line:
                yield [line]
        return
    stream = iter(stream)
    while raw_lines := list(itertools.islice(stream, REPLAY_BATCH_LINES)):
        if isinstance(raw_lines[0], bytes):
            # No UTF-8 sequence holds the byte of a line end, so decoding
            # the lines joined replaces just what decoding each would.
            raw_lines = b"".join(raw_lines).decode("utf-8", "replace").split("\n")
        lines = list(filter(None, map(str.strip, raw_lines)))
        if lines:
            yield lines


def _line_event(line, table):
    """The event of one line, decoded and normalized in full and, with a
    field ``table``, cut to the keys read on its topic. Raises ValueError or
    TypeError naming the fault of a malformed line."""
    try:
        raw = json.loads(line)
    except RecursionError:  # deeper than the stack, so than normalize_value allows
        raise ValueError(TOO_DEEP) from None
    if not isinstance(raw, dict) or not isinstance(raw.get("topic"), str):
        raise ValueError("record needs a string 'topic'")
    event = normalize_event(raw)
    topic = event["topic"]
    event["topic"] = canonical_topic(topic)
    if table is not None:
        _, read = table.get(topic, (None, ()))
        event = {k: v for k, v in event.items() if k == "topic" or k in read}
    return event


def read_trace(stream, stats=None, fields=None):
    """Yield the events of a JSONL stream in order, in lists: one per block
    of up to ``REPLAY_BATCH_LINES`` lines from a regular file, one per line
    from any other stream (a pipe, socket, terminal or in-memory text), so
    that no line waits for a later one. A list is never empty. Malformed
    lines are counted and skipped with a warning, never aborting the
    stream. A line is malformed when it is not a JSON object with a string
    ``topic``, is nested deeper than 256 levels, or holds a number that is
    not a finite double (NaN, Infinity or an overflowing literal).

    ``fields`` maps a topic to the keys that some monitor reads on it (see
    ``MonitorSpec.fields``). When given, an event holds its topic and only
    those keys of that topic, and a block is decoded at once where
    ``_block_events`` proves that equal to reading each line in full with
    ``_line_event``, as every other line is read. Either way, the events,
    the malformed lines, the warnings and ``stats`` are the same."""
    stats = stats if stats is not None else TraceStats()
    if isinstance(stream, (bytes, str)):
        stream = io.StringIO(
            stream.decode("utf-8") if isinstance(stream, bytes) else stream
        )
    table = None if fields is None else _field_table(fields)
    for lines in _line_blocks(stream):
        events = None if table is None else _block_events(lines, table)
        if events is None:
            events = []
            for number, line in enumerate(lines, stats.lines + 1):
                try:
                    events.append(_line_event(line, table))
                except (ValueError, TypeError) as exc:
                    stats.malformed += 1
                    log.warning("skipping malformed trace line %d: %s", number, exc)
        stats.lines += len(lines)
        stats.events += len(events)
        if events:
            yield events


def format_event(event):
    """One JSONL line for an event (used by the scenario generator)."""
    return json.dumps(_json_value(event), ensure_ascii=False)


# ---------------------------------------------------------------------------
# Verdict records
# ---------------------------------------------------------------------------

# A line's members are, in this order: event_index, verdict, property,
# live_branches, skipped and, when some binding is set, bindings. Everything
# after event_index is the body, which depends only on the monitor's state.
_RECORD_ENCODER = json.JSONEncoder(ensure_ascii=False)


def verdict_record_body(state):
    """Every member of a verdict line after ``event_index``, up to and with
    the closing brace, from a ``VerdictState``. Only scalar bindings are
    written, and an integer-valued float as an integer."""
    out = {
        "verdict": state.verdict.value,
        "property": state.property,
        "live_branches": sorted(state.live_branches),
        "skipped": bool(state.skipped),
    }
    if state.bindings:
        out["bindings"] = {
            k: _json_value(v)
            for k, v in sorted(state.bindings.items())
            if isinstance(v, (float, str, bool))
        }
    return _RECORD_ENCODER.encode(out)[1:]


def verdict_record_line(event_index, body):
    """One verdict line, without its newline: ``event_index`` and a body
    from ``verdict_record_body``."""
    return '{"event_index": ' + str(event_index) + ", " + body
