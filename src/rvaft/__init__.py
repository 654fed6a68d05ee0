"""Attack-fault trees with runtime events: monitor compiler and engine."""

from .compiler import (
    BranchProperty,
    MonitorSpec,
    compile_tree,
    decompose,
    merge,
    translate_and,
    translate_or,
    translate_sand,
    translate_vot,
)
from .engine import Monitor, RunResult, TraceRunner, Verdict, run_trace
from .errors import RvaftError
from .fileformat import (
    emit_spec,
    parse_guard,
    parse_tree,
    print_guard,
    read_trace,
    serialize_tree,
)
from .model import GateSpec, RvaftNode, RvaftTree, Violation, annotate, prune, validate
from .terms import (
    Atom,
    Bind,
    Check,
    Env,
    Epsilon,
    EventAnnotation,
    Seq,
    Shuffle,
    Term,
    Union,
    eval_guard,
    match_event,
    nullable,
)

__version__ = "0.1.0"

__all__ = [
    "Atom", "Bind", "BranchProperty", "Check", "Env", "Epsilon",
    "EventAnnotation", "GateSpec", "Monitor", "MonitorSpec", "RunResult",
    "RvaftError", "RvaftNode", "RvaftTree", "Seq", "Shuffle", "Term",
    "TraceRunner", "Union", "Verdict", "Violation", "annotate", "compile_tree",
    "decompose", "emit_spec", "eval_guard", "match_event",
    "merge", "nullable", "parse_guard", "parse_tree",
    "print_guard", "prune", "read_trace", "run_trace", "serialize_tree",
    "translate_and", "translate_or", "translate_sand", "translate_vot",
    "validate",
]
