"""The monitor specification text of a compiled tree, in an RML-style
syntax like that of the specifications ROSMonitoring runs.

One declaration line per distinct atom, ``head matches { pattern }`` with
its guard after ``with``, then one ``Main`` line for the merged term or one
``Main_<id>`` line per branch property. The text is byte-stable across
runs.
"""

from __future__ import annotations

from .fileformat import format_const, print_guard
from .terms import Atom, Bind, Check, Epsilon, Seq, Shuffle, Union, iter_atoms, term_bind_vars


def _atom_args(ann):
    """Display arguments: binds in pattern order, plus distinguishing string
    literals (the topic and a literal equal to the atom's own name are
    implied and omitted)."""
    args = []
    for key, matcher in ann.pattern:
        if key == "topic":
            continue
        if isinstance(matcher, Bind):
            args.append(matcher.var)
        elif isinstance(matcher, str) and matcher != ann.name:
            args.append(matcher)
    return args


def _atom_head(ann, name=None):
    """``name(args)``, the atom's own name unless ``name`` is given."""
    args = _atom_args(ann)
    name = name or ann.name
    return f"{name}({', '.join(args)})" if args else name


def _declared_heads(atoms):
    """``(atom, head)`` for each atom, in order. An atom whose head an
    earlier atom already has (same name and arguments, another pattern or
    guard) is declared as ``<name>_<n>``, with the smallest ``n`` from 2
    that gives a head no other atom has."""
    taken = {_atom_head(ann) for ann in atoms}
    seen, heads = set(), []
    for ann in atoms:
        head = _atom_head(ann)
        if head in seen:
            n = 2
            while (head := _atom_head(ann, f"{ann.name}_{n}")) in taken:
                n += 1
            taken.add(head)
        seen.add(head)
        heads.append((ann, head))
    return heads


def _pattern_text(ann):
    parts = []
    for key, matcher in ann.pattern:
        if isinstance(matcher, Bind):
            parts.append(f"{key}: {matcher.var}")
        elif isinstance(matcher, str):
            parts.append(f"{key}: '{matcher}'")
        else:
            parts.append(f"{key}: {format_const(matcher)}")
    return "{ " + ", ".join(parts) + " }"


def _declaration(ann, head):
    line = f"{head} matches {_pattern_text(ann)}"
    if ann.guard is not None:
        line += f" with {print_guard(ann.guard)}"
    return line + ";"


def _term_text(term, heads, parenthesize=False):
    if isinstance(term, Atom):
        return next(head for ann, head in heads if ann == term.ann)
    if isinstance(term, Check):
        return f"({print_guard(term.guard)})"
    if isinstance(term, Seq):
        text = f"{_term_text(term.left, heads, True)} {_term_text(term.right, heads)}"
        return f"({text})" if parenthesize else text
    if isinstance(term, Union):
        return (f"({_term_text(term.left, heads, True)} \\/ "
                f"{_term_text(term.right, heads, True)})")
    if isinstance(term, Shuffle):
        return (f"({_term_text(term.left, heads, True)} | "
                f"{_term_text(term.right, heads, True)})")
    if isinstance(term, Epsilon):
        return "empty"
    raise TypeError(f"not a term: {term!r}")


def _main_line(label, term, heads):
    """The term's line, each atom named by its head in ``heads``; a ``let``
    list declares the variables its atoms bind, in first-occurrence order."""
    bound = term_bind_vars(term)
    if bound:
        return f"{label} = {{ let {', '.join(bound)}; {_term_text(term, heads)} }}"
    return f"{label} = {{ {_term_text(term, heads)} }}"


def emit_spec(spec):
    """Human-readable monitor specification text; byte-stable across runs.

    One declaration line per distinct atom (sorted by atom name, stable in
    first-occurrence order), each under its own head (``_declared_heads``),
    then one Main line for the merged term or one Main_<id> line per branch
    property.
    """
    terms = [spec.merged] if spec.merged is not None else [p.term for p in spec.properties]
    atoms = []
    for term in terms:
        for ann in iter_atoms(term):
            if ann not in atoms:
                atoms.append(ann)
    heads = _declared_heads(sorted(atoms, key=lambda a: a.name))
    lines = [_declaration(ann, head) for ann, head in heads]
    if spec.merged is not None:
        lines.append(_main_line("Main", spec.merged, heads))
    else:
        for prop in spec.properties:
            lines.append(_main_line(f"Main_{prop.id}", prop.term, heads))
    return "\n".join(lines) + "\n"
