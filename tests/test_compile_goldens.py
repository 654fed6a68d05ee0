"""`rvaft compile`, with and without `--merge`, writes recorded text, byte for
byte.

The trees are the shipped one and two in `data/`:

- `or_below_gates`: an OR sits below an AND gate and below a VOT gate. Each
  is resolved at its gate, so the union sits above the whole gate, and the
  guard-only leaf after each gate stays a check while the one after an atom
  folds into that atom.
- `guard_only_arms`: guard-only leaves at the edges of OR arms. Two arms that
  end in differently named leaves with the same guard share that guard as a
  check after the union; two that start so share it ahead of the union,
  where it folds into the atom before. A leaf with an explicit
  `on_guard_fail` folds into the atom before it with that policy, and an OR
  below two children of the root's SAND_LR is resolved once per branch, so
  the merged union starts where the two resolutions first differ.

The text is in `data/<tree>.compile.txt` and `data/<tree>.compile-merge.txt`.
To record it again from a source tree:

    PYTHONPATH=src python tests/test_compile_goldens.py
"""

import re
from pathlib import Path

import pytest

from rvaft.cli import main

DATA = Path(__file__).resolve().parent / "data"
TREES = {
    "remote_inspection": DATA.parent.parent / "cases" / "remote_inspection.rvaft.json",
    "or_below_gates": DATA / "or_below_gates.rvaft.json",
    "guard_only_arms": DATA / "guard_only_arms.rvaft.json",
}
MODES = {"compile": [], "compile-merge": ["--merge"]}


def compile_text(name, mode, out):
    assert main(["compile", str(TREES[name]), *MODES[mode], "-o", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", TREES)
def test_compile_writes_the_recorded_text(name, mode, tmp_path):
    golden = DATA / f"{name}.{mode}.txt"
    assert compile_text(name, mode, tmp_path / "spec.txt") == golden.read_bytes()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", TREES)
def test_every_declaration_has_its_own_head(name, mode, tmp_path):
    """Two atoms that differ only in their pattern or guard get two heads,
    so a Main line names exactly one declaration per atom."""
    lines = compile_text(name, mode, tmp_path / "spec.txt").decode().splitlines()
    heads = [line.split(" matches ")[0] for line in lines if " matches " in line]
    assert len(set(heads)) == len(heads), heads


def test_main_names_the_move_that_carries_the_time_guard(tmp_path):
    """In the shipped tree only phi1 and phi2 end in a move checked against
    the radiation time; phi3 and phi4 end in a move without that check."""
    lines = compile_text("remote_inspection", "compile", tmp_path / "spec.txt").decode()
    declared = dict(line.split(" matches ") for line in lines.splitlines()
                    if " matches " in line)
    mains = dict(re.fullmatch(r"(Main_\w+) = \{ let [^;]*; (.*) \}", line).groups()
                 for line in lines.splitlines() if line.startswith("Main_"))
    for which, timed in (("phi1", True), ("phi2", True), ("phi3", False), ("phi4", False)):
        move = next(head for head in re.findall(r"\w+\([^)]*\)", mains[f"Main_{which}"])
                    if head.startswith("move") and "NewWp" in head)
        assert ("T2 >= T1 + 10" in declared[move]) == timed, (which, move)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name in TREES:
            for mode in MODES:
                text = compile_text(name, mode, Path(tmp) / "spec.txt")
                (DATA / f"{name}.{mode}.txt").write_bytes(text)
