"""`rvaft compile`, with and without `--merge`, writes recorded text, byte for
byte.

The trees are the shipped one and `data/or_below_gates.rvaft.json`, where an
OR sits below an AND gate and below a VOT gate: each is resolved at its gate,
so the union sits above the whole gate, and the guard-only leaf after each
gate stays a check while the one after an atom folds into that atom. The text
is in `data/<tree>.compile.txt` and `data/<tree>.compile-merge.txt`. To record
it again from a source tree:

    PYTHONPATH=src python tests/test_compile_goldens.py
"""

from pathlib import Path

import pytest

from rvaft.cli import main

DATA = Path(__file__).resolve().parent / "data"
TREES = {
    "remote_inspection": DATA.parent.parent / "cases" / "remote_inspection.rvaft.json",
    "or_below_gates": DATA / "or_below_gates.rvaft.json",
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


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name in TREES:
            for mode in MODES:
                text = compile_text(name, mode, Path(tmp) / "spec.txt")
                (DATA / f"{name}.{mode}.txt").write_bytes(text)
