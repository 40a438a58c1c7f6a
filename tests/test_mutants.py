"""The mutation catalogue tool (`tests/mutants.py`), without running a mutant."""
from pathlib import Path

import mutants

SRC = Path(__file__).resolve().parent.parent / "src" / "bellsieve"


def test_an_entry_whose_old_text_is_not_found_once_exits_1(capsys, monkeypatch):
    def no_pytest(*args, **kwargs):
        raise AssertionError("a mutant ran although the catalogue is stale")

    monkeypatch.setattr(mutants.subprocess, "run", no_pytest)
    missing = mutants.Mutant("missing", "optics.py", "no such text", "", "nothing")
    repeated = mutants.Mutant("repeated", "twophoton.py", "SQRT2", "1.0", "nothing")
    for entry in (missing, repeated):
        assert mutants.main([], catalogue=[entry]) == 1
    err = capsys.readouterr().err
    assert "missing: old text found 0 times in optics.py: 'no such text'" in err
    assert "repeated: old text found" in err


def test_the_catalogue_covers_every_module():
    modules = {p.name for p in SRC.glob("*.py")} - {"__init__.py", "__main__.py"}
    assert len(mutants.CATALOGUE) >= 25
    assert {m.file for m in mutants.CATALOGUE} == modules
    assert len({m.name for m in mutants.CATALOGUE}) == len(mutants.CATALOGUE)
