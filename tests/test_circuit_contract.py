"""The input contract of `bellsieve bsa --circuit FILE` over circuit documents.

A bundled circuit, with its detector layout, has its top-level fields and
its elements' fields replaced by arbitrary JSON values (strings, booleans,
integers, finite and non-finite floats, lists, null) or removed.  Every such
document either gives an output of finite numbers with exit 0, or exits 2
or 3 with one line on stderr; no exception escapes `cli.main`.
"""
import contextlib
import io
import json
import math
import os
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellsieve import cli
from bellsieve.optics import ELEMENT_TYPES

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "bellsieve" / "fixtures"
BASES = {name: json.loads((FIXTURES / f"{name}.json").read_text())
         for name in ("incomplete_bsa", "complete_bsa")}
MODES = {"incomplete_bsa": "--all-bell", "complete_bsa": "--all-hyper"}  # the inputs each takes
TOP_FIELDS = ("paths", "elements", "inputs", "name", "version", "layout")
ELEMENT_FIELDS = ("type",) + tuple(sorted({f for cls in ELEMENT_TYPES.values()
                                           for f in cls.__dataclass_fields__}))
PATHS = sorted({p for doc in BASES.values() for p in doc["paths"]})
MISSING = "<missing>"  # a field drawn as this is removed from the document

scalar = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                   st.text(max_size=4), st.sampled_from(PATHS + sorted(ELEMENT_TYPES)))
json_value = st.recursive(scalar, lambda inner: st.lists(inner, max_size=3), max_leaves=6)
edit_value = st.one_of(st.just(MISSING), json_value)


def _apply(fields: dict, edits: dict) -> None:
    for key, value in edits.items():
        if value == MISSING:
            fields.pop(key, None)
        else:
            fields[key] = value


def run_bsa(doc, mode):
    """In-process `bsa` call on `doc` written to a file: (exit code, stdout, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "circuit.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)  # NaN and Infinity as Python's json writes and reads them
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code = cli.main(["bsa", "--circuit", path, mode])
    return code, out.getvalue(), err.getvalue()


def _numbers(value):
    if isinstance(value, dict):
        for v in value.values():
            yield from _numbers(v)
    elif isinstance(value, list):
        for v in value:
            yield from _numbers(v)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(base=st.sampled_from(sorted(BASES)),
       top=st.dictionaries(st.sampled_from(TOP_FIELDS), edit_value, max_size=1),
       elements=st.lists(st.tuples(st.integers(0, 7),
                                   st.dictionaries(st.sampled_from(ELEMENT_FIELDS), edit_value,
                                                   min_size=1, max_size=2)), max_size=3))
@example(base="incomplete_bsa", top={"inputs": "12"}, elements=[])
@example(base="incomplete_bsa", top={"inputs": 5}, elements=[])
@example(base="incomplete_bsa", top={"name": ["a"]}, elements=[])
@example(base="incomplete_bsa", top={"version": 1.7}, elements=[])
@example(base="incomplete_bsa", top={"version": math.inf}, elements=[])
@example(base="incomplete_bsa", top={},
         elements=[(0, {"reflect_flips_y": "false"})])
@example(base="complete_bsa", top={},
         elements=[(5, {"fast_axis": math.nan})])
def test_bsa_gives_finite_numbers_or_one_error_line(base, top, elements):
    doc = json.loads(json.dumps(BASES[base]))
    _apply(doc, top)
    if isinstance(doc.get("elements"), list):
        for index, edits in elements:
            if index < len(doc["elements"]) and isinstance(doc["elements"][index], dict):
                _apply(doc["elements"][index], edits)
    code, out, err = run_bsa(doc, MODES[base])
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
        assert all(math.isfinite(x) for x in _numbers(json.loads(out)))
        return
    assert code in (2, 3) and out == "", (code, err)
    assert len(err.splitlines()) == 1, err
