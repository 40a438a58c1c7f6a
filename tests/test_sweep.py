"""The output comparator of `tests/sweep.py --against`, on hand-made outputs."""
import math

from sweep import compare, deviation

BSA_JSON = ["bsa", "--circuit", "x", "--all-bell"]
BSA_CSV = ["bsa", "--circuit", "x", "--all-bell", "--format", "csv"]
HOM = ["hom", "--state", "psi-"]


def test_identical_outputs_are_identical():
    assert compare(HOM, (0, "delta_um,p_coinc\n0,0.5\n", ""), (0, "delta_um,p_coinc\n0,0.5\n", "")) \
        is None


def test_json_numbers_within_the_tolerance_move():
    ours = (0, '{"p": 0.30000000000000004, "n": [1, "a"]}', "")
    theirs = (0, '{"p": 0.3, "n": [1, "a"]}', "")
    verdict, dev = compare(BSA_JSON, ours, theirs)
    assert verdict == "moved" and 0 < dev <= 1e-15


def test_anything_else_differs():
    assert compare(BSA_JSON, (0, '{"p": 0.3001}', ""), (0, '{"p": 0.3}', ""))[0] == "differs"
    assert compare(BSA_JSON, (0, '{"q": 0.3}', ""), (0, '{"p": 0.3}', ""))[0] == "differs"
    assert compare(BSA_CSV, (0, "a,0.30000000000000004\n", ""), (0, "a,0.3\n", ""))[0] == "differs"
    assert compare(HOM, (2, "", "error: x\n"), (0, "", ""))[0] == "differs"
    assert compare(HOM, (2, "", "error: x\n"), (2, "", "error: y\n"))[0] == "differs"


def test_deviation_needs_the_same_shape():
    assert deviation({"a": [1, 2.5]}, {"a": [1, 2.5]}) == 0.0
    assert deviation([1, 2], [1, 2, 3]) == math.inf
    assert deviation({"a": True}, {"a": 1}) == math.inf
    assert deviation({"a": 1, "b": 2}, {"b": 2, "a": 1}) == math.inf
