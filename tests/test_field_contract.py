"""The input contract of `bellsieve field` over its numeric arguments.

Every finite grid, detection plane and second-detector position either gives
a map of finite numbers, or exits 2 with one line on stderr; no numpy warning
escapes (the pytest config turns a RuntimeWarning into an error, and the test
does so itself as well).  Values are passed as `--opt=value`, so that a
negative value is not read as an option.
"""
import contextlib
import io
import math
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellsieve import cli

PUMPS = ("gauss", "hg01", "hg(1,2)", "hg(0,3)")
KINDS = ("psi+", "psi-", "phi+", "phi-")

finite = st.floats(allow_nan=False, allow_infinity=False)
# every finite float can be drawn; a share of draws lands where maps succeed
coordinate = st.one_of(st.floats(-0.01, 0.01), finite)
plane = st.one_of(st.floats(0.01, 10.0), finite)
bounds = st.tuples(coordinate, coordinate).map(sorted)  # min <= max; equal ones exit 2


def run_field(pump, kind, lo, hi, side, z, x2, y2):
    """In-process `field` call: (exit code, stdout, stderr)."""
    argv = ["field", f"--pump={pump}", f"--state={kind}", f"--grid={lo!r}:{hi!r}:{side}",
            f"--z={z!r}", f"--x2={x2!r}", f"--y2={y2!r}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse refuses a value
                code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(pump=st.sampled_from(PUMPS), kind=st.sampled_from(KINDS), grid=bounds,
       side=st.integers(2, 5), z=plane, x2=coordinate, y2=coordinate)
@example(pump="gauss", kind="psi+", grid=(0.0, 1.0), side=2, z=0.001, x2=0.0,
         y2=1.4174190271400286e+149)
@example(pump="hg01", kind="psi+", grid=(-0.003, 0.003), side=2, z=0.5, x2=1e155, y2=0.0)
@example(pump="gauss", kind="psi+", grid=(-1e160, 1e160), side=3, z=0.5, x2=0.0, y2=0.0)
@example(pump="gauss", kind="psi+", grid=(-1e308, 1e308), side=3, z=0.5, x2=0.0, y2=0.0)
@example(pump="gauss", kind="phi-", grid=(-8.988465674311579e+307, 8.988465674311579e+307),
         side=4, z=0.5, x2=0.0, y2=0.0)
def test_field_gives_finite_rows_or_one_error_line(pump, kind, grid, side, z, x2, y2):
    code, out, err = run_field(pump, kind, *grid, side, z, x2, y2)
    if code == 0:
        assert err == ""
        rows = out.splitlines()[2:]
        assert len(rows) == side * side
        assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))
        return
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1, err
    if "pump order" in err:
        # the order is blamed only where a Gaussian pump would not fail, and
        # only if the map fails with the second detector on the axis as well
        assert pump != "gauss", err
        assert run_field(pump, kind, *grid, side, z, 0.0, 0.0)[0] == 2, err
