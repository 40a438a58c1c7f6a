"""Mutation catalogue: faults in `src/` that the test suite must catch.

    python tests/mutants.py [NAME ...]

Each entry names a fault, what it breaks, and its edits: a file under
`src/bellsieve/`, the exact old text and the new text.  For each entry (or
only the named ones) the tool copies `src/`, `tests/` and `pyproject.toml` to
a temporary directory (no git, no network), applies the edits there and runs
`pytest -x -q -p no:cacheprovider tests`, or the one test the entry names.
Per entry it prints killed or survived, the first failing test and the time.

It exits 1 when a mutant survives.  It also exits 1, before running
anything, when an entry's old text is not found exactly once in its file, so
that a refactor cannot quietly turn an entry into a no-op.  A full run takes
a few minutes; pytest does not collect this file.
"""
from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
C6 = "tests/test_acceptance.py::test_c6_oracle_equivalence_on_random_circuits"


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/bellsieve
    old: str
    new: str
    breaks: str
    also: Tuple[Tuple[str, str, str], ...] = ()  # more (file, old, new) edits of the same fault
    target: str = "tests"  # what must kill it

    def edits(self) -> Tuple[Tuple[str, str, str], ...]:
        return ((self.file, self.old, self.new),) + self.also


QWP_ENGINE = ("optics.py", "delta = math.pi if kind == \"half\" else math.pi / 2.0",
              "delta = math.pi if kind == \"half\" else -math.pi / 2.0")
QWP_ORACLE = ("oracle.py", "half = (math.pi if kind == \"half\" else math.pi / 2.0) / 2.0",
              "half = (math.pi if kind == \"half\" else -math.pi / 2.0) / 2.0")

CATALOGUE: Tuple[Mutant, ...] = (
    # twophoton: the pair form, pump parity and basis changes
    Mutant("pair-matrix-diagonal-without-sqrt2", "twophoton.py",
           "amps[i == j] *= SQRT2", "amps[i == j] *= 1.0",
           "W's diagonal is sqrt(2) times a doubly occupied mode's amplitude"),
    Mutant("exit-drops-the-diagonal", "twophoton.py",
           "upper = i <= j", "upper = i < j",
           "states leaving W lose their doubly occupied modes"),
    Mutant("exit-keeps-the-diagonal-sqrt2", "twophoton.py",
           "diagonal /= SQRT2", "diagonal /= 1.0",
           "states leaving W keep sqrt(2) on doubly occupied modes"),
    Mutant("odd-pump-antisymmetric", "twophoton.py",
           "out[k] = out.get(k, 0j) + a / SQRT2",
           "out[k] = out.get(k, 0j) + (a if pa == EVEN else -a) / SQRT2",
           "an odd pump attaches (even, odd) - (odd, even) instead of the sum"),
    Mutant("basis-map-angle-sign", "twophoton.py",
           "cosd(m.pol - axis)) for axis in basis)", "cosd(m.pol + axis)) for axis in basis)",
           "rebases write a photon at -a instead of a"),
    Mutant("angle-rounded-to-3-decimals", "twophoton.py",
           "a = round(a, 9)", "a = round(a, 3)",
           "polarization angles lose their sixth decimal"),
    # optics: element rules, the engine and the circuit schema
    Mutant("bs-reflection-minus-i", "optics.py",
           "refl = 1j * _sigma(m.parity, self.reflect_flips_y) / SQRT2",
           "refl = -1j * _sigma(m.parity, self.reflect_flips_y) / SQRT2",
           "the beam splitter's reflection phase"),
    Mutant("sigma-ignores-parity", "optics.py",
           "return -1.0 if (flips and parity == ODD) else 1.0", "return 1.0",
           "odd photons keep their sign on reflection: no pump-parity inversion"),
    Mutant("pbs-sigma-ignores-parity", "optics.py",
           "amps = (1.0, 1j * _sigma(m.parity, self.reflect_flips_y))", "amps = (1.0, 1j)",
           "a PBS reflection ignores the photon's parity"),
    Mutant("fresh-output-check-dropped", "optics.py",
           "if fresh.size and c[fresh].any():", "if False:",
           "an element writes over light already on its fresh output path"),
    Mutant("qwp-retardance-minus-pi-over-2", *QWP_ENGINE,
           "the engine's quarter-wave plate delays the fast axis; C6 alone must see it",
           target=C6),
    Mutant("input-column-abs-cos", "optics.py",
           "= [cosd(m.pol - pol) for m in occupied]",
           "= [abs(cosd(m.pol - pol)) for m in occupied]",
           "an input photon at an angle in (90, 180) enters as its mirror image"),
    Mutant("no-renormalization", "optics.py",
           "w /= norms[:, None, None]", "w /= 1.0",
           "engine outputs are not renormalized to 1"),
    Mutant("version-float-accepted", "optics.py",
           "if not isinstance(version, int) or isinstance(version, bool):",
           "if not isinstance(version, (int, float)):",
           "a circuit document's version 1.7 is read as 1"),
    # analysis: detection, classification, scoring and the overlap model
    Mutant("detection-keeps-doubles-sqrt2", "analysis.py",
           "amps[:, i == j] /= SQRT2", "amps[:, i == j] /= 1.0",
           "two photons at one detector count twice"),
    Mutant("event-cut-at-1e-6", "analysis.py",
           "k, e = np.nonzero(probs > PRUNE_TOL ** 2)", "k, e = np.nonzero(probs > 1e-6)",
           "events below 1e-6 vanish from the signature tables"),
    Mutant("doubles-assignable", "analysis.py",
           "            if ev[0] == ev[1]:\n                discarded += p\n                continue\n",
           "",
           "two photons at one detector are scored as a class assignment"),
    Mutant("classify-needs-two-shared-events", "analysis.py",
           "if supports[a] & supports[b]:", "if len(supports[a] & supports[b]) >= 2:",
           "inputs that share one event are told apart"),
    Mutant("overlap-model-width-doubled", "analysis.py",
           "return math.exp(-((delta / self.sigma_l) ** 2))",
           "return math.exp(-((delta / (2 * self.sigma_l)) ** 2))",
           "the HOM dip is twice as wide"),
    Mutant("coincidence-basis-threshold", "analysis.py",
           "if d1 == d2 and p > SUPPORT_TOL:", "if d1 == d2 and p > 0.3:",
           "an analyzer that bunches a quarter of the time passes as coincidence-only"),
    # hgmodes: the coincidence-amplitude field
    Mutant("field-bracket-swapped", "hgmodes.py",
           "bracket = w_plus + w_minus if kind == \"psi-\" else w_plus - w_minus",
           "bracket = w_plus + w_minus if kind == \"psi+\" else w_plus - w_minus",
           "psi+ and psi- swap their amplitude fields"),
    Mutant("field-prefactor-sign", "hgmodes.py",
           "pref = np.exp(1j * k / (2.0 * z)", "pref = np.exp(-1j * k / (2.0 * z)",
           "the two-photon phase factor turns the other way"),
    Mutant("gouy-order", "hgmodes.py",
           "- (mode.m + mode.n + 1) * gouy_phase(mode, z))",
           "- (mode.m + mode.n) * gouy_phase(mode, z))",
           "the Gouy phase of an HG_mn mode is that of order m + n - 1"),
    # cli: report fields and error attribution
    Mutant("bsa-json-writes-m-for-n", "cli.py",
           "\"n\": pump.mode.n,", "\"n\": pump.mode.m,",
           "the bsa report names the wrong pump mode"),
    Mutant("field-blames-the-waist-for-z", "cli.py",
           "culprit = f\"detection plane z {_fmt(args.z)} m\"",
           "culprit = f\"waist {_fmt(args.waist)} m\"",
           "a field map out of range at its detection plane names the waist"),
    # oracle: the second derivation must fail on its own
    Mutant("oracle-qwp-minus-pi-over-2", *QWP_ORACLE,
           "the oracle's quarter-wave plate delays the fast axis; C6 alone must see it",
           target=C6),
    Mutant("oracle-and-engine-qwp-minus-pi-over-2", *QWP_ORACLE,
           "both derivations share one wrong quarter-wave plate, which C6 cannot see "
           "and a fixed answer must", also=(QWP_ENGINE,)),
    Mutant("oracle-bs-reflection-minus-i", "oracle.py",
           "put(m, cross, m.pol, 1j * s / SQRT2)", "put(m, cross, m.pol, -1j * s / SQRT2)",
           "the oracle's beam splitter reflection phase", target=C6),
    Mutant("oracle-mirror-no-sign", "oracle.py",
           "put(m, el.path, m.pol, -1.0)", "put(m, el.path, m.pol, 1.0)",
           "the oracle's mirror leaves odd photons unsigned"),
    Mutant("oracle-pol-vec-sign", "oracle.py",
           "return np.array([np.cos(rad), np.sin(rad)])",
           "return np.array([np.cos(rad), -np.sin(rad)])",
           "the oracle expands a photon at a as one at -a"),
)


def check(catalogue: Sequence[Mutant], root: Path = ROOT) -> List[str]:
    """One line per edit whose old text is not found exactly once."""
    problems = []
    for m in catalogue:
        for file, old, _ in m.edits():
            count = (root / "src" / "bellsieve" / file).read_text(encoding="utf-8").count(old)
            if count != 1:
                problems.append(f"{m.name}: old text found {count} times in {file}: {old!r}")
    return problems


def _failing_test(output: str) -> str:
    found = re.search(r"^(?:FAILED|ERROR) (\S+)", output, re.MULTILINE)
    return found.group(1) if found else "(no test named in the pytest output)"


def run(m: Mutant, root: Path = ROOT) -> Tuple[Optional[bool], str, float]:
    """(killed, the first failing test, seconds); killed is None if pytest
    itself could not run."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
        for tree in ("src", "tests"):
            shutil.copytree(root / tree, copy / tree, ignore=skip)
        shutil.copy(root / "pyproject.toml", copy / "pyproject.toml")
        for file, old, new in m.edits():
            path = copy / "src" / "bellsieve" / file
            path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        env.pop("BELLSIEVE_FIXTURES", None)
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               m.target], cwd=copy, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    if proc.returncode == 0:
        return False, "", seconds
    if proc.returncode in (1, 2):  # tests failed, or collection or import failed
        return True, _failing_test(proc.stdout), seconds
    return None, f"pytest exited {proc.returncode}: {proc.stdout[-300:]}", seconds


def main(argv: Optional[Sequence[str]] = None, catalogue: Sequence[Mutant] = CATALOGUE,
         root: Path = ROOT) -> int:
    names = list(sys.argv[1:] if argv is None else argv)
    unknown = set(names).difference(m.name for m in catalogue)
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 1
    chosen = [m for m in catalogue if not names or m.name in names]
    problems = check(chosen, root)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    survived = failed = 0
    start = time.perf_counter()
    for m in chosen:
        killed, test, seconds = run(m, root)
        status = {True: "killed", False: "SURVIVED", None: "ERROR"}[killed]
        survived += killed is False
        failed += killed is None
        print(f"{status:8s} {m.name:40s} {seconds:6.1f} s  {test or m.breaks}", flush=True)
    print(f"{len(chosen) - survived - failed} killed, {survived} survived, {failed} errors "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if survived or failed else 0


if __name__ == "__main__":
    sys.exit(main())
