"""The three benchmark workloads: seeded op streams, the op itself, and its check.

Every op is drawn from finite grids, so each has a known correct answer:
  analyzer  in-process `bsa` / `hom` CLI calls on the bundled circuits,
            checked against numbers kept in reference/analyzer.json;
  scale     `run_circuit` + `event_distribution` on fresh random circuits,
            checked against the dense oracle in `analysis`;
  field     in-process `field` CLI maps, checked point by point against a
            closed-form Hermite-Gaussian evaluation written out below.

Ops come in rounds of fixed composition (only the drawn parameters vary), so
a seed changes which ops run but not how much work a round holds.  The
library is reached through module attributes at call time, so the tracer's
wrappers are seen.
"""
from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import os
import random
from typing import Dict, List, Tuple

from bellsieve import analysis, cli, optics, twophoton

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference", "analyzer.json")

PUMPS = {"gauss": (0, 0), "hg01": (0, 1), "hg(1,2)": (1, 2), "hg(0,3)": (0, 3)}
WAIST = 1e-3              # CLI defaults, restated so the checks do not read them
PUMP_WAVELENGTH = 351.1e-9
PHOTON_WAVELENGTH = 702.2e-9
FILTER_FWHM = 1e-9
ABS_TOL = 1e-9            # probabilities are printed with 12 significant digits


class CheckFailed(Exception):
    pass


def _close(got: float, want: float, what: str, tol: float = ABS_TOL) -> None:
    if not abs(got - want) <= tol + 1e-9 * abs(want):
        raise CheckFailed(f"{what}: got {got!r}, want {want!r}")


def run_cli(argv: List[str]) -> Tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class Op:
    """One benchmark operation: `prepare` and `check` are not timed, `run` is."""

    __slots__ = ("kind", "args", "expect")

    def __init__(self, kind: str, args, expect):
        self.kind = kind
        self.args = args
        self.expect = expect


# ---------------------------------------------------------------------------
# analyzer


def _mixed_success(ref_state: dict, overlap: float) -> Dict[str, float]:
    """Success numbers at `overlap`: the mixed model is linear in the overlap."""
    out = {k: overlap * ref_state["o1"][k] + (1.0 - overlap) * ref_state["o0"][k]
           for k in ("success", "wrong", "discarded")}
    seen = out["success"] + out["wrong"]
    out["conditional"] = out["success"] / seen if seen > 0 else 0.0
    return out


class Analyzer:
    # per round: 102 bsa (85%), 17 for each of the three bsa kinds with each
    # of the two pumps, and 18 hom (15%), 9 per pump, in seeded order
    ROUND = tuple((kind, pump) for kind in ("all-bell", "all-hyper", "state")
                  for pump in ("gauss", "hg01") for _ in range(17)) \
        + tuple(("hom", pump) for pump in ("gauss", "hg01") for _ in range(9))
    SMOKE_ROUND = (("all-bell", None), ("all-hyper", None), ("state", None), ("hom", None))
    TRACE_ROUNDS = 2  # rounds in a traced run, a few seconds of ops on each workload
    CLI_OUTPUT = True

    def __init__(self):
        with open(REFERENCE, encoding="utf-8") as fh:
            self.ref = json.load(fh)

    @staticmethod
    def load_circuits(rng: random.Random) -> None:
        for name in ("incomplete_bsa", "complete_bsa"):
            cli.resolve_circuit(name)

    def round(self, rng: random.Random, smoke: bool) -> List[Op]:
        slots = list(self.SMOKE_ROUND if smoke else self.ROUND)
        rng.shuffle(slots)
        return [self._op(kind, pump or rng.choice(("gauss", "hg01")), rng)
                for kind, pump in slots]

    def _op(self, kind: str, pump: str, rng: random.Random) -> Op:
        if kind == "hom":
            state = rng.choice(twophoton.BELL_KINDS)
            span = rng.choice((300, 600, 900))
            step = rng.choice((10, 25, 50))
            sigma_um = rng.choice((None, 200.0, 493.0, 800.0))
            argv = ["hom", "--pump", pump, "--state", state, f"--delays=-{span}:{span}:{step}"]
            if sigma_um is not None:
                argv += ["--sigma-l", repr(sigma_um)]
            return Op("hom", argv, (pump, state, span, step, sigma_um))
        circuit = rng.choice(("incomplete_bsa", "complete_bsa")) if kind == "state" else (
            "incomplete_bsa" if kind == "all-bell" else "complete_bsa")
        argv = ["bsa", "--circuit", circuit, "--pump", pump]
        if kind == "state":
            label = rng.choice(twophoton.BELL_KINDS)
            if circuit == "complete_bsa":
                label = "hyper-" + label
            argv += ["--state", label]
        else:
            label = None
            argv.append("--all-bell" if circuit == "incomplete_bsa" else "--all-hyper")
        overlap = round(0.05 * rng.randint(0, 20), 2)
        policy = rng.choice(("strict", "renormalize"))
        fmt = rng.choice(("json", "csv"))
        argv += ["--overlap", repr(overlap), "--policy", policy, "--format", fmt]
        return Op("bsa", argv, (circuit, pump, label, overlap, policy, fmt))

    @staticmethod
    def prepare(op: Op) -> Op:
        return op

    @staticmethod
    def run(op: Op) -> Tuple[int, str]:
        return run_cli(op.args)

    def check(self, op: Op, result: Tuple[int, str]) -> None:
        code, text = result
        if code != 0:
            raise CheckFailed(f"exit code {code}")
        if op.kind == "hom":
            self._check_hom(op, text)
        else:
            self._check_bsa(op, text)

    def _check_hom(self, op: Op, text: str) -> None:
        pump, state, span, step, sigma_um = op.expect
        ref = self.ref["hom"][f"{pump}/{state}"]
        sigma_l = sigma_um * 1e-6 if sigma_um is not None else PHOTON_WAVELENGTH**2 / FILTER_FWHM
        lines = text.splitlines()
        if not lines[0].startswith("# ") or lines[1] != "delta_um,p_coinc":
            raise CheckFailed("hom header")
        rows = lines[2:]
        if len(rows) != 2 * span // step + 1:
            raise CheckFailed(f"hom row count {len(rows)}")
        for k, row in enumerate(rows):
            d_um, p = (float(x) for x in row.split(","))
            _close(d_um, -span + k * step, "hom delay")
            o = math.exp(-((d_um * 1e-6 / sigma_l) ** 2))
            _close(p, o * ref["p_int"] + (1.0 - o) * ref["p_dist"], f"hom p at {d_um}")

    def _check_bsa(self, op: Op, text: str) -> None:
        circuit, pump, label, overlap, policy, fmt = op.expect
        ref = self.ref["bsa"][f"{circuit}/{pump}"]
        kinds = list(twophoton.BELL_KINDS) if label is None else [label.replace("hyper-", "")]
        want = {(label or k): ref["entries"][k] for k in kinds}
        if fmt == "csv":
            lines = text.splitlines()
            if lines[0] != "state,event,probability":
                raise CheckFailed("csv header")
            got: Dict[str, Dict[str, float]] = {}
            for row in lines[1:]:
                lab, ev, p = row.split(",")
                got.setdefault(lab, {})[ev] = float(p)
            self._same_table(got, want)
            return
        doc = json.loads(text)
        m, n = PUMPS[pump]
        parity = 1 if n % 2 == 0 else -1
        if doc["circuit"] != circuit:
            raise CheckFailed("circuit name")
        if (doc["pump"]["m"], doc["pump"]["n"], doc["pump"]["joint_parity"]) != (m, n, parity):
            raise CheckFailed("pump block")
        _close(doc["pump"]["waist_m"], WAIST, "waist", 0.0)
        _close(doc["pump"]["wavelength_m"], PUMP_WAVELENGTH, "wavelength", 0.0)
        table = doc["signature_table"]
        if table["pump_parity"] != parity:
            raise CheckFailed("table pump parity")
        _close(table["overlap"], overlap, "table overlap", 0.0)
        self._same_table(table["entries"], want)
        report = doc["report"]
        if label is None:
            classes, bits, cbo = ref["classes"], ref["bits"], ref["coincidence_basis_only"]
        else:
            classes, bits = [[label]], 0.0
            cbo = all(a != b or p <= 1e-12 for e, p in want[label].items()
                      for a, b in [e.split("|")])
        if report["classes"] != classes or report["coincidence_basis_only"] != cbo:
            raise CheckFailed("report classes")
        _close(report["bits"], bits, "bits")
        if label is not None:
            if "success" in report:
                raise CheckFailed("single-state report carries a success block")
            return
        success = report["success"]
        if success["policy"] != policy or success["classes"] != classes:
            raise CheckFailed("success header")
        _close(success["overlap"], overlap, "success overlap", 0.0)
        per = {k: _mixed_success(ref["success"][k], overlap) for k in kinds}
        for k in kinds:
            for field, v in per[k].items():
                _close(success["per_state"][k][field], v, f"{k} {field}")
        avg_cond = sum(per[k]["conditional"] for k in kinds) / len(kinds)
        avg = avg_cond if policy == "renormalize" else \
            sum(per[k]["success"] for k in kinds) / len(kinds)
        _close(success["average"], avg, "average")
        _close(success["average_conditional"], avg_cond, "average_conditional")

    @staticmethod
    def _same_table(got: Dict[str, Dict[str, float]], want: Dict[str, Dict[str, float]]) -> None:
        if sorted(got) != sorted(want):
            raise CheckFailed(f"table labels {sorted(got)}")
        for lab, dist in want.items():
            if sorted(got[lab]) != sorted(dist):
                raise CheckFailed(f"events of {lab}")
            for ev, p in dist.items():
                _close(got[lab][ev], p, f"{lab} {ev}")


# ---------------------------------------------------------------------------
# scale

# no angle of 0 or 90: every PBS rotates the basis of its two paths, and each
# rotated path is turned back once later, so every circuit makes the same
# number of passes over the state
PBS_ANGLES = (22.5, 30.0, 45.0, 67.5, 135.0)
ORACLE_TOL = 1e-9
# element types per six elements of a scale circuit; a fixed mix (in seeded
# order, on seeded paths) keeps the cost of one circuit close to the next
ELEMENT_MIX = ("beam_splitter", "beam_splitter", "polarizing_bs", "wave_plate", "mirror", "delay")


def random_circuit_doc(rng: random.Random, n_paths: int, n_elements: int) -> dict:
    """Circuit document with every element type, all acting in place."""
    paths = [f"p{i}" for i in range(n_paths)]
    kinds = [ELEMENT_MIX[i % len(ELEMENT_MIX)] for i in range(n_elements)]
    rng.shuffle(kinds)
    elements = []
    for kind in kinds:
        if kind == "beam_splitter":
            p, q = rng.sample(paths, 2)
            elements.append({"type": kind, "in1": p, "in2": q, "out1": p, "out2": q,
                             "reflect_flips_y": rng.random() < 0.8})
        elif kind == "polarizing_bs":
            p, q = rng.sample(paths, 2)
            elements.append({"type": kind, "in1": p, "in2": q, "out_t": p, "out_r": q,
                             "basis_angle": rng.choice(PBS_ANGLES),
                             "reflect_flips_y": rng.random() < 0.8})
        elif kind == "wave_plate":
            elements.append({"type": kind, "path": rng.choice(paths),
                             "kind": rng.choice(("half", "quarter")),
                             "fast_axis": rng.uniform(0.0, 180.0)})
        elif kind == "mirror":
            elements.append({"type": kind, "path": rng.choice(paths)})
        else:
            elements.append({"type": kind, "path": rng.choice(paths),
                             "delta": rng.uniform(0.0, 1e-4)})
    return {"paths": paths, "elements": elements}


def random_state(rng: random.Random, paths) -> twophoton.TwoPhotonState:
    """Random amplitudes on every pair of h/v modes of both parities.

    The support is full from the start (2080 pair terms on 16 paths, 8256 on
    32) and stays full through a random circuit, so the engine's cost per
    element is nearly the same on every circuit; a state of a few terms would
    grow to a support, and a cost, that varies by an order of magnitude.
    """
    modes = [twophoton.PhotonMode(p, pol, par)
             for p in paths for pol in (twophoton.H, twophoton.V)
             for par in (twophoton.EVEN, twophoton.ODD)]
    terms = {(modes[i], modes[j]): complex(rng.gauss(0, 1), rng.gauss(0, 1))
             for i in range(len(modes)) for j in range(i, len(modes))}
    norm = math.sqrt(sum(abs(a) ** 2 for a in terms.values()))
    return twophoton.make_state({k: a / norm for k, a in terms.items()})


def hv_layout(paths) -> analysis.DetectorLayout:
    return analysis.layout_from_json({"detectors": [
        {"id": f"{p}_{port}", "path": p, "port": port} for p in paths for port in ("H", "V")]})


class Scale:
    # per round: 17 circuits of 16 paths and 3 of 32 paths, six elements
    # each; a 32-path op costs about 4.7 times a 16-path one, so p50 falls
    # in the middle of the small ones and p90 inside the big ones rather
    # than in the noisy tail of the small ones
    ROUND = ((16, 6),) * 17 + ((32, 6),) * 3
    SMOKE_ROUND = ((4, 6),) * 3 + ((6, 12),)
    TRACE_ROUNDS = 2
    CLI_OUTPUT = False

    @staticmethod
    def load_circuits(rng: random.Random) -> None:
        for n_paths, n_el in Scale.ROUND:
            optics.circuit_from_json(random_circuit_doc(rng, n_paths, n_el))

    def round(self, rng: random.Random, smoke: bool) -> List[Op]:
        return [Op("engine", (n_paths, n_el, rng.getrandbits(64)), None)
                for n_paths, n_el in (self.SMOKE_ROUND if smoke else self.ROUND)]

    @staticmethod
    def prepare(op: Op) -> Op:
        """Build the op's circuit, input state and oracle output from its seed.

        Inputs are built one op at a time, just before the op, so the
        process's peak memory is set by the op and not by a round of inputs;
        the oracle runs here rather than in the check for the same reason.
        """
        n_paths, n_el, seed = op.args
        rng = random.Random(seed)
        circuit = optics.circuit_from_json(random_circuit_doc(rng, n_paths, n_el))
        state = random_state(rng, circuit.paths)
        reference = analysis.oracle_apply(circuit, state, max_modes=4 * len(circuit.paths))
        return Op("engine", (circuit, state, hv_layout(circuit.paths)), reference)

    @staticmethod
    def run(op: Op):
        circuit, state, layout = op.args
        out = optics.run_circuit(circuit, state)
        return out, analysis.event_distribution(out, layout)

    @staticmethod
    def check(op: Op, result) -> None:
        out, events = result
        _close(sum(events.values()), 1.0, "event probabilities")
        # the comparison analysis.oracle_check makes, applied to the timed output
        # instead of a second engine run; max_modes covers every path
        engine = twophoton.rebase_all(out, twophoton.H)
        if not twophoton.equal_up_to_global_phase(engine, op.expect, ORACLE_TOL):
            raise CheckFailed("engine output differs from the dense oracle")


# ---------------------------------------------------------------------------
# field

_HERMITE = (  # physicists' Hermite polynomials H_0..H_3 in closed form
    lambda u: 1.0,
    lambda u: 2.0 * u,
    lambda u: 4.0 * u * u - 2.0,
    lambda u: 8.0 * u ** 3 - 12.0 * u,
)


def hg_closed_form(m: int, n: int, x: float, y: float, z: float) -> complex:
    """Normalized HG_mn pump field at (x, y, z) from the textbook formula."""
    zr = math.pi * WAIST ** 2 / PUMP_WAVELENGTH
    w = WAIST * math.sqrt(1.0 + (z / zr) ** 2)
    k = 2.0 * math.pi / PUMP_WAVELENGTH
    norm = math.sqrt(2.0 / math.pi / (2.0 ** (m + n) * math.factorial(m) * math.factorial(n))) / w
    r2 = x * x + y * y
    env = norm * _HERMITE[m](math.sqrt(2.0) * x / w) * _HERMITE[n](math.sqrt(2.0) * y / w) \
        * math.exp(-r2 / w ** 2)
    phase = -k * r2 * z / (2.0 * (z * z + zr * zr)) - (m + n + 1) * math.atan2(z, zr)
    return env * cmath.exp(1j * phase)


def coincidence_closed_form(kind: str, m: int, n: int, x1, y1, x2, y2, z) -> complex:
    k = 2.0 * math.pi / PUMP_WAVELENGTH
    pref = cmath.exp(1j * k / (2.0 * z) * ((x1 - x2) ** 2 + (y1 - y2) ** 2))
    xm, ym = 0.5 * (x1 + x2), 0.5 * (y1 + y2)
    sign = 1.0 if kind == "psi-" else -1.0
    return pref * (hg_closed_form(m, n, xm, ym, z) + sign * hg_closed_form(m, n, xm, -ym, z))


class Field:
    # per round: 40 maps with sides from 21 to 201 as (lowest side, highest
    # side, pump) slots; a pump of None cycles over all four by slot index.
    # A map's cost goes as side^2 times a pump factor (1 gauss, 1.2 hg01,
    # 1.7 hg(1,2) and hg(0,3)), so the 8 gauss maps of side 47 cost more than
    # every smaller map and less than every larger one, and hold p50 inside
    # them; the 5 hg01 maps of side 71 hold p90 the same way.  The seed then
    # moves neither percentile.  One large map per round keeps a few long
    # ops from dominating the total, and it is always the same one (201,
    # which sets peak memory; its state is fixed too, because psi- maps are
    # zero on half the grid and print shorter rows).  A fourth entry, when
    # present, fixes the slot's Bell state.
    ROUND = ((21, 33, None),) * 16 + ((47, 47, "gauss"),) * 8 + ((51, 57, None),) * 10 \
        + ((71, 71, "hg01"),) * 5 + ((201, 201, "gauss", "phi+"),)
    SMOKE_ROUND = ((5, 9, None),) * 3 + ((11, 15, None),)
    SAMPLES = 24  # points checked per map
    TRACE_ROUNDS = 1
    CLI_OUTPUT = True

    @staticmethod
    def load_circuits(rng: random.Random) -> None:
        pass  # field maps use no circuit

    def round(self, rng: random.Random, smoke: bool) -> List[Op]:
        ops = []
        for i, (lo, hi, pump, *state) in enumerate(self.SMOKE_ROUND if smoke else self.ROUND):
            side = rng.randrange(lo, hi + 1, 2)
            pump = pump or tuple(PUMPS)[i % len(PUMPS)]
            kind = state[0] if state else rng.choice(twophoton.BELL_KINDS)
            z = rng.choice((0.1, 0.25, 0.5, 1.0, 2.0))
            half = rng.choice((0.002, 0.003, 0.004))
            x2, y2 = rng.choice((0.0, 5e-4, -5e-4)), rng.choice((0.0, 5e-4, -5e-4))
            argv = ["field", "--pump", pump, "--state", kind, "--z", repr(z),
                    f"--grid=-{half}:{half}:{side}", "--x2", repr(x2), "--y2", repr(y2)]
            samples = [rng.randrange(side * side) for _ in range(self.SAMPLES)]
            ops.append(Op("field", argv, (pump, kind, z, half, side, x2, y2, samples)))
        return ops

    @staticmethod
    def prepare(op: Op) -> Op:
        return op

    @staticmethod
    def run(op: Op) -> Tuple[int, str]:
        return run_cli(op.args)

    @staticmethod
    def check(op: Op, result: Tuple[int, str]) -> None:
        code, text = result
        if code != 0:
            raise CheckFailed(f"exit code {code}")
        pump, kind, z, half, side, x2, y2, samples = op.expect
        m, n = PUMPS[pump]
        # the output is searched in place rather than split into rows, so the
        # check allocates little next to the op's own output
        rows = text.count("\n") - 2
        if rows != side * side or not text.endswith("\n"):
            raise CheckFailed(f"field row count {rows}")
        header_end = text.index("\n")
        row_pos = text.index("\n", header_end + 1) + 1
        if not text.startswith(f"# pump=hg{m}{n} state={kind} ") \
                or text[header_end + 1:row_pos - 1] != "x1_m,y1_m,re,im,abs2":
            raise CheckFailed("field header")
        starts, row = {}, 0
        for idx in sorted(set(samples)):
            while row < idx:
                row_pos = text.index("\n", row_pos) + 1
                row += 1
            starts[idx] = row_pos
        step = 2.0 * half / (side - 1)
        zr = math.pi * WAIST ** 2 / PUMP_WAVELENGTH
        scale = 2.0 / (WAIST * math.sqrt(1.0 + (z / zr) ** 2))  # bound on |amplitude|
        for idx in samples:
            iy, ix = divmod(idx, side)
            x1, y1 = -half + ix * step, -half + iy * step
            start = starts[idx]
            vals = [float(v) for v in text[start:text.index("\n", start)].split(",")]
            _close(vals[0], x1, "x1", 1e-12)
            _close(vals[1], y1, "y1", 1e-12)
            want = coincidence_closed_form(kind, m, n, x1, y1, x2, y2, z)
            _close(vals[2], want.real, f"re at {idx}", 1e-9 * scale)
            _close(vals[3], want.imag, f"im at {idx}", 1e-9 * scale)
            _close(vals[4], abs(want) ** 2, f"abs2 at {idx}", 1e-9 * scale ** 2)


WORKLOADS: Dict[str, type] = {"analyzer": Analyzer, "scale": Scale, "field": Field}
