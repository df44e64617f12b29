"""Workload inputs, runners and correctness checks for the erestab benchmark.

Each workload turns a seed into inputs, runs them through erestab's public
entry points, and checks the outputs.  Every seed is checked against
invariants that hold whatever the inputs; the default seed is also checked
against the reference outputs recorded under ``reference/``.

The seed only jitters grid offsets and the curve row, by a small fraction of
a grid step.  The work per pass therefore stays the same from seed to seed
while no seed repeats the inputs of another: the same number of points, no
point moved onto a separation curve or across a fallback basin boundary,
and eccentricities that move by less than 0.003.  The last matters because
the dense eigensolve of the Morse operator costs up to four times more at
some eccentricities than at others (about 0.30 s at e = 0.1 and 0.08 s at
e = 0.5 for K = 128 on the machine described in NOTES.md).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import erestab.cli
import erestab.scan

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
DEFAULT_SEED = 0
SETTINGS = erestab.scan.ScanSettings()

# Relative tolerance for floats compared with the reference.  Outputs are
# deterministic on one machine; the slack covers last-digit differences of
# another BLAS build, far below anything that changes a verdict.
FLOAT_TOL = 1e-9
SYMPLECTIC_TOL = 1e-6
CURVE_RESOLUTION = 0.01
STABLE_VERDICTS = {"StronglyLinearlyStable", "LinearlyStable", "SpectrallyStableNotLinear"}
VERDICTS = STABLE_VERDICTS | {"Hyperbolic", "Unstable"}


@dataclass
class Outcome:
    """Checked result of one pass: points attempted, points failed, why."""

    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    csv_bytes: int = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(message)


def _jittered(rng: random.Random, count: int, low: float, high: float,
              jitter: float) -> list[float]:
    """``count`` cell centres of [low, high], shifted by up to ``jitter`` of a step."""
    step = (high - low) / count
    shift = jitter * (2.0 * rng.random() - 1.0)
    return [low + (k + 0.5 + shift) * step for k in range(count)]


def _num(values) -> str:
    return ",".join(f"{v:.17g}" for v in values)


def _read_csv(text: str) -> tuple[str, list[dict]]:
    head, _, body = text.partition("\n")
    return head, list(csv.DictReader(io.StringIO(body)))


def _digest_header(kind: str) -> str:
    return f"# erestab {kind} csv v{erestab.cli.SCHEMA_VERSION} settings={SETTINGS.digest()}"


def _same(got: str | None, want: str | None) -> bool:
    if got == want:
        return True
    try:
        a, b = float(got), float(want)
    except (TypeError, ValueError):
        return False
    return abs(a - b) <= FLOAT_TOL * max(1.0, abs(b))


def _same_row(row: dict, ref: dict) -> bool:
    return row.keys() == ref.keys() and all(_same(row[k], ref[k]) for k in ref)


def _run_cli(argv: list[str]) -> None:
    """Call ``erestab.cli.main`` the way the console script does, quietly."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = erestab.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"erestab {argv[0]} exited with code {code}")


class CsvWorkload:
    """A CLI sweep that writes a CSV; output is the CSV text."""

    name = ""
    kind = ""

    @staticmethod
    def counted(row: dict) -> bool:
        """Whether a row is one of the points the workload attempts."""
        return True

    def reference_path(self) -> Path:
        return REFERENCE_DIR / f"{self.name}.csv"

    def load_reference(self):
        return self.reference_path().read_text()

    def save_reference(self, output: str) -> None:
        self.reference_path().write_text(output)

    def run(self, inputs: dict, workdir: Path) -> str:
        path = workdir / f"{self.name}.csv"
        _run_cli(self.argv(inputs) + ["--csv", str(path)])
        return path.read_text()

    def check(self, output: str, inputs: dict, reference: str | None) -> Outcome:
        head, rows = _read_csv(output)
        outcome = self.check_rows(rows, inputs)
        outcome.csv_bytes = len(output.encode())
        if head != _digest_header(self.kind):
            outcome.fail(f"header {head!r} does not carry ScanSettings().digest()")
        if reference is not None:
            ref_head, ref_rows = _read_csv(reference)
            if head != ref_head or len(rows) != len(ref_rows):
                outcome.fail("output shape differs from the reference")
            for row, ref in zip(rows, ref_rows):
                if self.counted(ref) and not _same_row(row, ref):
                    outcome.fail(f"row differs from the reference: {row}")
        return outcome


class ThetaGrid(CsvWorkload):
    """``scan-theta`` on a (beta, e) grid over [0, 9] x [0, 0.9]."""

    name = "theta-grid"
    kind = "scan-theta"
    size = (4, 3)
    smoke_size = (2, 1)

    def inputs(self, seed: int, smoke: bool = False) -> dict:
        rng = random.Random(seed)
        nb, ne = self.smoke_size if smoke else self.size
        return {
            "beta": _jittered(rng, nb, 0.0, 9.0, 0.01),
            "e": _jittered(rng, ne, 0.0, 0.9, 0.01),
        }

    def argv(self, inputs: dict) -> list[str]:
        return ["scan-theta", "--beta", _num(inputs["beta"]), "--e", _num(inputs["e"])]

    def check_rows(self, rows: list[dict], inputs: dict) -> Outcome:
        expected = [(b, e) for e in inputs["e"] for b in inputs["beta"]]
        outcome = Outcome(attempted=len(expected))
        if len(rows) != len(expected):
            outcome.fail(f"{len(rows)} rows for {len(expected)} grid points")
            return outcome
        for row, (beta, e) in zip(rows, expected):
            problem = self._row_problem(row, beta, e)
            if problem:
                outcome.fail(f"beta={beta:.6g} e={e:.6g}: {problem}")
        return outcome

    @staticmethod
    def _row_problem(row: dict, beta: float, e: float) -> str | None:
        if not (_same(row["beta"], repr(beta)) and _same(row["e"], repr(e))):
            return "row out of grid order"
        if row["error"] or row["verdict"] not in VERDICTS:
            return f"verdict {row['verdict']!r} error {row['error']!r}"
        for key in ("phi_1", "nu_1", "phi_m1", "nu_m1"):
            if not row[key].isdigit():
                return f"{key} = {row[key]!r} is not a count"
        if not float(row["sympl_residual"]) < SYMPLECTIC_TOL:
            return f"symplectic residual {row['sympl_residual']}"
        moduli = [
            math.hypot(float(row[f"eig{i}_re"]), float(row[f"eig{i}_im"])) for i in range(1, 5)
        ]
        on_circle = sum(abs(m - 1.0) < SETTINGS.circle_tol for m in moduli)
        if on_circle == 0:
            allowed = {"Hyperbolic"}
        elif on_circle < 4:
            allowed = {"Unstable"}
        else:
            allowed = STABLE_VERDICTS
        if row["verdict"] not in allowed:
            return f"verdict {row['verdict']} with {on_circle} multipliers on the circle"
        return None


class MassPlane(CsvWorkload):
    """``scan-mass`` at e = 0 on a symmetric (m1, m3) grid."""

    name = "mass-plane"
    kind = "scan-mass"
    size = 14
    smoke_size = 3

    def inputs(self, seed: int, smoke: bool = False) -> dict:
        rng = random.Random(seed)
        n = self.smoke_size if smoke else self.size
        # An offset near a quarter step keeps every cell a quarter step away
        # from the inadmissible diagonal m1 + m3 = 1.  Whether the off-line
        # equilibrium needs its fallback flips at basin boundaries, at some
        # cells within 1e-3 of a step; the jitter stays well inside that, so
        # every seed runs the same number of fallbacks.
        step = 1.0 / n
        shift = 0.25 + 2e-4 * (2.0 * rng.random() - 1.0)
        return {"m": [(k + shift) * step for k in range(n)]}

    def argv(self, inputs: dict) -> list[str]:
        grid = _num(inputs["m"])
        return ["scan-mass", "--m1", grid, "--m3", grid, "--e", "0"]

    @staticmethod
    def counted(row: dict) -> bool:
        return float(row["m1"]) + float(row["m3"]) < 1.0

    def check_rows(self, rows: list[dict], inputs: dict) -> Outcome:
        grid = inputs["m"]
        n = len(grid)
        cells = [(a, b) for a in grid for b in grid]
        admissible = [a + b < 1.0 for a, b in cells]
        outcome = Outcome(attempted=sum(admissible))
        if len(rows) != len(cells):
            outcome.fail(f"{len(rows)} rows for {len(cells)} cells")
            return outcome
        for row, (a, b), ok in zip(rows, cells, admissible):
            if not (_same(row["m1"], repr(a)) and _same(row["m3"], repr(b))):
                outcome.fail(f"m1={a:.6g} m3={b:.6g}: row out of grid order")
            elif ok and (row["error"] or row["verdict"] not in VERDICTS):
                outcome.fail(f"m1={a:.6g} m3={b:.6g}: verdict {row['verdict']!r} {row['error']!r}")
        # The plane is symmetric under m1 <-> m3 (the mirrored chain).
        for i in range(n):
            for j in range(i + 1, n):
                if not admissible[i * n + j]:
                    continue
                row, mirror = rows[i * n + j], rows[j * n + i]
                if row["verdict"] != mirror["verdict"] or not _same(row["beta"], mirror["beta"]):
                    outcome.fail(
                        f"m1={grid[i]:.6g} m3={grid[j]:.6g}: {row['verdict']} at beta "
                        f"{row['beta']}, mirrored {mirror['verdict']} at beta {mirror['beta']}"
                    )
        return outcome


class Curves:
    """``find_curves`` on one e row, coarse grid step 1, resolution 0.01."""

    name = "curves"
    coarse_step = 1.0

    def inputs(self, seed: int, smoke: bool = False) -> dict:
        """One row is the smallest curve pass, so the smoke pass is a full one."""
        rng = random.Random(seed)
        return {"e": [0.3 + 0.001 * (2.0 * rng.random() - 1.0)]}

    def reference_path(self) -> Path:
        return REFERENCE_DIR / f"{self.name}.json"

    def load_reference(self):
        return json.loads(self.reference_path().read_text())

    def save_reference(self, output: list[dict]) -> None:
        self.reference_path().write_text(json.dumps(output, indent=1) + "\n")

    def run(self, inputs: dict, workdir: Path) -> list[dict]:
        with warnings.catch_warnings():
            # A row whose index structure is not found is dropped with a
            # warning; the check below counts its missing points.
            warnings.simplefilter("ignore")
            points = erestab.scan.find_curves(
                inputs["e"], CURVE_RESOLUTION, coarse_step=self.coarse_step
            )
        return [
            {"e": p.e, "curve": p.curve.value, "beta": p.beta, "bracket_width": p.bracket_width}
            for p in points
        ]

    def check(self, output: list[dict], inputs: dict, reference: list[dict] | None) -> Outcome:
        kinds = ("BetaS", "BetaM", "BetaK")
        outcome = Outcome(attempted=len(kinds) * len(inputs["e"]))
        found = {(p["e"], p["curve"]): p for p in output}
        for e in inputs["e"]:
            row = {kind: found.get((e, kind)) for kind in kinds}
            for kind, point in row.items():
                if point is None:
                    outcome.fail(f"e={e:.6g}: no {kind} point")
                elif not point["bracket_width"] <= CURVE_RESOLUTION:
                    outcome.fail(f"e={e:.6g}: {kind} bracket {point['bracket_width']} too wide")
            if all(row.values()):
                s, m, k = (row[kind]["beta"] for kind in kinds)
                if not s <= m <= k + CURVE_RESOLUTION:
                    outcome.fail(f"e={e:.6g}: beta_s={s} beta_m={m} beta_k={k} out of order")
        if reference is not None:
            for ref in reference:
                point = found.get((ref["e"], ref["curve"]))
                if point is None or abs(point["beta"] - ref["beta"]) > 0.5 * ref["bracket_width"]:
                    outcome.fail(f"{ref['curve']} at e={ref['e']:.6g} is outside its reference")
        return outcome


WORKLOADS = {w.name: w for w in (ThetaGrid(), Curves(), MassPlane())}
