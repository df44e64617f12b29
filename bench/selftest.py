"""Self-test of the benchmark: smoke passes, metric names and the gate.

Run from the root of a source checkout:

    python3 bench/selftest.py

It runs a few-point smoke pass of every workload, untraced and traced, and
asserts that each emits exactly the metrics BENCHMARK.json names, with their
units.  It then runs each workload at the default seed and asserts that the
correctness gate passes against the recorded reference and fails against a
deliberately perturbed copy of it.  pytest does not collect this file, so it
adds nothing to the Tier-1 run.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from run import OUT, PINNED_ENV, ROOT, SRC, benchmark


def declared() -> tuple[list[str], dict[str, str], dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        group: {m["name"]: m["unit"] for m in spec[group]} for group in ("end_to_end", "per_layer")
    }
    return [w["name"] for w in spec["workloads"]], units["end_to_end"], units["per_layer"]


def perturbed(reference):
    """The reference with one point changed so that no correct output matches it."""
    if isinstance(reference, list):
        points = copy.deepcopy(reference)
        points[0]["beta"] += max(points[0]["bracket_width"], 0.01)
        return points
    head, _, body = reference.partition("\n")
    rows = list(csv.reader(io.StringIO(body)))
    column = rows[0].index("verdict")
    rows[1][column] = "Unstable" if rows[1][column] != "Unstable" else "Hyperbolic"
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    return head + "\n" + text.getvalue()


def main() -> int:
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(SRC))
    from workloads import DEFAULT_SEED, WORKLOADS

    names, end_to_end, per_layer = declared()
    assert sorted(names) == sorted(WORKLOADS), names
    for name in names:
        for trace, expected in ((False, end_to_end), (True, per_layer)):
            result = benchmark(name, 1, 0.0, trace, smoke=True, setup_probes=1)
            assert result["correct"] and result["attempted"] > 0, result
            emitted = {k: m["unit"] for k, m in result["metrics"].items()}
            assert emitted == expected, (name, trace, set(emitted) ^ set(expected))
        print(f"selftest: {name}: smoke pass emits every metric with its unit")

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for name in names:
            workload = WORKLOADS[name]
            inputs = workload.inputs(DEFAULT_SEED)
            output = workload.run(inputs, Path(tmp))
            reference = workload.load_reference()
            assert workload.check(output, inputs, reference).failed == 0, name
            assert workload.check(output, inputs, perturbed(reference)).failed > 0, name
            print(f"selftest: {name}: gate passes the reference and fails a perturbed one")
    return 0


if __name__ == "__main__":
    sys.exit(main())
