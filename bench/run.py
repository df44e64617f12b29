"""Time-to-diagram benchmark for erestab.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload theta-grid --seed 1 --seconds 30 --trace 0

The workload is repeated on the seed's inputs, one pass after another in
this process, for as many passes as fit in ``--seconds`` seconds (at least
one), with one BLAS thread and ``ERESTAB_THREADS=1``.  Every pass is
checked (see ``workloads.py``).

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over fresh
interpreters of importing erestab and making one trivial call), ``wall_s``
(median pass time) and ``peak_rss_mb``.  Both times are scaled to the
reference machine speed: a fixed calibration (``calibration.py``) runs
before and after every pass and after every set-up probe, each pass time is
multiplied by the calibration's reference time over the mean of the two
calibrations around it, and the median set-up time by the reference time
over the median calibration.  ``--trace 1`` alternates untraced and traced
passes and prints the per-layer metrics, medians over the traced passes,
with the tracing overhead; its spans go to ``bench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``failed`` counts
the points (grid cells or curve points) that errored, differed from the
reference or broke an invariant, out of ``attempted``.  The exit code is 1
when any point failed, 2 when the erestab sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# Pinned before numpy is first imported, here and in the set-up probes.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "ERESTAB_THREADS": "1",
}
SETUP_PROBES = 5
SETUP_CODE = "import erestab; erestab.r_e_fourier_coefficients(0.5, 8)"
WORKLOAD_NAMES = ("theta-grid", "curves", "mass-plane")


def declared_units() -> dict[str, str]:
    """Unit of every metric, as BENCHMARK.json declares it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for group in ("end_to_end", "per_layer") for m in spec[group]}


def provenance() -> dict:
    """What identifies the machine state a run was measured in."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.split()
        sha = top[1] if Path(top[0]).resolve() == ROOT else None
    except (OSError, subprocess.SubprocessError, IndexError):
        sha = None
    import numpy
    import scipy

    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "env": {k: os.environ[k] for k in PINNED_ENV},
    }


def measure_setup(probes: int, cals: list[float]) -> list[float]:
    """Seconds from a fresh interpreter to erestab imported and used, per probe.

    Each probe is followed by a calibration, appended to ``cals``.
    """
    from calibration import calibrate

    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        # Captured output lets run() return when the pipes close; without
        # it, waiting with a timeout polls and rounds times up to 50 ms.
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, check=True, timeout=120,
            capture_output=True,
        )
        times.append(time.perf_counter() - t0)
        cals.append(calibrate())
    return times


def timed_pass(workload, inputs, workdir):
    t0 = time.perf_counter()
    output = workload.run(inputs, workdir)
    return output, time.perf_counter() - t0


def benchmark(name: str, seed: int, seconds: float, trace: bool,
              smoke: bool = False, setup_probes: int = SETUP_PROBES) -> dict:
    """Run one workload for ``seconds`` and return the result object."""
    import layers
    from calibration import REFERENCE_S, calibrate
    from workloads import DEFAULT_SEED, WORKLOADS

    workload = WORKLOADS[name]
    inputs = workload.inputs(seed, smoke)
    reference = workload.load_reference() if seed == DEFAULT_SEED and not smoke else None
    tracer = layers.Tracer()
    walls, traced_walls, cals, per_layer, outcomes = [], [], [], [], []
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        start = time.perf_counter()
        round_s = 0.0
        # Start another round only while one as long as the last still fits.
        while not walls or time.perf_counter() - start + round_s <= seconds:
            round_start = time.perf_counter()
            cals.append(calibrate())
            output, wall = timed_pass(workload, inputs, workdir)
            walls.append(wall)
            outcomes.append(workload.check(output, inputs, reference))
            if trace:
                tracer.clear()
                with tracer.installed():
                    output, wall = timed_pass(workload, inputs, workdir)
                traced_walls.append(wall)
                outcome = workload.check(output, inputs, reference)
                outcomes.append(outcome)
                metrics = layers.layer_metrics(tracer.spans, wall)
                metrics["cli.csv_bytes"] = outcome.csv_bytes
                per_layer.append(metrics)
            cals.append(calibrate())
            round_s = time.perf_counter() - round_start

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    for problem in next((o.problems for o in outcomes if o.failed), []):
        print(f"bench: {name}: {problem}", file=sys.stderr)
    setups = []
    if trace:
        values = {k: statistics.median(m[k] for m in per_layer) for k in per_layer[0]}
        values["trace.wall_s"] = statistics.median(traced_walls)
        values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(walls)
        (OUT / f"spans-{name}-seed{seed}.json").write_text(json.dumps(tracer.records()))
    else:
        # Seconds at the reference speed: each pass scaled by the mean of the
        # calibrations just before and after it, which follows the machine's
        # speed changes between passes; set-up by the run's median calibration,
        # which spread less than pairing each probe with its neighbours.
        scaled = [
            2.0 * REFERENCE_S * wall / (cals[2 * i] + cals[2 * i + 1])
            for i, wall in enumerate(walls)
        ]
        setups = measure_setup(setup_probes, cals)
        values = {
            "setup_s": statistics.median(setups) * REFERENCE_S / statistics.median(cals),
            "wall_s": statistics.median(scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    print(json.dumps({
        "workload": name, "seed": seed, "passes": len(walls), "walls_s": walls,
        "traced_walls_s": traced_walls, "calibrations_s": cals, "setups_s": setups,
        "failed_frac": failed / attempted,
    }))
    units = declared_units()
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "erestab" / "__init__.py").is_file():
        print(f"bench: no erestab sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(SRC))
    print(json.dumps({"provenance": provenance()}))
    import erestab

    if Path(erestab.__file__).resolve().parent != SRC / "erestab":
        print(f"bench: erestab imported from {erestab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
