"""The benchmark's traced run wraps library functions by name; a refactor
that renames or inlines one of them must fail here, not in the benchmark."""

import importlib.util
from pathlib import Path

import pytest

from erestab.cli import main
from erestab.scan import mass_scan_4body

LAYERS = Path(__file__).parent.parent / "bench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_resolves_to_a_callable(layers):
    for module, attr, name in layers.HOOKS:
        assert callable(getattr(module, attr, None)), name


def test_fallback_cell_is_traced(layers):
    # Newton from (0, 1) degenerates in this cell, so the fallback fires
    # once.  The sweep solves its equilibria and D as batches, which no hook
    # sees: the cell's build shows as its primaries and its descent.
    with layers.Tracer().installed() as tracer:
        (point,) = mass_scan_4body([0.25 / 14], [0.375])
    assert point.error is None
    assert [span[0] for span in tracer.spans] == [
        "central_config.collinear_three_primaries",
        "central_config.locate_offline_equilibria",
        "monodromy.classify_spectrum",
    ]


def test_sweeps_run_in_the_calling_process(layers, tmp_path):
    # Every point is traced here: a point run in a worker process would
    # record its spans in that process.  The sweep integrates its points in
    # one batch, which no hook sees, so the points are counted by the build
    # (their primaries, collinear_three_primaries) and the verdict
    # (classify_spectrum) of each.
    argv = ["scan-mass", "--m1", "0.2,0.3", "--m3", "0.2,0.3", "--e", "0",
            "--csv", str(tmp_path / "mass.csv")]
    with layers.Tracer().installed() as tracer:
        assert main(argv) == 0
    names = [span[0] for span in tracer.spans]
    assert names.count("central_config.collinear_three_primaries") == 4
    assert names.count("monodromy.classify_spectrum") == 4


def test_morse_levels_go_through_the_hooked_assembly(layers, tmp_path):
    # one generic point: morse_index(w = 1) certifies at K = 64, and each
    # level is assembled by maslov.assemble_operator, blocks or not
    argv = ["scan-theta", "--beta", "2.0", "--e", "0.3", "--csv", str(tmp_path / "theta.csv")]
    with layers.Tracer().installed() as tracer:
        assert main(argv) == 0
    records = tracer.records()
    assert [r["K"] for r in records if r["name"] == "maslov.assemble_operator"] == [64]
    assert [r["K"] for r in records if r["name"] == "maslov.morse_index"] == [64]
