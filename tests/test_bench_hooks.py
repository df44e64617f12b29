"""The benchmark's traced run wraps library functions by name; a refactor
that renames or inlines one of them must fail here, not in the benchmark."""

import importlib.util
from pathlib import Path

import pytest

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
    # once and Newton runs twice.
    with layers.Tracer().installed() as tracer:
        (point,) = mass_scan_4body([0.25 / 14], [0.375])
    assert point.error is None
    names = [span[0] for span in tracer.spans]
    assert names.count("central_config.locate_offline_equilibria") == 1
    assert names.count("central_config.restricted_position") == 2
