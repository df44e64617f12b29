"""Per-layer spans and counters for the traced benchmark run.

Wrappers go on the module attributes each caller looks up at call time.
``erestab.scan`` imports ``morse_index``, ``integrate_fundamental`` and the
configuration solvers by name, so the wrapper must replace
``erestab.scan.morse_index``: patching ``erestab.maslov.morse_index`` alone
would miss every call a sweep makes.  Spans are kept in memory and written
out once, when the run ends.

``polygon_config`` has no hook: no workload runs it (see NOTES.md).
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import erestab.central_config
import erestab.cli
import erestab.maslov
import erestab.scan

# (module, attribute the caller looks up, span name = layer.function)
HOOKS = (
    (erestab.cli, "main", "cli.main"),
    (erestab.cli, "scan_theta", "scan.scan_theta"),
    (erestab.cli, "mass_scan_4body", "scan.mass_scan_4body"),
    (erestab.scan, "find_curves", "scan.find_curves"),
    (erestab.scan, "morse_index", "maslov.morse_index"),
    (erestab.scan, "integrate_fundamental", "monodromy.integrate_fundamental"),
    (erestab.scan, "classify_spectrum", "monodromy.classify_spectrum"),
    (erestab.scan, "collinear_three_primaries", "central_config.collinear_three_primaries"),
    (erestab.scan, "offline_equilibrium", "central_config.offline_equilibrium"),
    (erestab.scan, "compute_D", "linearization.compute_D"),
    (erestab.central_config, "restricted_position", "central_config.restricted_position"),
    (
        erestab.central_config,
        "locate_offline_equilibria",
        "central_config.locate_offline_equilibria",
    ),
    (erestab.maslov, "assemble_operator", "maslov.assemble_operator"),
)

LEVELS = erestab.maslov.DEFAULT_LEVELS


def _eig_ops(h: np.ndarray) -> float:
    """Computed flops of one dense eigenvalues-only solve of ``h``.

    Householder reduction to tridiagonal form dominates: 4/3 n^3 real
    flops for a real symmetric matrix, 16/3 n^3 for a complex Hermitian one.
    """
    n = h.shape[0]
    return (16.0 if np.iscomplexobj(h) else 4.0) / 3.0 * n**3


def _attrs(name: str, args: tuple, kwargs: dict, result) -> dict | None:
    """What a span records about its call beyond start and end."""
    if name == "maslov.assemble_operator":
        return {"K": args[2] if len(args) > 2 else kwargs["K"], "eig_ops": _eig_ops(result)}
    if name == "maslov.morse_index":
        return {"K": (result.num_modes - 1) // 2}
    if name == "monodromy.integrate_fundamental":
        meta = result.step_metadata
        return {"nfev": meta.get("nfev", 0), "nsteps": meta.get("nsteps", 0)}
    if name == "scan.find_curves":
        widths = [p.bracket_width for p in result]
        return {"rows": len(args[0]), "bracket_max": max(widths, default=0.0)}
    return None


class Tracer:
    """Records spans (name, start, end, parent index, attributes)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else None, None])
            stack.append(index)
            spans[index][1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
            spans[index][4] = _attrs(name, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in HOOKS]
        for module, attr, name in HOOKS:
            setattr(module, attr, self._wrap(name, getattr(module, attr)))
        try:
            yield self
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def clear(self) -> None:
        self.spans.clear()

    def records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, **(a or {})}
            for n, s, e, p, a in self.spans
        ]


def layer_metrics(spans: list[list], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass from its spans.

    ``wall_s`` is the traced pass's wall time, the base of every share.
    """
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_s[parent] += end - start
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_s[name] += end - start - child_s[i]

    def children_of(parent_name: str, child_name: str) -> int:
        return sum(
            1 for name, _, _, parent, _ in spans
            if name == child_name and parent is not None and spans[parent][0] == parent_name
        )

    def attr_sum(name: str, key: str) -> float:
        return sum(a[key] for n, _, _, _, a in spans if n == name and a)

    assemble_by_k: dict[int, float] = defaultdict(float)
    k_final: dict[int, int] = defaultdict(int)
    for name, start, end, _, attrs in spans:
        if attrs is None:  # the call raised
            continue
        if name == "maslov.assemble_operator":
            assemble_by_k[attrs["K"]] += end - start
        elif name == "maslov.morse_index":
            k_final[attrs["K"]] += 1

    rows = attr_sum("scan.find_curves", "rows")
    per_row = 1.0 / rows if rows else 0.0
    offline = calls["central_config.offline_equilibrium"]
    fallbacks = calls["central_config.locate_offline_equilibria"]

    m = {
        "maslov.morse_index.calls": calls["maslov.morse_index"],
        "maslov.morse_index.s": total["maslov.morse_index"],
        "maslov.morse_index.self_s": self_s["maslov.morse_index"],
        "maslov.assemble_operator.calls": calls["maslov.assemble_operator"],
        "maslov.assemble_operator.s": total["maslov.assemble_operator"],
    }
    for K in LEVELS:
        m[f"maslov.assemble_operator.s.K{K}"] = assemble_by_k[K]
    for K in LEVELS:
        m[f"maslov.k_final.K{K}"] = k_final[K]
    m["maslov.k_final.other"] = sum(c for K, c in k_final.items() if K not in LEVELS)
    m.update({
        "maslov.eig_ops_computed": attr_sum("maslov.assemble_operator", "eig_ops"),
        "maslov.share": total["maslov.morse_index"] / wall_s,
        "monodromy.integrate_fundamental.calls": calls["monodromy.integrate_fundamental"],
        "monodromy.integrate_fundamental.s": total["monodromy.integrate_fundamental"],
        "monodromy.integrate_fundamental.nfev": attr_sum("monodromy.integrate_fundamental", "nfev"),
        "monodromy.integrate_fundamental.nsteps": attr_sum(
            "monodromy.integrate_fundamental", "nsteps"
        ),
        "monodromy.integrate_fundamental.share": total["monodromy.integrate_fundamental"] / wall_s,
        "monodromy.classify_spectrum.calls": calls["monodromy.classify_spectrum"],
        "monodromy.classify_spectrum.s": total["monodromy.classify_spectrum"],
        "central_config.collinear_three_primaries.s": total[
            "central_config.collinear_three_primaries"
        ],
        "central_config.offline_equilibrium.calls": offline,
        "central_config.offline_equilibrium.s": total["central_config.offline_equilibrium"],
        "central_config.restricted_position.calls": calls["central_config.restricted_position"],
        "central_config.locate_offline_equilibria.calls": fallbacks,
        "central_config.locate_offline_equilibria.s": total[
            "central_config.locate_offline_equilibria"
        ],
        "central_config.locate_offline_equilibria.share": total[
            "central_config.locate_offline_equilibria"
        ] / wall_s,
        "central_config.fallback_ratio": fallbacks / offline if offline else 0.0,
        "linearization.compute_D.s": total["linearization.compute_D"],
        "scan.find_curves.row_s": total["scan.find_curves"] * per_row,
        "scan.find_curves.morse_calls_per_row": children_of(
            "scan.find_curves", "maslov.morse_index"
        ) * per_row,
        "scan.find_curves.integrations_per_row": children_of(
            "scan.find_curves", "monodromy.integrate_fundamental"
        ) * per_row,
        "scan.curve_bracket_max": max(
            (a["bracket_max"] for n, _, _, _, a in spans if n == "scan.find_curves" and a),
            default=0.0,
        ),
        "scan.self_s": sum(s for name, s in self_s.items() if name.startswith("scan.")),
        "cli.self_s": self_s["cli.main"],
    })
    return m
