"""Command-line interface: validated run configs, CSV/JSON/SVG emission.

Every command validates its full configuration before computing anything,
writes artifacts atomically (temp file + rename), and records a
manifest.json next to the first artifact.  Exit codes: 0 success, 2
configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from typing import Callable

import numpy as np

from . import __version__
from .central_config import MASSLESS_SEED, MassSystem
from .errors import DomainError, ErestabError
from .linearization import StabilityParams
from .maslov import morse_index
from .polygon_config import PolygonSystem, Site, solve_site
from .scan import (
    CURVE_E_MAX,
    CurveKind,
    ScanSettings,
    analyze,
    collinear_config,
    collinear_params,
    find_curves,
    find_mstar,
    mass_scan_4body,
    polygon_params,
    polygon_verdicts,
    scan_theta,
)
from .svg import emit_svg

SCHEMA_VERSION = 1
MAX_RANGE_POINTS = 10**6  # at 10 ms or more per point, a longer range cannot finish

_EIG_COLUMNS = [f"eig{i}_{part}" for i in range(1, 5) for part in ("re", "im")]
THETA_COLUMNS = (
    ["beta", "e", "verdict", "phi_1", "nu_1", "phi_m1", "nu_m1"]
    + _EIG_COLUMNS
    + ["sympl_residual", "error"]
)
MASS_COLUMNS = ["m1", "m3", "m2", "beta", "verdict", "error"]
POLY_COLUMNS = [
    "n", "m0_over_M", "e", "site", "rho", "lambda3", "lambda4", "alpha", "beta",
    "verdict", "phi_1", "nu_1", "phi_m1", "nu_m1", "error",
]


class ConfigError(ValueError):
    """Invalid command-line or config-file input."""


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _csv(kind: str, columns, rows, digest: str) -> str:
    lines = [f"# erestab {kind} csv v{SCHEMA_VERSION} settings={digest}"]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_cell(row.get(c)) for c in columns))
    return "\n".join(lines) + "\n"


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".erestab-tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.umask(umask := os.umask(0))  # mkstemp made the file 0600: give it open()'s mode
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _check_output_path(key: str, path) -> str:
    """The absolute path of an output value that names a file in an existing
    directory; any other value is a ConfigError."""
    if not isinstance(path, str) or not path:
        raise ConfigError(f"output {key} must be a non-empty path, got {path!r}")
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise ConfigError(f"output {key} {path!r}: {directory} is not a directory")
    if not os.path.basename(path) or os.path.isdir(path):
        raise ConfigError(f"output {key} {path!r} names a directory")
    return os.path.abspath(path)


def parse_range(text: str) -> list[float]:
    """Parse 'start:stop:step' (endpoints inclusive within half a step),
    a comma list, or a single float."""
    text = str(text).strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"range must be start:stop:step, got {text!r}")
        start, stop, step = (_as_float(p) for p in parts)
        if step <= 0.0 or stop < start:
            raise ConfigError(f"range {text!r} needs step > 0 and stop >= start")
        steps = (stop - start) / step
        if not steps < MAX_RANGE_POINTS:
            raise ConfigError(f"range {text!r} needs fewer than {MAX_RANGE_POINTS} steps")
        count = int(math.floor(steps + 0.5)) + 1
        return [start + k * step for k in range(count) if start + k * step <= stop + 0.5 * step]
    if "," in text:
        return [_as_float(p) for p in text.split(",") if p.strip()]
    return [_as_float(text)]


def _as_float(value) -> float:
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"expected a number, got {value!r}") from None
    if not math.isfinite(x):
        raise ConfigError(f"expected a finite number, got {value!r}")
    return x


def _as_int(value) -> int:
    x = _as_float(value)
    if abs(x - round(x)) > 1e-9:
        raise ConfigError(f"expected an integer, got {x}")
    return int(round(x))


def _as_site(value) -> Site:
    try:
        return Site(str(value))
    except ValueError:
        raise ConfigError(f"sites must be among S1,S2,S3, got {value!r}") from None


def _values(value, item, count):
    """``value`` converted by ``item``: one item for ``count`` 1, a tuple of
    two for 2, a list of any length for None.

    A list or tuple holds the items; a string holds a range or comma list of
    numbers (see :func:`parse_range`) or a comma list of names; any other
    value is one item.
    """
    if not isinstance(value, str):
        items = value if isinstance(value, (list, tuple)) else [value]
    elif item in (str, _as_site):
        items = [p.strip() for p in value.split(",") if p.strip()]
    else:
        items = parse_range(value)
    values = [item(v) for v in items]
    if count is None:
        return values
    if len(values) != count:
        wanted = "one value" if count == 1 else "two numbers x,y"
        raise ConfigError(f"expected {wanted}, got {value!r}")
    return values[0] if count == 1 else tuple(values)


# The tolerance keys and the ScanSettings field each one sets.
_SETTINGS_FIELDS = {"tol": "integrator_tol", "circle_tol": "circle_tol"}
# The sections of a run config besides "command", as a config file spells them.
_SECTIONS = ("parameters", "output", "tolerances")


# ---------------------------------------------------------------------------
# Serialization helpers
# ---------------------------------------------------------------------------

def _rows(records, columns) -> list[dict]:
    """Values of sweep records under a schema's columns, multipliers last."""
    rows = []
    for r in records:
        row = {}
        for c in columns:
            if c not in _EIG_COLUMNS:
                value = getattr(r, c)
                row[c] = value.value if isinstance(value, Enum) else value
        row["verdict"] = "Error" if r.verdict is None else r.verdict.verdict.value
        if _EIG_COLUMNS[0] in columns:
            eigs = (None,) * 4 if r.eigenvalues is None else r.eigenvalues
            for i, z in enumerate(eigs, 1):
                row[f"eig{i}_re"] = None if z is None else float(np.real(z))
                row[f"eig{i}_im"] = None if z is None else float(np.imag(z))
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Command handlers: each takes its converted parameters, the run's settings
# and output paths, and returns (summary dict, artifacts list[(path, text)])
# ---------------------------------------------------------------------------

class _Parameters(dict):
    """Converted parameters; reading one that was not given is a config error."""

    def __missing__(self, key):
        raise ConfigError(f"missing required parameter --{key.replace('_', '-')}")


def _cmd_cc(params: dict, settings: ScanSettings, output: dict):
    config = collinear_config(MassSystem.normalized(params["m"]), params.get("ordering"))
    summary = {
        "positions": [[float(v) for v in row] for row in config.primary_positions],
        "massless_position": None,  # collinear_config attaches no massless body
        "mu": config.mu,
        "cc_residual": config.cc_residual,
        "inertia_residual": config.inertia_residual,
        "masses": list(config.masses.masses),
    }
    return summary, _json_artifact(output, summary)


def _cmd_polygon(params: dict, settings: ScanSettings, output: dict):
    n, ratio, site = params["n"], params["m0_over_m"], params["site"]
    bang = solve_site(PolygonSystem.from_mass_ratio(n, ratio), site)
    summary = {
        "n": n, "m0_over_M": ratio, "site": site.value, "rho": bang.rho,
        "theta": bang.theta, "omega_sq": bang.omega_sq, "A": bang.A,
        "B_re": bang.B.real, "B_im": bang.B.imag, "l2": bang.l2, "l3": bang.l3,
        "lambda3": bang.lambda3, "lambda4": bang.lambda4,
    }
    return summary, _json_artifact(output, summary)


# The parameters each stability family reads besides "family" and "e".
_FAMILY_PARAMS = {"collinear": {"m", "guess"}, "polygon": {"n", "m0_over_m", "site"}}


def _cmd_stability(params: dict, settings: ScanSettings, output: dict):
    family, e = params["family"], params["e"]
    if family not in _FAMILY_PARAMS:
        raise ConfigError(f"family must be 'collinear' or 'polygon', got {family!r}")
    unread = set(params) - {"family", "e"} - _FAMILY_PARAMS[family]
    if unread:
        flags = ", ".join("--" + k.replace("_", "-") for k in sorted(unread))
        raise ConfigError(f"--family {family} does not read {flags}")
    if family == "collinear":
        masses = MassSystem.normalized(params["m"])
        p = collinear_params(masses, e, params.get("guess", MASSLESS_SEED))
        extra = {"family": family, "masses": list(masses.masses)}
    else:
        n, ratio, site = params["n"], params["m0_over_m"], params["site"]
        p, _ = polygon_params(n, ratio, site, e)
        extra = {"family": family, "n": n, "m0_over_M": ratio, "site": site.value}
    result = analyze(p, settings, indices=False)
    summary = {
        **extra,
        "e": p.e,
        "lambda3": p.lambda3,
        "lambda4": p.lambda4,
        "alpha": p.alpha,
        "beta": p.beta,
        "beta_hls": None if not p.beta_hls_applicable else p.beta_hls,
        "verdict": result.verdict.verdict.value,
        "on_circle_count": result.verdict.on_circle_count,
        "eigenvalues": [[z.real, z.imag] for z in result.eigenvalues],
        "sympl_residual": result.sympl_residual,
    }
    return summary, _json_artifact(output, summary)


def _cmd_index(params: dict, settings: ScanSettings, output: dict):
    alpha, beta, e = params["alpha"], params["beta"], params["e"]
    omega = params.get("omega")
    rho = params.get("rho")
    if (omega is None) == (rho is None):
        raise ConfigError("exactly one of --omega and --rho is required")
    if omega is None:
        rho = rho % 1.0 % 1.0  # a tiny negative rho wraps to 1.0 on the first pass
        w = complex(np.exp(2j * np.pi * rho))
    elif omega in (1.0, -1.0):
        rho, w = (0.0 if omega == 1.0 else 0.5), complex(omega)
    else:
        raise ConfigError("--omega accepts 1 or -1; use --rho for other points")
    p = StabilityParams.from_alpha_beta(alpha, beta, e)
    result = morse_index(p, rho)
    summary = {
        "alpha": alpha, "beta": beta, "e": e,
        "omega_re": w.real, "omega_im": w.imag, "rho": rho,
        "phi": result.phi, "nu": result.nu, "num_modes": result.num_modes,
        "min_eigenvalue": result.min_eigenvalue, "kernel_gap": result.kernel_gap,
    }
    return summary, _json_artifact(output, summary)


def _sweep_output(output: dict, kind: str, columns, records, settings: ScanSettings,
                  svg=None):
    """Summary and artifacts of a sweep: CSV and JSON rows, and the SVG that
    ``svg(rows)`` draws when the sweep has a plot."""
    rows = _rows(records, columns)
    digest = settings.digest()
    artifacts = []
    if output.get("csv"):
        artifacts.append((output["csv"], _csv(kind, columns, rows, digest)))
    if output.get("json"):
        artifacts.append(
            (output["json"], json.dumps({"settings": digest, "rows": rows}, indent=2) + "\n")
        )
    if output.get("svg"):
        artifacts.append((output["svg"], svg(rows)))
    summary = {"rows": len(rows), "settings": digest,
               "artifacts": [a[0] for a in artifacts]}
    return summary, artifacts


def _theta_svg(rows, e_grid, settings: ScanSettings) -> str:
    # a row within rounding of the cap asks for it: 0:0.95:0.05 ends at 0.9500000000000001
    curve_es = [min(e, CURVE_E_MAX) for e in e_grid if e <= CURVE_E_MAX + 1e-9]
    if len(curve_es) > 11:
        curve_es = [curve_es[i] for i in
                    np.linspace(0, len(curve_es) - 1, 11).astype(int)]
    curve_points = find_curves(curve_es, settings=settings)
    curves = [
        (kind.value, [(p.beta, p.e) for p in curve_points if p.curve is kind])
        for kind in CurveKind
    ]
    return emit_svg(
        [(r["beta"], r["e"], r["verdict"]) for r in rows],
        curves,
        title="stability over (beta, e)", xlabel="beta", ylabel="e",
    )


def _cmd_scan_theta(params: dict, settings: ScanSettings, output: dict):
    beta_grid, e_grid = params["beta"], params["e"]
    records = scan_theta(beta_grid, e_grid, settings)
    return _sweep_output(output, "scan-theta", THETA_COLUMNS, records, settings,
                         lambda rows: _theta_svg(rows, e_grid, settings))


def _cmd_scan_mass(params: dict, settings: ScanSettings, output: dict):
    e = params.get("e", 0.0)
    points = mass_scan_4body(params["m1"], params["m3"], e, settings)
    return _sweep_output(
        output, "scan-mass", MASS_COLUMNS, points, settings,
        lambda rows: emit_svg(
            [(r["m1"], r["m3"], r["verdict"]) for r in rows],
            title=f"stable masses at e={e:g}", xlabel="m1", ylabel="m3",
        ),
    )


def _cmd_find_mstar(params: dict, settings: ScanSettings, output: dict):
    tol = params.get("tol", 1e-6)
    result = find_mstar(tol)
    summary = {
        "m_star": result.value,
        "bracket": [result.bracket_low, result.bracket_high],
        "bracket_width": result.bracket_width,
        "tolerance": tol,
    }
    return summary, _json_artifact(output, summary)


def _cmd_polygon_verdicts(params: dict, settings: ScanSettings, output: dict):
    records = polygon_verdicts(params["n"], params["m0_over_m"], params["e"],
                               params.get("sites", list(Site)), settings)
    return _sweep_output(output, "polygon-verdicts", POLY_COLUMNS, records, settings)


def _json_artifact(output: dict, summary: dict):
    if output.get("json"):
        return [(output["json"], json.dumps(summary, indent=2) + "\n")]
    return []


# ---------------------------------------------------------------------------
# The command table: the parser and run() read only this
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Command:
    """A command's handler, the item converter and count (see :func:`_values`)
    of each parameter it reads, the artifacts it writes with the path each
    one takes when not given (None: written only when given), and the
    tolerance keys it reads."""

    handler: Callable
    params: dict[str, tuple[Callable, int | None]]
    outputs: dict[str, str | None] = field(default_factory=lambda: {"json": None})
    tolerances: tuple[str, ...] = ()
    flags: dict[str, str] = field(default_factory=dict)  # where the flag is not --key


_FLOAT, _FLOATS = (_as_float, 1), (_as_float, None)

_COMMANDS = {
    "cc": _Command(_cmd_cc, {"m": _FLOATS, "ordering": (_as_int, None)}),
    "polygon": _Command(
        _cmd_polygon, {"n": (_as_int, 1), "m0_over_m": _FLOAT, "site": (_as_site, 1)}
    ),
    "stability": _Command(
        _cmd_stability,
        {"family": (str, 1), "m": _FLOATS, "e": _FLOAT, "guess": (_as_float, 2),
         "n": (_as_int, 1), "m0_over_m": _FLOAT, "site": (_as_site, 1)},
        tolerances=tuple(_SETTINGS_FIELDS),
    ),
    "index": _Command(
        _cmd_index, {k: _FLOAT for k in ("alpha", "beta", "e", "omega", "rho")}
    ),
    "scan-theta": _Command(
        _cmd_scan_theta, {"beta": _FLOATS, "e": _FLOATS},
        dict.fromkeys(("csv", "json", "svg")), tolerances=tuple(_SETTINGS_FIELDS),
    ),
    "scan-mass": _Command(
        _cmd_scan_mass, {"m1": _FLOATS, "m3": _FLOATS, "e": _FLOAT},
        dict.fromkeys(("csv", "json", "svg")), tolerances=tuple(_SETTINGS_FIELDS),
    ),
    "find-mstar": _Command(_cmd_find_mstar, {"tol": _FLOAT}, {"json": "mstar.json"},
                           flags={"tol": "--mstar-tol"}),
    "polygon-verdicts": _Command(
        _cmd_polygon_verdicts,
        {"n": (_as_int, None), "m0_over_m": _FLOATS, "e": _FLOATS, "sites": (_as_site, None)},
        dict.fromkeys(("csv", "json")), tolerances=tuple(_SETTINGS_FIELDS),
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="erestab",
        description="Stability of elliptic relative equilibria of restricted N-body problems.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        for key in (*command.params, *command.outputs, *command.tolerances):
            p.add_argument(command.flags.get(key, "--" + key.replace("_", "-")), dest=key)
        p.add_argument("--config")
    return parser


def _config_from_args(args: argparse.Namespace) -> dict:
    """The run config of the flags, with a config file's keys laid over them."""
    if args.command is None:
        raise ConfigError("a command is required; see --help")
    command = _COMMANDS[args.command]
    cfg = {"command": args.command}
    for section, keys in zip(_SECTIONS, (command.params, command.outputs, command.tolerances)):
        cfg[section] = {k: getattr(args, k) for k in keys if getattr(args, k) is not None}
    if args.config:
        try:
            with open(args.config, "r") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        if data.get("command", args.command) != args.command:
            raise ConfigError(
                f"config file command {data['command']!r} conflicts with {args.command!r}"
            )
        for key, value in data.items():  # run() checks the keys and the sections
            merge = isinstance(cfg.get(key), dict) and isinstance(value, dict)
            cfg[key] = {**cfg[key], **value} if merge else value
    return cfg


def run(cfg: dict) -> tuple[dict, list[tuple[str, str]]]:
    """Validate and execute a run configuration; returns (summary, artifacts).

    ``cfg`` is ``{"command", "parameters", "output", "tolerances"}``, the
    layout of a config file, from flags, a file or a Python caller alike; a
    missing section counts as empty.  Every key, top-level or in a section,
    is checked against the command table, every value converted and every
    output path resolved (to the table's default when not given), its
    directory found and its file checked against the other outputs and the
    manifest before the handler runs, so a bad input leaves no artifact
    behind; a file that still cannot be written is a ConfigError that names it.
    """
    unknown = set(cfg) - {"command", *_SECTIONS}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "command" not in cfg:
        raise ConfigError("a run config needs a command")
    name = cfg["command"]
    command = _COMMANDS.get(name)
    if command is None:
        raise ConfigError(f"unknown command {name!r}")
    sections = [cfg.get(section, {}) for section in _SECTIONS]
    for section, given, allowed in zip(_SECTIONS, sections,
                                       (command.params, command.outputs, command.tolerances)):
        if not isinstance(given, dict):
            raise ConfigError(f"config section {section!r} must be an object")
        unknown = set(given) - set(allowed)
        if unknown:
            raise ConfigError(f"unknown {section} keys for {name}: {sorted(unknown)}")
    parameters, output, tolerances = sections
    params = _Parameters(
        {k: _values(v, *command.params[k]) for k, v in parameters.items() if v is not None}
    )
    settings = ScanSettings(
        **{_SETTINGS_FIELDS[k]: _as_float(v) for k, v in tolerances.items()}
    )
    output = {**command.outputs, **{k: v for k, v in output.items() if v is not None}}
    paths = {k: _check_output_path(k, p) for k, p in output.items() if p is not None}
    if paths:  # the manifest goes next to the first artifact
        directory = os.path.dirname(next(iter(paths.values())))
        paths["manifest"] = _check_output_path("manifest", os.path.join(directory, "manifest.json"))
        if len(set(paths.values())) < len(paths):
            listed = ", ".join(f"{k} {p}" for k, p in paths.items())
            raise ConfigError(f"outputs and the manifest must name distinct files: {listed}")
    started = datetime.now(timezone.utc)
    t0 = time.monotonic()
    summary, artifacts = command.handler(params, settings, output)
    duration = time.monotonic() - t0
    writes = list(artifacts)
    if artifacts:
        manifest = {
            "command": name,
            "parameters": {k: parameters[k] for k in sorted(parameters)},
            "tolerances": {k: tolerances[k] for k in sorted(tolerances)},
            "version": __version__,
            "started_at": started.isoformat(),
            "duration_s": duration,
            "settings_digest": settings.digest(),
            "artifacts": [os.path.basename(p) for p, _ in artifacts],
        }
        writes.append((paths["manifest"], json.dumps(manifest, indent=2) + "\n"))
    for path, text in writes:
        try:
            _atomic_write(path, text)
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None
    return summary, artifacts


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        summary, _ = run(_config_from_args(args))
    except (ConfigError, DomainError) as exc:
        print(f"erestab: configuration error: {exc}", file=sys.stderr)
        return 2
    except ErestabError as exc:
        print(f"erestab: numerical failure: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(summary, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
