"""Command-line front end writing every table and curve as CSV/JSON files.

Each subcommand is a pure function of its configuration: a JSON config
file supplies defaults, individual flags override single keys, and
identical configurations produce byte-identical outputs.

Exit codes: 0 success, 2 configuration error (including an output file
that cannot be written), 3 numeric failure, 4 optimizer not converged.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import astuple
from decimal import Decimal
from pathlib import Path

import numpy as np

from .errors import (
    NlampError,
    TruncationError,
    ZeroNormError,
    ZeroProbabilityError,
)
from .optimize import sweep as optimize_sweep
from .scheme import (
    SchemeConfig,
    _branch_coefficients,
    enumerate_single_photon_branches,
    gain_fidelity_sweep,
    run_branch,
)
from .wigner import GridSpec, export_grid, wigner_coherent, wigner_displaced_qubit

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_NOT_CONVERGED = 4

MAX_THRESHOLDS = 10_000
# Size bounds, checked before anything is allocated.  MAX_DIM holds for the
# truncation dimension of branches, the one subcommand that builds Fock
# vectors, whether it is given or derived from the amplitude; table1, the
# sweep and wigner evaluate closed forms and have none.
# The grid counts are bounded one by one, so a grid has at most about 10^6
# cells and the closed form of W a few arrays of 8 MB.
MAX_DIM = 1000
MAX_SWEEP_POINTS = 10_000  # alpha_steps * len(r_values)
MAX_GRID_POINTS = 1001  # n_x and n_p, each

STATE_DEFAULTS = {"alpha": 0.5, "r1": 0.4, "r2": 0.4, "r3": 0.4}
SCHEME_DEFAULTS = {
    **STATE_DEFAULTS,
    "eta_qnd": 1.0,
    "eta_pd1": 1.0,
    "eta_pd2": 1.0,
}

# The config keys each subcommand reads, besides "out", with their defaults.
# Any other key in a config file is an error, like a flag the subcommand
# does not have.
DEFAULTS = {
    "table1": SCHEME_DEFAULTS,
    "branches": {**SCHEME_DEFAULTS, "dim": None},
    "wigner": {**STATE_DEFAULTS, "grid": "-6,6,-6,6,241,241", "branch": "1"},
    "sweep": {
        "alpha_min": 0.05,
        "alpha_max": 1.5,
        "alpha_steps": 30,
        "r_values": [0.05, 0.2, 0.4],
    },
    "optimize": {"geff0_min": 1.05, "geff0_max": 1.95, "geff0_step": 0.05},
}


class ConfigError(Exception):
    pass


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _load_config(args: argparse.Namespace) -> dict:
    config = {**DEFAULTS[args.command], "out": "."}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        unread = set(loaded) - set(config) - ({"r"} if "r1" in config else set())
        if unread:
            raise ConfigError(f"{args.command} does not read config keys {sorted(unread)}")
        if "r" in loaded:
            value = loaded.pop("r")
            for key in ("r1", "r2", "r3"):
                loaded.setdefault(key, value)
        config.update(loaded)
    # each subcommand registers only the flags it reads
    for key in config:
        value = getattr(args, key, None)
        if value is not None:
            config[key] = value
    if getattr(args, "r", None) is not None:
        config["r1"] = config["r2"] = config["r3"] = args.r
    return config


def _number(value, name: str) -> float:
    """A finite real config value; bools, strings and NaN/inf are errors."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return float(value)


def _count(value, name: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


def _dim(config: dict, alpha_abs: float) -> int | None:
    """The dim key; without it, the dimension derived for alpha_abs is bounded."""
    if config["dim"] is not None:
        dim = _count(config["dim"], "dim", 2)
        if dim > MAX_DIM:
            raise ConfigError(f"dim is {dim}, above MAX_DIM = {MAX_DIM}")
        return dim
    # an amplitude above MAX_DIM needs even more levels; testing it first
    # keeps the dimension estimate from overflowing
    if alpha_abs > MAX_DIM or SchemeConfig.symmetric(alpha_abs, 0.0).effective_dim > MAX_DIM:
        raise ConfigError(f"|alpha| = {alpha_abs:g} needs more than MAX_DIM = {MAX_DIM} levels")
    return None


def _scheme_config(config: dict) -> SchemeConfig:
    alpha = config["alpha"]
    if isinstance(alpha, list):
        if len(alpha) != 2:
            raise ConfigError("complex alpha must be a [re, im] pair")
        alpha = complex(_number(alpha[0], "alpha[0]"), _number(alpha[1], "alpha[1]"))
    else:
        alpha = complex(_number(alpha, "alpha"))
    try:
        return SchemeConfig(
            alpha=alpha,
            r1=_number(config["r1"], "r1"),
            r2=_number(config["r2"], "r2"),
            r3=_number(config["r3"], "r3"),
            dim=_dim(config, math.hypot(alpha.real, alpha.imag)) if "dim" in config else None,
            etas=tuple(_number(config[key], key) for key in ("eta_qnd", "eta_pd1", "eta_pd2")),
        )
    except ValueError as exc:
        raise ConfigError(str(exc))


def _grid_spec(config: dict) -> GridSpec:
    raw = config["grid"]
    parts = raw.split(",") if isinstance(raw, str) else raw
    if not isinstance(parts, list) or len(parts) != 6:
        raise ConfigError('grid must be "xmin,xmax,pmin,pmax,nx,np"')
    if isinstance(raw, str):
        try:
            parts = [*map(float, parts[:4]), *map(int, parts[4:])]
        except ValueError as exc:
            raise ConfigError(f"bad grid spec: {exc}")
    n_x, n_p = (_count(n, f"grid count {name}", 1) for n, name in zip(parts[4:], ("nx", "np")))
    if max(n_x, n_p) > MAX_GRID_POINTS:
        raise ConfigError(
            f"grid counts {n_x}, {n_p}: each must be at most "
            f"MAX_GRID_POINTS = {MAX_GRID_POINTS}"
        )
    try:
        return GridSpec(*map(float, parts[:4]), n_x, n_p)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad grid spec: {exc}")


def _out_dir(config: dict) -> Path:
    try:
        out = Path(config["out"])
        out.mkdir(parents=True, exist_ok=True)
    except (TypeError, OSError) as exc:
        raise ConfigError(f"cannot use output directory {config['out']!r}: {exc}")
    return out


def _save(path: Path, write) -> None:
    """Create and fill path by write(path), then print it.

    An OSError, such as a directory where the file should be, is a
    configuration error that names the path.
    """
    try:
        write(path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}")
    print(path)


def _write_csv(out: Path, name: str, header: list[str], rows) -> None:
    """Write out/name as CSV, every cell through _fmt, and print its path."""
    def write(path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows([_fmt(value) for value in row] for row in rows)

    _save(out / name, write)


def cmd_table1(config: dict) -> int:
    """write the branch table as table1.csv"""
    cfg = _scheme_config(config)
    out = _out_dir(config)
    branches, other = enumerate_single_photon_branches(cfg)
    # an undefined branch's metrics are NaN and are written as nan
    rows = [
        [index, *b.outcome, b.mean_a_abs, 1.0 - b.fidelity_energy, b.probability]
        for index, b in enumerate(branches, start=1)
    ]
    rows.append(["other", "", "", "", "", "", other])
    header = ["state", "n_qnd", "n_pd1", "n_pd2", "abs_mean_a", "one_minus_F", "P"]
    _write_csv(out, "table1.csv", header, rows)
    return EXIT_OK


def cmd_sweep(config: dict) -> int:
    """write success-branch gain/fidelity curves as sweep.csv"""
    alpha_min = _number(config["alpha_min"], "alpha_min")
    alpha_max = _number(config["alpha_max"], "alpha_max")
    if min(alpha_min, alpha_max) < 0:
        raise ConfigError(
            f"alpha_min and alpha_max are magnitudes |alpha| >= 0, got {alpha_min}, {alpha_max}"
        )
    steps = _count(config["alpha_steps"], "alpha_steps", 1)
    if not isinstance(config["r_values"], list) or not config["r_values"]:
        raise ConfigError(f"r_values must be a non-empty list, got {config['r_values']!r}")
    r_values = [_number(r, "r_values entry") for r in config["r_values"]]
    if not all(0.0 <= r < 1.0 for r in r_values):
        raise ConfigError(f"reflectivities must be in [0, 1), got {r_values}")
    if steps * len(r_values) > MAX_SWEEP_POINTS:
        raise ConfigError(
            f"alpha_steps * len(r_values) is {steps * len(r_values)}, "
            f"above MAX_SWEEP_POINTS = {MAX_SWEEP_POINTS}"
        )
    out = _out_dir(config)
    rows = gain_fidelity_sweep(np.linspace(alpha_min, alpha_max, steps), r_values)
    header = ["alpha_abs", "r", "g_eff", "F_eff", "F_ideal", "P_succ"]
    _write_csv(out, "sweep.csv", header, map(astuple, rows))
    return EXIT_OK


def _decimals(value: float) -> int:
    """Decimal places in the shortest repr of value."""
    return max(0, -Decimal(repr(value)).as_tuple().exponent)


def cmd_optimize(config: dict) -> int:
    """write gain-constrained optima as optimize.csv"""
    g_min = _number(config["geff0_min"], "geff0_min")
    g_max = _number(config["geff0_max"], "geff0_max")
    g_step = _number(config["geff0_step"], "geff0_step")
    if not (1.0 < g_min <= g_max < 2.0 and g_step > 0):
        raise ConfigError("threshold list must lie within (1, 2) with positive step")
    intervals = (g_max - g_min) / g_step + 1e-9
    if not intervals < MAX_THRESHOLDS:
        raise ConfigError(f"threshold list would hold more than {MAX_THRESHOLDS} entries")
    digits = max(_decimals(g_step), _decimals(g_min))
    thresholds = [round(g_min + i * g_step, digits) for i in range(math.floor(intervals) + 1)]
    out = _out_dir(config)
    results = optimize_sweep([g for g in thresholds if g <= g_max])
    # an infeasible threshold has no result and a blank row
    rows = [
        [repr(g0), "", "", "", "", "", "", False] if result is None else
        [repr(g0), result.p_opt, result.alpha_opt, *result.r_opt, result.f_opt, result.converged]
        for g0, result in results
    ]
    header = ["g_eff0", "p_opt", "alpha_opt", "r_opt1", "r_opt2", "r_opt3", "f_opt", "converged"]
    _write_csv(out, "optimize.csv", header, rows)
    converged = all(result is not None and result.converged for _, result in results)
    return EXIT_OK if converged else EXIT_NOT_CONVERGED


def cmd_wigner(config: dict) -> int:
    """write a phase-space grid CSV for a branch or the input"""
    # the detector efficiencies scale a branch's probability, not its state
    cfg = _scheme_config({**SCHEME_DEFAULTS, **config})
    spec = _grid_spec(config)
    selector = str(config["branch"])
    if selector != "input" and selector not in {str(i) for i in range(1, 9)}:
        raise ConfigError(f"branch must be 1..8 or 'input', got {selector!r}")
    out = _out_dir(config)
    if selector == "input":
        grid = wigner_coherent(cfg.alpha, spec)
        path = out / "wigner_input.csv"
    else:
        gamma, w0, w1, _, defined = _branch_coefficients(cfg)
        row = int(selector) - 1
        if not defined[row]:
            print(f"branch {selector} has zero probability; no state to plot", file=sys.stderr)
            return EXIT_NUMERIC
        grid = wigner_displaced_qubit(gamma, w0[row], w1[row], spec)
        path = out / f"wigner_branch{selector}.csv"
    _save(path, lambda path: export_grid(grid, path))
    return EXIT_OK


def _null(value: float) -> float | None:
    return None if math.isnan(value) else value


def cmd_branches(config: dict) -> int:
    """dump all branch results as branches.json"""
    cfg = _scheme_config(config)
    out = _out_dir(config)
    branches, other = enumerate_single_photon_branches(cfg)
    # P and metrics come from the table, the amplitudes from run_branch;
    # "defined" says whether there are amplitudes.  Every entry has every
    # key: a zero-probability branch has NaN metrics and no amplitudes, and
    # a defined one at alpha = 0 NaN gain and fidelities, each written as null
    outputs = [run_branch(cfg, branch.outcome).output for branch in branches]
    entries = [
        {
            "outcome": list(branch.outcome),
            "probability": branch.probability,
            "defined": output is not None,
            "abs_mean_a": _null(branch.mean_a_abs),
            "g_eff": _null(branch.g_eff),
            "fidelity_eff": _null(branch.fidelity_eff),
            "fidelity_energy": _null(branch.fidelity_energy),
            "fidelity_ideal": _null(branch.fidelity_ideal),
            "amps": None if output is None else [[a.real, a.imag] for a in output.amps],
        }
        for branch, output in zip(branches, outputs)
    ]
    payload = {
        "alpha": [cfg.alpha.real, cfg.alpha.imag],
        "r": [cfg.r1, cfg.r2, cfg.r3],
        "dim": cfg.effective_dim,
        "etas": list(cfg.etas),
        "branches": entries,
        "other_probability": other,
    }
    text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    _save(out / "branches.json", lambda path: path.write_text(text, newline=""))
    return EXIT_OK


COMMANDS = {
    "table1": cmd_table1,
    "sweep": cmd_sweep,
    "optimize": cmd_optimize,
    "wigner": cmd_wigner,
    "branches": cmd_branches,
}

# The flag that sets each config key, with its type and help text.  A
# subcommand registers the flags of the keys it reads in DEFAULTS, so any
# other flag exits 2; "--r" sets r1, r2 and r3 at once.
_FLAGS = {
    "alpha": ("--alpha", float, "input amplitude"),
    "r1": ("--r", float, "shared reflectivity"),
    "eta_qnd": ("--eta-qnd", float, None),
    "eta_pd1": ("--eta-pd1", float, None),
    "eta_pd2": ("--eta-pd2", float, None),
    "dim": ("--dim", int, "truncation dimension"),
    "geff0_min": ("--geff0-min", float, None),
    "geff0_max": ("--geff0-max", float, None),
    "geff0_step": ("--geff0-step", float, None),
    "grid": ("--grid", str, "xmin,xmax,pmin,pmax,nx,np"),
    "branch": ("--branch", str, "1..8 or 'input'"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlamp",
        description="Heralded noiseless-amplifier simulator and analysis CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.__doc__)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--out", type=str, default=None, help="output directory")
        for key, (flag, kind, help_text) in _FLAGS.items():
            if key in DEFAULTS[name]:
                p.add_argument(flag, type=kind, default=None, help=help_text)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args)
        return COMMANDS[args.command](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TruncationError, ZeroNormError, ZeroProbabilityError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except NlampError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
