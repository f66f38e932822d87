"""Command-line front end writing every table and curve as CSV/JSON files.

Each subcommand is a pure function of its configuration: a JSON config
file supplies defaults, individual flags override single keys, and
identical configurations produce byte-identical outputs.

Exit codes: 0 success, 2 configuration error, 3 numeric failure,
4 optimizer not converged.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
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
    BRANCH_ORDER,
    SchemeConfig,
    enumerate_single_photon_branches,
    gain_fidelity_sweep,
    run_branch,
)
from .wigner import GridSpec, export_grid, wigner_coherent, wigner_of_state

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_NOT_CONVERGED = 4

MAX_THRESHOLDS = 10_000

DEFAULTS = {
    "alpha": 0.5,
    "r1": 0.4,
    "r2": 0.4,
    "r3": 0.4,
    "dim": None,
    "eta_qnd": 1.0,
    "eta_pd1": 1.0,
    "eta_pd2": 1.0,
    "out": ".",
    # sweep ranges
    "alpha_min": 0.05,
    "alpha_max": 1.5,
    "alpha_steps": 30,
    "r_values": [0.05, 0.2, 0.4],
    # optimizer thresholds
    "geff0_min": 1.05,
    "geff0_max": 1.95,
    "geff0_step": 0.05,
    # phase-space grid
    "grid": "-6,6,-6,6,241,241",
    "branch": "1",
}


class ConfigError(Exception):
    pass


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _load_config(args: argparse.Namespace) -> dict:
    config = dict(DEFAULTS)
    if args.config is not None:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(loaded) - set(DEFAULTS) - {"r"}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "r" in loaded:
            value = loaded.pop("r")
            loaded.setdefault("r1", value)
            loaded.setdefault("r2", value)
            loaded.setdefault("r3", value)
        config.update(loaded)
    flag_map = {
        "alpha": "alpha",
        "dim": "dim",
        "out": "out",
        "eta_qnd": "eta_qnd",
        "eta_pd1": "eta_pd1",
        "eta_pd2": "eta_pd2",
        "geff0_min": "geff0_min",
        "geff0_max": "geff0_max",
        "geff0_step": "geff0_step",
        "grid": "grid",
        "branch": "branch",
    }
    for attr, key in flag_map.items():
        value = getattr(args, attr, None)
        if value is not None:
            config[key] = value
    if getattr(args, "r", None) is not None:
        config["r1"] = config["r2"] = config["r3"] = args.r
    return config


def _scheme_config(config: dict) -> SchemeConfig:
    alpha = config["alpha"]
    if isinstance(alpha, (list, tuple)):
        if len(alpha) != 2:
            raise ConfigError("complex alpha must be a [re, im] pair")
        alpha = complex(alpha[0], alpha[1])
    else:
        alpha = complex(float(alpha))
    try:
        return SchemeConfig(
            alpha=alpha,
            r1=float(config["r1"]),
            r2=float(config["r2"]),
            r3=float(config["r3"]),
            dim=None if config["dim"] is None else int(config["dim"]),
            etas=(
                float(config["eta_qnd"]),
                float(config["eta_pd1"]),
                float(config["eta_pd2"]),
            ),
        )
    except ValueError as exc:
        raise ConfigError(str(exc))


def _grid_spec(config: dict) -> GridSpec:
    raw = config["grid"]
    parts = raw.split(",") if isinstance(raw, str) else list(raw)
    if len(parts) != 6:
        raise ConfigError('grid must be "xmin,xmax,pmin,pmax,nx,np"')
    try:
        return GridSpec(
            x_min=float(parts[0]),
            x_max=float(parts[1]),
            p_min=float(parts[2]),
            p_max=float(parts[3]),
            n_x=int(parts[4]),
            n_p=int(parts[5]),
        )
    except ValueError as exc:
        raise ConfigError(f"bad grid spec: {exc}")


def _out_dir(config: dict) -> Path:
    out = Path(config["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_table1(config: dict) -> int:
    cfg = _scheme_config(config)
    branches, other = enumerate_single_photon_branches(cfg)
    path = _out_dir(config) / "table1.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["state", "n_qnd", "n_pd1", "n_pd2", "abs_mean_a", "one_minus_F", "P"]
        )
        for index, branch in enumerate(branches, start=1):
            if branch.defined:
                mean_a = _fmt(branch.mean_a_abs)
                one_minus_f = _fmt(1.0 - branch.fidelity_energy)
            else:
                mean_a = one_minus_f = "nan"
            writer.writerow(
                [
                    index,
                    branch.outcome[0],
                    branch.outcome[1],
                    branch.outcome[2],
                    mean_a,
                    one_minus_f,
                    _fmt(branch.probability),
                ]
            )
        writer.writerow(["other", "", "", "", "", "", _fmt(other)])
    print(path)
    return EXIT_OK


def cmd_sweep(config: dict) -> int:
    alphas = np.linspace(
        float(config["alpha_min"]),
        float(config["alpha_max"]),
        int(config["alpha_steps"]),
    )
    if alphas.size == 0 or not config["r_values"]:
        raise ConfigError("sweep ranges must be non-empty")
    dim = None if config["dim"] is None else int(config["dim"])
    rows = gain_fidelity_sweep(alphas, [float(r) for r in config["r_values"]], dim=dim)
    path = _out_dir(config) / "sweep.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["alpha_abs", "r", "g_eff", "F_eff", "F_ideal", "P_succ"])
        for row in rows:
            writer.writerow(
                [
                    _fmt(row.alpha_abs),
                    _fmt(row.r),
                    _fmt(row.g_eff),
                    _fmt(row.f_eff),
                    _fmt(row.f_ideal),
                    _fmt(row.p_succ),
                ]
            )
    print(path)
    return EXIT_OK


def _decimals(value: float) -> int:
    """Decimal places in the shortest repr of value."""
    return max(0, -Decimal(repr(value)).as_tuple().exponent)


def cmd_optimize(config: dict) -> int:
    g_min = float(config["geff0_min"])
    g_max = float(config["geff0_max"])
    g_step = float(config["geff0_step"])
    if not (1.0 < g_min <= g_max < 2.0 and g_step > 0):
        raise ConfigError("threshold list must lie within (1, 2) with positive step")
    intervals = (g_max - g_min) / g_step + 1e-9
    if not intervals < MAX_THRESHOLDS:
        raise ConfigError(f"threshold list would hold more than {MAX_THRESHOLDS} entries")
    digits = max(_decimals(g_step), _decimals(g_min))
    thresholds = [round(g_min + i * g_step, digits) for i in range(math.floor(intervals) + 1)]
    results = optimize_sweep([g for g in thresholds if g <= g_max])
    path = _out_dir(config) / "optimize.csv"
    all_converged = True
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["g_eff0", "p_opt", "alpha_opt", "r_opt1", "r_opt2", "r_opt3", "f_opt", "converged"]
        )
        for g0, result in results:
            if result is None:
                writer.writerow([repr(g0), "", "", "", "", "", "", "false"])
                all_converged = False
                continue
            all_converged = all_converged and result.converged
            writer.writerow(
                [
                    repr(g0),
                    _fmt(result.p_opt),
                    _fmt(result.alpha_opt),
                    _fmt(result.r_opt[0]),
                    _fmt(result.r_opt[1]),
                    _fmt(result.r_opt[2]),
                    _fmt(result.f_opt),
                    _fmt(result.converged),
                ]
            )
    print(path)
    return EXIT_OK if all_converged else EXIT_NOT_CONVERGED


def cmd_wigner(config: dict) -> int:
    cfg = _scheme_config(config)
    spec = _grid_spec(config)
    selector = str(config["branch"])
    out = _out_dir(config)
    if selector == "input":
        grid = wigner_coherent(cfg.alpha, spec)
        path = out / "wigner_input.csv"
    else:
        try:
            index = int(selector)
        except ValueError:
            raise ConfigError(f"branch must be 1..8 or 'input', got {selector!r}")
        if not 1 <= index <= 8:
            raise ConfigError(f"branch must be 1..8 or 'input', got {selector!r}")
        branch = run_branch(cfg, BRANCH_ORDER[index - 1])
        if not branch.defined:
            print(f"branch {index} has zero probability; no state to plot", file=sys.stderr)
            return EXIT_NUMERIC
        grid = wigner_of_state(branch.output, spec)
        path = out / f"wigner_branch{index}.csv"
    export_grid(grid, path)
    print(path)
    return EXIT_OK


def cmd_branches(config: dict) -> int:
    cfg = _scheme_config(config)
    branches, other = enumerate_single_photon_branches(cfg)
    payload = {
        "alpha": [cfg.alpha.real, cfg.alpha.imag],
        "r": [cfg.r1, cfg.r2, cfg.r3],
        "dim": cfg.effective_dim,
        "etas": list(cfg.etas),
        "branches": [],
        "other_probability": other,
    }
    for branch in branches:
        entry = {
            "outcome": list(branch.outcome),
            "probability": branch.probability,
            "defined": branch.defined,
        }
        if branch.defined:
            entry.update(
                {
                    "abs_mean_a": branch.mean_a_abs,
                    "g_eff": branch.g_eff,
                    "fidelity_eff": branch.fidelity_eff,
                    "fidelity_energy": branch.fidelity_energy,
                    "fidelity_ideal": branch.fidelity_ideal,
                    "amps": [[a.real, a.imag] for a in branch.output.amps],
                }
            )
        payload["branches"].append(entry)
    path = _out_dir(config) / "branches.json"
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(path)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand registers only the flags it reads, so others exit 2."""
    parser = argparse.ArgumentParser(
        prog="nlamp",
        description="Heralded noiseless-amplifier simulator and analysis CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "table1": "write the branch table as table1.csv",
        "sweep": "write success-branch gain/fidelity curves as sweep.csv",
        "optimize": "write gain-constrained optima as optimize.csv",
        "wigner": "write a phase-space grid CSV for a branch or the input",
        "branches": "dump all branch results as branches.json",
    }
    for name, help_text in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--out", type=str, default=None, help="output directory")
        if name in ("table1", "wigner", "branches"):
            p.add_argument("--alpha", type=float, default=None, help="input amplitude")
            p.add_argument("--r", type=float, default=None, help="shared reflectivity")
            p.add_argument("--eta-qnd", dest="eta_qnd", type=float, default=None)
            p.add_argument("--eta-pd1", dest="eta_pd1", type=float, default=None)
            p.add_argument("--eta-pd2", dest="eta_pd2", type=float, default=None)
        if name != "optimize":
            p.add_argument("--dim", type=int, default=None, help="truncation dimension")
        if name == "optimize":
            p.add_argument("--geff0-min", dest="geff0_min", type=float, default=None)
            p.add_argument("--geff0-max", dest="geff0_max", type=float, default=None)
            p.add_argument("--geff0-step", dest="geff0_step", type=float, default=None)
        if name == "wigner":
            p.add_argument("--grid", type=str, default=None, help="xmin,xmax,pmin,pmax,nx,np")
            p.add_argument("--branch", type=str, default=None, help="1..8 or 'input'")
    return parser


COMMANDS = {
    "table1": cmd_table1,
    "sweep": cmd_sweep,
    "optimize": cmd_optimize,
    "wigner": cmd_wigner,
    "branches": cmd_branches,
}


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
