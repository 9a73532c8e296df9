"""Command-line interface: efficiency sweeps, one-shot allocation, flights, comparison.

One binary with subcommands. Runs are configured by a JSON file plus flag
overrides (flags win). All outputs are deterministic: rerunning a command
with the same configuration produces byte-identical files, so the CSV/JSON
artifacts double as regression fixtures. Numeric text uses 17 significant
digits for exact float round-trips.

Exit codes: 0 success, 1 validation problem, 2 numerical failure.
Set ROTORARM_LOG=debug|info|warning|error for diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .allocation import (
    AllocatorInput,
    AllocatorState,
    DroneModel,
    PenaltyWeights,
    SolverError,
    SolverSettings,
    pinv_allocate,
    sqp_allocate,
)
from .efficiency import InfeasibleHoverError, sweep_orientations
from .geometry import CATALOG_IDS, DEFAULT_RADIUS, build_catalog, finite_numbers, load_geometry
from .simulation import (
    PidGains,
    Scenario,
    SweepSpec,
    compare_singularity_handling,
    continuous_roll,
    max_command_step,
    orientation_sweep,
    position_sweep,
    run_flight,
    summarize,
)
from .spatial import Quaternion
from .tables import write_csv

LOG = logging.getLogger("rotorarm")

# each config section holds the fields of the dataclass it builds, by name and default
_SECTIONS = {
    section: {f.name: f.default for f in fields(cls) if f.name != "geometry"}
    for section, cls in (("model", DroneModel), ("weights", PenaltyWeights), ("gains", PidGains),
                         ("sweep", SweepSpec), ("solver", SolverSettings))
}
_INPUT_KEYS = {"q", "F", "M", "warm"}
_WARM_KEYS = {"u", "a", "multipliers", "a_prev"}

_DEFAULTS = {
    "geometry": "octahedron_rot",
    "radius": DEFAULT_RADIUS,
    "allocator": "sqp",
    "duration": None,
    "samples": 2000,
    "seed": 0,
    "noise_std": 0.0,
    "motor_lag": 0.0,
    "settle": 2.0,
    "out": ".",
    "format": "csv",
}
_TOP_KEYS = set(_DEFAULTS) | set(_SECTIONS)


class UsageError(ValueError):
    """Bad command line; reported as a validation failure (exit 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep 2 for numerical failures
        raise UsageError(message)


# ---------------------------------------------------------------------------
# config plumbing


def _check_keys(section: dict, allowed, where: str) -> None:
    if not isinstance(section, dict):
        raise ValueError(f"{where} must be a JSON object")
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {where} key(s): {', '.join(unknown)}")


def _leaves(value) -> list:
    """value itself, or every entry of a list at any depth."""
    if isinstance(value, (list, tuple)):
        return [leaf for entry in value for leaf in _leaves(entry)]
    return [value]


def load_run_config(path) -> dict:
    with open(path) as handle:
        config = json.load(handle)
    _check_keys(config, _TOP_KEYS, "config")
    settings = {f"config.{key}": value for key, value in config.items() if key not in _SECTIONS}
    for section, defaults in _SECTIONS.items():
        if section in config:
            _check_keys(config[section], defaults, f"config.{section}")
            for key, value in config[section].items():
                # JSON true is a number to Python, and no setting is a boolean
                if any(isinstance(v, bool) for v in _leaves(value)):
                    raise ValueError(f"config.{section}.{key} must not be a boolean, got {value!r}")
                settings[f"config.{section}.{key}"] = value
    for where, value in settings.items():  # the rule of finite_numbers; type() passes over bools
        if any(type(v) is int and finite_numbers([v], 1) is None for v in _leaves(value)):
            raise ValueError(f"{where} holds an integer too large for a float")
    return config


def merge_settings(args, config_path=None) -> dict:
    """Defaults, then config file, then command-line flags."""
    settings = dict(_DEFAULTS)
    settings.update({section: {} for section in _SECTIONS})
    if config_path is None:
        config_path = getattr(args, "config", None)
    config = load_run_config(config_path) if config_path else {}
    settings.update(config)
    for flag in ("geometry", "allocator", "out", "format", "samples", "seed"):
        value = getattr(args, flag, None)
        if value is not None:
            settings[flag] = value
    for key, default in _DEFAULTS.items():
        value = settings[key]
        # a JSON config can give 150.9 or true, which int() would quietly truncate
        if isinstance(default, int) and (isinstance(value, bool) or not isinstance(value, int)):
            raise ValueError(f"{key} must be an integer, got {value!r}")
        if isinstance(default, (float, type(None))) and isinstance(value, bool):
            raise ValueError(f"{key} must be a number, got {value!r}")  # float() reads true as 1.0
    if settings["format"] not in ("csv", "json"):
        raise ValueError(f"unknown output format {settings['format']!r}, expected csv or json")
    if settings["allocator"] not in ("sqp", "pinv"):
        raise ValueError(f"unknown allocator {settings['allocator']!r}, expected sqp or pinv")
    if "radius" in config and not _is_catalog_id(settings["geometry"]):
        raise ValueError("the radius setting scales only catalog layouts, and the geometry setting "
                         "is a custom layout, whose arm endpoints give its size")
    return settings


def _is_catalog_id(spec) -> bool:
    return isinstance(spec, str) and spec in CATALOG_IDS


def resolve_geometry(spec, radius: float = DEFAULT_RADIUS):
    """Build a catalog id at `radius`; read any other spec with `load_geometry`."""
    if _is_catalog_id(spec):
        return build_catalog(spec, radius=radius)
    return load_geometry(spec)


def build_model(settings: dict) -> DroneModel:
    geometry = resolve_geometry(settings["geometry"], float(settings["radius"]))
    return DroneModel(geometry, **settings["model"])


def build_sweep(section: dict) -> SweepSpec:
    section = dict(section)
    kind = section.pop("kind", "orientation")
    if "axes" in section:
        section["axes"] = tuple(section["axes"])
    factories = {"orientation": orientation_sweep, "position": position_sweep,
                 "continuous_roll": continuous_roll}
    if kind in factories:
        return factories[kind](**section)
    return SweepSpec(kind, **section)


def build_scenario(settings: dict, allocator: str | None = None) -> Scenario:
    model = build_model(settings)
    return Scenario(
        model=model,
        sweep=build_sweep(settings["sweep"]),
        allocator=allocator or settings["allocator"],
        gains=PidGains(**settings["gains"]),
        weights=PenaltyWeights(**settings["weights"]),
        duration=settings["duration"],
        motor_lag=float(settings["motor_lag"]),
        noise_std=float(settings["noise_std"]),
        seed=settings["seed"],
        solver=SolverSettings(**settings["solver"]),
    )


# ---------------------------------------------------------------------------
# output plumbing


def _jsonable(obj):
    if isinstance(obj, dict):
        return {key: _jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(value) for value in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(value) for value in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        value = float(obj)
        return value if math.isfinite(value) else None
    return obj


def write_json(path, payload) -> None:
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"
    with open(path, "w", newline="\n") as handle:
        handle.write(text)


def write_table(out_dir: Path, stem: str, header: list[str], rows: np.ndarray, fmt: str) -> Path:
    path = out_dir / f"{stem}.{fmt}"
    if fmt == "csv":
        write_csv(path, header, rows)
    else:
        write_json(path, {"columns": header, "rows": [list(row) for row in rows]})
    return path


def _out_dir(settings: dict) -> Path:
    out = Path(settings["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands


def cmd_efficiency(args) -> int:
    settings = merge_settings(args)
    model = build_model(settings)
    geometry = model.geometry
    n_samples = settings["samples"]
    LOG.info("efficiency sweep: %s, %d samples", geometry.name, n_samples)

    eff = sweep_orientations(geometry, n_samples=n_samples, mass=model.mass, gravity=model.gravity)
    summary = eff.summary()  # raises InfeasibleHoverError before any file is written
    out = _out_dir(settings)
    header, rows = eff.table()
    samples_path = write_table(out, "efficiency_samples", header, rows, settings["format"])
    summary_path = out / "efficiency_summary.json"
    write_json(summary_path, summary)

    print(f"efficiency: {geometry.name}, {n_samples} samples, {len(eff.failures)} infeasible")
    print(f"x1 range [{summary['x1_min']:.4f}, {summary['x1_max']:.4f}], "
          f"x2 range [{summary['x2_min']:.4f}, {summary['x2_max']:.4f}]")
    print(f"wrote {samples_path}")
    print(f"wrote {summary_path}")
    return 0


def _require_vector(payload: dict, key: str, length: int) -> np.ndarray:
    if key not in payload:
        raise ValueError(f"field {key!r} is required")
    vec = finite_numbers(payload[key], length)
    if vec is None:
        raise ValueError(f"field {key!r} must be a list of {length} finite numbers")
    return vec


def parse_allocation_input(payload: dict, n_arms: int):
    """Validate a {q, F, M, warm?} request before any solve is attempted."""
    _check_keys(payload, _INPUT_KEYS, "allocation input")
    q = _require_vector(payload, "q", 4)
    force = _require_vector(payload, "F", 3)
    torque = _require_vector(payload, "M", 3)
    inp = AllocatorInput(Quaternion(*q), force, torque)
    warm = None
    if "warm" in payload:
        section = payload["warm"]
        _check_keys(section, _WARM_KEYS, "allocation input warm")
        u = _require_vector(section, "u", n_arms)
        a = _require_vector(section, "a", n_arms)
        lam = (_require_vector(section, "multipliers", 6)
               if "multipliers" in section else np.zeros(6))
        a_prev = (_require_vector(section, "a_prev", n_arms)
                  if "a_prev" in section else a.copy())
        warm = AllocatorState(u, a, lam, a_prev)
    return inp, warm


def cmd_allocate(args) -> int:
    settings = merge_settings(args)
    solver = SolverSettings(**settings["solver"])
    model = build_model(settings)
    with open(args.input) as handle:
        payload = json.load(handle)
    inp, warm = parse_allocation_input(payload, model.geometry.n_arms)

    if settings["allocator"] == "pinv":
        prev = warm.angles if warm is not None else None
        solution = pinv_allocate(inp, model, prev_angles=prev)
    else:
        if warm is None:
            warm = AllocatorState.cold_start(model)
        solution = sqp_allocate(inp, warm, model, PenaltyWeights(**settings["weights"]), solver)

    result = {
        "u": list(solution.throttles),
        "a": list(solution.angles),
        "iterations": int(solution.iterations),
        "residual": float(solution.residual),
        "objective": float(solution.objective),
        "converged": bool(solution.converged),
    }
    if args.out:
        write_json(args.out, result)
        print(f"wrote {args.out}")
    else:
        print(json.dumps(_jsonable(result), indent=2, sort_keys=True, allow_nan=False))
    return 0


def flight_stats(log, settle: float) -> dict:
    stats = summarize(log, settle=settle)
    step = max_command_step(log)
    payload = {
        "allocator": log.allocator,
        "dt_s": log.dt,
        "duration_s": float(len(log.t) * log.dt),
        "n_ticks": int(len(log.t)),
        "n_nonconverged": int(np.sum(~log.converged)),
        "settle_s": settle,
        "max_arm_step_rad": step,
        "arm_continuity_ok": bool(step < math.pi / 4),
        "iterations_median": float(np.median(log.iterations)),
        "iterations_max": int(np.max(log.iterations)) if len(log.iterations) else 0,
    }
    payload.update(stats.to_dict())
    return payload


def _fly_job(settings: dict) -> list[str]:
    scenario = build_scenario(settings)
    LOG.info("flight: %s allocator, %s sweep, %.1f s",
             scenario.allocator, scenario.sweep.kind, scenario.duration)
    log = run_flight(scenario)

    out = _out_dir(settings)
    header, rows = log.table()
    log_path = write_table(out, "flight_log", header, rows, settings["format"])
    stats = flight_stats(log, float(settings["settle"]))
    stats_path = out / "flight_stats.json"
    write_json(stats_path, stats)
    if stats["n_nonconverged"]:
        LOG.warning("allocator failed to converge on %d ticks", stats["n_nonconverged"])

    return [
        f"fly: {scenario.allocator} allocator, {scenario.sweep.kind} sweep, "
        f"{stats['n_ticks']} ticks, {stats['n_nonconverged']} non-converged",
        f"position error mean {stats['pos_mean_m']:.4f} m, p90 {stats['pos_p90_m']:.4f} m; "
        f"orientation error mean {stats['ori_mean_rad']:.4f} rad",
        f"max arm step {stats['max_arm_step_rad']:.4f} rad "
        f"(continuous: {stats['arm_continuity_ok']})",
        f"wrote {log_path}",
        f"wrote {stats_path}",
    ]


def cmd_fly(args) -> int:
    """One flight per config; several configs fly one after the other, in the given order."""
    configs = args.config if args.config else [None]
    all_settings = [merge_settings(args, config_path=path) for path in configs]
    if len(configs) > 1:
        if args.out:
            raise ValueError("--out cannot apply to several configs; set 'out' in each config")
        outs = [str(Path(s["out"]).resolve()) for s in all_settings]
        if len(set(outs)) != len(outs):
            raise ValueError("each config must write to a distinct 'out' directory")
    for settings in all_settings:
        for line in _fly_job(settings):
            print(line)
    return 0


def cmd_compare(args) -> int:
    settings = merge_settings(args)
    scenario_sqp = build_scenario(settings, allocator="sqp")
    scenario_pinv = build_scenario(settings, allocator="pinv")
    geometry = scenario_sqp.model.geometry

    LOG.info("comparison flights: %s sweep, %.1f s each",
             scenario_sqp.sweep.kind, scenario_sqp.duration)
    log_sqp, log_pinv = run_flight(scenario_sqp), run_flight(scenario_pinv)

    out = _out_dir(settings)
    settle = float(settings["settle"])
    paths = []
    for name, log in (("compare_sqp", log_sqp), ("compare_pinv", log_pinv)):
        header, rows = log.table()
        paths.append(write_table(out, name, header, rows, settings["format"]))

    comparison = compare_singularity_handling(log_sqp, log_pinv, geometry)
    payload = comparison.to_dict()
    payload["sqp"] = flight_stats(log_sqp, settle)
    payload["pinv"] = flight_stats(log_pinv, settle)
    comparison_path = out / "comparison.json"
    write_json(comparison_path, payload)

    print(f"compare: {comparison.n_arm_instants} arm-vertical flip instants, "
          f"{comparison.n_pairs} paired windows")
    print(f"mean peak position error: sqp {comparison.mean_peak_sqp:.4f} m, "
          f"pinv {comparison.mean_peak_pinv:.4f} m, one-sided p={comparison.p_value:.2e}")
    for path in paths:
        print(f"wrote {path}")
    print(f"wrote {comparison_path}")
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> _Parser:
    parser = _Parser(prog="rotorarm",
                     description="Rotating-arm multirotor analysis, allocation, and simulation.")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def common(p, with_seed=True, multi_config=False):
        if multi_config:
            p.add_argument("--config", action="append",
                           help="JSON run configuration; repeat to fly several in turn")
        else:
            p.add_argument("--config", help="JSON run configuration; flags override it")
        p.add_argument("--geometry", help="catalog id, geometry JSON file, or inline JSON")
        p.add_argument("--out", help="output directory (allocate: output file)")
        p.add_argument("--format", choices=("csv", "json"), help="table output format")
        if with_seed:
            p.add_argument("--seed", type=int, help="noise seed (unused when noise is off)")

    p_eff = sub.add_parser("efficiency", help="hover efficiency over sampled orientations")
    common(p_eff, with_seed=False)
    p_eff.add_argument("--samples", type=int, help="number of up-directions (>= 100)")
    p_eff.set_defaults(func=cmd_efficiency)

    p_alloc = sub.add_parser("allocate", help="solve one wrench allocation from a JSON request")
    p_alloc.add_argument("input", help="JSON file with q, F, M and optional warm start")
    common(p_alloc, with_seed=False)
    p_alloc.add_argument("--allocator", choices=("sqp", "pinv"))
    p_alloc.set_defaults(func=cmd_allocate)

    p_fly = sub.add_parser("fly", help="simulate one closed-loop flight")
    common(p_fly, multi_config=True)
    p_fly.add_argument("--allocator", choices=("sqp", "pinv"))
    p_fly.set_defaults(func=cmd_fly)

    p_cmp = sub.add_parser("compare", help="same sweep under both allocators, paired statistics")
    common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def _configure_logging() -> None:
    level_name = os.environ.get("ROTORARM_LOG", "warning").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "func", None):
            parser.print_usage(sys.stderr)
            return 1
        return args.func(args)
    except (SolverError, InfeasibleHoverError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
