"""Config-driven experiment runner with CSV output.

Four experiments: `verify` compares the closed-form MIs against Monte Carlo
over an SNR grid, `convergence` traces the ascent for several array sizes,
`sweep` compares optimized vs baseline beamforming over SNR, and `tradeoff`
maps the sensing/communication frontier over the weighting factor.
`scenario-gen` pins a scenario to JSON.  Every run is serial and
reproducible byte-for-byte from (config, seed).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

from ._linalg import SingularMatrixError
from .fixedpoint import ConvergenceError, SolverOptions
from .mi import MiReport, NonRealShannonError, weighted_mi
from .model import (
    Beamformer,
    GeometryConfig,
    NoiseConfig,
    ScenarioStats,
    SystemDims,
    default_beamformer,
    generate_scenario,
    scenario_to_json,
)
from .montecarlo import mi_curves
from .optimizer import UNCONVERGED_RESIDUAL, PgaAbort, PgaOptions, pga

LN2 = math.log(2.0)


class ConfigError(ValueError):
    """The experiment configuration is malformed."""


_NOT_CONFIG_KEYS = ("init", "solver")  # PgaOptions fields that the config does not set


def _defaults(cls) -> dict:
    """Each config field of a dataclass with its default (MISSING if it has none)."""
    return {f.name: f.default for f in fields(cls) if f.name not in _NOT_CONFIG_KEYS}


_DEFAULT_CONFIG = {
    "scenario": {
        "n_t": 16,
        "n_r": 16,
        "n_u": 16,
        "num_scatter": 2,
        "m": None,  # defaults to n_u
        "n_s": None,  # defaults to m
        "rician_kappa": 1.0,
        "seed": 7,
        "geometry": _defaults(GeometryConfig),
    },
    "noise": {
        "snr_db_grid": [-10.0, 0.0, 10.0, 20.0, 30.0],
        "snr_db": 10.0,
        "sensing_offset_db": 20.0,
    },
    "run": {
        "rho": 0.8,
        "rho_grid": [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
        "trials": 10000,
        "gap_threshold": 0.02,
        "antenna_counts": [4, 8, 16],
        "p_t": None,  # defaults to n_t
        "solver": _defaults(SolverOptions),
        "pga": _defaults(PgaOptions),
    },
    "output": {"directory": "out"},
}

VERIFY_HEADER = (
    "snr_db,i_s_closed_bits,i_s_mc_bits,i_s_mc_stderr_bits,i_s_rel_gap,"
    "i_c_closed_bits,i_c_mc_bits,i_c_mc_stderr_bits,i_c_rel_gap"
)
CONVERGENCE_HEADER = "n_antennas,iter,weighted_bits,step,grad_norm"
SWEEP_HEADER = "snr_db,baseline_weighted_bits,optimized_weighted_bits,pga_iterations"
TRADEOFF_HEADER = "rho,i_s_bits,i_c_bits,weighted_bits"

_CSV_DOC = f"""CSV schemas (column order is stable):
  verify:      {VERIFY_HEADER}
  convergence: {CONVERGENCE_HEADER}
  sweep:       {SWEEP_HEADER}
  tradeoff:    {TRADEOFF_HEADER}
All MI columns are in bits; rel_gap columns are |closed - mc| / |mc|."""


def _merge(defaults: dict, user: dict, path: str = "") -> dict:
    out = dict(defaults)
    for key, value in user.items():
        where = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config key '{where}'")
        if isinstance(defaults[key], dict) and defaults[key]:
            if not isinstance(value, dict):
                raise ConfigError(f"config key '{where}' must be an object")
            out[key] = _merge(defaults[key], value, where)
        else:
            out[key] = value
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    dims: SystemDims
    rician_kappa: float
    seed: int
    geometry: GeometryConfig
    snr_db_grid: tuple[float, ...]
    snr_db: float
    sensing_offset_db: float
    rho: float
    rho_grid: tuple[float, ...]
    trials: int
    gap_threshold: float
    antenna_counts: tuple[int, ...]
    p_t: float
    solver: SolverOptions
    pga: PgaOptions
    out_dir: str


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _convert(value, default, key: str):
    """A config value of the JSON kind of its default.  An int default, or a
    SystemDims field without one, takes an integer (16.0 but not 2.9); a list
    default takes a list whose entries have the kind of its first entry; null
    is only taken where the default is null, and true/false are not numbers."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if default is None and value is None:
        return None
    if isinstance(default, (list, tuple)):
        if isinstance(value, (list, tuple)):
            return tuple(_convert(v, default[0], key) for v in value)
        kind = "a list"
    elif isinstance(default, str):
        if isinstance(value, str):
            return value
        kind = "a string"
    elif default is MISSING or isinstance(default, int):
        if number and (isinstance(value, int) or value.is_integer()):
            return int(value)
        kind = "an integer"
    elif number:
        try:
            return float(value)
        except OverflowError:  # an integer literal beyond the float range
            kind = "a number within the float range"
    else:
        kind = "a number"
    raise ConfigError(f"invalid config value: {key} must be {kind}, got {value!r}")


def _build(cls, section: dict, where: str, what: str, **given):
    """SystemDims or an option dataclass from its config section, one field at a time."""
    values = {
        name: _convert(section[name], default, f"{where}.{name}")
        for name, default in _defaults(cls).items()
    }
    try:
        return cls(**values, **given)
    except ValueError as exc:
        raise ConfigError(f"invalid {what}: {exc}") from exc


def parse_config(doc: dict, flags: dict | None = None) -> ExperimentConfig:
    """Validate a raw config document, with the command-line flags merged over
    it as config entries, and resolve defaults."""
    _require(isinstance(doc, dict), "config root must be an object")
    merged = _merge(_merge(_DEFAULT_CONFIG, doc), flags or {})
    sc, run = merged["scenario"], merged["run"]

    m = sc["m"] if sc["m"] is not None else sc["n_u"]
    n_s = sc["n_s"] if sc["n_s"] is not None else m
    dims = _build(SystemDims, {**sc, "m": m, "n_s": n_s}, "scenario", "scenario dimensions")
    geometry = _build(GeometryConfig, sc["geometry"], "scenario.geometry", "geometry")
    solver = _build(SolverOptions, run["solver"], "run.solver", "solver/pga options")
    pga_opts = _build(PgaOptions, run["pga"], "run.pga", "solver/pga options", solver=solver)
    dims_keys = _defaults(SystemDims)
    values = {
        key: _convert(merged[name][key], default, f"{name}.{key}")
        for name, section in _DEFAULT_CONFIG.items()
        for key, default in section.items()
        if not isinstance(default, dict) and key not in dims_keys
    }
    if values["p_t"] is None:
        values["p_t"] = float(dims.n_t)
    cfg = ExperimentConfig(
        dims=dims, geometry=geometry, solver=solver, pga=pga_opts,
        out_dir=values.pop("directory"), **values,
    )

    _require(cfg.seed >= 0, "scenario.seed must be >= 0")
    _require(len(cfg.snr_db_grid) > 0, "noise.snr_db_grid must be nonempty")
    try:
        for snr in (*cfg.snr_db_grid, cfg.snr_db):
            NoiseConfig(snr, cfg.sensing_offset_db)
    except ValueError as exc:  # a non-finite value, or a noise power that under- or overflows
        raise ConfigError(f"invalid noise: {exc}") from exc
    _require(cfg.gap_threshold > 0.0, "run.gap_threshold must be positive")
    _require(len(cfg.rho_grid) > 0, "run.rho_grid must be nonempty")
    for r in (cfg.rho, *cfg.rho_grid):
        _require(0.0 <= r <= 1.0, f"rho values must be in [0, 1], got {r}")
    _require(cfg.trials >= 2, "run.trials must be >= 2 for Monte Carlo experiments")
    _require(min(cfg.antenna_counts, default=0) >= 1, "run.antenna_counts must be nonempty, >= 1")
    _require(0.0 < cfg.p_t < math.inf, "run.p_t must be finite and positive")
    _require(cfg.rician_kappa > 0.0, "scenario.rician_kappa must be positive (inf for pure LoS)")
    return cfg


def load_config(path: str | None, flags: dict | None = None) -> ExperimentConfig:
    """The config file at path (the defaults if None), with the flags merged over it."""
    if path is None:
        return parse_config({}, flags)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer literal too long to convert
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    return parse_config(doc, flags)


def _scenario(cfg: ExperimentConfig) -> ScenarioStats:
    return generate_scenario(cfg.dims, cfg.rician_kappa, cfg.seed, cfg.geometry)


def _csv(header: str, rows) -> str:
    """CSV text: numbers print as %.12g, strings (pre-formatted columns) unchanged."""
    lines = [header]
    lines += [",".join(v if isinstance(v, str) else f"{v:.12g}" for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def run_verify(cfg: ExperimentConfig) -> tuple[str, bool]:
    """Closed form vs Monte Carlo over the SNR grid; ok iff all gaps < threshold."""
    stats = _scenario(cfg)
    w_bf = default_beamformer(cfg.dims, cfg.p_t)
    noise_grid = [NoiseConfig(s, cfg.sensing_offset_db) for s in cfg.snr_db_grid]

    closed = [weighted_mi(stats, w_bf, noise, cfg.rho, cfg.solver) for noise in noise_grid]
    mc_s, mc_c = mi_curves(stats, w_bf, noise_grid, cfg.trials)

    rows = []
    ok = True
    for snr, report, est_s, est_c in zip(cfg.snr_db_grid, closed, mc_s, mc_c):
        gap_s = abs(report.i_s - est_s.mean) / abs(est_s.mean)
        gap_c = abs(report.i_c - est_c.mean) / abs(est_c.mean)
        ok = ok and gap_s < cfg.gap_threshold and gap_c < cfg.gap_threshold
        rows.append((
            snr, report.i_s / LN2, est_s.mean / LN2, est_s.std_error / LN2, f"{gap_s:.6e}",
            report.i_c / LN2, est_c.mean / LN2, est_c.std_error / LN2, f"{gap_c:.6e}",
        ))
    return _csv(VERIFY_HEADER, rows), ok


def run_convergence(cfg: ExperimentConfig) -> str:
    """PGA trace per antenna count at the single configured SNR."""
    noise = NoiseConfig(cfg.snr_db, cfg.sensing_offset_db)

    rows = []
    for n in cfg.antenna_counts:
        dims = SystemDims(n_t=n, n_r=n, n_u=n, num_scatter=cfg.dims.num_scatter, m=n, n_s=n)
        stats = generate_scenario(dims, cfg.rician_kappa, cfg.seed, cfg.geometry)
        _, trace = pga(stats, noise, cfg.rho, float(n), cfg.pga)
        rows += [
            (n, r.iteration, r.weighted_mi / LN2, r.step_size, r.grad_norm) for r in trace.rows
        ]
    return _csv(CONVERGENCE_HEADER, rows)


def run_sweep(cfg: ExperimentConfig) -> str:
    """Baseline vs PGA-optimized weighted MI over the SNR grid."""
    stats = _scenario(cfg)
    baseline = default_beamformer(cfg.dims, cfg.p_t)
    # PGA starts at the baseline: monotone ascent keeps optimized >= baseline
    pga_opts = replace(cfg.pga, init=baseline)

    def one(snr: float):
        # PGA's start row is the baseline and its best report the optimum: no re-solve
        _, trace = pga(stats, NoiseConfig(snr, cfg.sensing_offset_db), cfg.rho, cfg.p_t, pga_opts)
        return trace.rows[0].weighted_mi, trace.best.weighted, len(trace.rows) - 1

    results = [one(snr) for snr in cfg.snr_db_grid]
    return _csv(SWEEP_HEADER, [
        (snr, base / LN2, opt / LN2, iters)
        for snr, (base, opt, iters) in zip(cfg.snr_db_grid, results)
    ])


def run_tradeoff(cfg: ExperimentConfig) -> str:
    """Optimized (i_s, i_c) frontier over the rho grid at the configured SNR.

    Runs PGA with continuation along the grid, then lets every rho pick the
    best candidate from the whole pool, which makes the frontier monotone by
    the scalarization argument even with a local optimizer.
    """
    stats = _scenario(cfg)
    noise = NoiseConfig(cfg.snr_db, cfg.sensing_offset_db)

    # Each rho after the first starts from the previous rho's beamformer and its
    # solved evaluation (report and both fixed points), so its start is not
    # re-solved and its trace row 0 counts 0 evaluations.  At rho = 0 or 1 PGA
    # solves only the weighted branch per candidate and the other branch once.
    pairs: list[MiReport] = []
    init: Beamformer | None = None
    start = None
    for rho in cfg.rho_grid:
        init, trace = pga(stats, noise, rho, cfg.p_t, replace(cfg.pga, init=init), start)
        start = (trace.best, *trace.fixed_points)
        pairs.append(trace.best)

    # i_s and i_c do not depend on rho, so each candidate's pair is the one PGA
    # already solved for it (warm-started, with a cold fallback): no re-solve.
    rows = []
    for rho in cfg.rho_grid:
        best_idx = max(
            range(len(pairs)),
            key=lambda j: rho * pairs[j].i_s + (1.0 - rho) * pairs[j].i_c,
        )
        chosen = pairs[best_idx]
        weighted = rho * chosen.i_s + (1.0 - rho) * chosen.i_c
        rows.append((rho, chosen.i_s / LN2, chosen.i_c / LN2, weighted / LN2))
    return _csv(TRADEOFF_HEADER, rows)


def _write_csv(cfg: ExperimentConfig, name: str, csv_text: str) -> Path:
    csv_path = Path(cfg.out_dir) / f"{name}.csv"
    csv_path.write_text(csv_text, encoding="utf-8")
    return csv_path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isac-mi",
        description="Asymptotic weighted MI experiments for MIMO ISAC beamforming.",
        epilog=_CSV_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("verify", "closed-form vs Monte Carlo MI over an SNR grid"),
        ("convergence", "PGA trace per antenna count"),
        ("sweep", "optimized vs baseline weighted MI over an SNR grid"),
        ("tradeoff", "sensing/communication frontier over the rho grid"),
        ("scenario-gen", "write the pinned scenario statistics as JSON"),
    ):
        p = sub.add_parser(
            name, help=doc, epilog=_CSV_DOC, formatter_class=argparse.RawDescriptionHelpFormatter
        )
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--trials", type=int, default=None, help="Monte Carlo trial count")
        p.add_argument("--seed", type=int, default=None, help="scenario seed override")
        p.add_argument(
            "--fast", action="store_true", help="fast mode: 2000 Monte Carlo trials"
        )
    return parser


def _flags(args: argparse.Namespace) -> dict:
    """The command-line flags that were given, as config entries to merge over the file."""
    flags = {
        "output": {"directory": args.out},
        "run": {"trials": 2000 if args.fast and args.trials is None else args.trials},
        "scenario": {"seed": args.seed},
    }
    return {name: {k: v for k, v in sec.items() if v is not None} for name, sec in flags.items()}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, _flags(args))
        if args.command in ("convergence", "sweep", "tradeoff"):
            _require(
                cfg.solver.tol <= UNCONVERGED_RESIDUAL,
                f"run.solver.tol must be <= {UNCONVERGED_RESIDUAL:g} for {args.command}, "
                f"whose gradient needs converged fixed points; got {cfg.solver.tol:g}",
            )
        Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"config error: cannot create the output directory: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command == "scenario-gen":
            path = Path(cfg.out_dir) / "scenario.json"
            path.write_text(scenario_to_json(_scenario(cfg)) + "\n", encoding="utf-8")
            print(f"wrote {path}")
            return 0
        if args.command == "verify":
            csv_text, ok = run_verify(cfg)
            path = _write_csv(cfg, "verify", csv_text)
            print(f"wrote {path} (all gaps < {cfg.gap_threshold:g}: {ok})")
            if not ok:
                print(
                    f"numerical failure during verify: a closed-form vs Monte Carlo gap "
                    f"exceeded {cfg.gap_threshold:g}",
                    file=sys.stderr,
                )
                return 2
            return 0
        if args.command == "convergence":
            path = _write_csv(cfg, "convergence", run_convergence(cfg))
        elif args.command == "sweep":
            path = _write_csv(cfg, "sweep", run_sweep(cfg))
        else:
            path = _write_csv(cfg, "tradeoff", run_tradeoff(cfg))
        print(f"wrote {path}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, SingularMatrixError, NonRealShannonError, PgaAbort) as exc:
        print(f"numerical failure during {args.command}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # writing an output file; the computation does no I/O
        where = exc.filename or "an output file"
        print(f"config error: cannot write {where}: {exc.strerror}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
