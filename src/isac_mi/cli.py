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
from dataclasses import dataclass, replace
from pathlib import Path

from ._linalg import SingularMatrixError
from .fixedpoint import ConvergenceError, SolverOptions
from .mi import NonRealShannonError, weighted_mi
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
from .optimizer import PgaAbort, PgaOptions, PgaTrace, pga

LN2 = math.log(2.0)


class ConfigError(ValueError):
    """The experiment configuration is malformed."""


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
        "geometry": {
            "comm_departure": [0.62832, 0.26180],
            "comm_arrival": [-0.52360, 0.31416],
            "target_center": [-0.78540, 0.22440],
            "scatter_spread": 0.17453,
        },
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
        "solver": {"tol": 1e-10, "max_iter": 5000, "damping": 0.5},
        "pga": {
            "epsilon": 1e-4,
            "max_outer_iters": 50,
            "step": "backtracking",
            "lambda0": None,
            "beta": 0.5,
            "slope": 1e-4,
            "init_seed": 1,
        },
    },
    "output": {"directory": "out", "formats": ["csv"]},
}

VERIFY_HEADER = (
    "snr_db,i_s_closed_bits,i_s_mc_bits,i_s_mc_stderr_bits,i_s_rel_gap,"
    "i_c_closed_bits,i_c_mc_bits,i_c_mc_stderr_bits,i_c_rel_gap"
)
CONVERGENCE_HEADER = f"n_antennas,{PgaTrace.CSV_HEADER}"
SWEEP_HEADER = "snr_db,baseline_weighted_bits,optimized_weighted_bits,pga_iterations"
TRADEOFF_HEADER = "rho,i_s_bits,i_c_bits,weighted_bits"

_CSV_DOC = f"""CSV schemas (column order is stable):
  verify:      {VERIFY_HEADER}
  convergence: {CONVERGENCE_HEADER}
  sweep:       {SWEEP_HEADER}
  tradeoff:    {TRADEOFF_HEADER}
All MI columns are in bits; rel_gap columns are |closed - mc| / |mc|.
Runs are serial; the ISAC_MI_THREADS environment variable is no longer read."""


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
    formats: tuple[str, ...]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def parse_config(doc: dict) -> ExperimentConfig:
    """Validate a raw config document and resolve defaults."""
    _require(isinstance(doc, dict), "config root must be an object")
    merged = _merge(_DEFAULT_CONFIG, doc)
    sc, noise, run, out = merged["scenario"], merged["noise"], merged["run"], merged["output"]

    m = sc["m"] if sc["m"] is not None else sc["n_u"]
    n_s = sc["n_s"] if sc["n_s"] is not None else m
    try:
        dims = SystemDims(
            n_t=int(sc["n_t"]),
            n_r=int(sc["n_r"]),
            n_u=int(sc["n_u"]),
            num_scatter=int(sc["num_scatter"]),
            m=int(m),
            n_s=int(n_s),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid scenario dimensions: {exc}") from exc

    geo = sc["geometry"]
    try:
        geometry = GeometryConfig(
            comm_departure=tuple(float(x) for x in geo["comm_departure"]),
            comm_arrival=tuple(float(x) for x in geo["comm_arrival"]),
            target_center=tuple(float(x) for x in geo["target_center"]),
            scatter_spread=float(geo["scatter_spread"]),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid geometry: {exc}") from exc

    grid = noise["snr_db_grid"]
    _require(isinstance(grid, (list, tuple)) and len(grid) > 0, "noise.snr_db_grid must be nonempty")
    try:
        grid = tuple(float(s) for s in grid)
        snr_db, offset_db = float(noise["snr_db"]), float(noise["sensing_offset_db"])
        rho = float(run["rho"])
        rho_grid = tuple(float(r) for r in run["rho_grid"])
        trials = int(run["trials"])
        gap_threshold = float(run["gap_threshold"])
        counts = tuple(int(n) for n in run["antenna_counts"])
        p_t = float(run["p_t"]) if run["p_t"] is not None else float(dims.n_t)
        kappa = float(sc["rician_kappa"])
        seed = int(sc["seed"])
        formats = tuple(str(f) for f in out["formats"])
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc
    _require(seed >= 0, "scenario.seed must be >= 0")
    _require(all(map(math.isfinite, (*grid, snr_db, offset_db))), "noise values must be finite")
    _require(gap_threshold > 0.0, "run.gap_threshold must be positive")
    for r in (rho, *rho_grid):
        _require(0.0 <= r <= 1.0, f"rho values must be in [0, 1], got {r}")
    _require(trials >= 2, "run.trials must be >= 2 for Monte Carlo experiments")
    _require(len(counts) > 0 and min(counts) >= 1, "run.antenna_counts must be nonempty, >= 1")
    _require(p_t > 0.0, "run.p_t must be positive")

    try:
        solver = SolverOptions(
            tol=float(run["solver"]["tol"]),
            max_iter=int(run["solver"]["max_iter"]),
            damping=float(run["solver"]["damping"]),
        )
        pga_cfg = run["pga"]
        pga_opts = PgaOptions(
            epsilon=float(pga_cfg["epsilon"]),
            max_outer_iters=int(pga_cfg["max_outer_iters"]),
            step=str(pga_cfg["step"]),
            lambda0=None if pga_cfg["lambda0"] is None else float(pga_cfg["lambda0"]),
            beta=float(pga_cfg["beta"]),
            slope=float(pga_cfg["slope"]),
            init_seed=int(pga_cfg["init_seed"]),
            solver=solver,
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid solver/pga options: {exc}") from exc

    for f in formats:
        _require(f in ("csv", "dat"), f"unknown output format '{f}'")

    _require(kappa > 0.0, "scenario.rician_kappa must be positive (inf for pure LoS)")

    return ExperimentConfig(
        dims=dims,
        rician_kappa=kappa,
        seed=seed,
        geometry=geometry,
        snr_db_grid=grid,
        snr_db=snr_db,
        sensing_offset_db=offset_db,
        rho=rho,
        rho_grid=rho_grid,
        trials=trials,
        gap_threshold=gap_threshold,
        antenna_counts=counts,
        p_t=p_t,
        solver=solver,
        pga=pga_opts,
        out_dir=str(out["directory"]),
        formats=formats,
    )


def load_config(path: str | None) -> ExperimentConfig:
    if path is None:
        return parse_config({})
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    return parse_config(doc)


def _scenario(cfg: ExperimentConfig) -> ScenarioStats:
    return generate_scenario(cfg.dims, cfg.rician_kappa, cfg.seed, cfg.geometry)


def run_verify(cfg: ExperimentConfig) -> tuple[str, bool]:
    """Closed form vs Monte Carlo over the SNR grid; ok iff all gaps < threshold."""
    stats = _scenario(cfg)
    w_bf = default_beamformer(cfg.dims, cfg.p_t)
    noise_grid = [NoiseConfig(s, cfg.sensing_offset_db) for s in cfg.snr_db_grid]

    closed = [weighted_mi(stats, w_bf, noise, cfg.rho, cfg.solver) for noise in noise_grid]
    mc_s, mc_c = mi_curves(stats, w_bf, noise_grid, cfg.trials)

    lines = [VERIFY_HEADER]
    ok = True
    for snr, report, est_s, est_c in zip(cfg.snr_db_grid, closed, mc_s, mc_c):
        gap_s = abs(report.i_s - est_s.mean) / abs(est_s.mean)
        gap_c = abs(report.i_c - est_c.mean) / abs(est_c.mean)
        ok = ok and gap_s < cfg.gap_threshold and gap_c < cfg.gap_threshold
        lines.append(
            f"{snr:.12g},{report.i_s / LN2:.12g},{est_s.mean / LN2:.12g},"
            f"{est_s.std_error / LN2:.12g},{gap_s:.6e},"
            f"{report.i_c / LN2:.12g},{est_c.mean / LN2:.12g},"
            f"{est_c.std_error / LN2:.12g},{gap_c:.6e}"
        )
    return "\n".join(lines) + "\n", ok


def run_convergence(cfg: ExperimentConfig) -> str:
    """PGA trace per antenna count at the single configured SNR."""
    noise = NoiseConfig(cfg.snr_db, cfg.sensing_offset_db)

    lines = [CONVERGENCE_HEADER]
    for n in cfg.antenna_counts:
        dims = SystemDims(n_t=n, n_r=n, n_u=n, num_scatter=cfg.dims.num_scatter, m=n, n_s=n)
        stats = generate_scenario(dims, cfg.rician_kappa, cfg.seed, cfg.geometry)
        _, trace = pga(stats, noise, cfg.rho, float(n), cfg.pga)
        lines += [f"{n},{row}" for row in trace.to_csv().splitlines()[1:]]
    return "\n".join(lines) + "\n"


def run_sweep(cfg: ExperimentConfig) -> str:
    """Baseline vs PGA-optimized weighted MI over the SNR grid."""
    stats = _scenario(cfg)
    baseline = default_beamformer(cfg.dims, cfg.p_t)
    # warm start: monotone ascent keeps optimized >= baseline
    pga_opts = replace(cfg.pga, init=baseline)

    def one(snr: float):
        noise = NoiseConfig(snr, cfg.sensing_offset_db)
        base_report = weighted_mi(stats, baseline, noise, cfg.rho, cfg.solver)
        best, trace = pga(stats, noise, cfg.rho, cfg.p_t, pga_opts)
        opt_report = weighted_mi(stats, best, noise, cfg.rho, cfg.solver)
        return base_report.weighted, opt_report.weighted, len(trace.rows) - 1

    results = [one(snr) for snr in cfg.snr_db_grid]
    lines = [SWEEP_HEADER]
    for snr, (base, opt, iters) in zip(cfg.snr_db_grid, results):
        lines.append(f"{snr:.12g},{base / LN2:.12g},{opt / LN2:.12g},{iters}")
    return "\n".join(lines) + "\n"


def run_tradeoff(cfg: ExperimentConfig) -> str:
    """Optimized (i_s, i_c) frontier over the rho grid at the configured SNR.

    Runs PGA with continuation along the grid, then lets every rho pick the
    best candidate from the whole pool, which makes the frontier monotone by
    the scalarization argument even with a local optimizer.
    """
    stats = _scenario(cfg)
    noise = NoiseConfig(cfg.snr_db, cfg.sensing_offset_db)

    candidates: list[Beamformer] = []
    init: Beamformer | None = None
    for rho in cfg.rho_grid:
        best, _ = pga(stats, noise, rho, cfg.p_t, replace(cfg.pga, init=init))
        candidates.append(best)
        init = best

    # i_s and i_c do not depend on rho, so each candidate is evaluated once.
    pairs = [weighted_mi(stats, w_bf, noise, 0.5, cfg.solver) for w_bf in candidates]
    lines = [TRADEOFF_HEADER]
    for rho in cfg.rho_grid:
        best_idx = max(
            range(len(pairs)),
            key=lambda j: rho * pairs[j].i_s + (1.0 - rho) * pairs[j].i_c,
        )
        chosen = pairs[best_idx]
        weighted = rho * chosen.i_s + (1.0 - rho) * chosen.i_c
        lines.append(
            f"{rho:.12g},{chosen.i_s / LN2:.12g},{chosen.i_c / LN2:.12g},{weighted / LN2:.12g}"
        )
    return "\n".join(lines) + "\n"


def _write_outputs(cfg: ExperimentConfig, name: str, csv_text: str) -> Path:
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{name}.csv"
    csv_path.write_text(csv_text, encoding="utf-8")
    if "dat" in cfg.formats:
        header, *rows = csv_text.strip().split("\n")
        dat = "# " + header.replace(",", " ") + "\n" + "\n".join(
            r.replace(",", " ") for r in rows
        ) + "\n"
        (out_dir / f"{name}.dat").write_text(dat, encoding="utf-8")
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


def _apply_overrides(cfg: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    updates = {}
    if args.out is not None:
        updates["out_dir"] = args.out
    if args.trials is not None:
        updates["trials"] = args.trials
    elif args.fast:
        updates["trials"] = 2000
    if args.seed is not None:
        updates["seed"] = args.seed
    if not updates:
        return cfg
    cfg = replace(cfg, **updates)
    if cfg.trials < 2:
        raise ConfigError("trials must be >= 2")
    if cfg.seed < 0:
        raise ConfigError("seed must be >= 0")
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command == "scenario-gen":
            out_dir = Path(cfg.out_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / "scenario.json"
            path.write_text(scenario_to_json(_scenario(cfg)) + "\n", encoding="utf-8")
            print(f"wrote {path}")
            return 0
        if args.command == "verify":
            csv_text, ok = run_verify(cfg)
            path = _write_outputs(cfg, "verify", csv_text)
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
            path = _write_outputs(cfg, "convergence", run_convergence(cfg))
        elif args.command == "sweep":
            path = _write_outputs(cfg, "sweep", run_sweep(cfg))
        elif args.command == "tradeoff":
            path = _write_outputs(cfg, "tradeoff", run_tradeoff(cfg))
        else:  # unreachable with required=True
            return 1
        print(f"wrote {path}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, SingularMatrixError, NonRealShannonError, PgaAbort) as exc:
        print(f"numerical failure during {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
