"""Acceptance gate: every release criterion runs here at its stated tolerance.

Each test prints one PASS/FAIL line so the suite doubles as a checklist:

    pytest tests/test_acceptance.py -v -s

This is the slow part of the suite (Monte Carlo oracles and full ascent
runs); expect a few minutes.
"""

import json
import time

import numpy as np

from isac_mi import (
    Beamformer,
    NoiseConfig,
    PgaOptions,
    SpectralPoint,
    SystemDims,
    cauchy_sensing,
    default_beamformer,
    derivative_identity_check,
    effective_los,
    estimate,
    generate_scenario,
    gradient,
    mi_curves,
    pga,
    residual_comm,
    residual_sensing,
    solve_comm,
    solve_sensing,
    weighted_mi,
)
import isac_mi.optimizer as optimizer_module
from isac_mi.cli import main, parse_config, run_tradeoff
from isac_mi.correlation import CorrelationOps
from helpers import (
    check_operator_linearity,
    check_operator_mc_consistency,
    check_operator_positivity,
    check_trace_duality,
    fd_weighted_gradient,
    scalar_los_oracle,
    scalar_los_scenario,
)

SNR_GRID = [-10.0, 0.0, 10.0, 20.0, 30.0]


def _gate(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_deterministic_equivalent_accuracy(scenario16, beamformer16):
    start = time.time()
    noise_grid = [NoiseConfig(snr) for snr in SNR_GRID]
    closed = [weighted_mi(scenario16, beamformer16, n, 0.8) for n in noise_grid]
    mc_s, mc_c = mi_curves(scenario16, beamformer16, noise_grid, trials=2000)
    gaps = []
    for rep, est_s, est_c in zip(closed, mc_s, mc_c):
        gaps.append(abs(rep.i_s - est_s.mean) / abs(est_s.mean))
        gaps.append(abs(rep.i_c - est_c.mean) / abs(est_c.mean))
    elapsed = time.time() - start
    detail = f"max gap {max(gaps):.3%} over {SNR_GRID} dB, {elapsed:.0f}s"
    _gate("1 closed form vs MC within 2% (N=16, L=2, 2e3 trials)", max(gaps) < 0.02, detail)
    _gate("1b runtime under 10 minutes", elapsed < 600.0, f"{elapsed:.0f}s")


def test_closed_form_gap_shrinks_as_the_arrays_grow():
    # The deterministic equivalent is the large-array limit of the finite-size
    # MI, so its gap to Monte Carlo must shrink as the arrays grow: a closed
    # form with a small error would pass the 2% gate of criterion 1 and fail
    # this.  Comm branch at 20 dB, headline ratios N = n_t = n_r = n_u = m =
    # n_s, kappa = 1, L = 2; each doubling must shrink |gap| by more than three
    # standard errors on either side.  Sensing is left out: from N = 8 on its
    # standard error is as large as its gap.
    start = time.time()
    noise = NoiseConfig(20.0)
    gaps = []  # (N, relative gap, its standard error)
    for n in (4, 8, 16):
        dims = SystemDims(n_t=n, n_r=n, n_u=n, num_scatter=2, m=n, n_s=n)
        stats = generate_scenario(dims, 1.0, seed=7)
        bf = default_beamformer(dims, float(n))
        closed = weighted_mi(stats, bf, noise, 0.0).i_c
        est = estimate(stats, bf, noise, "mi_c", trials=4000)
        gaps.append((n, (closed - est.mean) / est.mean, est.std_error / est.mean))
    elapsed = time.time() - start
    for (n, gap, se), (n2, gap2, se2) in zip(gaps, gaps[1:]):
        detail = (
            f"|gap| {abs(gap):.2e} +- {se:.1e} -> {abs(gap2):.2e} +- {se2:.1e}, "
            f"ratio {abs(gap) / abs(gap2):.2f}, {elapsed:.1f}s"
        )
        _gate(
            f"comm closed form vs MC gap shrinks from N={n} to N={n2} (20 dB, 4e3 trials)",
            abs(gap2) + 3.0 * se2 < abs(gap) - 3.0 * se,
            detail,
        )


def test_criterion_2_pure_los_comm_exactness():
    dims = SystemDims(n_t=4, n_r=4, n_u=4, num_scatter=2, m=4, n_s=4)
    stats = generate_scenario(dims, float("inf"), seed=3)
    bf = default_beamformer(dims, 4.0)
    worst = 0.0
    for snr in np.linspace(-10.0, 35.0, 10):
        noise = NoiseConfig(float(snr))
        rep = weighted_mi(stats, bf, noise, 0.5)
        _, h_eff, _ = effective_los(stats, bf)
        exact = np.linalg.slogdet(np.eye(4) + h_eff.conj().T @ h_eff / noise.sigma_c2)[1]
        worst = max(worst, abs(rep.i_c - exact))
    _gate("2 pure-LoS comm equals logdet to 1e-8 (10-point SNR grid)", worst < 1e-8, f"max |diff| {worst:.2e}")


def test_criterion_3_scalar_bisection_oracle():
    g = 1.1 - 0.6j
    stats = scalar_los_scenario(g)
    bf = Beamformer(np.array([[0.9]]), 1.0)
    worst = 0.0
    for sigma2 in (0.2, 1.0, 5.0):
        point = SpectralPoint(-sigma2)
        fp = solve_sensing(stats, bf, point)
        oracle = scalar_los_oracle(g * 0.9, sigma2)
        g_eff, _, _ = effective_los(stats, bf)
        from isac_mi import shannon_sensing

        worst = max(
            worst,
            abs(fp.phi - oracle["phi"]),
            abs(complex(fp.g[0, 0]) - oracle["g_c"]),
            abs(complex(fp.g_tilde[0, 0, 0]) - oracle["g_c_tilde"]),
            abs(cauchy_sensing(fp) - oracle["cauchy"].real),
            abs(shannon_sensing(fp, point, stats.dims, g_eff) - oracle["shannon"]),
        )
    _gate("3 scalar fixed point & Shannon transform match bisection to 1e-8", worst < 1e-8, f"max |diff| {worst:.2e}")


def test_criterion_4_self_consistency(scenario4, beamformer4, scenario16, beamformer16):
    worst_res, worst_herm, sign_ok = 0.0, 0.0, True
    cases = [(scenario4, beamformer4), (scenario16, beamformer16)]
    for stats, bf in cases:
        for snr in (0.0, 10.0, 20.0):
            noise = NoiseConfig(snr)
            p_s = SpectralPoint(-noise.sigma_s2)
            p_c = SpectralPoint(-noise.sigma_c2)
            fs = solve_sensing(stats, bf, p_s)
            fc = solve_comm(stats, bf, p_c)
            worst_res = max(
                worst_res,
                residual_sensing(fs, stats, bf, p_s),
                residual_comm(fc, stats, bf, p_c),
            )
            for a in (fs.g_tilde, fs.g, fs.pi, fc.g_tilde, fc.g):
                worst_herm = max(worst_herm, float(np.linalg.norm(a - a.conj().swapaxes(-1, -2))))
            sign_ok = sign_ok and np.linalg.eigvalsh(-fs.g_tilde).min() > -1e-8
            sign_ok = sign_ok and np.linalg.eigvalsh(fs.g).min() > -1e-8
            sign_ok = sign_ok and np.linalg.eigvalsh(-fc.g_tilde).min() > -1e-8
            sign_ok = sign_ok and np.linalg.eigvalsh(fc.g).min() > -1e-8
    _gate("4 residual <= 1e-10 on every converged solve", worst_res <= 1e-10, f"max residual {worst_res:.2e}")
    _gate("4b Hermiticity <= 1e-10", worst_herm <= 1e-10, f"max asymmetry {worst_herm:.2e}")
    _gate("4c resolvent sign invariants", sign_ok)


def test_criterion_5_derivative_identity():
    worst = 0.0
    for seed in (11, 23):
        dims = SystemDims(n_t=4, n_r=4, n_u=4, num_scatter=2, m=4, n_s=4)
        stats = generate_scenario(dims, 1.0, seed=seed)
        bf = default_beamformer(dims, 4.0)
        noise = NoiseConfig(5.0)
        for branch in ("sensing", "comm"):
            sigma2 = noise.sigma_s2 if branch == "sensing" else noise.sigma_c2
            worst = max(
                worst, derivative_identity_check(stats, bf, noise, branch, 1e-4 * sigma2)
            )
    _gate("5 dV/dsigma2 = -1/sigma2 - G(-sigma2) to 1e-6 (both branches)", worst < 1e-6, f"max discrepancy {worst:.2e}")


def test_criterion_6_gradient_matches_finite_differences(scenario4):
    rng = np.random.default_rng(2)
    w0 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    w0 = 0.8 * 2.0 * w0 / np.linalg.norm(w0)
    bf = Beamformer(w0, 4.0)
    noise = NoiseConfig(10.0)
    worst = 0.0
    for rho in (0.0, 0.5, 0.8, 1.0):
        _, fs, fc = weighted_mi(scenario4, bf, noise, rho, return_fixed_points=True)
        g = gradient(scenario4, bf, noise, rho, fs, fc)
        fd = fd_weighted_gradient(scenario4, w0, 4.0, noise, rho)
        worst = max(worst, float(np.linalg.norm(fd - g) / np.linalg.norm(fd)))
    _gate("6 closed-form gradient matches FD to 1e-4 (rho in {0,.5,.8,1})", worst < 1e-4, f"max rel err {worst:.2e}")


def test_criterion_7_pga_sweep_beats_baseline(monkeypatch):
    dims = SystemDims(n_t=8, n_r=8, n_u=8, num_scatter=2, m=8, n_s=8)
    stats = generate_scenario(dims, 1.0, seed=7)
    baseline = default_beamformer(dims, 8.0)
    evaluated = []  # every point PGA solves at, accepted or not

    def recording(stats, w_bf, *args, **kwargs):
        evaluated.append(w_bf.power)
        return weighted_mi(stats, w_bf, *args, **kwargs)

    monkeypatch.setattr(optimizer_module, "weighted_mi", recording)
    feasible, monotone, strict = True, True, True
    iteration_counts = []
    for snr in SNR_GRID:
        noise = NoiseConfig(snr)
        base = weighted_mi(stats, baseline, noise, 0.8)
        best, trace = pga(stats, noise, 0.8, 8.0, PgaOptions(init=baseline))
        opt = weighted_mi(stats, best, noise, 0.8)
        feasible = feasible and max(evaluated) <= 8.0 + 1e-12 and best.power <= 8.0 + 1e-12
        values = [r.weighted_mi for r in trace.rows]
        monotone = monotone and all(b >= a for a, b in zip(values, values[1:]))
        strict = strict and opt.weighted > base.weighted
        iteration_counts.append(len(trace.rows) - 1)
    _gate("7 feasibility ||W||^2 <= P_t + 1e-12 after every iteration", feasible)
    _gate("7b monotone objective under backtracking", monotone)
    _gate(
        "7c optimized > baseline at every SNR (N=8, rho=0.8)",
        strict,
        f"iterations per SNR {iteration_counts} (reported, not gated)",
    )


def test_criterion_8_tradeoff_frontier_monotone():
    cfg = parse_config(
        {
            "scenario": {"n_t": 8, "n_r": 8, "n_u": 8, "num_scatter": 2, "seed": 7},
            "noise": {"snr_db_grid": [10.0], "snr_db": 10.0},
            "run": {"trials": 2, "rho_grid": [round(0.1 * k, 1) for k in range(11)]},
        }
    )
    rows = [
        tuple(map(float, line.split(",")))
        for line in run_tradeoff(cfg).strip().split("\n")[1:]
    ]
    i_s = [r[1] for r in rows]
    i_c = [r[2] for r in rows]
    s_ok = all(b >= a - 1e-6 for a, b in zip(i_s, i_s[1:]))
    c_ok = all(b <= a + 1e-6 for a, b in zip(i_c, i_c[1:]))
    _gate(
        "8 frontier monotone over rho grid (N=8, SNR 10 dB)",
        s_ok and c_ok,
        f"i_s {i_s[0]:.2f}->{i_s[-1]:.2f} bits up, i_c {i_c[0]:.2f}->{i_c[-1]:.2f} bits down",
    )


def test_criterion_9_operator_property_suite():
    dims = SystemDims(n_t=4, n_r=3, n_u=5, num_scatter=2, m=3, n_s=4)
    stats = generate_scenario(dims, 1.0, seed=21)
    ops = CorrelationOps(stats)
    rng = np.random.default_rng(42)
    check_operator_linearity(ops, rng)
    check_operator_positivity(ops, rng)
    check_trace_duality(ops, rng)
    check_operator_mc_consistency(stats, rng)
    _gate("9 operator linearity/positivity/duality/MC-consistency", True)


def test_criterion_10_cli_reproducibility(tmp_path):
    doc = {
        "scenario": {"n_t": 8, "n_r": 8, "n_u": 8, "num_scatter": 2, "seed": 5},
        "noise": {"snr_db_grid": [0.0, 10.0], "snr_db": 10.0},
        "run": {"trials": 500, "gap_threshold": 0.05, "rho_grid": [0.0, 0.5, 1.0]},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    outputs = []
    for tag in ("x", "y"):
        assert main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / f"v{tag}")]) == 0
        assert main(["tradeoff", "--config", str(cfg_path), "--out", str(tmp_path / f"t{tag}")]) == 0
        outputs.append(
            (
                (tmp_path / f"v{tag}" / "verify.csv").read_bytes(),
                (tmp_path / f"t{tag}" / "tradeoff.csv").read_bytes(),
            )
        )
    _gate("10 identical config+seed give identical CSV bytes", outputs[0] == outputs[1])
