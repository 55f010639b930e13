#!/usr/bin/env python3
"""Weighted MI of the optimized beamformer vs the scaled-identity baseline.

For each SNR the ascent is warm-started at the baseline W = sqrt(P_t/M) I,
so monotone backtracking guarantees the optimized point is never worse;
the gain is largest where the two objectives pull the transmit subspace in
different directions.

Run: python demos/beamforming_gain.py
"""

import math

from isac_mi import (
    NoiseConfig,
    PgaOptions,
    SystemDims,
    default_beamformer,
    generate_scenario,
    pga,
)

LN2 = math.log(2.0)
rho = 0.8

dims = SystemDims(n_t=8, n_r=8, n_u=8, num_scatter=2, m=8, n_s=8)
stats = generate_scenario(dims, rician_kappa=1.0, seed=7)
baseline = default_beamformer(dims, p_t=8.0)

print(f"{'SNR dB':>7} | {'baseline':>9} {'optimized':>10} {'gain':>7}  (weighted MI, bits)")
for snr in (-10.0, 0.0, 10.0, 20.0):
    noise = NoiseConfig(snr)
    # the trace's start row is the baseline and its best report the optimum: no re-solve
    _, trace = pga(stats, noise, rho, p_t=8.0, opts=PgaOptions(init=baseline))
    base, opt = trace.rows[0].weighted_mi, trace.best.weighted
    gain = opt - base
    print(f"{snr:7.1f} | {base / LN2:9.3f} {opt / LN2:10.3f} "
          f"{gain / LN2:7.3f}   ({len(trace.rows) - 1} iterations)")
