"""Cold weighted-MI solves over the reachable parameter grid.

270 points: three shapes (square headline, wide non-square, m < n_t), L in
{1, 2, 4}, n_s in {m, 4m}, kappa from near-Rayleigh to pure LoS and SNR from
-20 to 40 dB, each with the default beamformer on scenario seed 7.  Every
point must converge to a fixed point with the resolvent sign structure and
self-consistent stored equations.
"""

import itertools
import math

import numpy as np
import pytest

from isac_mi import (
    NoiseConfig,
    SpectralPoint,
    SystemDims,
    default_beamformer,
    generate_scenario,
    residual_comm,
    residual_sensing,
    weighted_mi,
)

_SHAPES = ((16, 16, 16, 16), (32, 16, 8, 8), (16, 8, 12, 6))  # (n_t, n_r, n_u, m)

_GRID = [
    pytest.param(
        shape, num_scatter, n_s_factor, kappa, snr_db,
        id=f"{'/'.join(map(str, shape[:3]))},m={shape[3]},L={num_scatter},"
        f"n_s={n_s_factor * shape[3]},kappa={kappa:g},snr={snr_db:g}dB",
    )
    for shape, num_scatter, n_s_factor, kappa, snr_db in itertools.product(
        _SHAPES, (1, 2, 4), (1, 4), (0.05, 1.0, math.inf), (-20.0, 0.0, 20.0, 30.0, 40.0)
    )
]


@pytest.mark.parametrize("shape, num_scatter, n_s_factor, kappa, snr_db", _GRID)
def test_grid_point_converges_to_a_consistent_fixed_point(
    shape, num_scatter, n_s_factor, kappa, snr_db
):
    n_t, n_r, n_u, m = shape
    dims = SystemDims(n_t=n_t, n_r=n_r, n_u=n_u, num_scatter=num_scatter, m=m, n_s=n_s_factor * m)
    stats = generate_scenario(dims, kappa, seed=7)
    bf = default_beamformer(dims, float(n_t))
    noise = NoiseConfig(snr_db)
    _, fp_s, fp_c = weighted_mi(stats, bf, noise, 0.8, return_fixed_points=True)
    assert np.linalg.eigvalsh(-fp_s.g_c_tilde).min() > -1e-8
    assert np.linalg.eigvalsh(fp_s.g_c).min() > -1e-8
    assert fp_s.phi_scalar >= 1.0 - 1e-12
    assert np.linalg.eigvalsh(-fp_c.g_e_tilde).min() > -1e-8
    assert np.linalg.eigvalsh(fp_c.g_e).min() > -1e-8
    point_s = SpectralPoint.from_noise_power(noise.sigma_s2)
    point_c = SpectralPoint.from_noise_power(noise.sigma_c2)
    assert residual_sensing(fp_s, stats, bf, point_s) <= 1e-10
    assert residual_comm(fp_c, stats, bf, point_c) <= 1e-10
