"""System model: dimensions, channel statistics, beamformer, noise.

The sensing and communication channels follow the Weichselberger family

    H = Hbar + U (M o P) V',      P i.i.d. CN(0, 1/N_t),

where Hbar is a deterministic line-of-sight component, U/V are deterministic
unitaries, M is an entrywise nonnegative variance profile and `o` is the
Hadamard product.  A scenario bundles one such statistic for the uplink
channel (N_u x N_t) and one per scatterer for the round-trip sensing
channels (N_r x N_t each).  Everything here is deterministic given
(dims, kappa, seed, geometry) and immutable after construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
import numpy as np


class DimensionError(ValueError):
    """A system-dimension constraint is violated."""


@dataclass(frozen=True)
class SystemDims:
    """Antenna/stream/sample counts.

    n_t: transmit antennas at the UE; n_r: receive antennas at the UE
    (sensing echoes); n_u: receive antennas at the BS; num_scatter: number
    of scatterers L; m: data streams; n_s: signal samples per block.
    """

    n_t: int
    n_r: int
    n_u: int
    num_scatter: int
    m: int
    n_s: int

    def __post_init__(self):
        validate(self)


def validate(dims: SystemDims) -> None:
    """Raise DimensionError unless all SystemDims constraints hold."""
    for name in ("n_t", "n_r", "n_u", "num_scatter", "m", "n_s"):
        value = getattr(dims, name)
        if _is_bool(value) or not isinstance(value, (int, np.integer)) or value < 1:
            raise DimensionError(f"{name} must be an integer >= 1, got {value!r}")
    if dims.m > dims.n_t:
        raise DimensionError(f"M exceeds N_t (m={dims.m} > n_t={dims.n_t})")


def _is_bool(value) -> bool:
    """A bool passes for an integer (bool subclasses int), but is no count or seed."""
    return isinstance(value, (bool, np.bool_))


def _integral_seed(seed, name: str = "seed") -> int:
    """`seed` as an int; a bool or a non-integral value raises instead of being converted."""
    try:
        value = int(seed)
    except (TypeError, ValueError, OverflowError):
        value = None
    if value is None or value != seed or _is_bool(seed):
        raise ValueError(f"{name} must be an integer, got {seed!r}")
    return value


def _check_count(value, name: str, minimum: int) -> None:
    """Raise ValueError naming `name` unless `value` is an integer >= minimum.  Like
    the SystemDims counts, a float or a bool is refused even when integral."""
    if _is_bool(value) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class WeichselbergerStats:
    """Deterministic statistics of one channel: LoS mean, eigenbases, variance profile.

    Shapes: mean and variance_profile are (n_rx, n_tx); left_unitary is
    (n_rx, n_rx) and right_unitary is (n_tx, n_tx).
    """

    mean: np.ndarray
    left_unitary: np.ndarray
    right_unitary: np.ndarray
    variance_profile: np.ndarray

    def __post_init__(self):
        mean = _readonly(np.asarray(self.mean, dtype=complex))
        left = _readonly(np.asarray(self.left_unitary, dtype=complex))
        right = _readonly(np.asarray(self.right_unitary, dtype=complex))
        profile = _readonly(np.asarray(self.variance_profile, dtype=float))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "left_unitary", left)
        object.__setattr__(self, "right_unitary", right)
        object.__setattr__(self, "variance_profile", profile)

        n_rx, n_tx = mean.shape
        if left.shape != (n_rx, n_rx) or right.shape != (n_tx, n_tx):
            raise DimensionError(
                f"unitary shapes {left.shape}/{right.shape} inconsistent with mean {mean.shape}"
            )
        if profile.shape != mean.shape:
            raise DimensionError(
                f"variance profile shape {profile.shape} != mean shape {mean.shape}"
            )
        for name, u in (("left_unitary", left), ("right_unitary", right)):
            err = np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0]))
            if err > 1e-10:
                raise ValueError(f"{name} is not unitary (||U'U - I|| = {err:.3e})")
        if profile.min() < 0.0:
            raise ValueError("variance profile has negative entries")


@dataclass(frozen=True)
class ScenarioStats:
    """All deterministic statistics of one scenario plus its generating seed."""

    dims: SystemDims
    comm: WeichselbergerStats
    sensing: tuple[WeichselbergerStats, ...]
    rician_kappa: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "sensing", tuple(self.sensing))
        d = self.dims
        if len(self.sensing) != d.num_scatter:
            raise DimensionError(
                f"expected {d.num_scatter} sensing channels, got {len(self.sensing)}"
            )
        if self.comm.mean.shape != (d.n_u, d.n_t):
            raise DimensionError("comm stats shape inconsistent with dims")
        for l, s in enumerate(self.sensing):
            if s.mean.shape != (d.n_r, d.n_t):
                raise DimensionError(f"sensing stats {l} shape inconsistent with dims")


@dataclass(frozen=True)
class NoiseConfig:
    """Noise powers from the BS-side SNR in dB.

    The sensing link operates `sensing_offset_db` below the BS SNR, so its
    noise power is larger: sigma_s2 = 10^(-(snr_bs_db - offset)/10).  Both
    powers must be finite and positive: one that under- or overflows raises.
    """

    snr_bs_db: float
    sensing_offset_db: float = 20.0

    def __post_init__(self):
        try:
            ok = all(0.0 < p < math.inf for p in (self.sigma_c2, self.sigma_s2))
        except OverflowError:
            ok = False
        if not ok:
            raise ValueError(
                f"noise powers must be finite and positive, got snr_bs_db = {self.snr_bs_db!r} "
                f"and sensing_offset_db = {self.sensing_offset_db!r}"
            )

    @property
    def sigma_c2(self) -> float:
        return 10.0 ** (-self.snr_bs_db / 10.0)

    @property
    def sigma_s2(self) -> float:
        return 10.0 ** (-(self.snr_bs_db - self.sensing_offset_db) / 10.0)


@dataclass(frozen=True)
class Beamformer:
    """Transmit beamforming matrix (n_t, m) with Frobenius power budget p_t."""

    w: np.ndarray
    p_t: float

    def __post_init__(self):
        w = _readonly(np.asarray(self.w, dtype=complex))
        object.__setattr__(self, "w", w)
        if w.ndim != 2:
            raise DimensionError("beamformer must be a matrix")
        if not 0.0 < self.p_t < math.inf:
            raise ValueError("transmit power budget must be finite and positive")
        if not np.isfinite(w).all():
            raise ValueError("beamformer entries must be finite")
        power = float(np.linalg.norm(w) ** 2)
        if power > self.p_t + 1e-9 * max(1.0, self.p_t):  # relative to p_t at large budgets
            raise ValueError(
                f"beamformer infeasible: ||W||_F^2 = {power:.12g} > p_t = {self.p_t:.12g}"
            )

    @property
    def power(self) -> float:
        return float(np.linalg.norm(self.w) ** 2)


@dataclass(frozen=True)
class GeometryConfig:
    """Link directions in radians: (azimuth, elevation) pairs.

    comm_departure is the UE->BS direction seen from the UE array,
    comm_arrival the same link seen from the BS array.  Scatterer
    directions are drawn uniformly within +-scatter_spread of
    target_center, and each round-trip LoS uses the same direction for
    departure and return (monostatic sensing).
    """

    comm_departure: tuple[float, float] = (0.62832, 0.26180)
    comm_arrival: tuple[float, float] = (-0.52360, 0.31416)
    target_center: tuple[float, float] = (-0.78540, 0.22440)
    scatter_spread: float = 0.17453

    def __post_init__(self):
        for name in ("comm_departure", "comm_arrival", "target_center"):
            direction = getattr(self, name)
            if len(direction) != 2 or not all(map(math.isfinite, direction)):
                raise ValueError(f"{name} must be an (azimuth, elevation) pair of finite floats")
        if not 0.0 <= self.scatter_spread < math.inf:
            raise ValueError("scatter_spread must be finite and nonnegative")


def upa_steering(rows: int, cols: int, azimuth: float, elevation: float) -> np.ndarray:
    """Steering vector of a half-wavelength uniform planar array.

    Element (p, q) sits at height p and horizontal offset q (both in units
    of lambda/2); the phase is pi*(p*sin(el) + q*cos(el)*sin(az)) so that
    broadside (az = el = 0) gives the all-ones vector.  Returned row-major
    with length rows*cols and squared norm rows*cols.
    """
    if rows < 1 or cols < 1:
        raise DimensionError("UPA needs at least one element per axis")
    p = np.arange(rows)[:, None]
    q = np.arange(cols)[None, :]
    phase = np.pi * (p * math.sin(elevation) + q * math.cos(elevation) * math.sin(azimuth))
    return np.exp(1j * phase).reshape(rows * cols)


def _upa_factor(n: int) -> tuple[int, int]:
    """Split an antenna count into the most square rows x cols grid."""
    rows = int(math.isqrt(n))
    while n % rows != 0:
        rows -= 1
    return rows, n // rows


def _array_response(n: int, direction: tuple[float, float]) -> np.ndarray:
    rows, cols = _upa_factor(n)
    return upa_steering(rows, cols, direction[0], direction[1])


def _haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _scaled_profile(
    shape: tuple[int, int], n_t: int, mean_power: float, kappa: float, rng: np.random.Generator
) -> np.ndarray:
    """Uniform(0,1) profile rescaled so E||random part||_F^2 = ||mean||_F^2 / kappa."""
    if math.isinf(kappa):
        return np.zeros(shape)
    profile = rng.uniform(0.0, 1.0, size=shape)
    target = n_t * mean_power / kappa  # sum of squared profile entries
    return profile * math.sqrt(target / float(np.sum(profile**2)))


def generate_scenario(
    dims: SystemDims,
    rician_kappa: float = 1.0,
    seed: int = 0,
    geometry: GeometryConfig | None = None,
) -> ScenarioStats:
    """Draw a reproducible scenario: UPA LoS means, Haar-like unitaries, scaled profiles.

    The LoS mean of each link is a rank-1 outer product of receive and
    transmit UPA steering vectors; kappa splits total power between the LoS
    and scattered parts (kappa = inf gives pure LoS).  Bit-identical output
    for identical (dims, kappa, seed, geometry).
    """
    validate(dims)
    if not (rician_kappa > 0.0) and not math.isinf(rician_kappa):
        raise ValueError(f"rician_kappa must be positive or inf, got {rician_kappa!r}")
    geometry = geometry or GeometryConfig()
    seed = _integral_seed(seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed]))

    # Draw order is pinned: comm channel first, then scatterers in index order.
    h_mean = np.outer(
        _array_response(dims.n_u, geometry.comm_arrival),
        _array_response(dims.n_t, geometry.comm_departure).conj(),
    )
    u = _haar_unitary(dims.n_u, rng)
    v = _haar_unitary(dims.n_t, rng)
    m_profile = _scaled_profile(
        (dims.n_u, dims.n_t), dims.n_t, float(np.linalg.norm(h_mean) ** 2), rician_kappa, rng
    )
    comm = WeichselbergerStats(h_mean, u, v, m_profile)

    az0, el0 = geometry.target_center
    spread = geometry.scatter_spread
    sensing = []
    for _ in range(dims.num_scatter):
        direction = (
            az0 + rng.uniform(-spread, spread),
            el0 + rng.uniform(-spread, spread),
        )
        g_mean = np.outer(
            _array_response(dims.n_r, direction),
            _array_response(dims.n_t, direction).conj(),
        )
        r_l = _haar_unitary(dims.n_r, rng)
        t_l = _haar_unitary(dims.n_t, rng)
        n_profile = _scaled_profile(
            (dims.n_r, dims.n_t), dims.n_t, float(np.linalg.norm(g_mean) ** 2), rician_kappa, rng
        )
        sensing.append(WeichselbergerStats(g_mean, r_l, t_l, n_profile))

    return ScenarioStats(dims, comm, tuple(sensing), rician_kappa, seed)


def default_beamformer(dims: SystemDims, p_t: float) -> Beamformer:
    """Unoptimized baseline sqrt(p_t/M) * [I_M on top of zeros], norm^2 = p_t."""
    if not 0.0 < p_t < math.inf:
        raise ValueError("p_t must be finite and positive")
    w = np.zeros((dims.n_t, dims.m), dtype=complex)
    w[: dims.m, :] = math.sqrt(p_t / dims.m) * np.eye(dims.m)
    return Beamformer(w, p_t)


def effective_los(
    stats: ScenarioStats, w_bf: Beamformer
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Beamformed LoS means.

    Returns (g_eff, h_eff, g_raw): g_raw (L*n_r, n_t) stacks the sensing
    LoS means, g_eff = g_raw @ W, h_eff = Hbar_c @ W.
    """
    w = w_bf.w
    if w.shape != (stats.dims.n_t, stats.dims.m):
        raise DimensionError(
            f"beamformer shape {w.shape} != (n_t, m) = {(stats.dims.n_t, stats.dims.m)}"
        )
    g_raw = np.vstack([s.mean for s in stats.sensing])
    return g_raw @ w, stats.comm.mean @ w, g_raw


# --- JSON serialization (complex entries as [re, im] pairs, row-major) ---


def _complex_to_json(a: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(a, dtype=complex)]


def _complex_from_json(rows: list) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)


def _stats_to_json(s: WeichselbergerStats) -> dict:
    return {
        "mean": _complex_to_json(s.mean),
        "left_unitary": _complex_to_json(s.left_unitary),
        "right_unitary": _complex_to_json(s.right_unitary),
        "variance_profile": [[float(x) for x in row] for row in s.variance_profile],
    }


def _stats_from_json(d: dict) -> WeichselbergerStats:
    return WeichselbergerStats(
        _complex_from_json(d["mean"]),
        _complex_from_json(d["left_unitary"]),
        _complex_from_json(d["right_unitary"]),
        np.array(d["variance_profile"], dtype=float),
    )


def scenario_to_json(stats: ScenarioStats) -> str:
    """Serialize a scenario so it can be pinned as a golden file."""
    doc = {
        "dims": {
            "n_t": stats.dims.n_t,
            "n_r": stats.dims.n_r,
            "n_u": stats.dims.n_u,
            "num_scatter": stats.dims.num_scatter,
            "m": stats.dims.m,
            "n_s": stats.dims.n_s,
        },
        "rician_kappa": stats.rician_kappa,
        "seed": stats.seed,
        "comm": _stats_to_json(stats.comm),
        "sensing": [_stats_to_json(s) for s in stats.sensing],
    }
    return json.dumps(doc, indent=1)


def scenario_from_json(text: str) -> ScenarioStats:
    doc = json.loads(text)
    dims = SystemDims(**doc["dims"])
    return ScenarioStats(
        dims=dims,
        comm=_stats_from_json(doc["comm"]),
        sensing=tuple(_stats_from_json(d) for d in doc["sensing"]),
        rician_kappa=float(doc["rician_kappa"]),
        seed=_integral_seed(doc["seed"]),
    )
