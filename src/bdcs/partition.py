"""Near-field region partitioning.

The angular-domain sparsity of a point source grows as it approaches the
array (energy spread). Measuring that growth on a distance grid and
intersecting it with the coherence-based recovery limit yields the boundary
between the inner region (recover in the polar domain) and the outer region
(recover in the angular domain). complete_bdcs() routes between the two,
either by a known distance or by comparing residuals.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .channel import ArrayConfig, _check_count, steering_near
from .dictionaries import Dictionary, DictionaryMetrics
from .errors import ConfigurationError
from .recovery import RecoveryConfig, RecoveryResult, SideInformation, bsomp
from .sensing import MeasurementMatrix, Observation


@dataclass(frozen=True)
class SparsityProfile:
    """Mean blocks needed to capture an energy fraction eta, per distance.

    tap_counts derives the conservative integers from mean_taps: the ceiling
    of each mean, less 1e-9 against rounding noise. mean_taps holds one mean
    per distance, and eta lies in (0, 1).
    """

    distances: tuple
    mean_taps: tuple
    eta: float

    def __post_init__(self):
        d = np.asarray(self.distances)
        if d.size == 0 or np.any(np.diff(d) <= 0):
            raise ValueError("distances must be non-empty and strictly increasing")
        if len(self.mean_taps) != d.size:
            raise ValueError("mean_taps must hold one mean per distance")
        if not 0.0 < self.eta < 1.0:  # also rejects nan
            raise ValueError("eta must lie in (0, 1)")
        if any(t < 1 for t in self.tap_counts):
            raise ValueError("tap_counts must be at least 1")

    @property
    def tap_counts(self) -> tuple:
        return tuple(int(np.ceil(mean - 1e-9)) for mean in self.mean_taps)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["distance_m", "tap_count", "mean_tap_count", "eta"])
            for r, taps, mean in zip(self.distances, self.tap_counts, self.mean_taps):
                writer.writerow([f"{r:.10g}", taps, f"{mean:.6f}", f"{self.eta:.6g}"])


def check_profile(distance_grid: Sequence[float], eta: float, trials: int) -> None:
    """The rule on sparsity_profile's inputs: distinct distances, eta in
    (0, 1) and at least one trial."""
    if not 0 < len(set(distance_grid)) == len(distance_grid):
        raise ValueError("distances must be non-empty and distinct")
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie in (0, 1)")
    _check_count("trials", trials)


def sparsity_profile(
    array: ArrayConfig,
    angular_dict: Dictionary,
    distance_grid: Sequence[float],
    eta: float = 0.95,
    trials: int = 100,
    seed: int = 0,
) -> SparsityProfile:
    """Average number of angular blocks that capture fraction eta of the
    projection energy of a single point source, per grid distance.

    Per trial a unit-gain source at a uniform random spatial angle is
    projected onto the dictionary; blocks are counted greedily from the
    strongest down. Deterministic in the seed.
    """
    check_profile(distance_grid, eta, trials)
    distances = sorted(float(r) for r in distance_grid)

    rng = np.random.default_rng(seed)
    atoms = angular_dict.atoms
    starts = angular_dict.partition.starts
    scale = np.sqrt(array.num_antennas)

    means = []
    for r in distances:
        needed = np.empty(trials)
        for t in range(trials):
            angle = rng.uniform(-1.0, 1.0)
            h = scale * steering_near(array, r, angle)
            atom_energy = np.abs(atoms.conj().T @ h) ** 2
            block_energy = np.add.reduceat(atom_energy, starts)
            order = np.sort(block_energy)[::-1]
            cum = np.cumsum(order)
            needed[t] = np.searchsorted(cum, eta * cum[-1]) + 1
        means.append(float(needed.mean()))
    return SparsityProfile(tuple(distances), tuple(means), eta)


def sparsity_upper_limit(
    metrics: DictionaryMetrics, block_length: int, cap: int = 1_000_000
) -> int:
    """Largest block count k guaranteed recoverable by greedy block pursuit:

        k * L < (1/mu_B + L - (L - 1) * nu / mu_B) / 2

    For L = 1 this is the classical k < (1 + 1/mu)/2. Orthogonal dictionaries
    (mu_B = 0) return ``cap``.
    """
    if block_length < 1:
        raise ValueError("block_length must be at least 1")
    mu_b = metrics.block_coherence
    if mu_b <= 0:
        return cap
    bound = 0.5 * (
        1.0 / mu_b + block_length - (block_length - 1) * metrics.sub_coherence / mu_b
    )
    t = bound / block_length
    # k < t: the ceiling less one, with t within 1e-9 relative of an integer
    # counted as that integer so the strict inequality survives fp noise
    return max(int(np.ceil(t - 1e-9 * max(1.0, abs(t)))) - 1, 0)


def partition_boundary(profile: SparsityProfile, upper_limit: int) -> float:
    """Boundary between the inner and the outer region, in meters: the
    smallest grid distance from which every farther tap count stays within
    the recovery limit. Two sentinels: 0 when the whole grid complies (all
    outer), inf when its farthest point does not (all inner)."""
    taps = np.asarray(profile.tap_counts)
    suffix_start = len(taps)
    for i in range(len(taps) - 1, -1, -1):
        if taps[i] <= upper_limit:
            suffix_start = i
        else:
            break
    if suffix_start == 0:
        return 0.0
    if suffix_start == len(taps):
        return float(np.inf)
    return float(profile.distances[suffix_start])


def complete_bdcs(
    obs: Observation,
    angular_measurement: MeasurementMatrix,
    polar_measurement: MeasurementMatrix,
    cfg: RecoveryConfig,
    routing: str = "by_residual",
    boundary: Optional[float] = None,
    distance: Optional[float] = None,
    si: Optional[SideInformation] = None,
) -> RecoveryResult:
    """Route recovery between the angular and polar domains.

    by_distance: polar when ``distance`` falls inside ``boundary`` (meters,
    as partition_boundary returns it: 0 routes everything to the angular
    domain, inf everything to the polar one), angular otherwise; it requires
    both, and a negative or nan boundary or a non-positive or nan distance
    raises ValueError. by_residual: run both and keep the smaller final
    relative residual, ties going to the cheaper angular domain; it takes
    neither a boundary nor a distance (ConfigurationError). Both
    pursuits run with ``cfg``; a cfg.partition that does not cover a
    domain's measurement columns is refused by bsomp.
    """
    if boundary is not None and not boundary >= 0:  # also rejects nan
        raise ValueError("boundary must be non-negative (inf allowed)")
    if distance is not None and not distance > 0:  # also rejects nan
        raise ValueError("distance must be positive (inf allowed)")
    if routing == "by_distance":
        if boundary is None or distance is None:
            raise ConfigurationError("by_distance routing needs a boundary and a distance")
        if distance < boundary:
            return bsomp(polar_measurement, obs, cfg, si)
        return bsomp(angular_measurement, obs, cfg, si)
    if routing == "by_residual":
        if boundary is not None or distance is not None:
            raise ConfigurationError("by_residual routing takes no boundary or distance")
        angular = bsomp(angular_measurement, obs, cfg, si)
        polar = bsomp(polar_measurement, obs, cfg, si)
        if polar.final_residual < angular.final_residual:
            return polar
        return angular
    raise ConfigurationError(f"unknown routing mode: {routing!r}")

