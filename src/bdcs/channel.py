"""Uniform linear array geometry, steering vectors, and multi-path channel synthesis.

Conventions
-----------
* Spatial angles are dimensionless sines of the physical angle, so they live
  in [-1, 1].
* Element offsets are symmetric half-index units delta_n = n - (N-1)/2, which
  puts the phase reference at the array center.
* The spherical-wave model uses the exact per-element distance
  r_n = sqrt(r^2 + delta_n^2 d^2 - 2 r d delta_n * angle) and the phase
  exp(+j * 2*pi/lambda * (r_n - r)), chosen so that steering_near converges
  elementwise to steering_far as r grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

SPEED_OF_LIGHT = 3.0e8
"""Propagation speed used for wavelengths and delays, m/s."""

MIN_PATH_DISTANCE = 1e-3
"""Floor applied when clipping generated sub-path distances, meters."""


@dataclass(frozen=True)
class ArrayConfig:
    """Uniform linear array.

    Parameters
    ----------
    num_antennas : int
        Element count N, at least 1.
    carrier_freq : float
        Carrier frequency in Hz.
    element_spacing : float, optional
        Inter-element spacing in meters; defaults to half the carrier
        wavelength.
    """

    num_antennas: int
    carrier_freq: float
    element_spacing: Optional[float] = None

    def __post_init__(self):
        if self.num_antennas < 1:
            raise ValueError("num_antennas must be at least 1")
        if self.carrier_freq <= 0:
            raise ValueError("carrier_freq must be positive")
        if self.element_spacing is None:
            object.__setattr__(self, "element_spacing", self.wavelength / 2.0)
        if self.element_spacing <= 0:
            raise ValueError("element_spacing must be positive")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq

    @property
    def aperture(self) -> float:
        """Physical aperture D = (N-1) * spacing, meters."""
        return (self.num_antennas - 1) * self.element_spacing

    @property
    def offsets(self) -> np.ndarray:
        """Symmetric element offsets delta_n = n - (N-1)/2."""
        n = np.arange(self.num_antennas)
        return n - (self.num_antennas - 1) / 2.0


@dataclass(frozen=True)
class PathParam:
    """One propagation path: spatial angle (sine), distance in meters, complex gain."""

    spatial_angle: float
    distance: float
    complex_gain: complex

    def __post_init__(self):
        if abs(self.spatial_angle) > 1:
            raise ValueError("spatial_angle must lie in [-1, 1]")
        if not self.distance > 0:
            raise ValueError("distance must be positive")


@dataclass(frozen=True)
class ClusterSpec:
    """Scatterer cluster that contributes a bundle of closely spaced sub-paths.

    Sub-path angles/distances are drawn uniformly within +-spread around the
    center; sub-path ``l`` carries power exp(-power_decay_rate * l).
    """

    center_angle: float
    center_distance: float
    angle_spread: float = 0.0
    distance_spread: float = 0.0
    subpath_count: int = 1
    power_decay_rate: float = 0.0

    def __post_init__(self):
        if abs(self.center_angle) > 1:
            raise ValueError("center_angle must lie in [-1, 1]")
        if self.center_distance <= 0:
            raise ValueError("center_distance must be positive")
        if self.angle_spread < 0 or self.distance_spread < 0:
            raise ValueError("spreads must be non-negative")
        if self.subpath_count < 1:
            raise ValueError("subpath_count must be at least 1")
        if self.power_decay_rate < 0:
            raise ValueError("power_decay_rate must be non-negative")


@dataclass(frozen=True)
class SubcarrierGrid:
    """Subcarrier frequencies: K points centered on center_freq with uniform spacing."""

    subcarrier_count: int
    center_freq: float
    spacing: float = 0.0

    def __post_init__(self):
        if self.subcarrier_count < 1:
            raise ValueError("subcarrier_count must be at least 1")
        if np.any(self.frequencies <= 0):
            raise ValueError("all subcarrier frequencies must be positive")

    @property
    def frequencies(self) -> np.ndarray:
        k = np.arange(self.subcarrier_count)
        return self.center_freq + (k - (self.subcarrier_count - 1) / 2.0) * self.spacing


@dataclass(frozen=True)
class ChannelRealization:
    """Ground-truth channel: per-subcarrier vectors plus the paths that built them.

    ``per_subcarrier_channels`` has shape (K, N). The stored gain of path l is
    its base gain; on subcarrier k it is rotated by
    exp(-j 2 pi (f_k - f_center) * distance / c).
    """

    per_subcarrier_channels: np.ndarray
    paths: tuple
    array: ArrayConfig
    grid: SubcarrierGrid

    def __post_init__(self):
        h = np.asarray(self.per_subcarrier_channels)
        if h.ndim != 2 or h.shape[1] != self.array.num_antennas:
            raise ValueError("channel matrix must have shape (K, num_antennas)")
        if not np.all(np.isfinite(h.view(float))):
            raise ValueError("channel entries must be finite")


def steering_far(array: ArrayConfig, spatial_angle: float) -> np.ndarray:
    """Far-field (planar wavefront) steering vector.

    Entry n is (1/sqrt(N)) * exp(-j * 2*pi/lambda * d * delta_n * angle).

    Parameters
    ----------
    array : ArrayConfig
    spatial_angle : float
        Sine of the physical angle, in [-1, 1].

    Returns
    -------
    np.ndarray
        Unit-norm complex vector of length N.
    """
    if abs(spatial_angle) > 1:
        raise ValueError("spatial_angle must lie in [-1, 1]")
    phase = -(2.0 * np.pi / array.wavelength) * array.element_spacing * array.offsets * spatial_angle
    return np.exp(1j * phase) / np.sqrt(array.num_antennas)


def steering_near(array: ArrayConfig, distance: float, spatial_angle: float) -> np.ndarray:
    """Spherical-wavefront (near-field) steering vector for a source at
    ``distance`` meters and the given spatial angle.

    Entry n is (1/sqrt(N)) * exp(+j * 2*pi/lambda * (r_n - r)) with
    r_n = sqrt(r^2 + delta_n^2 d^2 - 2 r d delta_n * angle). The sign makes
    the vector converge elementwise to :func:`steering_far` as r -> inf.

    Returns
    -------
    np.ndarray
        Unit-norm complex vector of length N; every entry has modulus
        1/sqrt(N) and the center element of an odd array has zero phase.
    """
    if not distance > 0:
        raise ValueError("distance must be positive")
    if abs(spatial_angle) > 1:
        raise ValueError("spatial_angle must lie in [-1, 1]")
    d = array.element_spacing
    delta = array.offsets
    r_n = np.sqrt(distance**2 + (delta * d) ** 2 - 2.0 * distance * spatial_angle * delta * d)
    phase = (2.0 * np.pi / array.wavelength) * (r_n - distance)
    return np.exp(1j * phase) / np.sqrt(array.num_antennas)


def steering(array: ArrayConfig, distance: float, spatial_angle: float) -> np.ndarray:
    """Steering vector that routes to the far-field form when distance is inf."""
    if np.isinf(distance):
        return steering_far(array, spatial_angle)
    return steering_near(array, distance, spatial_angle)


def rayleigh_distance(array: ArrayConfig) -> float:
    """Near/far-field boundary 2 D^2 / lambda for aperture D, meters."""
    return 2.0 * array.aperture**2 / array.wavelength


def synthesize_channel(
    array: ArrayConfig,
    clusters: Sequence[ClusterSpec],
    grid: SubcarrierGrid,
    seed: int,
) -> ChannelRealization:
    """Draw a clustered multi-path channel across all subcarriers.

    For every cluster, ``subpath_count`` sub-paths are drawn uniformly within
    the stated angle/distance spreads (clipped to the valid domain); sub-path
    ``l`` has expected power exp(-power_decay_rate * l). Per subcarrier k,

        h_k = sqrt(N / L) * sum_l g_l * rot_{l,k} * steering_near(r_l, angle_l)

    where L is the total path count and rot_{l,k} is a unit-modulus rotation
    exp(-j 2 pi (f_k - f_center) r_l / c), so the gain magnitude profile is
    shared across subcarriers and the block support is common to all of them.

    The same seed reproduces the exact same realization.
    """
    if len(clusters) == 0:
        raise ValueError("at least one cluster is required")
    rng = np.random.default_rng(seed)

    paths = []
    for cluster in clusters:
        count = cluster.subpath_count
        angles = cluster.center_angle + cluster.angle_spread * rng.uniform(-1.0, 1.0, count)
        angles = np.clip(angles, -1.0, 1.0)
        dists = cluster.center_distance + cluster.distance_spread * rng.uniform(-1.0, 1.0, count)
        dists = np.maximum(dists, MIN_PATH_DISTANCE)
        mags = np.exp(-0.5 * cluster.power_decay_rate * np.arange(count))
        gains = mags * (rng.standard_normal(count) + 1j * rng.standard_normal(count)) / np.sqrt(2.0)
        for a, r, g in zip(angles, dists, gains):
            paths.append(PathParam(float(a), float(r), complex(g)))

    num_paths = len(paths)
    k_count = grid.subcarrier_count
    offsets_hz = grid.frequencies - grid.center_freq
    h = np.zeros((k_count, array.num_antennas), dtype=np.complex128)
    scale = np.sqrt(array.num_antennas / num_paths)
    for path in paths:
        vec = steering_near(array, path.distance, path.spatial_angle)
        rot = np.exp(-2j * np.pi * offsets_hz * path.distance / SPEED_OF_LIGHT)
        h += scale * path.complex_gain * rot[:, None] * vec[None, :]
    return ChannelRealization(h, tuple(paths), array, grid)


def synthesize_matrix_channel(
    tx_array: ArrayConfig,
    rx_array: ArrayConfig,
    tx_paths: Sequence[PathParam],
    rx_angles: Sequence[float],
) -> np.ndarray:
    """MIMO matrix channel with a spherical-wave transmit side.

    H = sqrt(N_t N_r / L) * sum_l g_l * a_rx(angle_rx_l) * b_tx(r_l, angle_l)^H

    The receive array is assumed small enough to stay planar-wave, so the
    receive side uses far-field steering. Transmit paths at infinite distance
    fall back to far-field steering as well.
    """
    if len(tx_paths) != len(rx_angles):
        raise ValueError("tx_paths and rx_angles must have equal length")
    if len(tx_paths) == 0:
        raise ValueError("at least one path is required")
    n_t, n_r = tx_array.num_antennas, rx_array.num_antennas
    num_paths = len(tx_paths)
    h = np.zeros((n_r, n_t), dtype=np.complex128)
    for path, rx_angle in zip(tx_paths, rx_angles):
        a_rx = steering_far(rx_array, rx_angle)
        b_tx = steering(tx_array, path.distance, path.spatial_angle)
        h += path.complex_gain * np.outer(a_rx, b_tx.conj())
    return np.sqrt(n_t * n_r / num_paths) * h
