"""Pilot compression: random-phase pilot matrices, noisy observations, and
pilot-times-dictionary measurement matrices."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import ChannelRealization
from .dictionaries import Dictionary, _single_precision


@dataclass(frozen=True, eq=False)
class PilotMatrix:
    """Q x N pilot combining matrix. Generated pilots have every entry at
    modulus 1/sqrt(Q) (analog phase-shifter model); direct construction with
    other matrices (e.g. identity) is allowed for baselines.

    ``entries`` is a read-only copy of the matrix passed in, so the cached
    ``pseudo_inverse`` can never go stale.
    """

    entries: np.ndarray

    def __post_init__(self):
        e = np.array(self.entries)
        if e.ndim != 2 or e.shape[0] < 1:
            raise ValueError("pilot entries must form a Q x N matrix with Q >= 1")
        e.flags.writeable = False
        object.__setattr__(self, "entries", e)

    @cached_property
    def pseudo_inverse(self) -> np.ndarray:
        """Moore-Penrose pseudo-inverse, N x Q (read-only): one SVD per pilot,
        shared by every least-squares estimate through it."""
        pinv = np.linalg.pinv(self.entries)
        pinv.flags.writeable = False
        return pinv

    @property
    def pilot_count(self) -> int:
        return self.entries.shape[0]

    @property
    def num_antennas(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True, eq=False)
class Observation:
    """Received pilot signal per subcarrier, shape (K, Q), plus the noise level.

    ``per_subcarrier`` is a read-only copy of the samples passed in, so the
    pursuit results that recovery stores on the observation can never go
    stale.
    """

    per_subcarrier: np.ndarray
    noise_variance: float
    snr_db: float

    def __post_init__(self):
        y = np.array(self.per_subcarrier)
        if y.ndim != 2:
            raise ValueError("per_subcarrier must have shape (K, Q)")
        if not np.all(np.isfinite(y)):
            raise ValueError("per_subcarrier entries must be finite")
        if not self.noise_variance >= 0:  # also rejects nan
            raise ValueError("noise_variance must be non-negative")
        y.flags.writeable = False
        object.__setattr__(self, "per_subcarrier", y)

    @cached_property
    def _pursuits(self) -> dict:
        """Pursuit results solved on this observation, keyed by (measurement,
        recovery config, side information); filled and read by ``bsomp``."""
        return {}


@dataclass(frozen=True, eq=False)
class MeasurementMatrix:
    """Product P A of a pilot and a dictionary, columns rescaled to unit
    norm, Q x G (the pilot is not kept).

    ``column_scales`` (length G) holds the norms the columns of P A had
    before rescaling, 1 for an all-zero column; recovery divides by them to
    report coefficients in the dictionary frame. ``entries`` is made
    read-only in place, so the cached ``single_precision`` copy can never
    go stale.
    """

    entries: np.ndarray
    dictionary: Dictionary
    column_scales: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries)
        e.flags.writeable = False
        object.__setattr__(self, "entries", e)

    @cached_property
    def single_precision(self) -> np.ndarray:
        """The entries in complex64, scaled to a largest column norm of 1
        (read-only): the greedy block kernel's screen, built once per
        matrix."""
        return _single_precision(self.entries)

    @property
    def num_columns(self) -> int:
        return self.entries.shape[1]


def make_pilot_matrix(pilot_count: int, num_antennas: int, seed: int) -> PilotMatrix:
    """Random-phase pilot: entries (1/sqrt(Q)) * exp(j phi), phi ~ U[0, 2pi)."""
    if pilot_count < 1:
        raise ValueError("pilot_count must be at least 1")
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(pilot_count, num_antennas))
    return PilotMatrix(np.exp(1j * phases) / np.sqrt(pilot_count))


def observe(pilot: PilotMatrix, channel: ChannelRealization, snr_db: float, seed: int) -> Observation:
    """Compress the channel through the pilot and add complex Gaussian noise.

    y_k = P h_k + n_k with n_k ~ CN(0, sigma^2 I). sigma^2 is set so the
    average received sample power over all subcarriers divided by sigma^2
    equals the linear SNR; snr_db = +inf disables noise, and -inf or nan
    raise ValueError.
    """
    if not (np.isfinite(snr_db) or snr_db == np.inf):
        raise ValueError("snr_db must be finite or +inf")
    h = np.asarray(channel.per_subcarrier_channels)
    if pilot.num_antennas != h.shape[1]:
        raise ValueError("pilot width must equal the channel length")
    noiseless = h @ pilot.entries.T  # (K, Q)
    signal_power = float(np.mean(np.abs(noiseless) ** 2))
    sigma2 = signal_power / 10.0 ** (snr_db / 10.0)  # exactly 0.0 at +inf

    if sigma2 > 0:
        rng = np.random.default_rng(seed)
        noise = np.sqrt(sigma2 / 2.0) * (
            rng.standard_normal(noiseless.shape) + 1j * rng.standard_normal(noiseless.shape)
        )
        received = noiseless + noise
    else:
        received = noiseless
    return Observation(received, sigma2, snr_db)


def measurement_matrix(pilot: PilotMatrix, dictionary: Dictionary) -> MeasurementMatrix:
    """Phi = P A with columns rescaled to unit norm.

    Renormalization keeps greedy column selection unbiased; the recorded
    scales let recovery report coefficients in the dictionary frame.
    """
    if pilot.num_antennas != dictionary.num_antennas:
        raise ValueError("pilot width must equal the dictionary atom length")
    # inexact, so the columns can be rescaled in place: a polar-sized product
    # is 4.6 MB at the reference preset
    product = np.matmul(pilot.entries, dictionary.atoms, dtype=np.result_type(pilot.entries, dictionary.atoms, float))
    scales = np.linalg.norm(product, axis=0)
    safe = np.where(scales > 0, scales, 1.0)
    product /= safe
    return MeasurementMatrix(product, dictionary, safe)
