"""Configuration-driven Monte Carlo experiment runner.

Configs are plain mappings (typically loaded from YAML); every field has a
default, so the empty mapping runs the reference preset: a 256-antenna
30 GHz array, 4 users with 6 paths each, 4 subcarriers, half-rate pilots,
10 dB SNR, and 10 distances spanning 0.05 to 1.2 times the Rayleigh
distance. See ExperimentConfig.from_dict for the schema.

Outputs are CSV rows ``x,method,mean_db,stderr_db,trials`` where x is a
distance in meters or an SNR in dB and mean_db is a mean NMSE in dB (or a
spectral efficiency in bits/s/Hz for the SE sweep). Runs are byte-for-byte
deterministic in (config, seed).
"""

from __future__ import annotations

import csv
from collections.abc import Mapping
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import Optional, Sequence, Union, get_args, get_origin, get_type_hints

import numpy as np

from .channel import (
    ArrayConfig,
    ClusterSpec,
    PathParam,
    SubcarrierGrid,
    rayleigh_distance,
    synthesize_channel,
    synthesize_matrix_channel,
)
from .dictionaries import (
    DEFAULT_POLAR_BETA,
    DEFAULT_POLAR_R_MIN,
    BlockPartition,
    build_angular_dictionary,
    build_polar_dictionary,
)
from .errors import ConfigurationError
from .partition import complete_bdcs
from .precoding import MatrixChannel, block_sparse_precoding, optimal_precoder, spectral_efficiency
from .recovery import RecoveryConfig, SideInformation, bsomp, ls_estimate, nmse
from .sensing import make_pilot_matrix, measurement_matrix, observe

VALID_METHODS = ("ls", "somp_polar", "bsomp_angular", "bsomp_polar", "complete_bdcs")

DEFAULT_RAYLEIGH_FRACS = (0.05, 0.07, 0.1, 0.15, 0.25, 0.4, 0.6, 0.8, 1.0, 1.2)


@dataclass(frozen=True)
class ChannelSettings:
    num_users: int = 4
    paths_per_user: int = 6
    angle_spread: float = 0.05
    distance_spread_frac: float = 0.1
    power_decay_rate: float = 0.5
    angle_range: tuple[float, float] = (-0.866, 0.866)  # 120 degree sector


@dataclass(frozen=True)
class DictionarySettings:
    oversampling: int = 1
    block_length: int = 4
    beta: float = DEFAULT_POLAR_BETA
    r_min: float = DEFAULT_POLAR_R_MIN


@dataclass(frozen=True)
class RecoverySettings:
    max_blocks: int = 4
    residual_tolerance: Optional[float] = 0.0  # None: sqrt(1/(1+snr)) per SNR point


@dataclass(frozen=True)
class SideInfoSettings:
    decay_floor: Optional[float] = None


@dataclass(frozen=True)
class PrecodingSettings:
    num_rx_antennas: int = 4
    num_streams: int = 2
    num_rf_chains: int = 4


@dataclass(frozen=True)
class PartitionSettings:
    eta: float = 0.95
    trials: int = 64


_YAML_NAMES = {
    "array.carrier_freq": "array.carrier_freq_hz",
    "array.element_spacing": "array.element_spacing_m",
    "subcarrier_count": "subcarriers.count",
    "subcarrier_spacing": "subcarriers.spacing_hz",
    "pilot_fraction": "pilot.fraction",
    "dictionary.r_min": "dictionary.r_min_m",
}
"""Config-file names of the fields whose file name differs from the field path."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a sweep needs; see from_dict for the file schema."""

    array: ArrayConfig = field(default_factory=lambda: ArrayConfig(256, 30e9))
    subcarrier_count: int = 4
    subcarrier_spacing: float = 240e3
    channel: ChannelSettings = field(default_factory=ChannelSettings)
    pilot_fraction: float = 0.5
    snr_db: tuple[float, ...] = (10.0,)
    distances: tuple[float, ...] = ()  # filled from rayleigh fractions when empty
    rayleigh_fracs: tuple[float, ...] = DEFAULT_RAYLEIGH_FRACS
    methods: tuple[str, ...] = VALID_METHODS
    trials: int = 100
    seed: int = 20260501
    dictionary: DictionarySettings = field(default_factory=DictionarySettings)
    recovery: RecoverySettings = field(default_factory=RecoverySettings)
    side_information: SideInfoSettings = field(default_factory=SideInfoSettings)
    precoding: PrecodingSettings = field(default_factory=PrecodingSettings)
    partition: PartitionSettings = field(default_factory=PartitionSettings)
    output: Optional[str] = None

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigurationError("trials must be at least 1")
        if len(self.methods) == 0:
            raise ConfigurationError("methods must not be empty")
        for m in self.methods:
            if m not in VALID_METHODS:
                raise ConfigurationError(
                    f"unknown method {m!r}; valid methods: {', '.join(VALID_METHODS)}"
                )
        if len(self.snr_db) and not all(np.isfinite(s) or np.isposinf(s) for s in self.snr_db):
            raise ConfigurationError("snr_db entries must be finite or +inf")
        if self.seed < 0:
            raise ConfigurationError(f"config key 'seed': must be non-negative, got {self.seed}")
        if self.channel.num_users < 1:
            raise ConfigurationError("config key 'channel.num_users': must be at least 1")
        if not (np.isfinite(self.pilot_fraction) and self.pilot_count >= 1):
            raise ConfigurationError("config key 'pilot.fraction': must give at least one pilot")
        if not (self.distances or self.rayleigh_fracs):
            raise ConfigurationError("config key 'rayleigh_fracs': must not be empty without distances")

    @property
    def distance_grid(self) -> tuple:
        if self.distances:
            grid = tuple(float(r) for r in self.distances)
        else:
            rd = rayleigh_distance(self.array)
            grid = tuple(f * rd for f in self.rayleigh_fracs)
        if any(r <= 0 or np.isinf(r) for r in grid):
            raise ConfigurationError("distances must lie in (0, inf)")
        return grid

    @property
    def pilot_count(self) -> int:
        return round(self.pilot_fraction * self.array.num_antennas)

    @classmethod
    def from_dict(cls, raw: Optional[Mapping]) -> "ExperimentConfig":
        """Build a config from a nested mapping (the YAML schema).

        Every key is optional and falls back to the field default; a key
        outside this schema raises ConfigurationError naming it.
          array:      num_antennas, carrier_freq_hz, element_spacing_m
          subcarriers: count, spacing_hz
          channel:    num_users, paths_per_user, angle_spread,
                      distance_spread_frac, power_decay_rate, angle_range
          pilot:      fraction
          snr_db:     list of dB values
          distances:  explicit list of meters   (overrides rayleigh_fracs)
          rayleigh_fracs: list of fractions of the Rayleigh distance
          methods:    subset of ls|somp_polar|bsomp_angular|bsomp_polar|complete_bdcs
          trials, seed, output
          dictionary: oversampling, block_length, beta, r_min_m
          recovery:   max_blocks, residual_tolerance (null = SNR-matched)
          side_information: decay_floor
          precoding:  num_rx_antennas, num_streams, num_rf_chains
          partition:  eta, trials (the partition subcommand's profile)
        """
        if raw is not None and not isinstance(raw, Mapping):
            raise ConfigurationError("a config must be a mapping")
        schema = _schema(cls)
        sections = {key.split(".")[0] for key in schema if "." in key}
        flat = {}
        for key, value in (raw or {}).items():
            if key not in sections:
                flat[key] = value
            elif value is None or isinstance(value, Mapping):
                flat.update((f"{key}.{sub}", v) for sub, v in (value or {}).items())
            else:
                raise ConfigurationError(f"config section {key!r} must be a mapping")
        values: dict = {}
        for key, value in flat.items():
            if key not in schema:
                raise ConfigurationError(f"unknown config key {key!r}")
            path, hint = schema[key]
            section, _, name = path.rpartition(".")
            values.setdefault(section, {})[name] = _coerce(key, hint, value)
        top = values.pop("", {})
        for f in fields(cls):
            if f.name in values:
                default = f.default_factory()
                # fields without a class default keep the preset's value
                required = {
                    g.name: getattr(default, g.name)
                    for g in fields(default)
                    if g.default is MISSING and g.default_factory is MISSING
                }
                top[f.name] = type(default)(**{**required, **values[f.name]})
        return cls(**top)


def _schema(cls) -> dict:
    """Config-file key -> (field path, type hint) of every settable value;
    a section is a field whose default is a dataclass."""
    schema = {}
    hints = get_type_hints(cls)
    for f in fields(cls):
        default = f.default_factory() if f.default_factory is not MISSING else None
        if is_dataclass(default):
            sub_hints = get_type_hints(type(default))
            paths = {f"{f.name}.{g.name}": sub_hints[g.name] for g in fields(default)}
        else:
            paths = {f.name: hints[f.name]}
        for path, hint in paths.items():
            schema[_YAML_NAMES.get(path, path)] = (path, hint)
    return schema


def _coerce(key: str, hint, value):
    """Convert a config-file value to its field type: int, float, str, an
    Optional of one (None passes) or a tuple of one (a number becomes a
    one-element tuple). Booleans are refused for every number, and
    fractional numbers for every int."""
    if get_origin(hint) is Union:
        if value is None:
            return None
        hint = get_args(hint)[0]
    try:
        if get_origin(hint) is not tuple:
            return _number(hint, value)
        if isinstance(value, (int, float)):
            value = (value,)
        item_types = get_args(hint)
        items = tuple(_number(item_types[0], v) for v in value)
        if item_types[-1] is not Ellipsis and len(items) != len(item_types):
            raise ValueError(f"expected {len(item_types)} entries, got {len(items)}")
        return items
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"config key {key!r}: {exc}") from None


def _number(hint, value):
    """hint(value), refusing booleans for int and float and fractions for int."""
    if hint in (int, float) and isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    if hint is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return hint(value)


@dataclass(frozen=True)
class CurvePoint:
    """One aggregated cell of a sweep: x is meters or dB depending on the run."""

    x: float
    method: str
    mean_db: float
    stderr_db: float
    trials: int


def write_curve_csv(points: Sequence[CurvePoint], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "method", "mean_db", "stderr_db", "trials"])
        for p in points:
            writer.writerow(
                [f"{p.x:.10g}", p.method, f"{p.mean_db:.6f}", f"{p.stderr_db:.6f}", p.trials]
            )


def _child_seed(*keys: int) -> int:
    return int(np.random.SeedSequence(tuple(int(k) for k in keys)).generate_state(1)[0])


def _dictionaries(cfg: ExperimentConfig):
    """The angular and polar dictionaries of a config."""
    d = cfg.dictionary
    return (
        build_angular_dictionary(cfg.array, d.oversampling, d.block_length),
        build_polar_dictionary(cfg.array, d.beta, d.r_min, d.block_length),
    )


class Workbench:
    """Per-config context: pilot, dictionaries, and measurement matrices,
    built once and shared across every trial."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.array = cfg.array
        self.grid = SubcarrierGrid(cfg.subcarrier_count, cfg.array.carrier_freq, cfg.subcarrier_spacing)
        self.pilot = make_pilot_matrix(cfg.pilot_count, cfg.array.num_antennas, _child_seed(cfg.seed, 0))
        self.angular, self.polar = _dictionaries(cfg)
        self.mm_angular = measurement_matrix(self.pilot, self.angular)
        self.mm_polar = measurement_matrix(self.pilot, self.polar)
        self.polar_atom_partition = BlockPartition.uniform(self.polar.num_atoms, 1)
        decay_floor = cfg.side_information.decay_floor
        self.si = SideInformation(decay_floor=decay_floor) if decay_floor is not None else None

    def residual_tolerance(self, snr_db: float) -> float:
        tol = self.cfg.recovery.residual_tolerance
        if tol is not None:
            return tol
        if np.isinf(snr_db):
            return 0.0
        # stop near the expected noise floor of the relative residual
        rho = 10.0 ** (snr_db / 10.0)
        return float(np.sqrt(1.0 / (1.0 + rho)))

    def draw_channel(self, distance: float, d_idx: int, trial: int, user: int):
        cfg = self.cfg
        rng = np.random.default_rng(_child_seed(cfg.seed, 1, d_idx, trial, user))
        angle = rng.uniform(*cfg.channel.angle_range)
        cluster = ClusterSpec(
            center_angle=float(angle),
            center_distance=distance,
            angle_spread=cfg.channel.angle_spread,
            distance_spread=cfg.channel.distance_spread_frac * distance,
            subpath_count=cfg.channel.paths_per_user,
            power_decay_rate=cfg.channel.power_decay_rate,
        )
        return synthesize_channel(
            self.array, [cluster], self.grid, _child_seed(cfg.seed, 2, d_idx, trial, user)
        )

    def estimate(self, method: str, obs) -> np.ndarray:
        tol = self.residual_tolerance(obs.snr_db)
        blocks = self.cfg.recovery.max_blocks
        if method == "ls":
            return ls_estimate(self.pilot, obs)
        if method == "somp_polar":
            cfg = RecoveryConfig(
                blocks * self.cfg.dictionary.block_length, tol, self.polar_atom_partition
            )
            return bsomp(self.mm_polar, obs, cfg, self.si).reconstructed_channels
        if method == "bsomp_angular":
            return bsomp(self.mm_angular, obs, RecoveryConfig(blocks, tol), self.si).reconstructed_channels
        if method == "bsomp_polar":
            return bsomp(self.mm_polar, obs, RecoveryConfig(blocks, tol), self.si).reconstructed_channels
        if method == "complete_bdcs":
            result = complete_bdcs(
                obs,
                self.mm_angular,
                self.mm_polar,
                RecoveryConfig(blocks, tol),
                routing="by_residual",
                si=self.si,
            )
            return result.reconstructed_channels
        raise ConfigurationError(f"unknown method {method!r}")

    def nmse_trial(self, idx: int, trial: int, distance: float, snr_db: float) -> dict:
        """Per method, the NMSE in dB of one trial, averaged over its users.
        ``idx`` is the sweep index that keys the channel and noise seeds."""
        cfg = self.cfg
        per_user = {m: [] for m in cfg.methods}
        for user in range(cfg.channel.num_users):
            channel = self.draw_channel(distance, idx, trial, user)
            obs = observe(self.pilot, channel, snr_db, _child_seed(cfg.seed, 3, idx, trial, user))
            truth = channel.per_subcarrier_channels
            for m in cfg.methods:
                per_user[m].append(nmse(self.estimate(m, obs), truth))
        return {m: float(np.mean(values)) for m, values in per_user.items()}


def _sweep(cfg: ExperimentConfig, xs, labels, trial_values, out_path) -> list:
    """Shared aggregation loop: per x and label, the mean and standard error
    over trials of trial_values(x_idx, x, trial)[label]; writes the CSV when
    out_path is set."""
    points: list = []
    for x_idx, x in enumerate(xs):
        samples = {label: np.empty(cfg.trials) for label in labels}
        for trial in range(cfg.trials):
            for label, value in trial_values(x_idx, x, trial).items():
                samples[label][trial] = value
        for label in labels:
            vals = samples[label]
            stderr = float(vals.std(ddof=1) / np.sqrt(cfg.trials)) if cfg.trials > 1 else 0.0
            points.append(CurvePoint(float(x), label, float(vals.mean()), stderr, cfg.trials))
    if out_path:
        write_curve_csv(points, out_path)
    return points


def run_nmse_vs_distance(cfg: ExperimentConfig, out_path: Optional[str] = None) -> list:
    """NMSE of every configured method across the distance grid, at the first
    configured SNR (the default SNR when the list is empty). Writes CSV when
    a path is given (argument or config)."""
    snr_db = (cfg.snr_db or ExperimentConfig.snr_db)[0]
    grid = cfg.distance_grid
    bench = Workbench(cfg)
    return _sweep(
        cfg, grid, cfg.methods,
        lambda d_idx, distance, trial: bench.nmse_trial(d_idx, trial, distance, snr_db),
        out_path or cfg.output,
    )


def run_nmse_vs_snr(cfg: ExperimentConfig, out_path: Optional[str] = None) -> list:
    """NMSE versus SNR at the first configured distance."""
    if len(cfg.snr_db) == 0:
        raise ConfigurationError("snr_db must not be empty for an SNR sweep")
    distance = cfg.distance_grid[0]
    bench = Workbench(cfg)
    return _sweep(
        cfg, cfg.snr_db, cfg.methods,
        lambda s_idx, snr_db, trial: bench.nmse_trial(s_idx, trial, distance, snr_db),
        out_path or cfg.output,
    )


def run_se_vs_snr(cfg: ExperimentConfig, out_path: Optional[str] = None) -> list:
    """Spectral efficiency of the SVD precoder and its hybrid approximations
    (angular and polar dictionaries) versus SNR, single link at the first
    configured distance. mean_db carries bits/s/Hz here."""
    if len(cfg.snr_db) == 0:
        raise ConfigurationError("snr_db must not be empty for an SNR sweep")
    pre = cfg.precoding
    distance = cfg.distance_grid[0]
    angular, polar = _dictionaries(cfg)
    rx_array = ArrayConfig(pre.num_rx_antennas, cfg.array.carrier_freq)

    def trial_values(s_idx, snr_db, trial):
        rng = np.random.default_rng(_child_seed(cfg.seed, 4, s_idx, trial))
        paths = []
        rx_angles = []
        for _ in range(cfg.channel.paths_per_user):
            r = distance * (1.0 + cfg.channel.distance_spread_frac * rng.uniform(-1, 1))
            gain = (rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(2)
            paths.append(PathParam(float(rng.uniform(*cfg.channel.angle_range)), float(r), complex(gain)))
            rx_angles.append(float(rng.uniform(-1, 1)))
        channel = MatrixChannel(synthesize_matrix_channel(cfg.array, rx_array, paths, rx_angles))
        f_opt = optimal_precoder(channel, pre.num_streams)
        values = {"optimal": spectral_efficiency(channel, f_opt, snr_db).spectral_efficiency}
        for name, dictionary in (("hybrid_angular", angular), ("hybrid_polar", polar)):
            pair = block_sparse_precoding(f_opt, dictionary, pre.num_rf_chains)
            values[name] = spectral_efficiency(channel, pair, snr_db).spectral_efficiency
        return values

    labels = ("optimal", "hybrid_angular", "hybrid_polar")
    return _sweep(cfg, cfg.snr_db, labels, trial_values, out_path or cfg.output)
