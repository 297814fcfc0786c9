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
    angular_partition,
    build_angular_dictionary,
    build_polar_dictionary,
    polar_atom_count,
)
from .errors import ConfigurationError
from .partition import check_profile, complete_bdcs
from .precoding import (
    MatrixChannel, block_sparse_precoding, check_counts, check_snr, optimal_precoder, spectral_efficiency,
)
from .recovery import RecoveryConfig, SideInformation, bsomp, bsomp_batch, ls_estimate, nmse
from .sensing import make_pilot_matrix, measurement_matrix, observe

_PURSUITS = ("somp_polar", "bsomp_angular", "bsomp_polar")
VALID_METHODS = ("ls", *_PURSUITS, "complete_bdcs")

DEFAULT_RAYLEIGH_FRACS = (0.05, 0.07, 0.1, 0.15, 0.25, 0.4, 0.6, 0.8, 1.0, 1.2)


@dataclass(frozen=True)
class ChannelSettings:
    num_users: int = 4
    paths_per_user: int = 6
    angle_spread: float = 0.05
    distance_spread_frac: float = 0.1
    power_decay_rate: float = 0.5
    angle_range: tuple[float, float] = (-0.866, 0.866)  # 120 degree sector

    def cluster(self, angle: float, distance: float) -> ClusterSpec:
        """The sweep's scatterer cluster of one user, centred at (angle, distance)."""
        return ClusterSpec(angle, distance, self.angle_spread, self.distance_spread_frac * distance,
                           self.paths_per_user, self.power_decay_rate)


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
    """Everything a sweep needs; see from_dict for the file schema.

    Construction checks every field, each rule by the library object or
    function that owns it, and keeps the owner objects the sweeps reuse:
    ``subcarrier_grid``, ``side_info`` and the receive array ``rx_array``.
    """

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

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigurationError("config key 'trials': must be at least 1")
        methods = set(self.methods)
        if not methods <= set(VALID_METHODS) or not 0 < len(methods) == len(self.methods):
            raise ConfigurationError(
                f"config key 'methods': must be a non-empty subset of {VALID_METHODS}, each named once"
            )
        snr = self.snr_db
        if not (len(snr) == len(set(snr)) > 0 and all(np.isfinite(s) or np.isposinf(s) for s in snr)):
            raise ConfigurationError("config key 'snr_db': must be non-empty with distinct entries finite or +inf")
        if self.seed < 0:
            raise ConfigurationError(f"config key 'seed': must be non-negative, got {self.seed}")
        if self.channel.num_users < 1:
            raise ConfigurationError("config key 'channel.num_users': must be at least 1")
        if not (np.isfinite(self.pilot_fraction) and self.pilot_count >= 1):
            raise ConfigurationError("config key 'pilot.fraction': must give at least one pilot")
        grid_key = "distances" if self.distances else "rayleigh_fracs"
        low, high = self.channel.angle_range
        if not low <= high:
            raise ConfigurationError("config key 'channel.angle_range': must satisfy low <= high")
        # every other rule is checked by the library object or function that owns it
        keys = {
            "subcarrier_count": "subcarriers.count", "frequencies": "subcarriers.spacing_hz",
            "center_angle": "channel.angle_range", "center_distance": grid_key, "distances": grid_key,
            "distance_spread": "channel.distance_spread_frac", "subpath_count": "channel.paths_per_user",
            "num_antennas": "precoding.num_rx_antennas",
        }
        array, d, pre = self.array, self.dictionary, self.precoding
        grid = _build(keys, SubcarrierGrid, self.subcarrier_count, array.carrier_freq, self.subcarrier_spacing)
        for r in self.distance_grid:
            for angle in (low, high):
                _build(keys, self.channel.cluster, angle, r)
        _build(keys, check_profile, self.distance_grid, self.partition.eta, self.partition.trials)
        # a null tolerance (matched to each SNR) is checked as 0
        _build(keys, RecoveryConfig, self.recovery.max_blocks, self.recovery.residual_tolerance or 0.0)
        si = _build(keys, SideInformation, decay_floor=self.side_information.decay_floor)
        _build(keys, angular_partition, array, d.oversampling, d.block_length)
        _build(keys, polar_atom_count, array, d.beta, d.r_min)
        rx_array = _build(keys, ArrayConfig, pre.num_rx_antennas, array.carrier_freq)
        _build(keys, check_counts, pre.num_streams, array.num_antennas, pre.num_rx_antennas,
               pre.num_rf_chains, d.block_length)
        # kept for the sweeps, outside the frozen fields
        self.__dict__.update(subcarrier_grid=grid, side_info=si, rx_array=rx_array)

    @property
    def distance_grid(self) -> tuple:
        if self.distances:
            return tuple(float(r) for r in self.distances)
        rd = rayleigh_distance(self.array)
        return tuple(f * rd for f in self.rayleigh_fracs)

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
          trials, seed
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
                top[f.name] = _build({}, type(default), **{**required, **values[f.name]})
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


def _build(keys: Mapping, owner, *args, **kwargs):
    """owner(*args, **kwargs), its ValueError re-raised as a ConfigurationError
    naming the config key of the value at fault. An owner's message starts
    with that value's name: its key is keys[name], else the key of the
    section field of that name."""
    try:
        return owner(*args, **kwargs)
    except ValueError as exc:
        name = str(exc).split()[0]
        named = (key for key, (path, _) in _schema(ExperimentConfig).items() if path.endswith(f".{name}"))
        raise ConfigurationError(f"config key {keys.get(name) or next(named, name)!r}: {exc}") from None


def _coerce(key: str, hint, value):
    """Convert a config-file value to its field type: int, float, str, an
    Optional of one (None passes) or a tuple of one (any value that is not a
    list or tuple, a string included, becomes its one entry). Booleans are
    refused for every number, and fractional numbers for every int."""
    if get_origin(hint) is Union:
        if value is None:
            return None
        hint = get_args(hint)[0]
    try:
        if get_origin(hint) is not tuple:
            return _number(hint, value)
        if not isinstance(value, (list, tuple)):
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


def _pilot(cfg: ExperimentConfig):
    return make_pilot_matrix(cfg.pilot_count, cfg.array.num_antennas, _child_seed(cfg.seed, 0))


def _angular_dictionary(cfg: ExperimentConfig):
    d = cfg.dictionary
    return build_angular_dictionary(cfg.array, d.oversampling, d.block_length)


def _polar_dictionary(cfg: ExperimentConfig):
    d = cfg.dictionary
    return build_polar_dictionary(cfg.array, d.beta, d.r_min, d.block_length)


class Workbench:
    """Per-config context: pilot, dictionaries, and measurement matrices,
    built once and shared across every trial."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.pilot = _pilot(cfg)
        self.angular, self.polar = _angular_dictionary(cfg), _polar_dictionary(cfg)
        self.mm_angular = measurement_matrix(self.pilot, self.angular)
        self.mm_polar = measurement_matrix(self.pilot, self.polar)
        self.polar_atom_partition = BlockPartition.uniform(self.polar.num_atoms, 1)
        self.si = cfg.side_info

    def residual_tolerance(self, snr_db: float) -> float:
        tol = self.cfg.recovery.residual_tolerance
        if tol is not None:
            return tol
        # stop near the expected noise floor of the relative residual
        rho = 10.0 ** (snr_db / 10.0)
        return float(np.sqrt(1.0 / (1.0 + rho)))

    def draw_channel(self, distance: float, d_idx: int, trial: int, user: int):
        cfg = self.cfg
        rng = np.random.default_rng(_child_seed(cfg.seed, 1, d_idx, trial, user))
        cluster = cfg.channel.cluster(float(rng.uniform(*cfg.channel.angle_range)), distance)
        return synthesize_channel(
            cfg.array, [cluster], cfg.subcarrier_grid, _child_seed(cfg.seed, 2, d_idx, trial, user)
        )

    def pursuit(self, kind: str, tol: float):
        """Measurement matrix and recovery config of one pursuit kind
        (somp_polar, bsomp_angular or bsomp_polar) at residual tolerance tol."""
        blocks = self.cfg.recovery.max_blocks
        if kind == "somp_polar":
            cfg = RecoveryConfig(blocks * self.cfg.dictionary.block_length, tol, self.polar_atom_partition)
            return self.mm_polar, cfg
        return (self.mm_angular if kind == "bsomp_angular" else self.mm_polar), RecoveryConfig(blocks, tol)

    def estimate(self, method: str, obs) -> np.ndarray:
        tol = self.residual_tolerance(obs.snr_db)
        if method == "ls":
            return ls_estimate(self.pilot, obs)
        if method in _PURSUITS:
            measurement, recovery_cfg = self.pursuit(method, tol)
            return bsomp(measurement, obs, recovery_cfg, self.si).reconstructed_channels
        if method == "complete_bdcs":
            result = complete_bdcs(
                obs,
                self.mm_angular,
                self.mm_polar,
                RecoveryConfig(self.cfg.recovery.max_blocks, tol),
                routing="by_residual",
                si=self.si,
            )
            return result.reconstructed_channels
        raise ConfigurationError(f"unknown method {method!r}")

    def nmse_cells(self, cells: Sequence[tuple]) -> list:
        """Per cell (idx, trial, distance, snr_db), the NMSE in dB of each
        method, averaged over the cell's users. ``idx`` is the sweep index
        that keys the channel and noise seeds.

        Every pursuit the methods need runs once over the observations of all
        cells in one ``bsomp_batch`` per measurement matrix, each observation
        with the residual tolerance of its own SNR, so ``somp_polar`` and
        ``bsomp_polar`` share each observation's first correlation product;
        ``estimate`` then gets each stored result."""
        cfg = self.cfg
        observed = []  # per cell, its users' (observation, true channels)
        for idx, trial, distance, snr_db in cells:
            pairs = []
            for user in range(cfg.channel.num_users):
                channel = self.draw_channel(distance, idx, trial, user)
                obs = observe(self.pilot, channel, snr_db, _child_seed(cfg.seed, 3, idx, trial, user))
                pairs.append((obs, channel.per_subcarrier_channels))
            observed.append(pairs)
        group = [obs for pairs in observed for obs, _ in pairs]
        routed = ("bsomp_angular", "bsomp_polar") if "complete_bdcs" in cfg.methods else ()
        batches: dict = {}  # per measurement matrix, the (observation, config) pairs of its pursuits
        for kind in _PURSUITS:
            if kind in cfg.methods or kind in routed:
                for obs in group:
                    measurement, recovery_cfg = self.pursuit(kind, self.residual_tolerance(obs.snr_db))
                    batches.setdefault(measurement, []).append((obs, recovery_cfg))
        for measurement, pursuits in batches.items():
            bsomp_batch(measurement, *zip(*pursuits), self.si)
        return [
            {m: float(np.mean([nmse(self.estimate(m, obs), truth) for obs, truth in pairs])) for m in cfg.methods}
            for pairs in observed
        ]


MAX_BATCH_OBSERVATIONS = 16
"""Most observations a sweep holds at once. It scores its cells in chunks of
whole cells with at most this many observations, and never less than one
cell, so each chunk runs one batch per measurement matrix, whatever the
residual tolerances of its observations. Every observation keeps its stored
pursuit results, about 0.05 MB at the reference preset (mostly the three
reconstructed (K, N) channels; the coefficients are kept on the support
only), until its cell is scored, and a lockstep batch holds state for each
of its observations: a larger chunk shares more of each correlation product,
but holds more memory."""


def _sweep(cfg: ExperimentConfig, xs, labels, cell_values, cell_size: int, out_path) -> list:
    """Shared aggregation loop: per x and label, the mean and standard error
    over trials of the value of each cell (x_idx, x, trial). The cells are
    walked x-major in chunks of whole cells of ``cell_size`` observations
    each (see MAX_BATCH_OBSERVATIONS); cell_values(chunk) returns, per cell
    of the chunk, a mapping from label to value. Writes the CSV when
    out_path is set."""
    cells = [(x_idx, x, trial) for x_idx, x in enumerate(xs) for trial in range(cfg.trials)]
    step = max(1, MAX_BATCH_OBSERVATIONS // cell_size)
    values = [v for start in range(0, len(cells), step) for v in cell_values(cells[start:start + step])]
    points: list = []
    for x_idx, x in enumerate(xs):
        trials = values[x_idx * cfg.trials:(x_idx + 1) * cfg.trials]
        for label in labels:
            vals = np.array([v[label] for v in trials], dtype=float)
            stderr = float(vals.std(ddof=1) / np.sqrt(cfg.trials)) if cfg.trials > 1 else 0.0
            points.append(CurvePoint(float(x), label, float(vals.mean()), stderr, cfg.trials))
    if out_path:
        write_curve_csv(points, out_path)
    return points


def _nmse_sweep(cfg: ExperimentConfig, xs, point, out_path) -> list:
    """NMSE of every configured method along ``xs``, point(x) giving the
    (distance, snr_db) of each x."""
    bench = Workbench(cfg)
    return _sweep(
        cfg, xs, cfg.methods,
        lambda cells: bench.nmse_cells([(x_idx, trial, *point(x)) for x_idx, x, trial in cells]),
        cfg.channel.num_users, out_path,
    )


def run_nmse_vs_distance(cfg: ExperimentConfig, out_path: Optional[str] = None) -> list:
    """NMSE of every configured method across the distance grid, at the first
    configured SNR. Writes CSV when a path is given."""
    return _nmse_sweep(cfg, cfg.distance_grid, lambda distance: (distance, cfg.snr_db[0]), out_path)


def run_nmse_vs_snr(cfg: ExperimentConfig, out_path: Optional[str] = None) -> list:
    """NMSE versus SNR at the first configured distance."""
    return _nmse_sweep(cfg, cfg.snr_db, lambda snr_db: (cfg.distance_grid[0], snr_db), out_path)


def run_se_vs_snr(cfg: ExperimentConfig, out_path: Optional[str] = None) -> list:
    """Spectral efficiency of the SVD precoder and its hybrid approximations
    (angular and polar dictionaries) versus SNR, single link at the first
    configured distance. mean_db carries bits/s/Hz here. An SNR of +inf,
    which the NMSE sweeps run noiseless, is refused before the first trial."""
    for snr_db in cfg.snr_db:
        _build({}, check_snr, snr_db)
    pre = cfg.precoding
    distance = cfg.distance_grid[0]
    angular, polar = _angular_dictionary(cfg), _polar_dictionary(cfg)

    def trial_values(s_idx, snr_db, trial):
        rng = np.random.default_rng(_child_seed(cfg.seed, 4, s_idx, trial))
        paths = []
        rx_angles = []
        for _ in range(cfg.channel.paths_per_user):
            r = distance * (1.0 + cfg.channel.distance_spread_frac * rng.uniform(-1, 1))
            gain = (rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(2)
            paths.append(PathParam(float(rng.uniform(*cfg.channel.angle_range)), float(r), complex(gain)))
            rx_angles.append(float(rng.uniform(-1, 1)))
        channel = MatrixChannel(synthesize_matrix_channel(cfg.array, cfg.rx_array, paths, rx_angles))
        f_opt = optimal_precoder(channel, pre.num_streams)
        values = {"optimal": spectral_efficiency(channel, f_opt, snr_db).spectral_efficiency}
        for name, dictionary in (("hybrid_angular", angular), ("hybrid_polar", polar)):
            pair = block_sparse_precoding(f_opt, dictionary, pre.num_rf_chains)
            values[name] = spectral_efficiency(channel, pair, snr_db).spectral_efficiency
        return values

    labels = ("optimal", "hybrid_angular", "hybrid_polar")
    return _sweep(cfg, cfg.snr_db, labels, lambda cells: [trial_values(*cell) for cell in cells], 1, out_path)
