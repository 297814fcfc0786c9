import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import bdcs
from bdcs import ConfigurationError
from bdcs.bench import (
    VALID_METHODS,
    ChannelSettings,
    ExperimentConfig,
    RecoverySettings,
    Workbench,
    _coerce,
    _schema,
    run_nmse_vs_distance,
    run_nmse_vs_snr,
    run_se_vs_snr,
    write_curve_csv,
)
from helpers import count_kernel_runs

TINY = {
    "array": {"num_antennas": 24, "carrier_freq_hz": 30e9},
    "subcarriers": {"count": 2, "spacing_hz": 240e3},
    "channel": {"num_users": 2, "paths_per_user": 3},
    "dictionary": {"block_length": 2, "r_min_m": 0.1},
    "recovery": {"max_blocks": 3},
    "trials": 4,
    "seed": 99,
}


def tiny_config(**overrides):
    raw = {**TINY, **overrides}
    return ExperimentConfig.from_dict(raw)


class TestConfig:
    def test_defaults_follow_reference_preset(self):
        cfg = ExperimentConfig.from_dict({})
        assert cfg.array.num_antennas == 256
        assert cfg.subcarrier_count == 4
        assert cfg.channel.num_users == 4
        assert cfg.channel.paths_per_user == 6
        assert cfg.pilot_count == 128
        assert len(cfg.distance_grid) == 10

    def test_invalid_method_rejected_before_compute(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_dict({"methods": ["ls", "bogus"]})

    def test_invalid_trials(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_dict({"trials": 0})

    @pytest.mark.parametrize(
        "raw, key",
        [
            ({"trails": 3}, "trails"),
            ({"recovery": {"max_block": 8}}, "recovery.max_block"),
            ({"side_information": {"temporal_gain": 1}}, "side_information.temporal_gain"),
            ({"array": {"carrier_freq": 28e9}}, "array.carrier_freq"),
            ({"output": "curve.csv"}, "output"),  # sweeps write to their out_path only
        ],
    )
    def test_unknown_key_rejected(self, raw, key):
        with pytest.raises(ConfigurationError, match=re.escape(repr(key))):
            ExperimentConfig.from_dict(raw)

    def test_bad_value_names_its_key(self):
        with pytest.raises(ConfigurationError, match="'trials'"):
            ExperimentConfig.from_dict({"trials": "many"})
        with pytest.raises(ConfigurationError, match="'channel.angle_range'"):
            ExperimentConfig.from_dict({"channel": {"angle_range": [-0.5, 0.0, 0.5]}})
        with pytest.raises(ConfigurationError, match="'recovery'"):
            ExperimentConfig.from_dict({"recovery": 4})

    @pytest.mark.parametrize(
        "raw, field, expected",
        [
            ({"snr_db": "10"}, "snr_db", (10.0,)),
            ({"methods": "ls"}, "methods", ("ls",)),
        ],
    )
    def test_a_scalar_for_a_list_key_is_one_entry(self, raw, field, expected):
        # a string was read character by character: "10" ran the SNRs 1 and 0,
        # and "ls" was refused as not a subset of the methods
        assert getattr(ExperimentConfig.from_dict(raw), field) == expected

    @pytest.mark.parametrize(
        "raw, key, message",
        [
            ({"channel": {"angle_range": "01"}}, "channel.angle_range", "expected 2 entries, got 1"),
            ({"channel": {"angle_range": {"-1": 0, "1": 0}}}, "channel.angle_range", "dict"),
            ({"snr_db": {"10": 0}}, "snr_db", "dict"),
        ],
    )
    def test_a_string_or_mapping_is_not_split_into_entries(self, raw, key, message):
        # "01" became the range (0.0, 1.0), and a mapping's keys became entries
        with pytest.raises(ConfigurationError, match=f"{re.escape(repr(key))}.*{message}"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize(
        "raw, key",
        [
            ({"trials": 2.5}, "trials"),
            ({"recovery": {"max_blocks": 3.9}}, "recovery.max_blocks"),
            ({"trials": True}, "trials"),
        ],
    )
    def test_int_field_refuses_truncation(self, raw, key):
        with pytest.raises(ConfigurationError, match=re.escape(repr(key))):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize(
        "raw, key",
        [
            ({"pilot": {"fraction": True}}, "pilot.fraction"),
            ({"snr_db": True}, "snr_db"),
            ({"snr_db": [True]}, "snr_db"),
        ],
    )
    def test_numeric_field_refuses_booleans(self, raw, key):
        with pytest.raises(ConfigurationError, match=re.escape(repr(key))):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize(
        "raw, changes, key",
        [
            ({"pilot": {"fraction": -0.5}}, {"pilot_fraction": -0.5}, "pilot.fraction"),
            ({"pilot": {"fraction": 0.0}}, {"pilot_fraction": 0.0}, "pilot.fraction"),
            # 0.256 of a pilot rounds to none
            ({"pilot": {"fraction": 0.001}}, {"pilot_fraction": 0.001}, "pilot.fraction"),
            ({"pilot": {"fraction": float("nan")}}, {"pilot_fraction": float("nan")}, "pilot.fraction"),
            ({"channel": {"num_users": 0}}, {"channel": ChannelSettings(num_users=0)}, "channel.num_users"),
            ({"seed": -1}, {"seed": -1}, "seed"),
            ({"rayleigh_fracs": []}, {"rayleigh_fracs": ()}, "rayleigh_fracs"),
            ({"recovery": {"residual_tolerance": float("nan")}},
             {"recovery": RecoverySettings(residual_tolerance=float("nan"))}, "recovery.residual_tolerance"),
            ({"recovery": {"residual_tolerance": -0.1}},
             {"recovery": RecoverySettings(residual_tolerance=-0.1)}, "recovery.residual_tolerance"),
            ({"recovery": {"max_blocks": 0}}, {"recovery": RecoverySettings(max_blocks=0)}, "recovery.max_blocks"),
            # angles are sines: outside [-1, 1] no direction exists
            ({"channel": {"angle_range": [-2.0, 2.0]}},
             {"channel": ChannelSettings(angle_range=(-2.0, 2.0))}, "channel.angle_range"),
            ({"channel": {"angle_range": [0.9, -0.9]}},
             {"channel": ChannelSettings(angle_range=(0.9, -0.9))}, "channel.angle_range"),
            ({"snr_db": [10.0, float("-inf")]}, {"snr_db": (10.0, float("-inf"))}, "snr_db"),
            ({"distances": [10.0, -2.0]}, {"distances": (10.0, -2.0)}, "distances"),
            ({"distances": [0.0]}, {"distances": (0.0,)}, "distances"),
            ({"distances": [float("inf")]}, {"distances": (float("inf"),)}, "distances"),
            ({"distances": [float("nan")]}, {"distances": (float("nan"),)}, "distances"),
            ({"rayleigh_fracs": [0.5, 0.0]}, {"rayleigh_fracs": (0.5, 0.0)}, "rayleigh_fracs"),
            ({"rayleigh_fracs": [-0.1]}, {"rayleigh_fracs": (-0.1,)}, "rayleigh_fracs"),
            ({"rayleigh_fracs": [float("nan")]}, {"rayleigh_fracs": (float("nan"),)}, "rayleigh_fracs"),
            # a repeated method would be estimated and written twice
            ({"methods": ["ls", "bsomp_polar", "ls"]}, {"methods": ("ls", "bsomp_polar", "ls")}, "methods"),
        ],
    )
    def test_bad_value_refused_before_compute(self, raw, changes, key):
        with pytest.raises(ConfigurationError, match=re.escape(repr(key))):
            ExperimentConfig.from_dict(raw)
        # the CLI applies its overrides with dataclasses.replace
        with pytest.raises(ConfigurationError, match=re.escape(repr(key))):
            replace(ExperimentConfig(), **changes)

    def test_renamed_and_folded_keys(self):
        cfg = ExperimentConfig.from_dict({
            "array": {"carrier_freq_hz": "28.0e9"},
            "subcarriers": {"count": 2, "spacing_hz": 120e3},
            "pilot": {"fraction": 0.25},
            "dictionary": {"r_min_m": 3.0},
            "partition": {"eta": 0.9},
            "snr_db": 5,
        })
        assert cfg.array.carrier_freq == 28e9
        assert cfg.array.element_spacing == pytest.approx(cfg.array.wavelength / 2.0)
        assert (cfg.subcarrier_count, cfg.subcarrier_spacing) == (2, 120e3)
        assert cfg.pilot_fraction == 0.25 and cfg.dictionary.r_min == 3.0
        assert cfg.partition.eta == 0.9 and cfg.partition.trials == 64
        assert cfg.snr_db == (5.0,)

    def test_readme_schema_block_is_the_default(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("### Config schema", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]
        assert ExperimentConfig.from_dict(yaml.safe_load(block)) == ExperimentConfig.from_dict({})

    def test_distance_grid_validation(self):
        with pytest.raises(ConfigurationError, match="'distances'"):
            tiny_config(distances=[1.0, -2.0])

    def test_rayleigh_fracs_expand(self):
        cfg = tiny_config(rayleigh_fracs=[0.5, 1.0], distances=[])
        from bdcs import rayleigh_distance

        rd = rayleigh_distance(cfg.array)
        assert cfg.distance_grid == (0.5 * rd, rd)


NAN = float("nan")

# One or more out-of-range values for every config key, as (key, raw config).
OUT_OF_RANGE = [
    ("array.num_antennas", {"array": {"num_antennas": 0}}),
    ("array.carrier_freq_hz", {"array": {"carrier_freq_hz": NAN}}),
    ("array.carrier_freq_hz", {"array": {"carrier_freq_hz": -30e9}}),
    ("array.carrier_freq_hz", {"array": {"carrier_freq_hz": float("inf"), "element_spacing_m": 0.005}}),
    ("array.element_spacing_m", {"array": {"element_spacing_m": NAN}}),
    ("array.element_spacing_m", {"array": {"element_spacing_m": 0.0}}),
    ("subcarriers.count", {"subcarriers": {"count": 0}}),
    ("subcarriers.spacing_hz", {"subcarriers": {"spacing_hz": NAN}}),
    ("subcarriers.spacing_hz", {"subcarriers": {"count": 3, "spacing_hz": float("inf")}}),
    ("subcarriers.spacing_hz", {"subcarriers": {"spacing_hz": 1e11}}),  # a negative frequency
    ("channel.num_users", {"channel": {"num_users": 0}}),
    ("channel.paths_per_user", {"channel": {"paths_per_user": 0}}),
    ("channel.angle_spread", {"channel": {"angle_spread": -0.1}}),
    ("channel.angle_spread", {"channel": {"angle_spread": NAN}}),
    ("channel.distance_spread_frac", {"channel": {"distance_spread_frac": -0.1}}),
    ("channel.distance_spread_frac", {"channel": {"distance_spread_frac": NAN}}),
    ("channel.power_decay_rate", {"channel": {"power_decay_rate": -1.0}}),
    ("channel.power_decay_rate", {"channel": {"power_decay_rate": NAN}}),
    ("channel.angle_range", {"channel": {"angle_range": [-2.0, 2.0]}}),
    ("channel.angle_range", {"channel": {"angle_range": [0.9, -0.9]}}),
    ("channel.angle_range", {"channel": {"angle_range": [NAN, 0.5]}}),
    ("pilot.fraction", {"pilot": {"fraction": 0.0}}),
    ("snr_db", {"snr_db": []}),
    ("snr_db", {"snr_db": [10.0, 10.0]}),
    ("distances", {"distances": [5.0, 5.0]}),
    ("distances", {"distances": [10.0, -2.0]}),
    ("distances", {"distances": [float("inf")]}),
    ("rayleigh_fracs", {"rayleigh_fracs": []}),
    ("rayleigh_fracs", {"rayleigh_fracs": [0.5, 0.5]}),
    ("rayleigh_fracs", {"rayleigh_fracs": [NAN]}),
    ("methods", {"methods": []}),
    ("methods", {"methods": ["ls", "bogus"]}),
    ("trials", {"trials": 0}),
    ("seed", {"seed": -1}),
    ("dictionary.oversampling", {"dictionary": {"oversampling": 0}}),
    ("dictionary.block_length", {"dictionary": {"block_length": 0}}),
    ("dictionary.block_length", {"dictionary": {"block_length": 3}}),  # does not divide 256
    ("dictionary.beta", {"dictionary": {"beta": -1.0}}),
    ("dictionary.beta", {"dictionary": {"beta": NAN}}),
    ("dictionary.beta", {"dictionary": {"beta": 1e-3}}),  # about 2.8e9 polar atoms
    ("dictionary.r_min_m", {"dictionary": {"r_min_m": 0.0}}),
    ("dictionary.r_min_m", {"dictionary": {"r_min_m": NAN}}),
    ("dictionary.r_min_m", {"dictionary": {"r_min_m": 1e-6}}),  # about 1e10 polar atoms
    ("recovery.max_blocks", {"recovery": {"max_blocks": 0}}),
    ("recovery.residual_tolerance", {"recovery": {"residual_tolerance": -0.1}}),
    ("recovery.residual_tolerance", {"recovery": {"residual_tolerance": NAN}}),
    ("side_information.decay_floor", {"side_information": {"decay_floor": 2.0}}),
    ("side_information.decay_floor", {"side_information": {"decay_floor": NAN}}),
    ("precoding.num_rx_antennas", {"precoding": {"num_rx_antennas": 0}}),
    ("precoding.num_streams", {"precoding": {"num_streams": 9}}),
    ("precoding.num_streams", {"precoding": {"num_streams": 0}}),
    ("precoding.num_rf_chains", {"precoding": {"num_streams": 3, "num_rf_chains": 2}}),
    ("precoding.num_rf_chains", {"precoding": {"num_rf_chains": 0}}),
    ("precoding.num_rf_chains", {"precoding": {"num_rf_chains": 6}}),  # block length 4 does not divide 6
    ("precoding.num_rf_chains", {"precoding": {"num_rf_chains": 512}}),  # more chains than antennas
    ("partition.eta", {"partition": {"eta": 1.5}}),
    ("partition.eta", {"partition": {"eta": NAN}}),
    ("partition.trials", {"partition": {"trials": 0}}),
]


def _replace_changes(raw):
    """The dataclasses.replace arguments that set the values of a raw config."""
    schema, changes = _schema(ExperimentConfig), {}
    for section, entries in raw.items():
        for name, value in (entries.items() if isinstance(entries, dict) else [(None, entries)]):
            key = f"{section}.{name}" if name else section
            path, hint = schema[key]
            parent, _, field_name = path.rpartition(".")
            value = _coerce(key, hint, value)
            if parent:
                base = changes.get(parent, getattr(ExperimentConfig(), parent))
                changes[parent] = replace(base, **{field_name: value})
            else:
                changes[field_name] = value
    return changes


class TestEveryKeyChecked:
    def test_every_schema_key_has_a_row(self):
        assert {key for key, _ in OUT_OF_RANGE} == set(_schema(ExperimentConfig))

    @pytest.mark.parametrize("key, raw", OUT_OF_RANGE)
    def test_out_of_range_value_names_its_key(self, key, raw):
        with pytest.raises(ConfigurationError, match=re.escape(repr(key))):
            ExperimentConfig.from_dict(raw)
        if key.startswith("array."):
            return  # ArrayConfig refuses these values before replace could run
        changes = _replace_changes(raw)
        with pytest.raises(ConfigurationError, match=re.escape(repr(key))):
            replace(ExperimentConfig(), **changes)

    def test_load_builds_no_dictionary_pilot_or_measurement(self, monkeypatch):
        import bdcs.bench

        def refuse(*args, **kwargs):
            raise AssertionError("loading a config computes nothing a sweep computes")

        for name in ("build_angular_dictionary", "build_polar_dictionary", "make_pilot_matrix",
                     "measurement_matrix", "synthesize_channel"):
            monkeypatch.setattr(bdcs.bench, name, refuse)
        ExperimentConfig.from_dict({})

    def test_sweep_reuses_the_owner_objects_of_the_config(self):
        cfg = tiny_config(side_information={"decay_floor": 0.1})
        bench = Workbench(cfg)
        assert bench.si is cfg.side_info
        assert cfg.rx_array.num_antennas == cfg.precoding.num_rx_antennas


class TestSharedDictionaries:
    def test_equal_settings_share_the_dictionaries(self):
        first, second = Workbench(tiny_config()), Workbench(tiny_config(seed=7))
        assert second.angular is first.angular and second.polar is first.polar

    @pytest.mark.parametrize("sweep", [run_nmse_vs_distance, run_se_vs_snr])
    def test_csv_bytes_independent_of_the_dictionaries_held(self, tmp_path, sweep):
        cfg = tiny_config(methods=["ls", "bsomp_angular", "bsomp_polar"], distances=[4.0], trials=2)
        other = tiny_config(dictionary={"block_length": 4, "r_min_m": 0.2}, distances=[4.0], trials=2)
        sweep(other)
        sweep(cfg, str(tmp_path / "after_other.csv"))
        bdcs.dictionaries._angular_grid.cache_clear()
        bdcs.dictionaries._polar_grid.cache_clear()
        sweep(cfg, str(tmp_path / "fresh.csv"))
        assert (tmp_path / "after_other.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()


class TestNmseDistance:
    def test_ls_floor_with_full_pilots(self):
        cfg = tiny_config(
            methods=["ls"], snr_db=[float("inf")], pilot={"fraction": 1.0},
            distances=[5.0, 50.0], trials=2,
        )
        points = run_nmse_vs_distance(cfg)
        assert all(p.mean_db <= -200.0 for p in points)

    def test_emits_row_per_distance_method(self):
        cfg = tiny_config(methods=["ls", "bsomp_angular"], distances=[5.0, 20.0])
        points = run_nmse_vs_distance(cfg)
        combos = {(p.x, p.method) for p in points}
        assert len(points) == 4 and len(combos) == 4
        assert all(p.trials == 4 for p in points)

    def test_deterministic_csv(self, tmp_path):
        cfg = tiny_config(methods=["ls", "bsomp_polar"], distances=[4.0])
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_nmse_vs_distance(cfg, str(p1))
        run_nmse_vs_distance(cfg, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == "x,method,mean_db,stderr_db,trials"

    def test_cs_methods_beat_ls_when_compressed(self):
        cfg = tiny_config(
            methods=["ls", "bsomp_angular", "bsomp_polar", "complete_bdcs"],
            distances=[6.0], trials=6, snr_db=[15.0],
        )
        points = run_nmse_vs_distance(cfg)
        by_method = {p.method: p.mean_db for p in points}
        for method in ("bsomp_angular", "bsomp_polar", "complete_bdcs"):
            assert by_method[method] < by_method["ls"]


class TestCellChunks:
    """The NMSE sweeps batch the observations of whole cells, up to
    MAX_BATCH_OBSERVATIONS at once."""

    @pytest.mark.parametrize("methods, kinds", [
        (list(VALID_METHODS), 3),
        (["ls", "complete_bdcs"], 2),  # routing needs the angular and the polar pursuit
        (["bsomp_polar", "complete_bdcs"], 2),
        (["ls"], 0),
    ])
    @pytest.mark.parametrize("users, sizes", [
        (4, [16, 8]),  # 6 cells: a chunk of 4 whole cells (16 observations), then one of 2
        (3, [15, 3]),  # 5 whole cells fit in 16 observations
        (17, [17] * 6),  # a cell larger than the cap is a chunk of its own
    ])
    def test_each_pursuit_runs_once_per_chunk_of_cells(self, monkeypatch, methods, kinds, users, sizes):
        channel = {"num_users": users, "paths_per_user": 3}
        cfg = tiny_config(methods=methods, channel=channel, distances=[4.0, 6.0, 9.0], trials=2)
        runs = count_kernel_runs(monkeypatch)
        run_nmse_vs_distance(cfg)
        assert runs == [size for size in sizes for _ in range(kinds)]

    def test_one_first_correlation_per_measurement_per_chunk(self, monkeypatch):
        # somp_polar and bsomp_polar run on one polar measurement and the same
        # observations, so each chunk screens them once there, and once on the
        # angular one; the kernel runs take their rows and compute none
        import bdcs.recovery

        products, first = [], bdcs.recovery._first_correlation

        def counted(target, screen):
            products.append((screen.shape[1], len(target)))
            return first(target, screen)

        monkeypatch.setattr(bdcs.recovery, "_first_correlation", counted)
        cfg = tiny_config(channel={"num_users": 4, "paths_per_user": 3}, distances=[4.0, 6.0, 9.0], trials=2)
        bench = Workbench(cfg)
        run_nmse_vs_distance(cfg)
        polar, angular = bench.polar.num_atoms, bench.angular.num_atoms
        assert products == [(polar, 16), (angular, 16), (polar, 8), (angular, 8)]  # chunks of 16 and 8

    @pytest.mark.parametrize("tolerance", [0.1, None])
    def test_a_chunk_runs_one_batch_over_its_residual_tolerances(self, monkeypatch, tolerance):
        # 2 SNRs x 2 trials x 4 users fill one chunk, one kernel run per pursuit
        # kind; each target stops at the residual tolerance of its own SNR
        import bdcs.recovery

        runs, kernel = [], bdcs.recovery._greedy_blocks

        def counted(columns, targets, partition, max_blocks, tol, *args, **kwargs):
            runs.append((len(targets), np.broadcast_to(tol, len(targets)).tolist()))
            return kernel(columns, targets, partition, max_blocks, tol, *args, **kwargs)

        monkeypatch.setattr(bdcs.recovery, "_greedy_blocks", counted)
        cfg = tiny_config(
            methods=list(VALID_METHODS), snr_db=[0.0, 10.0], distances=[6.0], trials=2,
            channel={"num_users": 4, "paths_per_user": 3},
            recovery={"max_blocks": 3, "residual_tolerance": tolerance},
        )
        run_nmse_vs_snr(cfg)
        bench = Workbench(cfg)
        per_target = [bench.residual_tolerance(snr) for snr in cfg.snr_db for _ in range(2 * 4)]
        assert runs == [(16, per_target)] * 3
        assert len(set(per_target)) == (2 if tolerance is None else 1)

    @pytest.mark.parametrize("sweep, raw", [
        (run_nmse_vs_distance, {"distances": [4.0, 6.0, 9.0], "trials": 3}),
        (run_nmse_vs_snr, {
            "snr_db": [-5.0, 5.0, 20.0], "distances": [6.0], "trials": 3,
            "recovery": {"max_blocks": 3, "residual_tolerance": None},
            "side_information": {"decay_floor": 0.05},
        }),
        (run_se_vs_snr, {"snr_db": [0.0, 10.0], "distances": [6.0], "trials": 3}),
    ])
    def test_csv_bytes_independent_of_the_chunk_size(self, tmp_path, monkeypatch, sweep, raw):
        # a cap of 1 observation makes each cell its own chunk (one batch per
        # trial); a cap of 1000 puts the whole sweep in one chunk
        import bdcs.bench

        cfg = tiny_config(channel={"num_users": 3, "paths_per_user": 3}, **raw)
        outputs = []
        for cap in (1, bdcs.bench.MAX_BATCH_OBSERVATIONS, 1000):
            monkeypatch.setattr(bdcs.bench, "MAX_BATCH_OBSERVATIONS", cap)
            sweep(cfg, str(tmp_path / f"{cap}.csv"))
            outputs.append((tmp_path / f"{cap}.csv").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]


class TestNmseSnr:
    def test_snr_trend_statistical(self):
        cfg = tiny_config(
            methods=["bsomp_angular", "bsomp_polar"], snr_db=[-5.0, 5.0, 15.0],
            distances=[8.0], trials=200, channel={"num_users": 1, "paths_per_user": 3},
        )
        points = run_nmse_vs_snr(cfg)
        for method in cfg.methods:
            curve = [p.mean_db for p in sorted(points, key=lambda p: p.x) if p.method == method]
            assert all(b <= a for a, b in zip(curve, curve[1:]))

    def test_single_point_matches_distance_run(self):
        cfg = tiny_config(methods=["ls", "bsomp_polar"], snr_db=[10.0], distances=[7.0])
        from_snr = {(p.method): p.mean_db for p in run_nmse_vs_snr(cfg)}
        from_dist = {(p.method): p.mean_db for p in run_nmse_vs_distance(cfg)}
        for method in from_snr:
            assert from_snr[method] == pytest.approx(from_dist[method], abs=1e-12)

    def test_empty_snr_rejected(self):
        with pytest.raises(ConfigurationError, match="'snr_db'"):
            run_nmse_vs_snr(tiny_config(snr_db=[]))


class TestResidualTolerance:
    def test_configured_tolerance_returned_as_is(self):
        bench = Workbench(tiny_config(recovery={"residual_tolerance": 0.05}))
        assert bench.residual_tolerance(10.0) == 0.05
        assert bench.residual_tolerance(float("inf")) == 0.05

    @pytest.mark.parametrize("snr_db, expected", [(0.0, np.sqrt(0.5)), (10.0, np.sqrt(1.0 / 11.0))])
    def test_snr_matched_noise_floor(self, snr_db, expected):
        bench = Workbench(tiny_config(recovery={"residual_tolerance": None}))
        assert bench.residual_tolerance(snr_db) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("snr_db", [float("inf"), np.float64("inf")])
    def test_snr_matched_noiseless_is_exactly_zero(self, snr_db):
        bench = Workbench(tiny_config(recovery={"residual_tolerance": None}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bench.residual_tolerance(snr_db) == 0.0


class TestPilotFractionSweep:
    def test_more_pilots_help(self):
        means = []
        for fraction in (0.25, 0.5, 1.0):
            cfg = tiny_config(
                methods=["bsomp_angular"], distances=[8.0], trials=40,
                snr_db=[10.0], pilot={"fraction": fraction},
                channel={"num_users": 1, "paths_per_user": 3},
            )
            points = run_nmse_vs_distance(cfg)
            means.append(points[0].mean_db)
        assert means[2] < means[0]  # full pilots clearly beat quarter-rate


class TestSeSnr:
    def test_optimal_dominates_hybrid_and_monotone(self):
        cfg = tiny_config(
            snr_db=[-5.0, 5.0, 15.0], distances=[6.0], trials=3,
            precoding={"num_rx_antennas": 3, "num_streams": 2, "num_rf_chains": 4},
        )
        points = run_se_vs_snr(cfg)
        table = {(p.x, p.method): p.mean_db for p in points}
        xs = sorted({p.x for p in points})
        for x in xs:
            assert table[(x, "optimal")] >= table[(x, "hybrid_angular")]
            assert table[(x, "optimal")] >= table[(x, "hybrid_polar")]
        # each trial scores one link at every SNR, and its optimal SE rises strictly
        opt_curve = [table[(x, "optimal")] for x in xs]
        assert all(b > a for a, b in zip(opt_curve, opt_curve[1:]))

    def test_a_row_does_not_depend_on_the_other_snrs_listed(self):
        precoding = {"num_rx_antennas": 3, "num_streams": 2, "num_rf_chains": 4}
        rows = [
            {p.method: (p.mean_db.hex(), p.stderr_db.hex())
             for p in run_se_vs_snr(tiny_config(snr_db=snr_db, distances=[6.0], precoding=precoding))
             if p.x == 10.0}
            for snr_db in ([0.0, 10.0], [10.0])
        ]
        assert set(rows[0]) == {"optimal", "hybrid_angular", "hybrid_polar"}
        assert rows[0] == rows[1]

    @pytest.mark.parametrize("snr_db", [[10.0], [-5.0, 5.0, 15.0]])
    def test_one_link_and_one_precoding_per_trial(self, monkeypatch, snr_db):
        import bdcs.bench

        calls = {}
        for name in ("synthesize_matrix_channel", "optimal_precoder", "block_sparse_precoding", "spectral_efficiency"):
            def counted(*args, _call=getattr(bdcs.bench, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _call(*args, **kwargs)

            monkeypatch.setattr(bdcs.bench, name, counted)
        cfg = tiny_config(snr_db=snr_db, distances=[6.0], trials=3)
        run_se_vs_snr(cfg)
        assert calls == {
            "synthesize_matrix_channel": 3, "optimal_precoder": 3, "block_sparse_precoding": 2 * 3,
            "spectral_efficiency": 3 * 3 * len(snr_db),
        }

    def test_full_chain_budget_tracks_optimal(self):
        cfg = tiny_config(
            array={"num_antennas": 16, "carrier_freq_hz": 30e9},
            dictionary={"block_length": 1, "r_min_m": 0.05},
            snr_db=[0.0, 10.0], distances=[3.0], trials=4,
            precoding={"num_rx_antennas": 3, "num_streams": 2, "num_rf_chains": 16},
        )
        points = run_se_vs_snr(cfg)
        table = {(p.x, p.method): p.mean_db for p in points}
        for x in {p.x for p in points}:
            assert table[(x, "hybrid_angular")] >= 0.95 * table[(x, "optimal")]


def test_write_curve_csv_format(tmp_path):
    from bdcs import CurvePoint

    path = tmp_path / "c.csv"
    write_curve_csv([CurvePoint(1.5, "ls", -3.25, 0.125, 7)], path)
    assert path.read_text().splitlines() == [
        "x,method,mean_db,stderr_db,trials",
        "1.5,ls,-3.250000,0.125000,7",
    ]


_SWEEPS = """
import json, sys
from bdcs.bench import ExperimentConfig, run_nmse_vs_distance, run_nmse_vs_snr, run_se_vs_snr
distance = run_nmse_vs_distance(ExperimentConfig.from_dict({"trials": 1, "seed": 5}), sys.argv[1] + "/nmse.csv")
run_se_vs_snr(ExperimentConfig.from_dict({"trials": 2, "seed": 5, "snr_db": [0, 10]}), sys.argv[1] + "/se.csv")
# the observations of a chunk stop after different numbers of blocks, so the lockstep
# products change shape from step to step
snr = run_nmse_vs_snr(ExperimentConfig.from_dict({
    "trials": 1, "seed": 5, "snr_db": [-10, -5, 0, 5, 10, 20, 30],
    "recovery": {"residual_tolerance": None}, "side_information": {"decay_floor": 0.05},
}), sys.argv[1] + "/snr.csv")
json.dump([(p.x, p.method, p.mean_db.hex()) for p in distance + snr], open(sys.argv[1] + "/points.json", "w"))
"""


@pytest.fixture(scope="module")
def sweeps_at_one_and_two_blas_threads(tmp_path_factory):
    """The CSV bytes of three sweeps, and the NMSE points of two of them as
    (x, method, float.hex of mean_db), run at 1 and at 2 OpenBLAS threads."""
    src = str(Path(bdcs.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path_factory.mktemp(f"blas{threads}")
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": threads,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        }
        subprocess.run([sys.executable, "-c", _SWEEPS, str(out)], env=env, check=True, timeout=300)
        csvs = [(out / name).read_bytes() for name in ("nmse.csv", "se.csv", "snr.csv")]
        outputs.append((csvs, [tuple(point) for point in json.loads((out / "points.json").read_text())]))
    return outputs


def test_csv_bytes_independent_of_blas_threads(sweeps_at_one_and_two_blas_threads):
    (one, _), (two, _) = sweeps_at_one_and_two_blas_threads
    assert one == two


def test_pursuit_values_independent_of_blas_threads(sweeps_at_one_and_two_blas_threads):
    # every pursuit method returns the same mean_db to the last bit; the ls
    # values come from the pilot's SVD pseudo-inverse and may differ in their
    # last bits, which the CSV's 6 decimals hide
    (_, one), (_, two) = sweeps_at_one_and_two_blas_threads
    pursuits = [(a, b) for a, b in zip(one, two) if a[1] != "ls"]
    assert len(pursuits) == len(one) - 17  # 10 distances and 7 SNRs have an ls row each
    assert all(a == b for a, b in pursuits)
