"""Each benchmark check passes on a correct output and fails on a corrupted one.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import dataclasses
import types

import numpy as np
import pytest

import bdcs
import checks
import tracing
from bdcs import (
    ArrayConfig,
    ClusterSpec,
    ExperimentConfig,
    MatrixChannel,
    PathParam,
    RecoveryConfig,
    SubcarrierGrid,
    block_sparse_precoding,
    bsomp,
    build_angular_dictionary,
    build_polar_dictionary,
    complete_bdcs,
    ls_estimate,
    make_pilot_matrix,
    measurement_matrix,
    observe,
    optimal_precoder,
    spectral_efficiency,
    synthesize_channel,
    synthesize_matrix_channel,
)

ARRAY = ArrayConfig(32, 30e9)


@pytest.fixture(scope="module")
def scene():
    grid = SubcarrierGrid(4, 30e9, 240e3)
    cluster = ClusterSpec(0.3, 3.0, 0.05, 0.3, 6, 0.5)
    channel = synthesize_channel(ARRAY, [cluster], grid, seed=1)
    pilot = make_pilot_matrix(16, 32, seed=2)
    obs = observe(pilot, channel, 10.0, seed=3)
    mm_a = measurement_matrix(pilot, build_angular_dictionary(ARRAY, 1, 4))
    mm_p = measurement_matrix(pilot, build_polar_dictionary(ARRAY, r_min=0.25, block_length=4))
    return types.SimpleNamespace(pilot=pilot, obs=obs, mm_a=mm_a, mm_p=mm_p, cfg=RecoveryConfig(2))


def _ls_table(shift_db=0.0):
    return {x: {"ls": checks.ls_closed_form_db(256, 128, 10.0) + 0.1 + shift_db, "bsomp_polar": -15.0}
            for x in (16.0, 40.0)}


def test_ls_closed_form_reference_value():
    assert checks.ls_closed_form_db(256, 128, 10.0) == pytest.approx(-2.2185, abs=1e-4)


def test_ls_rows():
    assert checks.check_ls_rows(_ls_table(), 256, 128, lambda x: 10.0) == []
    assert checks.check_ls_rows(_ls_table(1.0), 256, 128, lambda x: 10.0)


def test_cs_margin():
    table = _ls_table()
    assert checks.check_cs_margin(table) == []
    table[40.0]["bsomp_polar"] = table[40.0]["ls"] - 4.0
    assert checks.check_cs_margin(table)


def test_se_rows():
    table = {s: {"optimal": 10.0 + s, "hybrid_angular": 8.0 + s, "hybrid_polar": 9.0 + s} for s in (0.0, 10.0)}
    assert checks.check_se_rows(table) == []
    above = {s: dict(row) for s, row in table.items()}
    above[10.0]["hybrid_polar"] = above[10.0]["optimal"] + 0.1
    assert checks.check_se_rows(above)
    flat = {s: dict(row) for s, row in table.items()}
    flat[10.0]["optimal"] = flat[0.0]["optimal"]
    assert checks.check_se_rows(flat)


def test_pursuit(scene):
    result = bsomp(scene.mm_p, scene.obs, scene.cfg)
    assert checks.check_pursuit(scene.mm_p, scene.obs, scene.cfg, result) == []
    rising = dataclasses.replace(result, residual_history=result.residual_history[:-1] + (0.99,))
    assert checks.check_pursuit(scene.mm_p, scene.obs, scene.cfg, rising)
    moved = result.coefficients.copy()
    cols = checks.support_columns(scene.mm_p.dictionary.partition, result.support_blocks)
    moved[:, cols[0]] *= 1.01
    assert checks.check_pursuit(scene.mm_p, scene.obs, scene.cfg, dataclasses.replace(result, coefficients=moved))
    stray = result.coefficients.copy()
    stray[:, np.setdiff1d(np.arange(stray.shape[1]), cols)[0]] = 1.0
    assert checks.check_pursuit(scene.mm_p, scene.obs, scene.cfg, dataclasses.replace(result, coefficients=stray))
    over = dataclasses.replace(result, support_blocks=result.support_blocks + (0, 1))
    assert checks.check_pursuit(scene.mm_p, scene.obs, scene.cfg, over)


def test_ls_fit(scene):
    estimate = ls_estimate(scene.pilot, scene.obs)
    assert checks.check_ls_fit(scene.pilot, scene.obs, estimate) == []
    assert checks.check_ls_fit(scene.pilot, scene.obs, estimate * 1.01)


def test_routing(scene):
    angular = bsomp(scene.mm_a, scene.obs, scene.cfg)
    polar = bsomp(scene.mm_p, scene.obs, scene.cfg)
    chosen = complete_bdcs(scene.obs, scene.mm_a, scene.mm_p, scene.cfg)
    assert checks.check_routing(chosen, angular, polar) == []
    other = polar if chosen.domain == "angular" else angular
    assert checks.check_routing(other, angular, polar)


def test_svd_se_and_hybrid():
    rx = ArrayConfig(4, 30e9)
    paths = [PathParam(0.1 * i, 5.0 + i, complex(1.0, 0.5 * i)) for i in range(3)]
    channel = MatrixChannel(synthesize_matrix_channel(ARRAY, rx, paths, [0.2, -0.3, 0.5]))
    f_opt = optimal_precoder(channel, 2)
    se = spectral_efficiency(channel, f_opt, 10.0).spectral_efficiency
    assert checks.check_svd_se(channel.matrix, 2, 10.0, se) == []
    assert checks.check_svd_se(channel.matrix, 2, 10.0, se + 1e-3)

    pair = block_sparse_precoding(f_opt, build_angular_dictionary(ARRAY, 1, 4), 4)
    assert checks.check_hybrid(pair.f_rf, pair.f_bb, 2, 4) == []
    assert checks.check_hybrid(pair.f_rf * 1.01, pair.f_bb / 1.01, 2, 4)
    assert checks.check_hybrid(pair.f_rf, pair.f_bb * 1.01, 2, 4)
    assert checks.check_hybrid(pair.f_rf, pair.f_bb, 2, 2)


def _tiny_config(**extra):
    raw = {"array": {"num_antennas": 32}, "trials": 1, "rayleigh_fracs": [0.1, 1.0],
           "dictionary": {"r_min_m": 0.25}, "snr_db": [0.0, 10.0], **extra}
    return ExperimentConfig.from_dict(raw)


@pytest.mark.parametrize("sweep", ["run_nmse_vs_distance", "run_se_vs_snr"])
def test_tracer_spans_cover_the_sweep(sweep):
    tracer = tracing.Tracer(bdcs)
    assert tracer.missing == []
    with tracer.installed():
        with tracer.span(tracing.ROOT):
            getattr(bdcs, sweep)(_tiny_config())
    root = tracer.spans[0]
    problems, values, self_sum = tracer.finish_round()
    assert problems == []
    assert self_sum == pytest.approx(root[2] - root[1], rel=1e-9)
    assert bdcs.bsomp is bsomp  # bindings restored
    if sweep == "run_nmse_vs_distance":
        # 2 distances x 4 users; both nested pursuits of complete_bdcs repeat earlier calls
        assert values["recovery.somp_polar.calls"] == 8
        assert values["recovery.bsomp_angular.calls"] == 16
        assert values["recovery.repeat_calls"] == 16
    else:
        assert values["precoding.hybrid.calls"] == 4
        assert 1 <= values["precoding.hybrid.blocks"] <= 4  # 4 RF chains, blocks of 1 to 4 atoms


def test_tracer_reports_a_missing_target():
    names = [n for n in bdcs.__all__ if n != "observe"]
    fake = types.SimpleNamespace(__all__=names, **{n: getattr(bdcs, n) for n in names})
    assert tracing.Tracer(fake).missing == ["observe"]


def test_tracer_flags_a_corrupted_route(monkeypatch):
    def wrong_route(obs, angular_measurement, polar_measurement, cfg, routing="by_residual",
                    boundary=None, distance=None, si=None):
        angular = bdcs.bsomp(angular_measurement, obs, cfg, si)
        polar = bdcs.bsomp(polar_measurement, obs, cfg, si)
        return angular if polar.final_residual < angular.final_residual else polar

    monkeypatch.setitem(bdcs.run_nmse_vs_distance.__globals__, "complete_bdcs", wrong_route)
    monkeypatch.setattr(bdcs, "complete_bdcs", wrong_route)
    tracer = tracing.Tracer(bdcs)
    with tracer.installed():
        bdcs.run_nmse_vs_distance(_tiny_config(methods=["complete_bdcs"]))
    problems, _, _ = tracer.finish_round()
    assert any(p.startswith("complete_bdcs returned") for p in problems)
