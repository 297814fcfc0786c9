import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from bdcs import (
    ArrayConfig,
    ConfigurationError,
    DictionaryMetrics,
    Observation,
    RecoveryConfig,
    SparsityProfile,
    bsomp,
    build_angular_dictionary,
    build_polar_dictionary,
    complete_bdcs,
    make_pilot_matrix,
    measurement_matrix,
    partition_boundary,
    rayleigh_distance,
    sparsity_profile,
    sparsity_upper_limit,
    steering_near,
)
from helpers import count_kernel_runs


class TestSparsityProfile:
    def test_far_field_concentration(self):
        # the leakage of an off-grid source floors the 95% count near 4-5 atoms;
        # an on-grid source needs exactly one (verified below)
        arr = ArrayConfig(64, 30e9)
        d = build_angular_dictionary(arr, 1, 1)
        far = 100.0 * rayleigh_distance(arr)
        profile = sparsity_profile(arr, d, [far], eta=0.95, trials=60, seed=4)
        assert profile.tap_counts[0] <= 5

        on_grid_angle = d.angles[20]
        h = np.sqrt(64) * steering_near(arr, far, on_grid_angle)
        energy = np.abs(d.atoms.conj().T @ h) ** 2
        order = np.sort(energy)[::-1]
        taps = np.searchsorted(np.cumsum(order), 0.95 * order.sum()) + 1
        assert taps == 1

    def test_counts_shrink_with_distance(self):
        arr = ArrayConfig(64, 30e9)
        d = build_angular_dictionary(arr, 1, 1)
        rd = rayleigh_distance(arr)
        grid = [f * rd for f in (0.05, 0.1, 0.2, 0.35, 0.5, 0.7, 1.0)]
        profile = sparsity_profile(arr, d, grid, eta=0.95, trials=80, seed=9)
        rho, _ = stats.spearmanr(profile.distances, profile.mean_taps)
        assert rho < 0

    def test_tiny_eta_needs_one_block(self):
        arr = ArrayConfig(32, 30e9)
        d = build_angular_dictionary(arr, 1, 4)
        rd = rayleigh_distance(arr)
        profile = sparsity_profile(arr, d, [0.1 * rd, rd], eta=1e-9, trials=20, seed=1)
        assert profile.tap_counts == (1, 1)

    def test_deterministic_and_converged(self):
        arr = ArrayConfig(32, 30e9)
        d = build_angular_dictionary(arr, 1, 1)
        rd = rayleigh_distance(arr)
        grid = [0.1 * rd, 0.5 * rd, rd]
        a = sparsity_profile(arr, d, grid, trials=150, seed=3)
        b = sparsity_profile(arr, d, grid, trials=150, seed=3)
        assert a.mean_taps == b.mean_taps
        doubled = sparsity_profile(arr, d, grid, trials=300, seed=3)
        for m1, m2 in zip(a.mean_taps, doubled.mean_taps):
            assert abs(m1 - m2) / m1 < 0.1

    def test_empty_grid_rejected(self):
        arr = ArrayConfig(8, 30e9)
        d = build_angular_dictionary(arr, 1, 1)
        with pytest.raises(ValueError):
            sparsity_profile(arr, d, [], trials=5, seed=0)
        with pytest.raises(ValueError):
            sparsity_profile(arr, d, [1.0], eta=1.5, trials=5, seed=0)

    @pytest.mark.parametrize("distances,taps", [((1.0, 2.0, 3.0), (2.0,)), ((1.0,), (2.0, 2.0, 2.0))])
    def test_one_mean_per_distance(self, distances, taps):
        # 3 distances and 1 mean gave a boundary of inf; 1 and 3 an IndexError
        with pytest.raises(ValueError, match="one mean per distance"):
            SparsityProfile(distances, taps, 0.95)

    @pytest.mark.parametrize("eta", [0.0, 1.0, -0.5, 1.5, float("nan")])
    def test_eta_outside_the_unit_interval_refused(self, eta):
        with pytest.raises(ValueError, match=r"eta must lie in \(0, 1\)"):
            SparsityProfile((1.0, 2.0), (2.0, 1.0), eta)


class TestSparsityUpperLimit:
    def test_duplicate_columns_no_guarantee(self):
        assert sparsity_upper_limit(DictionaryMetrics(1.0, 1.0, 0.0), 1) == 0

    def test_classical_third(self):
        metrics = DictionaryMetrics(1 / 3, 1 / 3, 0.0)
        assert sparsity_upper_limit(metrics, 1) == 1

    def test_orthogonal_returns_cap(self):
        assert sparsity_upper_limit(DictionaryMetrics(0.0, 0.0, 0.0), 1, cap=99) == 99

    def test_atom_capacity_grows_with_block_length(self):
        # the unfloored recoverable-atom bound (1/mu_B + L - (L-1) nu/mu_B)/2
        # is non-decreasing in L when nu = 0; spot-check through the API by
        # comparing k_max * L across a grid
        for mu_b in (0.05, 0.1, 0.2):
            bounds = []
            for lb in (1, 2, 4, 8):
                metrics = DictionaryMetrics(mu_b, mu_b, 0.0)
                k = sparsity_upper_limit(metrics, lb)
                bounds.append(0.5 * (1.0 / mu_b + lb))
                assert k * lb < bounds[-1]
            assert all(b2 >= b1 for b1, b2 in zip(bounds, bounds[1:]))

    def test_formula_against_direct_evaluation(self):
        metrics = DictionaryMetrics(0.2, 0.1, 0.05)
        lb = 4
        bound = 0.5 * (1 / 0.1 + lb - (lb - 1) * 0.05 / 0.1)
        expected = int(np.floor(bound / lb)) if (bound / lb) % 1 else int(bound / lb) - 1
        assert sparsity_upper_limit(metrics, lb) == expected
        # near-integer t = bound / L: k is the largest integer below t, where t
        # within 1e-9 relative of an integer n counts as n (so k = n - 1)
        cases = [(1.0, 0), (1.0 + 2e-9, 1), (1.0 - 2e-9, 0)]
        for n in (3, 7, 40, 299):
            cases += [(n, n - 1), (n + 1e-12, n - 1), (n - 1e-12, n - 1),
                      (n + 2e-9, n - 1), (n - 2e-9, n - 1),  # within n * 1e-9 of n
                      (n * (1 + 3e-9), n), (n * (1 - 3e-9), n - 1)]
        for lb in (1, 4):
            for t, k in cases:
                # nu = 0 makes the bound 0.5 (1/mu_B + L), so t = 0.5 (1/(L mu_B) + 1)
                mu_b = 1.0 / (lb * (2.0 * t - 1.0))
                metrics = DictionaryMetrics(min(mu_b, 1.0), mu_b, 0.0)
                assert sparsity_upper_limit(metrics, lb) == k, (lb, t)


class TestPartitionBoundary:
    def make_profile(self, taps):
        distances = tuple(float(i + 1) for i in range(len(taps)))
        return SparsityProfile(distances, tuple(float(t) for t in taps), 0.95)

    def test_all_below_gives_zero(self):
        assert partition_boundary(self.make_profile([2, 2, 1]), upper_limit=3) == 0.0

    def test_all_above_gives_inf(self):
        assert np.isinf(partition_boundary(self.make_profile([9, 8, 7]), upper_limit=3))

    def test_single_crossing(self):
        assert partition_boundary(self.make_profile([9, 7, 4, 2, 1]), upper_limit=3) == 4.0

    def test_csv_exports(self, tmp_path):
        profile = self.make_profile([5, 3, 1])
        ppath = tmp_path / "profile.csv"
        profile.write_csv(ppath)
        lines = ppath.read_text().splitlines()
        assert lines[0] == "distance_m,tap_count,mean_tap_count,eta"
        assert len(lines) == 4

    @settings(max_examples=30, deadline=None)
    @given(
        taps=st.lists(st.integers(min_value=1, max_value=12), min_size=2, max_size=10),
        k1=st.integers(min_value=0, max_value=12),
        k2=st.integers(min_value=0, max_value=12),
    )
    def test_monotone_in_upper_limit(self, taps, k1, k2):
        lo, hi = min(k1, k2), max(k1, k2)
        profile = self.make_profile(taps)
        r_lo = partition_boundary(profile, lo)
        r_hi = partition_boundary(profile, hi)
        assert r_hi <= r_lo


class TestCompleteBdcs:
    def setup_method(self):
        rng = np.random.default_rng(70)
        self.arr = ArrayConfig(32, 30e9)
        self.angular = build_angular_dictionary(self.arr, 1, 2)
        self.polar = build_polar_dictionary(self.arr, r_min=0.3, block_length=2)
        self.pilot = make_pilot_matrix(16, 32, seed=5)
        self.mm_ang = measurement_matrix(self.pilot, self.angular)
        self.mm_pol = measurement_matrix(self.pilot, self.polar)
        self.cfg = RecoveryConfig(3, 0.0)

    def polar_grid_observation(self):
        # noiseless channel built from exact polar atoms (near-field rings)
        near_columns = np.flatnonzero(np.isfinite(self.polar.distances))
        h = 4.0 * self.polar.atoms[:, near_columns[7]]
        y = (self.pilot.entries @ h)[None, :]
        return Observation(y, 0.0, np.inf), h

    def test_by_distance_routes_outer_to_angular(self):
        obs, _ = self.polar_grid_observation()
        routed = complete_bdcs(
            obs, self.mm_ang, self.mm_pol, self.cfg,
            routing="by_distance", boundary=10.0, distance=50.0,
        )
        direct = bsomp(self.mm_ang, obs, self.cfg)
        assert routed.domain == "angular"
        assert routed.support_blocks == direct.support_blocks
        assert np.array_equal(routed.coefficients, direct.coefficients)

    def test_by_distance_inf_boundary_always_polar(self):
        obs, _ = self.polar_grid_observation()
        routed = complete_bdcs(
            obs, self.mm_ang, self.mm_pol, self.cfg,
            routing="by_distance", boundary=np.inf, distance=1e9,
        )
        assert routed.domain == "polar"

    def test_by_residual_prefers_polar_on_polar_grid_channel(self):
        obs, h = self.polar_grid_observation()
        result = complete_bdcs(obs, self.mm_ang, self.mm_pol, self.cfg, routing="by_residual")
        polar_direct = bsomp(self.mm_pol, obs, self.cfg)
        assert result.domain == "polar"
        assert result.support_blocks == polar_direct.support_blocks
        assert result.final_residual < 1e-8
        assert np.linalg.norm(result.reconstructed_channels[0] - h) < 1e-6

    def test_routing_reuses_the_standalone_pursuits(self, monkeypatch):
        obs, _ = self.polar_grid_observation()
        angular = bsomp(self.mm_ang, obs, self.cfg)
        polar = bsomp(self.mm_pol, obs, self.cfg)
        runs = count_kernel_runs(monkeypatch)
        cfg = RecoveryConfig(3, 0.0)  # equal to self.cfg, another object
        assert complete_bdcs(obs, self.mm_ang, self.mm_pol, cfg, routing="by_residual") is polar
        assert complete_bdcs(
            obs, self.mm_ang, self.mm_pol, cfg, routing="by_distance", boundary=10.0, distance=50.0,
        ) is angular
        assert runs == []

    @pytest.mark.parametrize("boundary", [-1.0, np.nan])
    def test_by_distance_rejects_negative_or_nan_boundary(self, boundary):
        obs, _ = self.polar_grid_observation()
        with pytest.raises(ValueError, match="boundary"):
            complete_bdcs(
                obs, self.mm_ang, self.mm_pol, self.cfg,
                routing="by_distance", boundary=boundary, distance=5.0,
            )

    @pytest.mark.parametrize("distance", [np.nan, -5.0, 0.0])
    def test_by_distance_rejects_non_positive_or_nan_distance(self, distance):
        # nan went to the angular domain and -5.0 to the polar one
        obs, _ = self.polar_grid_observation()
        with pytest.raises(ValueError, match="distance"):
            complete_bdcs(
                obs, self.mm_ang, self.mm_pol, self.cfg,
                routing="by_distance", boundary=10.0, distance=distance,
            )

    def test_by_distance_requires_inputs(self):
        obs, _ = self.polar_grid_observation()
        with pytest.raises(ConfigurationError):
            complete_bdcs(obs, self.mm_ang, self.mm_pol, self.cfg, routing="by_distance")

    @pytest.mark.parametrize("boundary, distance", [(5.0, None), (None, 1.0), (5.0, 1.0)])
    def test_by_residual_refuses_routing_inputs(self, boundary, distance):
        # these were dropped without a word
        obs, _ = self.polar_grid_observation()
        with pytest.raises(ConfigurationError, match="by_residual"):
            complete_bdcs(
                obs, self.mm_ang, self.mm_pol, self.cfg,
                routing="by_residual", boundary=boundary, distance=distance,
            )

    def test_unknown_routing_rejected(self):
        obs, _ = self.polar_grid_observation()
        with pytest.raises(ConfigurationError):
            complete_bdcs(obs, self.mm_ang, self.mm_pol, self.cfg, routing="psychic")
