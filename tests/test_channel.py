import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdcs import (
    SPEED_OF_LIGHT,
    ArrayConfig,
    ChannelRealization,
    ClusterSpec,
    PathParam,
    SubcarrierGrid,
    rayleigh_distance,
    steering,
    steering_far,
    steering_near,
    synthesize_channel,
    synthesize_matrix_channel,
)
from helpers import FINITENESS_CASES


class TestSteeringFar:
    def test_single_antenna(self):
        arr = ArrayConfig(1, 30e9)
        assert np.allclose(steering_far(arr, 0.7), [1.0])

    def test_broadside_zero_phase(self):
        arr = ArrayConfig(8, 30e9)
        v = steering_far(arr, 0.0)
        assert np.allclose(v, np.full(8, 1 / np.sqrt(8)))

    def test_elementwise_oracle(self):
        # independent elementwise evaluation with cmath
        arr = ArrayConfig(4, 30e9)
        v = steering_far(arr, 0.5)
        lam = arr.wavelength
        expected = [
            cmath.exp(-1j * (2 * cmath.pi / lam) * arr.element_spacing * d * 0.5) / 2.0
            for d in (-1.5, -0.5, 0.5, 1.5)
        ]
        assert np.allclose(v, expected, atol=1e-14)
        # half-wavelength spacing collapses the phase to -pi*0.5*delta
        assert np.allclose(v, np.exp(-1j * np.pi * 0.5 * arr.offsets) / 2.0)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            steering_far(ArrayConfig(4, 30e9), 1.2)

    @pytest.mark.parametrize("angle", [np.nan, [0.0, np.nan]])
    def test_nan_angle_rejected(self, angle):
        with pytest.raises(ValueError, match="spatial_angle"):
            steering_far(ArrayConfig(4, 30e9), angle)


class TestSteeringNear:
    def test_unit_modulus_entries(self):
        arr = ArrayConfig(16, 30e9)
        v = steering_near(arr, 3.0, 0.4)
        assert np.allclose(np.abs(v), 1 / np.sqrt(16), atol=1e-14)

    def test_center_element_zero_phase(self):
        arr = ArrayConfig(9, 30e9)
        v = steering_near(arr, 2.0, -0.3)
        center = v[4] * np.sqrt(9)
        assert abs(np.angle(center)) < 1e-12

    def test_far_field_limit(self):
        arr = ArrayConfig(32, 30e9)
        for angle in (-0.8, 0.0, 0.35):
            near = steering_near(arr, 1e6 * arr.aperture, angle)
            far = steering_far(arr, angle)
            assert np.abs(near - far).max() < 1e-4

    def test_convergence_monotone_in_distance(self):
        arr = ArrayConfig(32, 30e9)
        far = steering_far(arr, 0.3)
        grid = np.logspace(np.log10(10 * arr.aperture), np.log10(1e7 * arr.aperture), 24)
        devs = [np.abs(steering_near(arr, r, 0.3) - far).max() for r in grid]
        assert all(b <= a + 1e-15 for a, b in zip(devs, devs[1:]))

    def test_domain_errors(self):
        arr = ArrayConfig(4, 30e9)
        with pytest.raises(ValueError):
            steering_near(arr, 0.0, 0.2)
        with pytest.raises(ValueError):
            steering_near(arr, 5.0, -1.5)

    @pytest.mark.parametrize("angle", [np.nan, [0.0, np.nan]])
    def test_nan_angle_rejected(self, angle):
        with pytest.raises(ValueError, match="spatial_angle"):
            steering_near(ArrayConfig(4, 30e9), [5.0, 6.0] if np.ndim(angle) else 5.0, angle)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=64),
        angle=st.floats(min_value=-1.0, max_value=1.0),
        dist=st.floats(min_value=0.05, max_value=1e4),
    )
    def test_unit_norm_property(self, n, angle, dist):
        arr = ArrayConfig(n, 28e9)
        for v in (steering_far(arr, angle), steering_near(arr, dist, angle)):
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12


class TestRayleighDistance:
    def test_single_antenna_zero(self):
        assert rayleigh_distance(ArrayConfig(1, 30e9)) == 0.0

    def test_reference_array(self):
        # 256 antennas at 30 GHz, half-wavelength spacing: 2*(255*lam/2)^2/lam
        rd = rayleigh_distance(ArrayConfig(256, 30e9))
        assert abs(rd - 325.125) < 1e-9

    def test_quadratic_in_antennas(self):
        small = rayleigh_distance(ArrayConfig(1000, 30e9))
        large = rayleigh_distance(ArrayConfig(2000, 30e9))
        assert abs(large / small - 4.0) < 0.01


class TestSynthesizeChannel:
    def test_single_path_by_inspection(self):
        arr = ArrayConfig(16, 30e9)
        grid = SubcarrierGrid(1, 30e9, 120e3)
        cluster = ClusterSpec(0.25, 20.0, 0.0, 0.0, 1, 0.0)
        real = synthesize_channel(arr, [cluster], grid, seed=5)
        path = real.paths[0]
        assert path.spatial_angle == 0.25 and path.distance == 20.0
        expected = np.sqrt(16) * path.complex_gain * steering_near(arr, 20.0, 0.25)
        assert np.allclose(real.per_subcarrier_channels[0], expected, atol=1e-12)

    def test_determinism(self):
        arr = ArrayConfig(8, 28e9)
        grid = SubcarrierGrid(3, 28e9, 240e3)
        cluster = ClusterSpec(0.1, 15.0, 0.05, 1.0, 4, 0.5)
        a = synthesize_channel(arr, [cluster], grid, seed=77)
        b = synthesize_channel(arr, [cluster], grid, seed=77)
        assert np.array_equal(a.per_subcarrier_channels, b.per_subcarrier_channels)
        assert a.paths == b.paths

    def test_zero_decay_equalizes_powers(self):
        # Monte Carlo mean of per-subpath power is flat when the decay rate is 0
        arr = ArrayConfig(4, 30e9)
        grid = SubcarrierGrid(1, 30e9)
        cluster = ClusterSpec(0.0, 10.0, 0.1, 1.0, 6, 0.0)
        powers = np.zeros(6)
        n_seeds = 400
        for seed in range(n_seeds):
            real = synthesize_channel(arr, [cluster], grid, seed=seed)
            powers += np.array([abs(p.complex_gain) ** 2 for p in real.paths])
        powers /= n_seeds
        assert powers.max() / powers.min() < 1.4

    def test_decay_rate_shapes_powers(self):
        arr = ArrayConfig(4, 30e9)
        grid = SubcarrierGrid(1, 30e9)
        cluster = ClusterSpec(0.0, 10.0, 0.0, 0.0, 5, 1.0)
        powers = np.zeros(5)
        for seed in range(600):
            real = synthesize_channel(arr, [cluster], grid, seed=seed)
            powers += np.array([abs(p.complex_gain) ** 2 for p in real.paths])
        powers /= 600
        ratios = powers[1:] / powers[:-1]
        assert np.allclose(ratios, np.exp(-1.0), atol=0.12)

    def test_energy_flat_across_subcarriers(self):
        arr = ArrayConfig(16, 30e9)
        grid = SubcarrierGrid(4, 30e9, 480e3)
        cluster = ClusterSpec(0.2, 30.0, 0.05, 2.0, 4, 0.3)
        energy = np.zeros(4)
        for seed in range(300):
            real = synthesize_channel(arr, [cluster], grid, seed=seed)
            energy += np.linalg.norm(real.per_subcarrier_channels, axis=1) ** 2
        energy /= 300
        assert energy.max() / energy.min() < 1.02  # steering shared, rotations unit-modulus

    def test_empty_clusters_rejected(self):
        with pytest.raises(ValueError):
            synthesize_channel(ArrayConfig(4, 30e9), [], SubcarrierGrid(1, 30e9), 0)

    def test_batched_steering_equals_per_path_synthesis(self):
        # reference: one scalar steering call per path, accumulated in path order
        arr = ArrayConfig(32, 30e9)
        grid = SubcarrierGrid(3, 30e9, 240e3)
        clusters = [ClusterSpec(0.3, 12.0, 0.05, 1.0, 4, 0.5), ClusterSpec(-0.6, 40.0, 0.1, 4.0, 3, 0.2)]
        for seed in range(4):
            real = synthesize_channel(arr, clusters, grid, seed)
            offsets_hz = grid.frequencies - grid.center_freq
            scale = np.sqrt(arr.num_antennas / len(real.paths))
            h = np.zeros((3, 32), dtype=complex)
            for path in real.paths:
                vec = steering_near(arr, path.distance, path.spatial_angle)
                rot = np.exp(-2j * np.pi * offsets_hz * path.distance / SPEED_OF_LIGHT)
                h += scale * path.complex_gain * rot[:, None] * vec[None, :]
            assert np.array_equal(real.per_subcarrier_channels, h)

    def test_subpaths_clipped_to_domain(self):
        cluster = ClusterSpec(0.95, 0.5, 0.2, 2.0, 16, 0.0)
        real = synthesize_channel(ArrayConfig(4, 30e9), [cluster], SubcarrierGrid(1, 30e9), 3)
        for p in real.paths:
            assert abs(p.spatial_angle) <= 1.0 and p.distance > 0


class TestMatrixChannel:
    def test_single_path_norm(self):
        tx = ArrayConfig(32, 30e9)
        rx = ArrayConfig(4, 30e9)
        h = synthesize_matrix_channel(tx, rx, [PathParam(0.2, 25.0, 1.0)], [0.1])
        assert abs(np.linalg.norm(h) - np.sqrt(32 * 4)) < 1e-9

    def test_far_field_paths_allowed(self):
        tx = ArrayConfig(8, 30e9)
        rx = ArrayConfig(2, 30e9)
        h = synthesize_matrix_channel(tx, rx, [PathParam(0.0, np.inf, 1.0)], [0.0])
        assert np.isfinite(h).all()

    def test_batched_steering_equals_per_path_synthesis(self):
        # reference: scalar steering calls per path, accumulated in path order;
        # paths at inf take the far-field form
        tx, rx = ArrayConfig(32, 30e9), ArrayConfig(4, 30e9)
        rng = np.random.default_rng(3)
        distances = [8.0, np.inf, 30.0, np.inf, 2.5]
        paths = [PathParam(float(rng.uniform(-1, 1)), r, complex(rng.standard_normal(), rng.standard_normal()))
                 for r in distances]
        rx_angles = list(rng.uniform(-1, 1, len(paths)))
        h = np.zeros((4, 32), dtype=complex)
        for path, rx_angle in zip(paths, rx_angles):
            if np.isinf(path.distance):
                b_tx = steering_far(tx, path.spatial_angle)
            else:
                b_tx = steering_near(tx, path.distance, path.spatial_angle)
            h += path.complex_gain * np.outer(steering_far(rx, rx_angle), b_tx.conj())
        expected = np.sqrt(32 * 4 / len(paths)) * h
        assert np.array_equal(synthesize_matrix_channel(tx, rx, paths, rx_angles), expected)
        columns = steering(tx, [p.distance for p in paths], [p.spatial_angle for p in paths])
        for g, path in enumerate(paths):
            assert np.array_equal(columns[:, g], steering(tx, path.distance, path.spatial_angle))

    def test_length_mismatch(self):
        tx = ArrayConfig(8, 30e9)
        rx = ArrayConfig(2, 30e9)
        with pytest.raises(ValueError):
            synthesize_matrix_channel(tx, rx, [PathParam(0.0, 5.0, 1.0)], [0.0, 0.1])


class TestChannelRealization:
    @pytest.mark.parametrize("matrix, finite", FINITENESS_CASES)
    def test_finiteness_is_read_in_the_entries_dtype(self, matrix, finite):
        if finite:
            assert ChannelRealization(matrix, ()).per_subcarrier_channels is matrix
        else:
            with pytest.raises(ValueError, match="^channel entries must be finite"):
                ChannelRealization(matrix, ())


class TestValidation:
    def test_path_param_bounds(self):
        with pytest.raises(ValueError):
            PathParam(1.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            PathParam(0.0, -1.0, 1.0)

    def test_nan_angles_rejected(self):
        with pytest.raises(ValueError, match="spatial_angle"):
            PathParam(np.nan, 1.0, 1.0)
        with pytest.raises(ValueError, match="center_angle"):
            ClusterSpec(np.nan, 10.0)

    def test_cluster_bounds(self):
        with pytest.raises(ValueError):
            ClusterSpec(0.0, 10.0, subpath_count=0)
        with pytest.raises(ValueError):
            ClusterSpec(0.0, -5.0)

    def test_grid_requires_positive_frequencies(self):
        with pytest.raises(ValueError):
            SubcarrierGrid(8, 100.0, 1e9)

    @pytest.mark.parametrize(
        "build, name",
        [
            (lambda: ArrayConfig(4, np.nan), "carrier_freq"),
            (lambda: ArrayConfig(4, np.inf, 0.005), "carrier_freq"),
            (lambda: ArrayConfig(4, 30e9, np.nan), "element_spacing"),
            (lambda: ClusterSpec(0.0, np.nan), "center_distance"),
            (lambda: ClusterSpec(0.0, 10.0, angle_spread=np.nan), "angle_spread"),
            (lambda: ClusterSpec(0.0, 10.0, distance_spread=np.nan), "distance_spread"),
            (lambda: ClusterSpec(0.0, 10.0, power_decay_rate=np.nan), "power_decay_rate"),
            (lambda: ClusterSpec(0.0, np.inf), "center_distance"),
            (lambda: SubcarrierGrid(4, np.nan, 240e3), "frequencies"),
            (lambda: SubcarrierGrid(4, np.inf, 240e3), "frequencies"),
            (lambda: SubcarrierGrid(4, 30e9, np.nan), "frequencies"),
            (lambda: SubcarrierGrid(1, 30e9, np.inf), "frequencies"),
        ],
    )
    def test_nan_refused_naming_the_value(self, build, name):
        # a message starts with the value at fault, which the config boundary reads
        with pytest.raises(ValueError, match=f"^{name} "):
            build()

    def test_array_defaults_to_half_wavelength(self):
        arr = ArrayConfig(4, 30e9)
        assert abs(arr.element_spacing - arr.wavelength / 2) < 1e-15
