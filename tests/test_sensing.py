import numpy as np
import pytest

from bdcs import (
    ArrayConfig,
    ClusterSpec,
    MeasurementMatrix,
    Observation,
    PilotMatrix,
    SubcarrierGrid,
    build_angular_dictionary,
    ls_estimate,
    make_pilot_matrix,
    measurement_matrix,
    observe,
    synthesize_channel,
)


def make_channel(n=16, k=2, seed=0, distance=20.0):
    arr = ArrayConfig(n, 30e9)
    grid = SubcarrierGrid(k, 30e9, 240e3)
    cluster = ClusterSpec(0.2, distance, 0.05, 1.0, 3, 0.2)
    return arr, synthesize_channel(arr, [cluster], grid, seed)


class TestPilotMatrix:
    def test_unit_modulus_entries(self):
        p = make_pilot_matrix(8, 16, seed=1)
        assert np.allclose(np.abs(p.entries), 1 / np.sqrt(8), atol=1e-14)

    def test_deterministic(self):
        a = make_pilot_matrix(8, 16, seed=3)
        b = make_pilot_matrix(8, 16, seed=3)
        assert np.array_equal(a.entries, b.entries)

    def test_column_norms(self):
        # |entry| = 1/sqrt(Q) makes every column norm exactly 1
        norms = []
        for seed in range(100):
            p = make_pilot_matrix(64, 64, seed)
            norms.append(np.mean(np.linalg.norm(p.entries, axis=0) ** 2))
        assert abs(np.mean(norms) - 1.0) < 0.05

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            make_pilot_matrix(0, 8, seed=0)

    def test_entries_are_read_only(self):
        p = make_pilot_matrix(4, 8, seed=0)
        with pytest.raises(ValueError):
            p.entries[0, 0] = 0.0
        with pytest.raises(ValueError):
            p.pseudo_inverse[0, 0] = 0.0

    def test_entries_are_copied(self):
        source = np.exp(1j * np.arange(32.0)).reshape(4, 8)
        entries, pinv = source.copy(), np.linalg.pinv(source)
        p = PilotMatrix(source)
        source[:] = 0.0  # before the pseudo-inverse is first computed
        assert np.array_equal(p.entries, entries)
        assert np.array_equal(p.pseudo_inverse, pinv)

    def test_pseudo_inverse_computed_once(self):
        p = make_pilot_matrix(4, 8, seed=0)
        assert p.pseudo_inverse is p.pseudo_inverse
        assert np.array_equal(p.pseudo_inverse, np.linalg.pinv(p.entries))


class TestObserve:
    def test_infinite_snr_exact(self):
        arr, channel = make_channel()
        pilot = make_pilot_matrix(8, arr.num_antennas, seed=2)
        obs = observe(pilot, channel, np.inf, seed=9)
        expected = channel.per_subcarrier_channels @ pilot.entries.T
        assert np.array_equal(obs.per_subcarrier, expected)
        assert obs.noise_variance == 0.0

    def test_snr_zero_balances_powers(self):
        arr, channel = make_channel(n=16, k=4)
        pilot = make_pilot_matrix(16, arr.num_antennas, seed=4)
        clean = channel.per_subcarrier_channels @ pilot.entries.T
        sig_power = np.mean(np.abs(clean) ** 2)
        noise_samples = []
        for seed in range(1000):
            obs = observe(pilot, channel, 0.0, seed=seed)
            noise_samples.append(np.mean(np.abs(obs.per_subcarrier - clean) ** 2))
        assert abs(np.mean(noise_samples) - sig_power) / sig_power < 0.1

    def test_noise_moments(self):
        # real and imaginary parts each carry variance sigma^2 / 2
        arr, channel = make_channel(n=8, k=8)
        pilot = make_pilot_matrix(64, arr.num_antennas, seed=6)
        clean = channel.per_subcarrier_channels @ pilot.entries.T
        obs = observe(pilot, channel, 5.0, seed=11)
        noise = (obs.per_subcarrier - clean).ravel()
        target = obs.noise_variance / 2.0
        n = noise.size
        tol = 3.0 * target * np.sqrt(2.0 / (n - 1))
        assert abs(noise.real.var() - target) < tol
        assert abs(noise.imag.var() - target) < tol

    @pytest.mark.parametrize("snr_db", [-np.inf, np.nan])
    def test_rejects_negative_infinite_and_nan_snr(self, snr_db):
        arr, channel = make_channel()
        pilot = make_pilot_matrix(8, arr.num_antennas, seed=2)
        with pytest.raises(ValueError, match="snr_db"):
            observe(pilot, channel, snr_db, seed=9)

    def test_observation_rejects_nan_noise_variance(self):
        with pytest.raises(ValueError, match="noise_variance"):
            Observation(np.zeros((2, 4), complex), np.nan, 10.0)
        with pytest.raises(ValueError, match="noise_variance"):
            Observation(np.zeros((2, 4), complex), -1.0, 10.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_observation_rejects_non_finite_samples(self, bad):
        # one nan sample gave an all-zero estimate, one inf sample support (0,)
        y = np.ones((2, 4), complex)
        y[1, 2] = bad
        with pytest.raises(ValueError, match="per_subcarrier"):
            Observation(y, 0.1, 10.0)

    def test_observation_accepts_nested_lists(self):
        obs = Observation([[1 + 0j, 2], [3, 4]], 0.1, 10.0)
        assert isinstance(obs.per_subcarrier, np.ndarray)
        est = ls_estimate(PilotMatrix(np.eye(2)), obs)
        assert np.allclose(est, [[1, 2], [3, 4]])

    def test_observation_samples_are_read_only_copies(self):
        y = np.ones((2, 4), complex)
        obs = Observation(y, 0.1, 10.0)
        y[0, 0] = 5.0
        assert np.array_equal(obs.per_subcarrier, np.ones((2, 4)))
        assert not obs.per_subcarrier.flags.writeable
        with pytest.raises(ValueError):
            obs.per_subcarrier[0, 0] = 5.0

    def test_dimension_mismatch(self):
        arr, channel = make_channel(n=16)
        pilot = make_pilot_matrix(8, 12, seed=0)
        with pytest.raises(ValueError):
            observe(pilot, channel, 10.0, seed=0)


class TestMeasurementMatrix:
    def test_identity_pilot_returns_dictionary(self):
        arr = ArrayConfig(8, 30e9)
        d = build_angular_dictionary(arr, 1, 1)
        pilot = PilotMatrix(np.eye(8, dtype=complex))
        mm = measurement_matrix(pilot, d)
        assert np.allclose(mm.entries, d.atoms, atol=1e-14)

    def test_renormalize_unit_columns(self):
        arr = ArrayConfig(16, 30e9)
        d = build_angular_dictionary(arr, 2, 1)
        pilot = make_pilot_matrix(8, 16, seed=3)
        mm = measurement_matrix(pilot, d)
        assert np.allclose(np.linalg.norm(mm.entries, axis=0), 1.0, atol=1e-12)
        assert np.allclose(mm.column_scales, np.linalg.norm(pilot.entries @ d.atoms, axis=0), atol=1e-12)

    def test_matches_triple_loop_product(self):
        rng = np.random.default_rng(8)
        arr = ArrayConfig(8, 30e9)
        d = build_angular_dictionary(arr, 1, 1)
        pilot = PilotMatrix(rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8)))
        mm = measurement_matrix(pilot, d)
        expected = np.zeros((4, 8), dtype=complex)
        for q in range(4):
            for g in range(8):
                for n in range(8):
                    expected[q, g] += pilot.entries[q, n] * d.atoms[n, g]
        assert np.allclose(mm.entries * mm.column_scales, expected, atol=1e-12)

    def test_associativity_with_sparse_vector(self):
        rng = np.random.default_rng(12)
        arr = ArrayConfig(16, 30e9)
        d = build_angular_dictionary(arr, 2, 1)
        pilot = make_pilot_matrix(8, 16, seed=5)
        x = np.zeros(32, dtype=complex)
        x[[3, 17, 30]] = rng.standard_normal(3) + 1j * rng.standard_normal(3)

        direct = pilot.entries @ (d.atoms @ x)
        scaled = measurement_matrix(pilot, d)
        assert (
            np.linalg.norm(scaled.entries @ (scaled.column_scales * x) - direct)
            / np.linalg.norm(direct)
            < 1e-10
        )

    def test_dimension_mismatch(self):
        arr = ArrayConfig(8, 30e9)
        d = build_angular_dictionary(arr, 1, 1)
        pilot = make_pilot_matrix(4, 12, seed=0)
        with pytest.raises(ValueError):
            measurement_matrix(pilot, d)

    def test_entries_are_read_only(self):
        d = build_angular_dictionary(ArrayConfig(8, 30e9), 2, 1)
        mm = measurement_matrix(make_pilot_matrix(4, 8, seed=0), d)
        with pytest.raises(ValueError):
            mm.entries[0, 0] = 0.0
        with pytest.raises(ValueError):
            mm.single_precision[0, 0] = 0.0

    def test_entries_are_not_copied(self):
        d = build_angular_dictionary(ArrayConfig(8, 30e9), 1, 1)
        source = np.ones((4, 8), dtype=complex)
        mm = MeasurementMatrix(source, d, np.ones(8))
        assert mm.entries is source and not source.flags.writeable

    def test_single_precision_computed_once(self):
        d = build_angular_dictionary(ArrayConfig(8, 30e9), 2, 1)
        mm = measurement_matrix(make_pilot_matrix(4, 8, seed=0), d)
        low = mm.single_precision
        assert low is mm.single_precision and low.dtype == np.complex64
        largest = np.linalg.norm(mm.entries, axis=0).max()
        np.testing.assert_allclose(low, mm.entries / largest, rtol=0, atol=2.0**-24)
