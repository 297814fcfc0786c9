import dataclasses

import numpy as np
import pytest

from bdcs import (
    ArrayConfig,
    BlockPartition,
    ConfigurationError,
    Observation,
    PilotMatrix,
    RecoveryConfig,
    SideInformation,
    bsomp,
    bsomp_batch,
    build_angular_dictionary,
    ls_estimate,
    make_pilot_matrix,
    measurement_matrix,
    nmse,
    reconstruct,
)
from bdcs.recovery import _temporal_weights
from helpers import block_sparse_instance, count_kernel_runs, omp_reference, random_dictionary


def make_measurement(rng, n=64, g=128, lb=4, q=32, seed=7):
    d = random_dictionary(rng, n, g, lb)
    pilot = make_pilot_matrix(q, n, seed)
    return measurement_matrix(pilot, d)


class TestLsEstimate:
    def test_identity_pilot_noiseless(self):
        rng = np.random.default_rng(0)
        h = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
        pilot = PilotMatrix(np.eye(8, dtype=complex))
        obs = Observation(h @ pilot.entries.T, 0.0, np.inf)
        est = ls_estimate(pilot, obs)
        assert np.allclose(est, h, atol=1e-12)

    def test_minimum_norm_consistency(self):
        rng = np.random.default_rng(1)
        pilot = make_pilot_matrix(8, 16, seed=2)
        h = rng.standard_normal((2, 16)) + 1j * rng.standard_normal((2, 16))
        obs = Observation(h @ pilot.entries.T, 0.0, np.inf)
        est = ls_estimate(pilot, obs)
        again = est @ pilot.entries.T
        assert np.linalg.norm(again - obs.per_subcarrier) < 1e-8

    def test_matches_normal_equation_oracle(self):
        rng = np.random.default_rng(2)
        p = rng.standard_normal((8, 16)) + 1j * rng.standard_normal((8, 16))
        pilot = PilotMatrix(p)
        y = rng.standard_normal((1, 8)) + 1j * rng.standard_normal((1, 8))
        obs = Observation(y, 0.0, np.inf)
        est = ls_estimate(pilot, obs)
        # wide matrix: pinv(P) = P^H (P P^H)^-1
        oracle = p.conj().T @ np.linalg.inv(p @ p.conj().T) @ y[0]
        assert np.linalg.norm(est[0] - oracle) < 1e-8

    def test_bit_identical_to_fresh_pinv(self):
        rng = np.random.default_rng(3)
        pilot = make_pilot_matrix(8, 16, seed=4)
        for _ in range(2):  # the second call reuses the cached pseudo-inverse
            y = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
            est = ls_estimate(pilot, Observation(y, 0.0, np.inf))
            assert np.array_equal(est, (np.linalg.pinv(pilot.entries) @ y.T).T)


    def test_refuses_a_pilot_count_mismatch(self):
        pilot = make_pilot_matrix(128, 64, seed=4)
        obs = Observation(np.ones((4, 100), dtype=complex), 0.0, np.inf)
        with pytest.raises(ValueError, match="observation sample count must equal the pilot count"):
            ls_estimate(pilot, obs)


class TestBsompOmpEquivalence:
    def test_matches_plain_omp(self):
        rng = np.random.default_rng(10)
        for trial in range(50):
            mm = make_measurement(rng, lb=1, seed=100 + trial)
            k = int(rng.integers(1, 5))
            snr = float(rng.uniform(0, 25))
            _, obs, _ = block_sparse_instance(rng, mm, k, snr)
            result = bsomp(mm, obs, RecoveryConfig(k, 0.0))
            ref_support, ref_coef = omp_reference(mm.entries, obs.per_subcarrier[0], k)
            assert list(result.support_blocks) == ref_support
            descaled = ref_coef / mm.column_scales
            assert np.allclose(result.coefficients[0], descaled, atol=1e-10)


class TestBsompExactRecovery:
    def test_noiseless_two_blocks(self):
        rng = np.random.default_rng(20)
        mm = make_measurement(rng, n=64, g=126, lb=3, q=32)
        x, obs, truth = block_sparse_instance(rng, mm, 2, np.inf)
        result = bsomp(mm, obs, RecoveryConfig(2, 0.0))
        assert set(result.support_blocks) == truth
        # oracle: least squares restricted to the true support
        cols = sorted(
            i
            for b in truth
            for i in range(*mm.dictionary.partition.block_slice(b).indices(126))
        )
        oracle, *_ = np.linalg.lstsq(mm.entries[:, cols], obs.per_subcarrier[0], rcond=None)
        truth_h = (x / mm.column_scales) @ mm.dictionary.atoms.T
        assert nmse(result.reconstructed_channels, truth_h) < -150.0
        assert np.allclose(result.coefficients[0][cols] * mm.column_scales[cols], oracle, atol=1e-8)

    def test_zero_observation(self):
        rng = np.random.default_rng(21)
        mm = make_measurement(rng)
        obs = Observation(np.zeros((1, 32), complex), 0.0, np.inf)
        result = bsomp(mm, obs, RecoveryConfig(4, 0.0))
        assert result.support_blocks == ()
        assert not result.coefficients.any()
        assert not result.reconstructed_channels.any()
        assert result.residual_history == (1.0,)


class TestBsompInvariants:
    def test_residual_monotone_and_no_reselection(self):
        rng = np.random.default_rng(30)
        for trial in range(10):
            mm = make_measurement(rng, seed=300 + trial)
            _, obs, _ = block_sparse_instance(rng, mm, 3, 5.0, num_subcarriers=2)
            result = bsomp(mm, obs, RecoveryConfig(6, 0.0))
            hist = result.residual_history
            assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))
            assert len(set(result.support_blocks)) == len(result.support_blocks)

    def test_support_containment(self):
        rng = np.random.default_rng(31)
        mm = make_measurement(rng)
        _, obs, _ = block_sparse_instance(rng, mm, 2, 10.0, num_subcarriers=3)
        result = bsomp(mm, obs, RecoveryConfig(3, 0.0))
        g = mm.num_columns
        inside = np.zeros(g, dtype=bool)
        for b in result.support_blocks:
            inside[mm.dictionary.partition.block_slice(b)] = True
        assert not result.coefficients[:, ~inside].any()

    def test_zero_gain_weights_match_no_si(self):
        rng = np.random.default_rng(32)
        mm = make_measurement(rng)
        _, obs, _ = block_sparse_instance(rng, mm, 2, 3.0)
        plain = bsomp(mm, obs, RecoveryConfig(4, 0.0))
        weighted = bsomp(
            mm, obs, RecoveryConfig(4, 0.0), SideInformation((1, 5), temporal_gain=0.0)
        )
        assert plain.support_blocks == weighted.support_blocks
        assert np.array_equal(plain.coefficients, weighted.coefficients)

    @pytest.mark.parametrize("si", [
        SideInformation(temporal_gain=5.0, decay_floor=0.05),
        SideInformation((1, 5), temporal_gain=0.0, decay_floor=0.05),
    ])
    def test_inert_side_information_skips_weights(self, si):
        rng = np.random.default_rng(36)
        mm = make_measurement(rng)
        _, obs, _ = block_sparse_instance(rng, mm, 3, 3.0, num_subcarriers=2)
        assert _temporal_weights(mm.dictionary.partition.num_blocks, si) is None
        plain = bsomp(mm, obs, RecoveryConfig(4, 0.0), SideInformation(decay_floor=0.05))
        inert = bsomp(mm, obs, RecoveryConfig(4, 0.0), si)
        assert plain.support_blocks == inert.support_blocks
        assert plain.residual_history == inert.residual_history
        assert np.array_equal(plain.coefficients, inert.coefficients)
        assert np.array_equal(plain.reconstructed_channels, inert.reconstructed_channels)

    def test_bmmv_specialization_identical_observations(self):
        rng = np.random.default_rng(33)
        mm = make_measurement(rng)
        _, obs, _ = block_sparse_instance(rng, mm, 2, 8.0)
        stacked = Observation(
            np.repeat(obs.per_subcarrier, 4, axis=0), obs.noise_variance, obs.snr_db
        )
        single = bsomp(mm, obs, RecoveryConfig(3, 0.0))
        multi = bsomp(mm, stacked, RecoveryConfig(3, 0.0))
        assert single.support_blocks == multi.support_blocks
        for k in range(4):
            assert np.allclose(multi.coefficients[k], single.coefficients[0], atol=1e-10)

    def test_underdetermined_budget_warns(self):
        rng = np.random.default_rng(34)
        mm = make_measurement(rng, q=8)
        _, obs, _ = block_sparse_instance(rng, mm, 1, 10.0)
        with pytest.warns(UserWarning):
            bsomp(mm, obs, RecoveryConfig(4, 0.0))

    def test_stops_at_an_exact_fit(self):
        # Q = 8 rows are spanned by two 4-column blocks; without the relative
        # floor the loop went on picking blocks from rounding-noise scores
        rng = np.random.default_rng(34)
        mm = make_measurement(rng, q=8)
        _, obs, _ = block_sparse_instance(rng, mm, 1, 10.0)
        with pytest.warns(UserWarning):
            result = bsomp(mm, obs, RecoveryConfig(4, 0.0))
        assert result.support_blocks == (17, 25)
        assert result.final_residual <= 1e-12

    def test_empty_partition_impossible_but_mismatch_rejected(self):
        rng = np.random.default_rng(35)
        mm = make_measurement(rng)
        _, obs, _ = block_sparse_instance(rng, mm, 1, 10.0)
        bad = RecoveryConfig(2, 0.0, BlockPartition.uniform(64, 4))
        with pytest.raises(ConfigurationError):
            bsomp(mm, obs, bad)


class TestBsompBoundary:
    def test_refuses_an_observation_of_another_length(self):
        mm = make_measurement(np.random.default_rng(8), q=128)
        obs = Observation(np.ones((4, 100), dtype=complex), 0.0, np.inf)
        with pytest.raises(ValueError, match="observation sample count must equal the measurement rows"):
            bsomp(mm, obs, RecoveryConfig(2))

    def test_batch_refuses_mixed_subcarrier_counts(self):
        rng = np.random.default_rng(9)
        mm = make_measurement(rng, q=128)
        observations = [Observation(rng.standard_normal((k, 128)) + 0j, 0.0, np.inf) for k in (4, 3)]
        with pytest.raises(ValueError, match="observations must share one subcarrier count"):
            bsomp_batch(mm, observations, RecoveryConfig(2))

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_batch_refuses_a_config_count_other_than_the_observations(self, count):
        rng = np.random.default_rng(10)
        mm = make_measurement(rng, q=128)
        observations = [Observation(rng.standard_normal((2, 128)) + 0j, 0.0, np.inf) for _ in range(2)]
        with pytest.raises(ValueError, match="one recovery config, or one per observation"):
            bsomp_batch(mm, observations, [RecoveryConfig(2, 0.1 * i) for i in range(count)])


class TestBsompMemo:
    def test_repeated_call_returns_the_stored_result(self, monkeypatch):
        rng = np.random.default_rng(37)
        mm = make_measurement(rng)
        _, obs, _ = block_sparse_instance(rng, mm, 2, 10.0, num_subcarriers=2)
        runs = count_kernel_runs(monkeypatch)
        first = bsomp(mm, obs, RecoveryConfig(3, 0.0), SideInformation(decay_floor=0.05))
        again = bsomp(mm, obs, RecoveryConfig(3, 0.0), SideInformation(decay_floor=0.05))
        assert again is first
        assert len(runs) == 1

    def test_any_changed_input_runs_the_kernel(self, monkeypatch):
        rng = np.random.default_rng(38)
        pilot = make_pilot_matrix(32, 64, seed=7)
        d = random_dictionary(rng, 64, 128, 4)
        mm = measurement_matrix(pilot, d)
        _, obs, _ = block_sparse_instance(rng, mm, 2, 10.0)
        cfg = RecoveryConfig(3, 0.0)
        base = bsomp(mm, obs, cfg)
        runs = count_kernel_runs(monkeypatch)
        variants = [
            (mm, obs, RecoveryConfig(2, 0.0), None),
            (mm, obs, RecoveryConfig(3, 0.5), None),
            (mm, obs, RecoveryConfig(3, 0.0, BlockPartition.uniform(128, 2)), None),
            (mm, obs, cfg, SideInformation(decay_floor=0.05)),
            (mm, obs, cfg, SideInformation((3,), temporal_gain=1.0)),
            # equal entries, other objects: the memo keys on neither contents
            (measurement_matrix(pilot, d), obs, cfg, None),
            (mm, Observation(obs.per_subcarrier, obs.noise_variance, obs.snr_db), cfg, None),
        ]
        for i, args in enumerate(variants, start=1):
            result = bsomp(*args)
            assert result is not base
            assert len(runs) == i
            assert bsomp(*args) is result and len(runs) == i

    def test_result_arrays_are_read_only(self):
        rng = np.random.default_rng(39)
        mm = make_measurement(rng)
        _, obs, _ = block_sparse_instance(rng, mm, 2, 10.0)
        result = bsomp(mm, obs, RecoveryConfig(3, 0.0))
        for array in (result.support_coefficients, result.coefficients, result.reconstructed_channels):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0, 0] = 1.0

    def test_underdetermined_warning_on_every_call(self, monkeypatch):
        rng = np.random.default_rng(34)
        mm = make_measurement(rng, q=8)
        _, obs, _ = block_sparse_instance(rng, mm, 1, 10.0)
        runs = count_kernel_runs(monkeypatch)
        with pytest.warns(UserWarning, match="underdetermined"):
            first = bsomp(mm, obs, RecoveryConfig(4, 0.0))
        with pytest.warns(UserWarning, match="underdetermined"):
            again = bsomp(mm, obs, RecoveryConfig(4, 0.0))
        assert again is first and len(runs) == 1


class TestSupportForm:
    """A stored result keeps its support columns and their coefficients;
    the dense (K, G) coefficients are derived from them on access."""

    @pytest.fixture
    def batch(self):
        rng = np.random.default_rng(41)
        mm = make_measurement(rng)
        observations = [block_sparse_instance(rng, mm, 2, 10.0, num_subcarriers=2)[1] for _ in range(4)]
        return mm, bsomp_batch(mm, observations, RecoveryConfig(3, 0.0))

    def test_stored_result_holds_nothing_as_wide_as_the_dictionary(self, batch):
        mm, results = batch
        for result in results:
            arrays = [v for v in vars(result).values() if isinstance(v, np.ndarray)]
            assert arrays and all(mm.num_columns not in array.shape for array in arrays)

    def test_coefficients_are_the_support_coefficients_scattered(self, batch):
        mm, results = batch
        partition = mm.dictionary.partition
        for result in results:
            cols = result.support_columns
            blocks = [np.arange(*partition.block_slice(b).indices(mm.num_columns)) for b in result.support_blocks]
            assert np.array_equal(cols, np.sort(np.concatenate(blocks)))
            dense = result.coefficients
            assert dense.shape == (2, mm.num_columns) and dense.dtype == np.complex128
            assert not dense.flags.writeable
            assert not np.delete(dense, cols, axis=1).any()
            scattered = np.zeros((2, mm.num_columns), dtype=np.complex128)
            scattered[:, cols] = result.support_coefficients
            assert dense.tobytes() == scattered.tobytes()

    def test_dense_coefficients_replace_the_support_form(self, batch):
        _, results = batch
        moved = results[0].coefficients.copy()
        moved[:, results[0].support_columns[0]] = 0.0
        moved[1, 0] = 2.0
        replaced = dataclasses.replace(results[0], coefficients=moved)
        assert np.array_equal(replaced.coefficients, moved)
        assert np.array_equal(replaced.support_columns, np.flatnonzero(moved.any(axis=0)))
        assert replaced.support_blocks == results[0].support_blocks


class TestSideInformationMechanisms:
    def test_true_support_prior_lifts_recovery_rate(self):
        rng = np.random.default_rng(40)
        mm = make_measurement(rng)
        base_hits = 0
        aided_hits = 0
        trial_rng = np.random.default_rng(41)
        for _ in range(500):
            _, obs, truth = block_sparse_instance(trial_rng, mm, 2, 0.0)
            cfg = RecoveryConfig(2, 0.0)
            base = bsomp(mm, obs, cfg)
            si = SideInformation(tuple(sorted(truth)), temporal_gain=1.0, temporal_width=1.0)
            aided = bsomp(mm, obs, cfg, si)
            base_hits += set(base.support_blocks) == truth
            aided_hits += set(aided.support_blocks) == truth
        assert aided_hits >= base_hits

    def test_decay_rule_discards_weak_block(self):
        rng = np.random.default_rng(42)
        mm = make_measurement(rng)
        partition = mm.dictionary.partition
        g = mm.num_columns
        x = np.zeros((1, g), complex)
        x[0, partition.block_slice(3)] = 1.0
        x[0, partition.block_slice(9)] = 1e-5  # energy far below the decay floor
        obs = Observation(x @ mm.entries.T, 0.0, np.inf)
        si = SideInformation(decay_floor=1e-2)
        result = bsomp(mm, obs, RecoveryConfig(4, 0.0), si)
        assert result.support_blocks == (3,)

    def test_decay_rule_keeps_comparable_blocks(self):
        rng = np.random.default_rng(43)
        mm = make_measurement(rng)
        partition = mm.dictionary.partition
        g = mm.num_columns
        x = np.zeros((1, g), complex)
        x[0, partition.block_slice(3)] = 1.0
        x[0, partition.block_slice(9)] = 0.5
        obs = Observation(x @ mm.entries.T, 0.0, np.inf)
        si = SideInformation(decay_floor=1e-2)
        result = bsomp(mm, obs, RecoveryConfig(2, 0.0), si)
        assert set(result.support_blocks) == {3, 9}

    def test_side_information_validation(self):
        with pytest.raises(ValueError):
            SideInformation(temporal_gain=-1.0)
        with pytest.raises(ValueError):
            SideInformation(temporal_width=0.0)
        with pytest.raises(ValueError):
            SideInformation(decay_floor=1.5)

    @pytest.mark.parametrize("support", [(1.5,), (-3,), (True,), (2, 1.0)])
    def test_previous_support_must_be_block_indices(self, support):
        # 1.5 and -3 silently reweighted the blocks
        with pytest.raises(ValueError, match="previous_support"):
            SideInformation(support, temporal_gain=1.0)

    @pytest.mark.parametrize("gain", [0.0, 1.0])
    def test_previous_support_beyond_the_blocks_refused(self, gain):
        # 10000 was silently ignored
        rng = np.random.default_rng(33)
        mm = make_measurement(rng)
        _, obs, _ = block_sparse_instance(rng, mm, 2, 3.0)
        blocks, cfg = mm.dictionary.partition.num_blocks, RecoveryConfig(2, 0.0)
        bsomp(mm, obs, cfg, SideInformation((blocks - 1,), temporal_gain=gain))
        with pytest.raises(ValueError, match="previous_support .* block count"):
            bsomp(mm, obs, cfg, SideInformation((blocks,), temporal_gain=gain))

    @pytest.mark.parametrize(
        "kwargs",
        [{"temporal_gain": np.nan}, {"temporal_gain": np.inf}, {"temporal_width": np.nan}],
        ids=["nan-gain", "inf-gain", "nan-width"],
    )
    def test_non_finite_weights_refused(self, kwargs):
        # non-finite BD-SI weights leave no block a candidate, and the kernel
        # then selected block 0 on every step
        with pytest.raises(ValueError, match="temporal_"):
            SideInformation((1,), **kwargs)


class TestReconstructAndNmse:
    def test_reconstruct_zero(self):
        arr = ArrayConfig(8, 30e9)
        d = build_angular_dictionary(arr, 1, 1)
        mm = measurement_matrix(make_pilot_matrix(4, 8, 0), d)
        obs = Observation(np.zeros((2, 4), complex), 0.0, np.inf)
        result = bsomp(mm, obs, RecoveryConfig(1, 0.0))
        assert not reconstruct(d, result).any()

    def test_reconstruct_single_atom(self):
        arr = ArrayConfig(8, 30e9)
        d = build_angular_dictionary(arr, 1, 1)
        from bdcs import RecoveryResult

        coef = np.zeros((1, 8), complex)
        coef[0, 5] = 1.0
        result = RecoveryResult((5,), np.array([5]), coef[:, [5]], 8, coef @ d.atoms.T, (1.0, 0.0))
        assert np.allclose(reconstruct(d, result)[0], d.atoms[:, 5], atol=1e-14)

    def test_reconstruct_matches_naive_loops(self):
        arr = ArrayConfig(8, 30e9)
        d = build_angular_dictionary(arr, 2, 1)
        rng = np.random.default_rng(51)
        from bdcs import RecoveryResult

        coef = np.zeros((2, 16), complex)
        cols = rng.choice(16, 4, replace=False)
        coef[:, cols] = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        support = np.sort(cols)
        result = RecoveryResult(tuple(cols), support, coef[:, support], 16, coef @ d.atoms.T, (1.0,))
        out = reconstruct(d, result)
        naive = np.zeros((2, 8), complex)
        for k in range(2):
            for g in range(16):
                naive[k] += coef[k, g] * d.atoms[:, g]
        assert np.allclose(out, naive, atol=1e-12)

    def test_reconstruct_dimension_mismatch(self):
        arr = ArrayConfig(8, 30e9)
        d = build_angular_dictionary(arr, 1, 1)
        from bdcs import RecoveryResult

        no_support = np.array([], dtype=int)
        result = RecoveryResult((), no_support, np.zeros((1, 0), complex), 9, np.zeros((1, 8), complex), (1.0,))
        with pytest.raises(ValueError):
            reconstruct(d, result)

    @pytest.mark.parametrize("estimate, truth", [([[np.nan]], [[1.0]]), ([[1.0]], [[np.inf]]), ([[1j * np.inf]], [[1.0]])])
    def test_nmse_refuses_non_finite_entries(self, estimate, truth):
        with pytest.raises(ValueError, match="estimate and truth must be finite"):
            nmse(estimate, truth)

    def test_nmse_cases(self):
        h = np.array([[1.0 + 1j, 2.0]])
        assert nmse(h, h) == -300.0
        assert nmse(np.zeros_like(h), h) == pytest.approx(0.0, abs=1e-12)
        assert nmse(2 * h, h) == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(ValueError):
            nmse(h, np.zeros_like(h))
        with pytest.raises(ValueError):
            nmse(h, np.zeros((2, 3)))


class TestRecoveryConfigValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            RecoveryConfig(0)
        with pytest.raises(ValueError):
            RecoveryConfig(2, -0.5)

    @pytest.mark.parametrize(
        "args",
        [(4, np.nan), (2.5, 0.0), (True, 0.0), (2, 0.0, [4, 4]), (2, 0.0, "44")],
        ids=["nan-tolerance", "fractional-budget", "boolean-budget", "list-partition", "string-partition"],
    )
    def test_refuses_nan_tolerance_and_non_integer_budget(self, args):
        # a nan tolerance stopped the loop before its first block; 2.5 blocks
        # failed inside the kernel and True ran one block; a partition that is
        # not a BlockPartition failed inside bsomp with TypeError or
        # AttributeError
        with pytest.raises(ValueError):
            RecoveryConfig(*args)

    def test_numpy_integer_budget_accepted(self):
        assert RecoveryConfig(np.int64(3)).max_blocks == 3
