import numpy as np
import pytest

from bdcs import (
    ArrayConfig,
    BlockPartition,
    ConfigurationError,
    MatrixChannel,
    PathParam,
    PrecoderPair,
    RecoveryConfig,
    SEReport,
    block_sparse_precoding,
    build_angular_dictionary,
    optimal_precoder,
    spectral_efficiency,
    synthesize_matrix_channel,
)
from helpers import FINITENESS_CASES, greedy_blocks_reference, random_dictionary


def random_nf_channel(rng, n_t=64, n_r=4, paths=4, distance=20.0):
    tx = ArrayConfig(n_t, 30e9)
    rx = ArrayConfig(n_r, 30e9)
    params = [
        PathParam(
            float(rng.uniform(-0.8, 0.8)),
            float(distance * rng.uniform(0.8, 1.2)),
            complex((rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(2)),
        )
        for _ in range(paths)
    ]
    rx_angles = [float(rng.uniform(-1, 1)) for _ in range(paths)]
    return MatrixChannel(synthesize_matrix_channel(tx, rx, params, rx_angles))


_CHANNEL = MatrixChannel(np.eye(4, 16, dtype=complex))


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: spectral_efficiency(_CHANNEL, np.ones(16), 10.0), "precoder"),
        (lambda: spectral_efficiency(_CHANNEL, np.ones((16, 0)), 10.0), "precoder"),
        (lambda: optimal_precoder(_CHANNEL, 2.0), "num_streams"),
        (lambda: optimal_precoder(_CHANNEL, True), "num_streams"),
        (lambda: block_sparse_precoding(np.eye(16, 1), build_angular_dictionary(ArrayConfig(16, 30e9), 1, 1), True),
         "num_rf_chains"),
        (lambda: block_sparse_precoding(np.ones(16), build_angular_dictionary(ArrayConfig(16, 30e9), 1, 1), 4),
         "f_opt"),
        (lambda: block_sparse_precoding(np.ones((16, 1, 1)), build_angular_dictionary(ArrayConfig(16, 30e9), 1, 1), 4),
         "f_opt"),
        (lambda: PrecoderPair(np.ones(4) / 2, np.ones((1, 1))), "F_RF"),
        (lambda: PrecoderPair(np.ones((4, 1)) / 2, np.ones(1)), "F_BB"),
    ],
    ids=["one-dimensional-precoder", "precoder-without-streams", "fractional-streams", "boolean-streams",
         "boolean-chains", "one-dimensional-f-opt", "three-dimensional-f-opt", "one-dimensional-f-rf",
         "one-dimensional-f-bb"],
)
def test_shape_and_count_boundaries_name_the_value(call, name):
    # these failed with IndexError, ZeroDivisionError, TypeError or a tuple
    # unpacking error, or ran one stream or chain; the message starts with
    # the value's name, which the config layer maps to its key
    with pytest.raises(ValueError, match=f"^{name} "):
        call()


class TestMatrixChannel:
    @pytest.mark.parametrize("matrix, finite", FINITENESS_CASES)
    def test_finiteness_is_read_in_the_entries_dtype(self, matrix, finite):
        if finite:
            assert MatrixChannel(matrix).matrix is matrix
        else:
            with pytest.raises(ValueError, match="^channel entries must be finite"):
                MatrixChannel(matrix)


class TestOptimalPrecoder:
    def test_orthogonal_rows_diagonalizable(self):
        # channel with orthogonal rows of distinct norms: the precoder columns
        # align with the conjugated rows in norm order
        h = np.zeros((2, 6), dtype=complex)
        h[0, 0] = 2.0
        h[1, 3] = 1.0
        f = optimal_precoder(MatrixChannel(h), 2)
        assert abs(abs(f[0, 0]) - 1.0) < 1e-12
        assert abs(abs(f[3, 1]) - 1.0) < 1e-12

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(1)
        channel = random_nf_channel(rng)
        f = optimal_precoder(channel, 3)
        assert np.allclose(f.conj().T @ f, np.eye(3), atol=1e-10)

    def test_captures_top_singular_values(self):
        rng = np.random.default_rng(2)
        h = rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16))
        channel = MatrixChannel(h)
        f = optimal_precoder(channel, 2)
        top = np.linalg.svd(h, compute_uv=False)[:2]
        effective = np.linalg.svd(h @ f, compute_uv=False)
        assert np.allclose(effective, top, atol=1e-8)

    def test_stream_count_validated(self):
        rng = np.random.default_rng(3)
        channel = random_nf_channel(rng)
        with pytest.raises(ValueError):
            optimal_precoder(channel, 5)  # exceeds N_r = 4


class TestBlockSparsePrecoding:
    def test_power_normalization_and_modulus(self):
        rng = np.random.default_rng(10)
        tx = ArrayConfig(32, 30e9)
        d = build_angular_dictionary(tx, 1, 1)
        channel = random_nf_channel(rng, n_t=32)
        f_opt = optimal_precoder(channel, 2)
        pair = block_sparse_precoding(f_opt, d, 4)
        assert np.allclose(np.abs(pair.f_rf), 1 / np.sqrt(32), atol=1e-12)
        assert abs(np.linalg.norm(pair.combined) ** 2 - 2.0) < 1e-8

    def test_on_grid_channel_near_optimal(self):
        # channel spanned by exact grid atoms: the hybrid stage can reproduce
        # the optimal precoder almost exactly
        rng = np.random.default_rng(11)
        tx = ArrayConfig(64, 30e9)
        rx = ArrayConfig(4, 30e9)
        d = build_angular_dictionary(tx, 1, 1)
        grid_angles = [d.angles[i] for i in (10, 25, 40, 55)]
        params = [
            PathParam(a, np.inf, complex(rng.standard_normal() + 1j * rng.standard_normal()))
            for a in grid_angles
        ]
        rx_angles = [float(rng.uniform(-1, 1)) for _ in range(4)]
        channel = MatrixChannel(synthesize_matrix_channel(tx, rx, params, rx_angles))
        f_opt = optimal_precoder(channel, 2)
        pair = block_sparse_precoding(f_opt, d, 4)
        se_opt = spectral_efficiency(channel, f_opt, 0.0).spectral_efficiency
        se_hyb = spectral_efficiency(channel, pair, 0.0).spectral_efficiency
        assert se_hyb >= 0.98 * se_opt

    def test_full_chain_budget_small_residual(self):
        rng = np.random.default_rng(12)
        tx = ArrayConfig(16, 30e9)
        d = build_angular_dictionary(tx, 1, 1)
        channel = random_nf_channel(rng, n_t=16)
        f_opt = optimal_precoder(channel, 2)
        pair = block_sparse_precoding(f_opt, d, 16, RecoveryConfig(16, 0.0))
        # renormalize the digital stage back for the approximation check
        f_bb = pair.f_bb * np.linalg.norm(f_opt) / np.linalg.norm(pair.combined)
        rel = np.linalg.norm(f_opt - pair.f_rf @ f_bb) / np.linalg.norm(f_opt)
        assert rel < 0.1

    def test_hybrid_never_beats_optimal(self):
        rng = np.random.default_rng(13)
        tx = ArrayConfig(32, 30e9)
        d = build_angular_dictionary(tx, 1, 2)
        for _ in range(20):
            channel = random_nf_channel(rng, n_t=32, paths=5)
            f_opt = optimal_precoder(channel, 2)
            pair = block_sparse_precoding(f_opt, d, 4)
            for snr in (-5.0, 0.0, 10.0):
                se_opt = spectral_efficiency(channel, f_opt, snr).spectral_efficiency
                se_hyb = spectral_efficiency(channel, pair, snr).spectral_efficiency
                assert se_hyb <= se_opt + 1e-9

    def test_nested_chain_budgets_do_not_degrade(self):
        rng = np.random.default_rng(14)
        tx = ArrayConfig(32, 30e9)
        d = build_angular_dictionary(tx, 1, 2)
        channel = random_nf_channel(rng, n_t=32, paths=6)
        f_opt = optimal_precoder(channel, 2)
        last = -np.inf
        for chains in (2, 4, 8, 16):
            pair = block_sparse_precoding(f_opt, d, chains)
            se = spectral_efficiency(channel, pair, 0.0).spectral_efficiency
            assert se >= last - 1e-6
            last = se

    def test_block_length_must_divide_chains(self):
        rng = np.random.default_rng(15)
        tx = ArrayConfig(32, 30e9)
        d = build_angular_dictionary(tx, 1, 4)
        channel = random_nf_channel(rng, n_t=32)
        f_opt = optimal_precoder(channel, 2)
        with pytest.raises(ConfigurationError):
            block_sparse_precoding(f_opt, d, 6)

    @pytest.mark.parametrize("num_rf_chains", [0, 1, 33])  # none, fewer than N_s = 2, more than N_t
    def test_chain_count_refused_before_the_kernel(self, num_rf_chains, monkeypatch):
        import bdcs.precoding

        def refuse(*args, **kwargs):
            raise AssertionError("the greedy kernel ran")

        rng = np.random.default_rng(15)
        d = build_angular_dictionary(ArrayConfig(32, 30e9), 1, 1)
        f_opt = optimal_precoder(random_nf_channel(rng, n_t=32), 2)
        monkeypatch.setattr(bdcs.precoding, "_greedy_blocks", refuse)
        with pytest.raises(ValueError, match="^num_rf_chains must satisfy N_s <= N_RF <= N_t"):
            block_sparse_precoding(f_opt, d, num_rf_chains)

    @pytest.mark.parametrize("seed", [38, 101])
    def test_skips_blocks_wider_than_the_chains_left(self, seed):
        # 3 chains over blocks of 1, 3, 1, 3 columns: once one narrow block
        # is chosen a wide block no longer fits, but the other narrow one does
        partition = BlockPartition([1, 3, 1, 3])
        rng = np.random.default_rng(seed)
        d = random_dictionary(rng, 8, partition.size, 1, constant_modulus=True)
        f_opt, _ = np.linalg.qr(rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2)))
        pair = block_sparse_precoding(f_opt, d, 3, RecoveryConfig(partition.num_blocks, 1e-10, partition))
        assert isinstance(pair, PrecoderPair)
        assert 2 <= pair.num_chains <= 3

    @pytest.mark.parametrize("columns", [8, 512])
    def test_partition_must_cover_the_atoms(self, columns):
        # on 256 atoms an 8-column partition failed inside numpy with a bare
        # ValueError, and a 512-column one was accepted
        rng = np.random.default_rng(18)
        d = build_angular_dictionary(ArrayConfig(256, 30e9), 1, 4)
        f_opt = optimal_precoder(random_nf_channel(rng, n_t=256), 2)
        cfg = RecoveryConfig(2, 1e-10, BlockPartition.uniform(columns, 4))
        with pytest.raises(ConfigurationError, match="partition must cover the columns"):
            block_sparse_precoding(f_opt, d, 4, cfg)

    def test_analog_stage_is_the_selected_atoms(self):
        rng = np.random.default_rng(17)
        d = build_angular_dictionary(ArrayConfig(32, 30e9), 1, 2)
        f_opt = optimal_precoder(random_nf_channel(rng, n_t=32, paths=5), 2)
        pair = block_sparse_precoding(f_opt, d, 4)
        _, cols, _, _, _ = greedy_blocks_reference(d.atoms, f_opt, d.partition, d.partition.num_blocks, 1e-10,
                                                   max_columns=4)
        assert np.array_equal(pair.f_rf, d.atoms[:, cols])  # the atoms themselves, in selection order

    def test_atoms_without_constant_modulus_refused(self):
        rng = np.random.default_rng(19)
        d = random_dictionary(rng, 16, 32, 1)  # complex Gaussian atoms
        f_opt, _ = np.linalg.qr(rng.standard_normal((16, 2)) + 1j * rng.standard_normal((16, 2)))
        with pytest.raises(ValueError, match=r"modulus 1/sqrt\(N_t\)"):
            block_sparse_precoding(f_opt, d, 4)

    def test_zero_target_is_degenerate(self):
        d = build_angular_dictionary(ArrayConfig(16, 30e9), 1, 1)
        with pytest.raises(ValueError, match="degenerate precoder"):
            block_sparse_precoding(np.zeros((16, 2), complex), d, 4)

    def test_non_finite_target_refused_before_the_kernel(self, monkeypatch):
        # a nan target ran the kernel and then failed on the chain count rule
        import bdcs.precoding

        def refuse(*args, **kwargs):
            raise AssertionError("the greedy kernel ran")

        d = build_angular_dictionary(ArrayConfig(16, 30e9), 1, 1)
        monkeypatch.setattr(bdcs.precoding, "_greedy_blocks", refuse)
        with pytest.raises(ValueError, match="^f_opt entries must be finite"):
            block_sparse_precoding(np.full((16, 2), np.nan), d, 4)

    @pytest.mark.parametrize("stage", ["F_RF", "F_BB"])
    def test_pair_refuses_non_finite_stages(self, stage):
        # nan passed both tolerance checks of the pair
        f_rf = 0.5 * np.array([[1, 1], [1, -1], [1, 1], [1, -1]], dtype=complex)  # orthogonal columns
        f_bb = np.eye(2, dtype=complex)
        PrecoderPair(f_rf, f_bb)  # a valid pair
        if stage == "F_RF":
            f_rf[1, 1] = np.nan
        else:
            f_bb[0, 0] = np.nan
        with pytest.raises(ValueError, match=stage):
            PrecoderPair(f_rf, f_bb)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(16)
        d = build_angular_dictionary(ArrayConfig(16, 30e9), 1, 1)
        channel = random_nf_channel(rng, n_t=32)
        f_opt = optimal_precoder(channel, 2)
        with pytest.raises(ValueError):
            block_sparse_precoding(f_opt, d, 4)


class TestSpectralEfficiency:
    def test_zero_channel(self):
        channel = MatrixChannel(np.zeros((2, 8), complex))
        f = np.zeros((8, 2), complex)
        f[0, 0] = f[1, 1] = 1.0
        assert spectral_efficiency(channel, f, 10.0).spectral_efficiency == 0.0

    def test_scalar_case_one_bit(self):
        h = np.zeros((1, 4), complex)
        h[0, 0] = 1.0
        f = np.zeros((4, 1), complex)
        f[0, 0] = 1.0  # ||H F|| = 1
        report = spectral_efficiency(MatrixChannel(h), f, 0.0)
        assert report.spectral_efficiency == pytest.approx(1.0, abs=1e-12)

    def test_matches_eigenvalue_oracle(self):
        rng = np.random.default_rng(20)
        h = rng.standard_normal((2, 8)) + 1j * rng.standard_normal((2, 8))
        channel = MatrixChannel(h)
        f = optimal_precoder(channel, 2)
        report = spectral_efficiency(channel, f, 7.0)
        rho = 10 ** 0.7
        hf = h @ f
        eigs = np.linalg.eigvalsh(hf @ hf.conj().T)
        oracle = np.sum(np.log2(1.0 + (rho / 2) * np.maximum(eigs, 0)))
        assert report.spectral_efficiency == pytest.approx(oracle, abs=1e-8)

    @pytest.mark.parametrize("snr_db", [np.inf, np.nan])
    def test_refuses_snr_without_a_spectral_efficiency(self, snr_db):
        # +inf gave nan with a slogdet warning
        channel = MatrixChannel(np.eye(2, 4, dtype=complex))
        with pytest.raises(ValueError, match="snr_db"):
            spectral_efficiency(channel, np.eye(4, 2, dtype=complex), snr_db)

    def test_no_signal_has_zero_spectral_efficiency(self):
        channel = MatrixChannel(np.eye(2, 4, dtype=complex))
        assert spectral_efficiency(channel, np.eye(4, 2, dtype=complex), -np.inf).spectral_efficiency == 0.0

    @pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
    def test_report_refuses_non_finite_or_negative(self, value):
        with pytest.raises(ValueError, match="spectral efficiency"):
            SEReport(value)

    def test_monotone_in_snr(self):
        rng = np.random.default_rng(21)
        channel = random_nf_channel(rng)
        f = optimal_precoder(channel, 2)
        ses = [spectral_efficiency(channel, f, s).spectral_efficiency for s in (-10, 0, 10, 20)]
        assert all(b >= a for a, b in zip(ses, ses[1:]))
