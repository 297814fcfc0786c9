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
    block_sparse_precoding,
    build_angular_dictionary,
    optimal_precoder,
    spectral_efficiency,
    synthesize_matrix_channel,
)
from helpers import random_dictionary


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

    @pytest.mark.parametrize("seed", [38, 101])
    def test_skips_blocks_wider_than_the_chains_left(self, seed):
        # 3 chains over blocks of 1, 3, 1, 3 columns: once one narrow block
        # is chosen a wide block no longer fits, but the other narrow one does
        partition = BlockPartition.from_lengths([1, 3, 1, 3])
        rng = np.random.default_rng(seed)
        d = random_dictionary(rng, 8, partition.size, 1)
        f_opt, _ = np.linalg.qr(rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2)))
        pair = block_sparse_precoding(f_opt, d, 3, RecoveryConfig(partition.num_blocks, 1e-10, partition))
        assert isinstance(pair, PrecoderPair)
        assert 2 <= pair.num_chains <= 3

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

    def test_monotone_in_snr(self):
        rng = np.random.default_rng(21)
        channel = random_nf_channel(rng)
        f = optimal_precoder(channel, 2)
        ses = [spectral_efficiency(channel, f, s).spectral_efficiency for s in (-10, 0, 10, 20)]
        assert all(b >= a for a, b in zip(ses, ses[1:]))
