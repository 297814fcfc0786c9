"""The greedy kernel screens blocks in single precision and confirms close
calls in double, so it must select exactly what float64 scores select: on the
reference preset against plain float64 references, at near ties below
complex64 resolution, and at exact ties, which go to the lowest block."""

import numpy as np
import pytest

from bdcs import (
    ArrayConfig,
    BlockPartition,
    MatrixChannel,
    PathParam,
    RecoveryConfig,
    SideInformation,
    block_sparse_precoding,
    bsomp,
    observe,
    optimal_precoder,
    synthesize_matrix_channel,
)
from bdcs.bench import ExperimentConfig, Workbench
from bdcs.recovery import _greedy_blocks
from helpers import block_somp_reference, greedy_blocks_reference


@pytest.fixture(scope="module")
def bench():
    return Workbench(ExperimentConfig.from_dict({"seed": 11}))


@pytest.mark.parametrize("decay_floor", [None, 0.05])
@pytest.mark.parametrize("snr_db", [-10.0, 10.0, 30.0])
def test_reference_supports_match_float64(bench, snr_db, decay_floor):
    si = SideInformation(decay_floor=decay_floor) if decay_floor is not None else None
    budget = bench.cfg.recovery.max_blocks
    cases = {
        "somp_polar": (bench.mm_polar, bench.polar_atom_partition, 4 * budget),
        "bsomp_polar": (bench.mm_polar, bench.polar.partition, budget),
        "bsomp_angular": (bench.mm_angular, bench.angular.partition, budget),
    }
    grid = bench.cfg.distance_grid  # 16.3 m to 390.2 m
    for d_idx in range(0, len(grid), 3):
        obs = observe(bench.pilot, bench.draw_channel(grid[d_idx], d_idx, 0, 0), snr_db, d_idx)
        for name, (mm, partition, blocks) in cases.items():
            support = bsomp(mm, obs, RecoveryConfig(blocks, 0.0, partition), si).support_blocks
            reference = block_somp_reference(mm.entries, obs.per_subcarrier.T, partition, blocks)
            if decay_floor is None:
                assert list(support) == reference, (name, grid[d_idx])
            else:  # the decay rule ends the same sequence early
                assert support and list(support) == reference[: len(support)], (name, grid[d_idx])


@pytest.mark.parametrize("num_rf_chains", [4, 16])
@pytest.mark.parametrize("domain", ["angular", "polar"])
def test_reference_precoder_matches_float64(bench, domain, num_rf_chains):
    dictionary = bench.angular if domain == "angular" else bench.polar
    rx_array = ArrayConfig(4, bench.cfg.array.carrier_freq)
    n_t = bench.cfg.array.num_antennas
    for seed in range(4):
        rng = np.random.default_rng(seed)
        distance = (16.3, 60.0, 130.0, 390.0)[seed]
        paths = [
            PathParam(float(rng.uniform(-0.866, 0.866)), distance * float(rng.uniform(0.9, 1.1)),
                      complex(rng.standard_normal(), rng.standard_normal()))
            for _ in range(6)
        ]
        channel = MatrixChannel(synthesize_matrix_channel(bench.cfg.array, rx_array, paths, rng.uniform(-1, 1, 6)))
        f_opt = optimal_precoder(channel, 2)

        pair = block_sparse_precoding(f_opt, dictionary, num_rf_chains)

        _, _, basis, coef, _ = greedy_blocks_reference(
            dictionary.atoms, f_opt, dictionary.partition, dictionary.partition.num_blocks, 1e-10,
            column_map=lambda c: np.exp(1j * np.angle(c)) / np.sqrt(n_t), max_columns=num_rf_chains,
        )
        assert np.array_equal(pair.f_rf, basis)
        np.testing.assert_allclose(pair.f_bb, coef * np.sqrt(2) / np.linalg.norm(basis @ coef), rtol=1e-8)


def _duplicate_instance(seed, scale):
    """Blocks of lengths [2, 1, 1, 1]; block 3 holds column 2 (block 1) times
    ``scale``, and the target leans on that column."""
    rng = np.random.default_rng(seed)
    columns = rng.standard_normal((10, 5)) + 1j * rng.standard_normal((10, 5))
    columns[:, 4] = columns[:, 2] * scale
    target = columns[:, 2:3] + 0.3 * (rng.standard_normal((10, 1)) + 1j * rng.standard_normal((10, 1)))
    return columns, target, BlockPartition([2, 1, 1, 1])


@pytest.mark.parametrize("scale", [1.0 + 5e-10, 1.0 - 5e-10])
def test_near_tie_below_single_precision_follows_float64(scale):
    for seed in range(40):
        columns, target, partition = _duplicate_instance(seed, scale)
        selected = _greedy_blocks(columns, target[None], partition, 4, 0.0)[0][0]
        assert selected == greedy_blocks_reference(columns, target, partition, 4, 0.0)[0]
        if selected[0] != 0:  # the copies' exact scores differ by about 1e-9
            assert selected[0] == (3 if scale > 1.0 else 1)


@pytest.mark.parametrize("reversed_block", [False, True])
def test_exact_copies_tie_to_the_lowest_block(reversed_block):
    for seed in range(300):
        if reversed_block:
            # block 3 holds block 1's columns in reverse order: the same exact
            # score, summed in another order
            rng = np.random.default_rng(seed)
            columns = rng.standard_normal((10, 12)) + 1j * rng.standard_normal((10, 12))
            columns[:, 9:] = columns[:, 5:2:-1]
            target = columns[:, 3:6] @ (rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))
            target += 0.3 * (rng.standard_normal((10, 2)) + 1j * rng.standard_normal((10, 2)))
            partition = BlockPartition.uniform(12, 3)
        else:
            columns, target, partition = _duplicate_instance(seed, 1.0)
        selected = _greedy_blocks(columns, target[None], partition, 4, 0.0)[0][0]
        assert selected.index(1) < selected.index(3), seed
