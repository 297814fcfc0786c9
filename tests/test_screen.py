"""The greedy kernel screens blocks in single precision and confirms close
calls in double, so it must select exactly what float64 scores select: on the
reference preset against plain float64 references, at near ties below
complex64 resolution, and at exact ties, which go to the lowest block."""

import tracemalloc

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
from bdcs.dictionaries import _single_precision
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
            max_columns=num_rf_chains,
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
        selected = _greedy_blocks(columns, target[None], partition, 4, 0.0, screen=_single_precision(columns))[0][0]
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
        selected = _greedy_blocks(columns, target[None], partition, 4, 0.0, screen=_single_precision(columns))[0][0]
        assert selected.index(1) < selected.index(3), seed



@pytest.mark.parametrize("copy", ["exact", "reversed", "perturbed"])
def test_stacked_close_calls_are_decided_per_row(copy):
    # several targets over one column set, so one step rescores several close
    # rows with several candidates each; every row returns its lone result.
    # Exact copies (block 3 holds block 1's columns, or them reversed) tie to
    # the lowest block whatever the residual; a copy perturbed by 1e-8 is
    # below complex64 resolution, and which block float64 prefers depends
    # on each row's own residual
    for seed in range(100):
        rng = np.random.default_rng(seed)
        if copy == "reversed":
            columns = rng.standard_normal((10, 12)) + 1j * rng.standard_normal((10, 12))
            columns[:, 9:] = columns[:, 5:2:-1]
            lean, partition = columns[:, 3:6], BlockPartition.uniform(12, 3)
        else:
            columns = rng.standard_normal((10, 5)) + 1j * rng.standard_normal((10, 5))
            columns[:, 4] = columns[:, 2]
            if copy == "perturbed":
                columns[:, 4] += 1e-8 * (rng.standard_normal(10) + 1j * rng.standard_normal(10))
            lean, partition = columns[:, 2:3], BlockPartition([2, 1, 1, 1])
        mix = rng.standard_normal((4, lean.shape[1], 2)) + 1j * rng.standard_normal((4, lean.shape[1], 2))
        targets = lean @ mix + 0.3 * (rng.standard_normal((4, 10, 2)) + 1j * rng.standard_normal((4, 10, 2)))

        screen = _single_precision(columns)
        results = _greedy_blocks(columns, targets, partition, 4, 0.0, screen=screen)

        for target, (selected, cols, coefficients, history) in zip(targets, results):
            alone = _greedy_blocks(columns, target[None], partition, 4, 0.0, screen=screen)[0]
            assert (selected, cols, history) == (alone[0], alone[1], alone[3]), seed
            assert np.array_equal(coefficients, alone[2]), seed
            if copy == "perturbed":
                assert selected == greedy_blocks_reference(columns, target, partition, 4, 0.0)[0], seed
            else:
                assert selected.index(1) < selected.index(3), seed


def test_close_call_rescoring_grows_with_the_candidates_not_the_close_rows():
    # 16 targets, each two blocks plus a relative 1e-9 of noise: once both
    # are selected the residual is noise, the screen's bound cannot separate
    # any two blocks, and every block of every target is a candidate. Each
    # close row's candidate columns meet its own residual, so the kernel
    # gathers about one column set at a time; a product of every close
    # row's candidates with every close row's residual would gather 16 (8 MB)
    rng = np.random.default_rng(3)
    m, g, length, s, count = 64, 512, 4, 2, 16
    columns = rng.standard_normal((m, g)) + 1j * rng.standard_normal((m, g))
    columns /= np.linalg.norm(columns, axis=0)
    partition = BlockPartition.uniform(g, length)
    targets = np.empty((count, m, s), complex)
    for target in targets:
        blocks = rng.choice(g // length, 2, replace=False)
        cols = np.concatenate([partition.starts[b] + np.arange(length) for b in blocks])
        target[:] = columns[:, cols] @ (rng.standard_normal((len(cols), s)) + 1j * rng.standard_normal((len(cols), s)))
    targets += 1e-9 * (rng.standard_normal(targets.shape) + 1j * rng.standard_normal(targets.shape))
    screen = _single_precision(columns)

    tracemalloc.start()
    try:
        results = _greedy_blocks(columns, targets, partition, 4, 0.0, screen=screen)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    assert all(history[-1] < 1e-8 for _, _, _, history in results)
    assert peak < 8 * columns.nbytes  # 4 MB; half of what 16 gathered column sets take
