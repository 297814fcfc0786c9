"""Properties of the greedy block pursuit that bsomp and the hybrid precoder
share, checked through both public callers on random shapes and random,
possibly unequal, block lengths, and against a least-squares-refit oracle of
the kernel itself; and of reconstruct, which bsomp uses for its channel
estimates."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bdcs import (
    BlockPartition,
    Observation,
    PrecoderPair,
    RecoveryConfig,
    RecoveryResult,
    SideInformation,
    block_sparse_precoding,
    bsomp,
    make_pilot_matrix,
    measurement_matrix,
    reconstruct,
)
from bdcs.recovery import _greedy_blocks
from helpers import block_somp_reference, greedy_blocks_reference, random_dictionary

block_lengths = st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=8)


@pytest.mark.filterwarnings("ignore:selected support may exceed")
@settings(max_examples=60, deadline=None)
@given(
    lengths=block_lengths,
    q=st.integers(min_value=2, max_value=12),
    k=st.integers(min_value=1, max_value=3),
    max_blocks=st.integers(min_value=1, max_value=6),
    decay_floor=st.one_of(st.none(), st.floats(min_value=0.01, max_value=1.0)),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_bsomp_residual_falls_and_support_is_disjoint(lengths, q, k, max_blocks, decay_floor, seed):
    rng = np.random.default_rng(seed)
    partition = BlockPartition(lengths)
    dictionary = random_dictionary(rng, 16, partition.size, 1)
    mm = measurement_matrix(make_pilot_matrix(q, 16, seed), dictionary)
    y = rng.standard_normal((k, q)) + 1j * rng.standard_normal((k, q))
    si = SideInformation(decay_floor=decay_floor) if decay_floor is not None else None

    result = bsomp(mm, Observation(y, 0.0, np.inf), RecoveryConfig(max_blocks, 0.0, partition), si)

    history = result.residual_history
    assert history[0] == 1.0
    assert all(b <= a + 1e-10 for a, b in zip(history, history[1:]))
    support = result.support_blocks
    assert len(history) == len(support) + 1
    assert len(set(support)) == len(support) <= min(max_blocks, partition.num_blocks)
    assert all(0 <= b < partition.num_blocks for b in support)
    chosen = np.zeros(partition.size, dtype=bool)
    for b in support:
        chosen[partition.block_slice(b)] = True
    assert not np.any(result.coefficients[:, ~chosen])


@settings(max_examples=60, deadline=None)
@given(
    lengths=block_lengths,
    n_t=st.integers(min_value=4, max_value=12),
    n_s=st.integers(min_value=1, max_value=2),
    extra_chains=st.integers(min_value=0, max_value=8),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_hybrid_precoder_respects_the_chain_budget(lengths, n_t, n_s, extra_chains, seed):
    partition = BlockPartition(lengths)
    # blocks too wide for the chains left are skipped, so n_s single columns suffice
    assume(lengths.count(1) >= n_s)
    num_rf_chains = n_s + extra_chains
    assume(num_rf_chains <= n_t)
    rng = np.random.default_rng(seed)
    dictionary = random_dictionary(rng, n_t, partition.size, 1)
    f_opt, _ = np.linalg.qr(rng.standard_normal((n_t, n_s)) + 1j * rng.standard_normal((n_t, n_s)))
    cfg = RecoveryConfig(partition.num_blocks, 1e-10, partition)

    pair = block_sparse_precoding(f_opt, dictionary, num_rf_chains, cfg)

    assert isinstance(pair, PrecoderPair)
    assert n_s <= pair.num_chains <= num_rf_chains
    assert pair.num_streams == n_s
    assert np.allclose(np.abs(pair.f_rf), 1.0 / np.sqrt(n_t), atol=1e-12)
    assert abs(np.linalg.norm(pair.combined) ** 2 - n_s) < 1e-8


@settings(max_examples=40, deadline=None)
@given(
    lengths=block_lengths,
    k=st.integers(min_value=1, max_value=3),
    max_blocks=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_bsomp_support_matches_reference_loop(lengths, k, max_blocks, seed):
    rng = np.random.default_rng(seed)
    partition = BlockPartition(lengths)
    dictionary = random_dictionary(rng, 32, partition.size, 1)
    mm = measurement_matrix(make_pilot_matrix(24, 32, seed), dictionary)
    y = rng.standard_normal((k, 24)) + 1j * rng.standard_normal((k, 24))

    result = bsomp(mm, Observation(y, 0.0, np.inf), RecoveryConfig(max_blocks, 0.0, partition))

    assert list(result.support_blocks) == block_somp_reference(mm.entries, y.T, partition, max_blocks)


@settings(max_examples=60, deadline=None)
@given(
    lengths=block_lengths,
    k=st.integers(min_value=1, max_value=3),
    max_blocks=st.integers(min_value=1, max_value=4),
    exponent=st.floats(min_value=-150.0, max_value=150.0),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_bsomp_is_scale_equivariant(lengths, k, max_blocks, exponent, seed):
    rng = np.random.default_rng(seed)
    partition = BlockPartition(lengths)
    dictionary = random_dictionary(rng, 32, partition.size, 1)
    mm = measurement_matrix(make_pilot_matrix(24, 32, seed), dictionary)
    y = rng.standard_normal((k, 24)) + 1j * rng.standard_normal((k, 24))
    c = 10.0**exponent
    cfg = RecoveryConfig(max_blocks, 0.0, partition)

    base = bsomp(mm, Observation(y, 0.0, np.inf), cfg)
    scaled = bsomp(mm, Observation(c * y, 0.0, np.inf), cfg)

    assert scaled.support_blocks == base.support_blocks
    assert np.linalg.norm(scaled.coefficients / c - base.coefficients) <= 1e-10 * np.linalg.norm(base.coefficients)


@settings(max_examples=200, deadline=None)
@given(
    lengths=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=8),
    m=st.integers(min_value=2, max_value=12),
    s=st.integers(min_value=1, max_value=4),
    max_blocks=st.integers(min_value=1, max_value=6),
    tolerance=st.sampled_from([0.0, 1e-6, 0.3]),
    weighted=st.booleans(),
    decay_floor=st.one_of(st.none(), st.floats(min_value=0.01, max_value=1.0)),
    phase_map=st.booleans(),
    max_columns=st.one_of(st.none(), st.integers(min_value=1, max_value=10)),
    duplicate=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_kernel_matches_lstsq_refit_reference(
    lengths, m, s, max_blocks, tolerance, weighted, decay_floor, phase_map, max_columns, duplicate, seed
):
    partition = BlockPartition(lengths)
    widest = sum(sorted(lengths)[-max_blocks:])
    # once the residual is zero to rounding (M rows spanned), block scores are
    # rounding noise and no two implementations need agree on the next block
    assume(tolerance > 0 or m >= widest)
    rng = np.random.default_rng(seed)
    g = partition.size
    columns = rng.standard_normal((m, g)) + 1j * rng.standard_normal((m, g))
    if duplicate:
        assume(g >= 2)
        i, j = rng.choice(g, size=2, replace=False)
        columns[:, j] = columns[:, i]
        # two one-column blocks holding the copies tie exactly, and BLAS need
        # not round both copies' correlations alike, so neither loop can
        # promise the lowest index
        owners = np.searchsorted(partition.starts, [i, j], side="right") - 1
        assume(max(partition.lengths[owners]) > 1)
    target = rng.standard_normal((m, s)) + 1j * rng.standard_normal((m, s))
    kwargs = dict(
        weights=rng.uniform(0.5, 2.0, partition.num_blocks) if weighted else None,
        decay_floor=decay_floor,
        column_map=(lambda c: np.exp(1j * np.angle(c)) / np.sqrt(m)) if phase_map else None,
        max_columns=max_columns,
    )

    sel, cols, coef, history = _greedy_blocks(columns, target, partition, max_blocks, tolerance, **kwargs)
    basis = columns[:, cols] if kwargs["column_map"] is None else kwargs["column_map"](columns[:, cols])
    ref_sel, ref_cols, ref_basis, ref_coef, ref_history = greedy_blocks_reference(
        columns, target, partition, max_blocks, tolerance, **kwargs
    )

    assert sel == ref_sel and cols == ref_cols
    assert np.array_equal(basis, ref_basis)
    assert coef.shape == ref_coef.shape
    assert np.linalg.norm(coef - ref_coef) <= 1e-8 * max(np.linalg.norm(ref_coef), 1e-300)
    np.testing.assert_allclose(history, ref_history, rtol=0, atol=1e-8)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    g=st.integers(min_value=1, max_value=40),
    k=st.integers(min_value=1, max_value=4),
    density=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_reconstruct_matches_dense_product(n, g, k, density, seed):
    rng = np.random.default_rng(seed)
    dictionary = random_dictionary(rng, n, g, 1)
    coef = rng.standard_normal((k, g)) + 1j * rng.standard_normal((k, g))
    coef[rng.random((k, g)) >= density] = 0.0

    out = reconstruct(dictionary, RecoveryResult((), coef, None, (1.0,)))

    # unit-norm atoms bound each entry's rounding error by about g ulps of sum |coef|
    np.testing.assert_allclose(out, coef @ dictionary.atoms.T, rtol=1e-12, atol=1e-12 * np.abs(coef).sum())
    if density == 0.0:
        assert out.shape == (k, n) and not out.any()
