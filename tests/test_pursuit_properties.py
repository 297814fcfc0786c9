"""Properties of the greedy block pursuit that bsomp and the hybrid precoder
share, checked through both public callers on random shapes and random,
possibly unequal, block lengths."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bdcs import (
    BlockPartition,
    Observation,
    PrecoderPair,
    RecoveryConfig,
    SideInformation,
    block_sparse_precoding,
    bsomp,
    make_pilot_matrix,
    measurement_matrix,
)
from helpers import random_dictionary

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
    partition = BlockPartition.from_lengths(lengths)
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
    partition = BlockPartition.from_lengths(lengths)
    # enough chains that a block which does not fit leaves at least n_s columns
    num_rf_chains = n_s + max(lengths) - 1 + extra_chains
    assume(num_rf_chains <= n_t and n_s <= partition.size)
    uniform = partition.uniform_length
    assume(uniform is None or num_rf_chains % uniform == 0)
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
