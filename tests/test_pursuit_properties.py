"""Properties of the greedy block pursuit that bsomp and the hybrid precoder
share, checked through both public callers on random shapes and random,
possibly unequal, block lengths, and against a least-squares-refit oracle of
the kernel itself; that bsomp_batch, which runs the pursuits of a stack of
observations in lockstep, returns each observation's lone result, also when
the observations carry different residual tolerances, block budgets and
partitions, and, for a permuted stack, the permuted results; and of
reconstruct, whose rule bsomp shares for its channel estimates."""

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
    bsomp_batch,
    make_pilot_matrix,
    measurement_matrix,
    reconstruct,
)
from bdcs.dictionaries import _single_precision
from bdcs.recovery import _greedy_blocks
from helpers import block_somp_reference, count_kernel_runs, greedy_blocks_reference, random_dictionary

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
    dictionary = random_dictionary(rng, n_t, partition.size, 1, constant_modulus=True)
    f_opt, _ = np.linalg.qr(rng.standard_normal((n_t, n_s)) + 1j * rng.standard_normal((n_t, n_s)))
    cfg = RecoveryConfig(partition.num_blocks, 1e-10, partition)

    pair = block_sparse_precoding(f_opt, dictionary, num_rf_chains, cfg)

    assert isinstance(pair, PrecoderPair)
    assert n_s <= pair.num_chains <= num_rf_chains
    assert pair.num_streams == n_s
    assert np.allclose(np.abs(pair.f_rf), 1.0 / np.sqrt(n_t), atol=1e-12)
    assert abs(np.linalg.norm(pair.combined) ** 2 - n_s) < 1e-8
    # F_BB is the least-squares fit of F_OPT over F_RF, rescaled: each row
    # belongs to the F_RF column in its position
    fit = np.linalg.lstsq(pair.f_rf, f_opt, rcond=None)[0]
    fit *= np.sqrt(n_s) / np.linalg.norm(pair.f_rf @ fit)
    assert np.linalg.norm(pair.f_bb - fit) <= 1e-10 * np.linalg.norm(fit)


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
    max_columns=st.one_of(st.none(), st.integers(min_value=1, max_value=10)),
    duplicate=st.booleans(),
    stack=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_kernel_matches_lstsq_refit_reference(
    lengths, m, s, max_blocks, tolerance, weighted, decay_floor, max_columns, duplicate, stack, seed
):
    # a stack of targets runs in lockstep, max_columns included
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
    targets = rng.standard_normal((stack, m, s)) + 1j * rng.standard_normal((stack, m, s))
    kwargs = dict(
        weights=rng.uniform(0.5, 2.0, partition.num_blocks) if weighted else None,
        decay_floor=decay_floor,
        max_columns=max_columns,
    )

    results = _greedy_blocks(
        columns, targets, partition, max_blocks, tolerance, screen=_single_precision(columns), **kwargs
    )

    for target, (sel, cols, coef, history) in zip(targets, results):
        ref_sel, ref_cols, ref_basis, ref_coef, ref_history = greedy_blocks_reference(
            columns, target, partition, max_blocks, tolerance, **kwargs
        )
        assert sel == ref_sel and cols == ref_cols
        assert np.array_equal(columns[:, cols], ref_basis)
        assert coef.shape == ref_coef.shape
        assert np.linalg.norm(coef - ref_coef) <= 1e-8 * max(np.linalg.norm(ref_coef), 1e-300)
        np.testing.assert_allclose(history, ref_history, rtol=0, atol=1e-8)


def _target(rng, kind, mm, partition, k):
    """Observation samples (K, Q): random, all zero, or exactly sparse on one
    block, which the pursuit can fit to rounding and so stop early."""
    q = mm.entries.shape[0]
    if kind == "zero":
        return np.zeros((k, q), dtype=complex)
    if kind == "sparse":
        cols = mm.entries[:, partition.block_slice(int(rng.integers(partition.num_blocks)))]
        return (rng.standard_normal((k, cols.shape[1])) + 1j * rng.standard_normal((k, cols.shape[1]))) @ cols.T
    return rng.standard_normal((k, q)) + 1j * rng.standard_normal((k, q))


@pytest.mark.filterwarnings("ignore:selected support may exceed")
@settings(max_examples=80, deadline=None)
@given(
    lengths=block_lengths,
    uniform=st.booleans(),
    q=st.integers(min_value=2, max_value=12),
    k=st.integers(min_value=1, max_value=3),
    kinds=st.lists(st.sampled_from(["random", "zero", "sparse"]), min_size=1, max_size=5),
    max_blocks=st.integers(min_value=1, max_value=6),
    tolerance=st.sampled_from([0.0, 0.3]),
    decay_floor=st.one_of(st.none(), st.floats(min_value=0.01, max_value=1.0)),
    temporal_gain=st.sampled_from([0.0, 2.0]),
    stored=st.integers(min_value=-1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_batch_returns_each_batch_of_one_result(
    lengths, uniform, q, k, kinds, max_blocks, tolerance, decay_floor, temporal_gain, stored, seed
):
    if uniform:
        lengths = [lengths[0]] * len(lengths)
    partition = BlockPartition(lengths)
    rng = np.random.default_rng(seed)
    mm = measurement_matrix(make_pilot_matrix(q, 16, seed), random_dictionary(rng, 16, partition.size, 1))
    si = SideInformation((int(rng.integers(partition.num_blocks)),), temporal_gain, decay_floor=decay_floor)
    cfg = RecoveryConfig(max_blocks, tolerance, partition)
    observations = [Observation(_target(rng, kind, mm, partition, k), 0.0, np.inf) for kind in kinds]
    held = bsomp(mm, observations[stored], cfg, si) if stored in range(len(observations)) else None

    results = bsomp_batch(mm, observations, cfg, si)

    if held is not None:
        assert results[stored] is held
    for obs, result in zip(observations, results):
        alone = bsomp(mm, Observation(obs.per_subcarrier, obs.noise_variance, obs.snr_db), cfg, si)
        assert result.support_blocks == alone.support_blocks
        assert result.residual_history == alone.residual_history
        assert np.array_equal(result.coefficients, alone.coefficients)
        assert np.array_equal(result.reconstructed_channels, alone.reconstructed_channels)


@pytest.mark.filterwarnings("ignore:selected support may exceed")
@settings(max_examples=60, deadline=None)
@given(
    lengths=st.lists(st.integers(min_value=1, max_value=4), min_size=2, max_size=8),
    q=st.integers(min_value=4, max_value=12),
    k=st.integers(min_value=1, max_value=3),
    kinds=st.lists(st.sampled_from(["random", "zero", "sparse"]), min_size=2, max_size=6),
    max_blocks=st.integers(min_value=1, max_value=5),
    tolerance=st.sampled_from([0.0, 0.5]),
    decay_floor=st.one_of(st.none(), st.floats(min_value=0.05, max_value=0.9)),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_permuted_batch_returns_the_permuted_results(lengths, q, k, kinds, max_blocks, tolerance, decay_floor, seed):
    # pursuits that stop at different steps (zero target, tolerance, decay
    # rule, exact fit) leave the stack at different times; a row mixed up when
    # the stack shrinks would give some pursuit another's state
    partition = BlockPartition(lengths)
    rng = np.random.default_rng(seed)
    mm = measurement_matrix(make_pilot_matrix(q, 16, seed), random_dictionary(rng, 16, partition.size, 1))
    si = SideInformation(decay_floor=decay_floor) if decay_floor is not None else None
    cfg = RecoveryConfig(max_blocks, tolerance, partition)
    samples = [_target(rng, kind, mm, partition, k) for kind in kinds]
    order = rng.permutation(len(samples))

    results = bsomp_batch(mm, [Observation(y, 0.0, np.inf) for y in samples], cfg, si)
    permuted = bsomp_batch(mm, [Observation(samples[i], 0.0, np.inf) for i in order], cfg, si)

    for i, result in zip(order, permuted):
        assert result.support_blocks == results[i].support_blocks
        assert result.residual_history == results[i].residual_history
        assert np.array_equal(result.coefficients, results[i].coefficients)
        assert np.array_equal(result.reconstructed_channels, results[i].reconstructed_channels)


@pytest.mark.filterwarnings("ignore:selected support may exceed")
@settings(max_examples=80, deadline=None)
@given(
    lengths=block_lengths,
    q=st.integers(min_value=2, max_value=12),
    k=st.integers(min_value=1, max_value=3),
    # 1.0 stops every pursuit before its first selection
    entries=st.lists(
        st.tuples(st.sampled_from(["random", "zero", "sparse"]), st.sampled_from([0.0, 0.3, 0.7, 1.0])),
        min_size=1, max_size=6,
    ),
    max_blocks=st.integers(min_value=1, max_value=6),
    decay_floor=st.one_of(st.none(), st.floats(min_value=0.01, max_value=1.0)),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_batch_of_mixed_tolerances_returns_each_lone_result(lengths, q, k, entries, max_blocks, decay_floor, seed):
    # each observation carries its own residual tolerance, in a random order
    partition = BlockPartition(lengths)
    rng = np.random.default_rng(seed)
    mm = measurement_matrix(make_pilot_matrix(q, 16, seed), random_dictionary(rng, 16, partition.size, 1))
    si = SideInformation(decay_floor=decay_floor) if decay_floor is not None else None
    samples = [_target(rng, kind, mm, partition, k) for kind, _ in entries]
    configs = [RecoveryConfig(max_blocks, tolerance, partition) for _, tolerance in entries]
    order = rng.permutation(len(entries))

    results = bsomp_batch(mm, [Observation(samples[i], 0.0, np.inf) for i in order], [configs[i] for i in order], si)

    for i, result in zip(order, results):
        alone = bsomp(mm, Observation(samples[i], 0.0, np.inf), configs[i], si)
        assert result.support_blocks == alone.support_blocks
        assert result.residual_history == alone.residual_history
        assert np.array_equal(result.coefficients, alone.coefficients)
        assert np.array_equal(result.reconstructed_channels, alone.reconstructed_channels)
        assert np.array_equal(result.reconstructed_channels, reconstruct(mm.dictionary, result))
        if configs[i].residual_tolerance >= 1.0:
            assert result.support_blocks == () and result.residual_history == (1.0,)


@pytest.mark.filterwarnings("ignore:selected support may exceed")
@settings(max_examples=80, deadline=None)
@given(
    lengths=block_lengths,
    q=st.integers(min_value=2, max_value=12),
    k=st.integers(min_value=1, max_value=3),
    entries=st.lists(
        st.tuples(st.sampled_from(["random", "zero", "sparse"]), st.sampled_from([0.0, 0.3, 0.7, 1.0]),
                  st.sampled_from([0.0, 0.3, 0.7])),
        min_size=1, max_size=5,
    ),
    max_blocks=st.integers(min_value=1, max_value=4),
    decay_floor=st.one_of(st.none(), st.floats(min_value=0.01, max_value=1.0)),
    own=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_batch_of_mixed_budgets_and_partitions_returns_each_lone_result(
    lengths, q, k, entries, max_blocks, decay_floor, own, seed
):
    # each observation under the block partition at K blocks and the
    # single-atom partition at L*K, each with its own tolerance, and with
    # ``own`` also under the measurement's own partition left implicit, all
    # over one measurement in a random order: the pursuits share each
    # observation's first correlation, and none may change what another sees
    partition = BlockPartition(lengths)
    atoms = BlockPartition.uniform(partition.size, 1)
    rng = np.random.default_rng(seed)
    # the measurement's own partition: single atoms too, in another object
    mm = measurement_matrix(make_pilot_matrix(q, 16, seed), random_dictionary(rng, 16, partition.size, 1))
    si = SideInformation(decay_floor=decay_floor) if decay_floor is not None else None
    pairs = []
    for kind, block_tolerance, atom_tolerance in entries:
        obs = Observation(_target(rng, kind, mm, partition, k), 0.0, np.inf)
        pairs += [(obs, RecoveryConfig(max_blocks, block_tolerance, partition)),
                  (obs, RecoveryConfig(max_blocks * max(lengths), atom_tolerance, atoms))]
        if own:
            pairs.append((obs, RecoveryConfig(max_blocks, block_tolerance)))
    pairs = [pairs[i] for i in rng.permutation(len(pairs))]

    results = bsomp_batch(mm, [obs for obs, _ in pairs], [c for _, c in pairs], si)

    for (obs, c), result in zip(pairs, results):
        alone = bsomp(mm, Observation(obs.per_subcarrier, obs.noise_variance, obs.snr_db), c, si)
        assert result.support_blocks == alone.support_blocks
        assert result.residual_history == alone.residual_history
        assert np.array_equal(result.coefficients, alone.coefficients)
        assert np.array_equal(result.reconstructed_channels, alone.reconstructed_channels)


def test_an_observation_under_two_tolerances_gets_two_results(monkeypatch):
    rng = np.random.default_rng(5)
    partition = BlockPartition.uniform(48, 3)
    mm = measurement_matrix(make_pilot_matrix(24, 32, 5), random_dictionary(rng, 32, 48, 1))
    obs = Observation(rng.standard_normal((2, 24)) + 1j * rng.standard_normal((2, 24)), 0.0, np.inf)
    loose, tight = RecoveryConfig(4, 0.9, partition), RecoveryConfig(4, 0.0, partition)
    runs = count_kernel_runs(monkeypatch)

    first, second, again = bsomp_batch(mm, [obs, obs, obs], [loose, tight, loose])

    assert runs == [2]  # one target per (observation, config)
    assert again is first and first is not second
    assert len(first.support_blocks) < len(second.support_blocks) == 4
    assert bsomp(mm, obs, loose) is first and bsomp(mm, obs, tight) is second and runs == [2]


def test_fitted_pursuit_stops_while_its_batch_runs_on():
    rng = np.random.default_rng(3)
    partition = BlockPartition.uniform(48, 3)
    mm = measurement_matrix(make_pilot_matrix(24, 32, 3), random_dictionary(rng, 32, 48, 1))
    coefficients = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    sparse = Observation(coefficients @ mm.entries[:, partition.block_slice(5)].T, 0.0, np.inf)
    dense = Observation(rng.standard_normal((2, 24)) + 1j * rng.standard_normal((2, 24)), 0.0, np.inf)

    fitted, other = bsomp_batch(mm, [sparse, dense], RecoveryConfig(4, 0.0, partition))

    assert fitted.support_blocks == (5,) and fitted.final_residual <= 1e-12
    assert len(other.support_blocks) == 4


def test_batch_runs_the_kernel_once_over_the_observations_without_a_result(monkeypatch):
    rng = np.random.default_rng(4)
    mm = measurement_matrix(make_pilot_matrix(24, 32, 4), random_dictionary(rng, 32, 48, 3))
    held, fresh = (Observation(rng.standard_normal((2, 24)) + 0j, 0.0, np.inf) for _ in range(2))
    cfg = RecoveryConfig(3, 0.0)
    first = bsomp(mm, held, cfg)
    runs = count_kernel_runs(monkeypatch)

    results = bsomp_batch(mm, [held, fresh, fresh], cfg)

    assert runs == [1]
    assert results[0] is first and results[1] is results[2] is bsomp(mm, fresh, cfg)
    assert bsomp_batch(mm, [fresh, held], cfg) == (results[1], first) and runs == [1]


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

    cols = np.flatnonzero(coef.any(axis=0))
    out = reconstruct(dictionary, RecoveryResult((), cols, coef[:, cols], g, None, (1.0,)))

    # unit-norm atoms bound each entry's rounding error by about g ulps of sum |coef|
    np.testing.assert_allclose(out, coef @ dictionary.atoms.T, rtol=1e-12, atol=1e-12 * np.abs(coef).sum())
    if density == 0.0:
        assert out.shape == (k, n) and not out.any()
