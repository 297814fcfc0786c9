"""The greedy kernel solves the support coefficients of many pursuits in one
stacked np.linalg.solve: each row's support columns move to the front in
slot order and the trailing slots hold the identity, which leaves LAPACK's
solution of the row's compact system unchanged bit for bit. Checked on
random stacks against the compact solve of every row, and by counting the
solves of decay-enabled batches on the polar partition. Under the decay
rule the final coefficients are those of a trial solve, checked against a
fresh solve of the same support at the stop of a pursuit without the
rule."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdcs import (
    ArrayConfig,
    Dictionary,
    Observation,
    RecoveryConfig,
    SideInformation,
    bsomp,
    bsomp_batch,
    build_polar_dictionary,
    make_pilot_matrix,
    measurement_matrix,
)
from bdcs.recovery import _support_coefficients


def _random_stack(rng, rows, blocks, widest, s):
    """A stack laid out as the kernel lays it out: block k in slots k*widest
    onwards, narrower blocks leaving gaps, a dependent column now and then
    (a support column without a direction), and trailing blocks dropped as
    the decay rule drops one (their slots keep T and Q^H target entries but
    hold no column or direction)."""
    slots = blocks * widest
    real = np.zeros((rows, slots), dtype=bool)
    filled = np.zeros((rows, slots), dtype=bool)
    t = np.zeros((rows, slots, slots), dtype=complex)
    qy = np.zeros((rows, slots, s), dtype=complex)
    for i in range(rows):
        kept = rng.integers(0, blocks + 1)
        for k in range(blocks):
            for slot in range(k * widest, k * widest + rng.integers(1, widest + 1)):
                real[i, slot] = True
                filled[i, slot] = rng.random() > 0.15
                above = rng.standard_normal(slot) + 1j * rng.standard_normal(slot)
                t[i, :slot, slot] = np.where(filled[i, :slot], above, 0)  # on the directions so far
                if filled[i, slot]:
                    t[i, slot, slot] = rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.random())
                    qy[i, slot] = rng.standard_normal(s) + 1j * rng.standard_normal(s)
                else:
                    t[i, slot, slot] = rng.choice([0.0, 1e-13])
        real[i, kept * widest:] = filled[i, kept * widest:] = False
    return SimpleNamespace(real=real, filled=filled, t=t, qy=qy)


@settings(max_examples=150, deadline=None)
@given(
    widest=st.integers(min_value=1, max_value=4),
    blocks=st.integers(min_value=1, max_value=16),
    rows=st.integers(min_value=1, max_value=6),
    s=st.sampled_from([1, 2, 4]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_each_stacked_solution_is_its_compact_solution(widest, blocks, rows, s, seed):
    rng = np.random.default_rng(seed)
    blocks = min(blocks, 64 // widest)
    p = _random_stack(rng, rows, blocks, widest, s)
    chosen = rng.choice(rows, size=rng.integers(1, rows + 1), replace=False)
    slots = widest * rng.integers(0, blocks + 1)

    x = _support_coefficients(p, chosen, slots)

    assert x.shape == (len(chosen), slots, s)
    for solution, i in zip(x, chosen):
        cols, directions = p.real[i, :slots], p.filled[i, :slots]
        t, qy = p.t[i, :slots, :slots][directions][:, cols], p.qy[i, :slots][directions]
        compact = np.linalg.solve(t, qy) if t.shape[0] == t.shape[1] else np.linalg.lstsq(t, qy, rcond=None)[0]
        assert np.array_equal(solution[cols], compact)
        assert not solution[~cols].any()


@pytest.fixture(scope="module")
def polar_with_copy():
    """The measurement of a polar dictionary (blocks of 1 to 4 columns) whose
    first block of two or more columns holds one atom twice, and that block."""
    polar = build_polar_dictionary(ArrayConfig(256, 30e9), block_length=4)
    atoms = np.array(polar.atoms)
    copied = int(np.flatnonzero(polar.partition.lengths >= 2)[0])
    start = polar.partition.starts[copied]
    atoms[:, start + 1] = atoms[:, start]
    dictionary = Dictionary(atoms, polar.angles, polar.distances, polar.partition, domain="polar")
    assert set(polar.partition.lengths) == {1, 2, 3, 4}
    return measurement_matrix(make_pilot_matrix(64, 256, 3), dictionary), copied


def _observations(mm, copied, count):
    """Targets of two or three blocks of falling strength plus weak noise, so
    the decay rule ends most pursuits early; every fourth leads with the
    block that holds the copied atom."""
    rng = np.random.default_rng(17)
    partition = mm.dictionary.partition
    observations = []
    for i in range(count):
        x = np.zeros((4, partition.size), dtype=complex)
        strongest = copied if i % 4 == 0 else int(rng.integers(partition.num_blocks))
        others = rng.choice(partition.num_blocks, size=int(rng.integers(1, 3)), replace=False)
        for gain, block in zip((3.0, 1.0, 0.3), (strongest, *others)):
            cols = partition.block_slice(int(block))
            width = cols.stop - cols.start
            x[:, cols] += gain * (rng.standard_normal((4, width)) + 1j * rng.standard_normal((4, width)))
        y = x @ mm.entries.T
        y = y + 0.01 * (rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape))
        observations.append(Observation(y, 1e-4, 30.0))
    return observations


@pytest.mark.parametrize("count", [1, 4, 16])
def test_one_solve_per_step_whatever_the_batch(monkeypatch, polar_with_copy, count):
    mm, copied = polar_with_copy
    cfg, si = RecoveryConfig(4, 0.0), SideInformation(decay_floor=0.05)
    observations = _observations(mm, copied, count)
    solves, lstsqs = [], []
    solve, lstsq = np.linalg.solve, np.linalg.lstsq

    def counted_solve(a, b):
        solves.append(a.shape)
        return solve(a, b)

    def counted_lstsq(a, b, rcond=None):
        lstsqs.append(a.shape)
        return lstsq(a, b, rcond=rcond)

    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
    results = bsomp_batch(mm, observations, cfg, si)
    monkeypatch.undo()

    # one trial solve per step after the first, and a final solve only at a
    # step where a pursuit stops whose support no trial solved: one of a
    # single block (a trial solves k + 1 blocks at step k >= 1, and a pursuit
    # the rule halts keeps the support of the trial before); with a tolerance
    # of 0, a pursuit that ends short of the budget was halted, a step after
    # its last kept block
    steps = [len(r.support_blocks) + (len(r.support_blocks) < cfg.max_blocks) for r in results]
    uncovered = {n for n, r in zip(steps, results) if len(r.support_blocks) < 2}
    assert len(solves) == max(steps) - 1 + len(uncovered)
    # lstsq solves only a support that holds both copies of the atom
    assert lstsqs and all(rows < cols for rows, cols in lstsqs)
    assert copied in results[0].support_blocks
    assert any(len(r.support_blocks) < 4 for r in results)  # the decay rule fired
    for obs, result in zip(observations, results):
        alone = bsomp(mm, Observation(obs.per_subcarrier, obs.noise_variance, obs.snr_db), cfg, si)
        assert alone.support_blocks == result.support_blocks
        assert np.array_equal(alone.coefficients, result.coefficients)
        assert alone.residual_history == result.residual_history


@pytest.mark.parametrize("count", [1, 4, 16])
def test_reused_trial_solutions_equal_fresh_solves(polar_with_copy, count):
    # under the decay rule a pursuit's final coefficients come from a trial
    # solve: its last for a budget stop, the one before for a halted pursuit;
    # without the rule and at a budget of its support size, the pursuit
    # selects the same blocks and solves that support afresh at its stop
    mm, copied = polar_with_copy
    observations = _observations(mm, copied, count)
    stops = set()
    for budget in (2, 4):
        results = bsomp_batch(mm, observations, RecoveryConfig(budget, 0.0), SideInformation(decay_floor=0.05))
        for obs, result in zip(observations, results):
            size = len(result.support_blocks)
            stops.add("budget" if size == budget else "halted" if size > 1 else "one block")
            alone = Observation(obs.per_subcarrier, obs.noise_variance, obs.snr_db)
            fresh = bsomp(mm, alone, RecoveryConfig(size))
            assert fresh.support_blocks == result.support_blocks
            assert fresh.residual_history == result.residual_history
            assert np.array_equal(fresh.support_columns, result.support_columns)
            assert np.array_equal(fresh.support_coefficients, result.support_coefficients)
    assert count < 16 or stops == {"budget", "halted", "one block"}
