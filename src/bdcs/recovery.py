"""Greedy block-sparse recovery.

bsomp() selects whole dictionary blocks by correlating all subcarrier
residuals at once (joint scoring), optionally biased toward a previously
known support (temporal weighting) and stopped early when a newly selected
block carries almost no energy (decay stopping). Its greedy loop,
_greedy_blocks(), is shared with the block-sparse hybrid precoder. The loop
never refits the whole support: it keeps an orthonormal basis of the
accepted columns, updates the residual and the correlation by projection
onto each block's new directions, and takes the coefficients from a small
upper-trapezoidal system; they are the minimum-norm least-squares fit over
the accepted support. Blocks are scored in single precision with a running
bound on the rounding error, and only the few blocks that bound cannot
separate from the best are rescored in float64, so the selection, and with
it every float64 coefficient and residual, is that of float64 scores; exact
scores within a relative 1e-12 tie to the lowest block index. The loop also
stops at a relative residual of 1e-12, where scores are rounding noise.
bsomp_batch() runs the pursuits of several observations over one measurement
matrix in lockstep: their float64 state is one stack of arrays, so each
greedy step is a fixed number of array operations for all of them, with one
correlation product, and each gets the result it would get alone; bsomp()
is its batch of one. The observations of a batch share the block budget and
partition, and each may have its own residual tolerance. Each result is
stored on its observation, so a repeated pursuit returns it without running
again. A least-squares baseline and the NMSE metric live here as well.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Optional, Sequence

import numpy as np

from .dictionaries import BlockPartition, Dictionary, _single_precision
from .errors import ConfigurationError
from .sensing import MeasurementMatrix, Observation, PilotMatrix

NMSE_FLOOR_DB = -300.0
"""Lower clamp returned by nmse() for numerically exact reconstructions."""


@dataclass(frozen=True)
class SideInformation:
    """Support priors carried between recovery runs.

    previous_support biases block selection through the multiplicative weight
    1 + temporal_gain * exp(-dist/temporal_width), dist being the minimal
    block-index distance to the previous support, whose entries are
    non-negative integer block indices (each below the block count of the
    partition a pursuit uses). decay_floor (in (0, 1]) stops the greedy loop
    once a new block's energy falls below decay_floor times the first
    block's energy; None disables the rule.
    """

    previous_support: tuple = ()
    temporal_gain: float = 0.0
    temporal_width: float = 1.0
    decay_floor: Optional[float] = None

    def __post_init__(self):
        if not (np.isfinite(self.temporal_gain) and self.temporal_gain >= 0):
            raise ValueError("temporal_gain must be finite and non-negative")
        if not self.temporal_width > 0:  # also rejects nan
            raise ValueError("temporal_width must be positive")
        if self.decay_floor is not None and not (0.0 < self.decay_floor <= 1.0):
            raise ValueError("decay_floor must lie in (0, 1] or be None")
        support = tuple(self.previous_support)
        if not all(isinstance(b, (int, np.integer)) and not isinstance(b, bool) and b >= 0 for b in support):
            raise ValueError("previous_support must hold non-negative integer block indices")
        object.__setattr__(self, "previous_support", support)


@dataclass(frozen=True)
class RecoveryConfig:
    """Greedy loop controls: block budget, relative-residual stop, and an
    optional partition override (defaults to the dictionary's own)."""

    max_blocks: int
    residual_tolerance: float = 0.0
    partition: Optional[BlockPartition] = None

    def __post_init__(self):
        blocks = self.max_blocks
        if isinstance(blocks, bool) or not isinstance(blocks, (int, np.integer)) or blocks < 1:
            raise ValueError("max_blocks must be an integer of at least 1")
        if not self.residual_tolerance >= 0:  # also rejects nan
            raise ValueError("residual_tolerance must be non-negative")


@dataclass(frozen=True, eq=False)
class RecoveryResult:
    """Support blocks in selection order, dictionary-frame coefficients (K, G),
    reconstructed channels (K, N), and the relative residual trajectory."""

    support_blocks: tuple
    coefficients: np.ndarray
    reconstructed_channels: np.ndarray
    residual_history: tuple
    domain: Optional[str] = None

    @property
    def final_residual(self) -> float:
        return self.residual_history[-1]


def ls_estimate(pilot: PilotMatrix, obs: Observation) -> np.ndarray:
    """Minimum-norm least-squares channel estimate, shape (K, N).

    Uses the pilot's cached pseudo-inverse, so the SVD runs once per pilot;
    the result is bit-identical to pinv(P) @ y per subcarrier. The
    observation must have one sample per pilot.
    """
    if obs.per_subcarrier.shape[1] != pilot.pilot_count:
        raise ValueError("observation sample count must equal the pilot count")
    return (pilot.pseudo_inverse @ obs.per_subcarrier.T).T


def _temporal_weights(num_blocks: int, si: Optional[SideInformation]) -> Optional[np.ndarray]:
    """BD-SI block weights, or None when ``si`` leaves every weight at 1. A
    previous block at or beyond ``num_blocks`` is refused."""
    support = () if si is None else si.previous_support
    if any(b >= num_blocks for b in support):
        raise ValueError(f"previous_support indices must be below the block count {num_blocks}")
    if not support or si.temporal_gain == 0:
        return None
    prev = np.asarray(support, dtype=float)
    dist = np.abs(np.arange(num_blocks)[:, None] - prev[None, :]).min(axis=1)
    return 1.0 + si.temporal_gain * np.exp(-dist / si.temporal_width)


_DEPENDENT = 1e-10
"""A column whose component orthogonal to the accepted basis is at most this
fraction of its norm adds no direction to the basis."""

_NOISE_FLOOR = 1e-12
"""Relative residual at or below which the greedy loop stops whatever its
tolerance: the target is fitted to rounding and block scores are noise."""

_TIE = 1e-12
"""Exact block scores within this fraction of the best tie; the lowest block
index wins."""

_U = 2.0 ** -24
"""Unit roundoff of complex64, the precision of the block screen."""


def _dot_error(n: int) -> float:
    """Bound on |fl(x^H y) - x^H y| / (||x|| ||y||) for float64 vectors of
    length n rounded to complex64 and multiplied there: sqrt(2) gamma_(n+2)
    for the product and u per rounded factor, doubled, which also covers the
    float64 rounding of the residual and of the exact scores."""
    return 2.0 * (n + 4) * _U


def _support_coefficients(p: SimpleNamespace, i: int, slots: int) -> np.ndarray:
    """Minimum-norm solution of T c = Q^H target for pursuit ``i`` of the
    stack ``p`` over its first ``slots`` slots, rows restricted to the
    directions and columns to the support columns that exist: the
    minimum-norm least-squares fit of the target over its support."""
    rows, cols = p.filled[i, :slots], p.real[i, :slots]
    t, qy = p.t[i, :slots, :slots][rows][:, cols], p.qy[i, :slots][rows]
    if t.shape[0] == t.shape[1]:
        return np.linalg.solve(t, qy)
    return np.linalg.lstsq(t, qy, rcond=None)[0]


def _sq_norms(x: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each x[i], summed in the same order whatever
    the number of rows, so a pursuit's float64 state does not depend on its
    batch."""
    x = x.reshape(len(x), 1, -1)
    x = x.view(x.real.dtype)
    return (x @ x.transpose(0, 2, 1))[:, 0, 0]


def _screen_product(rows: np.ndarray, screen: np.ndarray) -> np.ndarray:
    """rows @ screen in complex64. OpenBLAS packs the whole screen for every
    GEMM, which costs more than a GEMV per row when there are one or two rows."""
    return np.matmul(rows[:, None], screen)[:, 0] if len(rows) <= 2 else rows @ screen


def _greedy_blocks(
    columns: np.ndarray, targets: np.ndarray, partition: BlockPartition, max_blocks: int,
    tolerance: float | np.ndarray, weights: Optional[np.ndarray] = None, decay_floor: Optional[float] = None,
    column_map: Optional[Callable] = None, max_columns: Optional[int] = None,
    screen: Optional[np.ndarray] = None,
) -> list:
    """Greedy block pursuit of each target of ``targets`` (B, M, S) over the
    blocks of ``columns`` (M, G), the B pursuits run in lockstep.

    Per iteration block b scores ||R^H columns_b||_F^2 (times weights[b]) on
    the residual R, and the best unselected block (exact scores within a
    relative 1e-12 of the best tie to the lowest index) has its columns,
    through ``column_map`` when given, appended to the basis. With
    ``max_columns`` set, a block wider than the columns left is not a
    candidate.

    Blocks are screened in single precision: C = R^H columns / (||target||
    c_max), c_max the largest column norm, is kept in complex64 against
    ``screen``, the columns over c_max in complex64 (``_single_precision``,
    made here when not given). A running bound e on every |C^ - C| starts
    at _dot_error(M) and grows with each update by the norms of its
    factors, so block b's screened score is within L_b (2 e sqrt(S) ||R|| +
    S e^2), plus the rounding of its float32 squares and sums, of the exact
    one (both times weights[b]). Blocks whose upper bound reaches the best
    lower bound, less the tie width, are candidates; a lone candidate is
    selected, otherwise the candidates' float64 scores, over their columns
    only, decide. So the selection is that of float64 scores, and the
    float64 residual, basis and coefficients are those of a float64 loop.

    The basis is held as Q T: Q has orthonormal columns, T holds each
    support column's coefficients on them, and Q^H target is kept beside
    them. Each new column is orthogonalised against Q by classical
    Gram-Schmidt with one re-orthogonalisation; a column with (almost) no
    component outside Q adds no direction, so supports wider than M stay
    exact. The new directions U update the residual R <- R - U (U^H target)
    and the correlation by (U^H target)^H (U^H columns); that update runs
    only once another block is known to be admissible. The coefficients,
    the minimum-norm least-squares fit over the basis, solve T c = Q^H
    target; they are solved for the decay rule and once at the end.

    Lockstep: every running pursuit has made the same number k of
    selections, so the state of all is one stack of arrays, a row per
    pursuit, and the L columns of the k-th block (L the widest block) and
    their directions sit in the slots kL to kL + L - 1 of Q, Q^H, T and
    Q^H target, a missing column or direction holding zeros; the residual,
    the history, the selections, e, the stop flags and the residual
    tolerances are rows too, so one batch may mix tolerances. Each
    step is a fixed number of array operations whatever B is: the update
    rows of every pursuit meet the screen in one complex64 product and the
    stack in one broadcast, one einsum and one bincount score every block
    of every pursuit, the candidate columns of every close call meet the
    residuals of all close calls in one float64 product, each column
    keeping its own row's, Gram-Schmidt runs as batched products over the
    slots so far once per column position of the widest selected block,
    and the residual and history of all are updated at once. Only the decay
    rule's trial solves and the final solves loop over the pursuits
    concerned. A pursuit that stops leaves the stack. Every float64
    operation on the basis, the residual and the coefficients acts on each
    row alone with shapes set by the call and the step, and the bound e
    holds for any summation order of the complex64 products, so each
    pursuit selects, and returns, exactly what it would alone; the
    rescoring product's shape depends on the batch, so a close call's exact
    scores may round otherwise in another batch, which could change a
    selection only for a score within rounding of the tie width. The price
    is memory: T has (L min(K, max_columns))^2 entries per pursuit, K the
    block budget.

    A pursuit stops at min(max_blocks, block count) blocks, a relative
    residual at or below its ``tolerance`` (one for all targets, or a (B,)
    array with one per target) or 1e-12, a zero target, or when no
    unselected block fits ``max_columns``; the candidate is discarded and
    the pursuit ends when its coefficient energy falls below
    ``decay_floor`` times the first block's.

    Returns per target (selected blocks, their column indices, coefficients
    (C, S), relative residual history starting at 1.0).
    """
    n, m, s = targets.shape
    lengths, starts = partition.lengths, partition.starts
    num_blocks, g = partition.num_blocks, columns.shape[1]
    # every block has a column, so max_columns bounds the selections too
    budget = min(max_blocks, num_blocks, g if max_columns is None else max_columns)
    widest = int(lengths.max())
    slots = budget * widest  # step k's columns and directions sit in slots k*widest + j
    dtype = np.result_type(columns, targets)
    target = np.ascontiguousarray(targets, dtype=dtype)
    total = np.sqrt(_sq_norms(target))
    p = SimpleNamespace(  # the running pursuits, a row each; ids are their indices in targets
        ids=np.arange(n), target=target, residual=target, total=total,
        q=np.zeros((n, m, slots), dtype), qh=np.zeros((n, slots, m), dtype),
        t=np.zeros((n, slots, slots), dtype), qy=np.zeros((n, slots, s), dtype),
        real=np.zeros((n, slots), dtype=bool), filled=np.zeros((n, slots), dtype=bool),
        history=np.ones((n, budget + 1)), selected=np.zeros((n, budget), dtype=np.intp),
        stop=np.maximum(np.broadcast_to(tolerance, (n,)), _NOISE_FLOOR),  # relative-residual stops
        used=np.zeros(n, dtype=np.intp), err=np.full(n, _dot_error(m)),
        halted=total == 0.0,  # a zero target, or the decay rule discarded the last block
        excluded=np.zeros((n, num_blocks), dtype=bool),  # blocks that are not candidates
        corr=None,
    )
    results = [None] * n
    # the score index of each column score: block b of target i is i * num_blocks + b
    owners = np.arange(n * num_blocks)
    owners = np.repeat(owners, lengths[owners % num_blocks])
    # relative, of the float32 squares, their sums over S and each column's sum of the two
    score_rounding = 2.0 * _U * (s + 2)
    spans, ends, position = lengths.astype(float), starts + lengths, np.arange(widest)
    for k in range(budget + 1):  # k: the selections of every running pursuit
        last = p.history[:, k]
        running = ~p.halted & (last > p.stop) & (k < budget)
        if max_columns is not None:
            p.excluded |= lengths > (max_columns - p.used)[:, None]
            running &= ~p.excluded.all(axis=1)
        stopped = np.flatnonzero(~running)
        for i in stopped:
            done = max(k - p.halted[i], 0)  # a halted pursuit discarded its k-th block
            chosen = p.selected[i, :done].tolist()
            cols = [c for b in chosen for c in range(starts[b], ends[b])]
            solution = _support_coefficients(p, i, done * widest)
            results[p.ids[i]] = (chosen, cols, solution, p.history[i, :done + 1].tolist())
        if len(stopped) == len(running):
            break
        if len(stopped):
            p = SimpleNamespace(**{name: v if v is None else v[running] for name, v in vars(p).items()})
            last = last[running]
        live = np.arange(len(p.ids))

        if p.corr is None:
            screen = _single_precision(columns) if screen is None else screen
            rows = (p.target.conj().transpose(0, 2, 1) / p.total[:, None, None]).astype(np.complex64)
            p.corr = _screen_product(rows.reshape(-1, m), screen).reshape(len(live), s, -1)  # (B, S, G)
        elif p.filled[:, previous].any():
            # corr -= w^H (U^H screen), w = U^H target / ||target||; the rows of
            # missing directions are zero and not sent
            sent = p.filled[:, previous]
            new = np.count_nonzero(sent, axis=1)
            w = p.qy[:, previous] / p.total[:, None, None]
            part = np.zeros((len(live), widest, screen.shape[1]), dtype=np.complex64)
            part[sent] = _screen_product(p.qh[:, previous][sent].astype(np.complex64), screen)
            factor = w.conj().transpose(0, 2, 1).astype(np.complex64)
            p.corr -= factor * part if widest == 1 else factor @ part  # matmul is slow for an inner dimension of 1
            w_norm = np.sqrt(_sq_norms(w))  # bounds every column norm of w
            step = w_norm * (new ** 0.5 * _dot_error(m) + _dot_error(new))
            p.err = np.where(new > 0, (p.err + step) * (1.0 + _U) + _U * last, p.err)  # the subtraction rounds too
        flat = p.corr.view(np.float32)
        squares = np.einsum("bij,bij->bj", flat, flat)
        squares = squares[:, 0::2] + squares[:, 1::2]  # |C|^2 summed over S, per column
        score = np.bincount(owners[:squares.size], squares.ravel(), len(live) * num_blocks)
        score = score.reshape(len(live), num_blocks)
        bound = 2.0 * p.err * s ** 0.5 * last + s * p.err ** 2
        slack = spans * bound[:, None] + score_rounding * score
        if weights is not None:
            score, slack = score * weights, slack * weights
        np.copyto(score, -np.inf, where=p.excluded)  # so both bounds are -inf
        lower = score - slack
        near = score + slack >= lower.max(axis=1, keepdims=True) * (1.0 - _TIE)

        block = np.argmax(near, axis=1)
        count = np.count_nonzero(near, axis=1)
        close = np.flatnonzero(count > 1)
        if close.size:  # close calls: the candidates' float64 scores over their columns decide
            row, candidate = np.nonzero(near[close])
            count = count[close]
            size = lengths[candidate]
            first = np.cumsum(size) - size  # each candidate's first column in the lists below
            col = np.arange(first[-1] + size[-1]) + np.repeat(starts[candidate] - first, size)
            # (c^H R)^* of every candidate column against every close row's residual,
            # then of each column against its own row's; conjugating the residuals
            # spares a copy of the gathered columns
            exact = (columns.T[col] @ p.residual[close].conj())[np.repeat(row, size), np.arange(len(col))]
            exact = np.add.reduceat(np.sum(exact.real ** 2 + exact.imag ** 2, axis=1), first)
            if weights is not None:
                exact *= weights[candidate]
            head = np.cumsum(count) - count  # each close row's first candidate
            tied = exact >= np.repeat(np.maximum.reduceat(exact, head), count) * (1.0 - _TIE)
            pick = np.minimum.reduceat(np.where(tied, np.arange(len(row)), len(row)), head)  # the lowest
            block[close] = candidate[pick]

        # the selected blocks' columns by position, (B, L, M), zero past a block's end
        current = slice(k * widest, (k + 1) * widest)
        size = lengths[block]
        if column_map is None:
            index = starts[block, None] + position
            new_cols = columns.T[np.minimum(index, g - 1)] * (index < ends[block, None])[..., None]
        else:
            new_cols = np.zeros((len(live), widest, m), dtype)
            for i in live:
                new_cols[i, :size[i]] = column_map(columns[:, partition.block_slice(block[i])]).T
        floor = _DEPENDENT * np.sqrt(_sq_norms(new_cols.reshape(-1, m))).reshape(len(live), widest)
        q, qh = p.q[:, :, :current.stop], p.qh[:, :current.stop]  # views: the directions so far
        for j, slot in enumerate(range(current.start, current.start + int(size.max()))):
            a = new_cols[:, j, :, None]
            h = qh @ a
            v = a - q @ h
            h2 = qh @ v
            v -= q @ h2
            h += h2
            norm = np.sqrt((v.conj().transpose(0, 2, 1) @ v).real)  # (B, 1, 1)
            grown = norm > floor[:, j, None, None]
            v /= np.where(grown, norm, np.inf)  # a unit direction, or zero
            p.t[:, :current.stop, slot:slot + 1], p.t[:, slot, slot] = h, norm[:, 0, 0]
            p.q[:, :, slot:slot + 1], p.qh[:, slot:slot + 1] = v, v.conj().transpose(0, 2, 1)
            p.filled[:, slot] = grown[:, 0, 0]
        p.real[:, current] = position < size[:, None]
        p.qy[:, current] = p.qh[:, current] @ p.target

        if decay_floor is not None and k:
            for i in live:
                trial = _support_coefficients(p, i, (k + 1) * widest)
                first = trial[: lengths[p.selected[i, 0]]]
                latest = trial[p.used[i]:]
                energy_first = float(np.sum(first.real ** 2 + first.imag ** 2))
                # decaying-energy stop: the pursuit ends and discards its k-th block
                p.halted[i] = float(np.sum(latest.real ** 2 + latest.imag ** 2)) < decay_floor * energy_first
        p.residual = p.residual - p.q[:, :, current] @ p.qy[:, current]
        p.history[:, k + 1] = np.sqrt(_sq_norms(p.residual)) / p.total
        p.selected[:, k] = block
        p.excluded[live, block] = True
        p.used += size
        previous = current

    return results


def bsomp_batch(
    measurement: MeasurementMatrix,
    observations: Sequence[Observation],
    cfg: RecoveryConfig | Sequence[RecoveryConfig],
    si: Optional[SideInformation] = None,
) -> tuple[RecoveryResult, ...]:
    """Block simultaneous orthogonal matching pursuit of each observation,
    the pursuits over the shared measurement run in lockstep.

    Per iteration the score of block b is sum_k ||Phi_b^H r_k||^2 over the
    residuals of all K subcarriers; a single subcarrier reduces this to plain
    block OMP, and single-column blocks reduce it further to OMP. The argmax
    block (scores within a relative 1e-12 tie to the lowest index, already
    selected blocks excluded) is appended; the residual drops its projection
    onto the block's new orthonormal directions, which keeps the relative
    residual non-increasing, and the coefficients are the minimum-norm joint
    least-squares fit over the whole accumulated support. Stopping: block
    budget reached, relative residual at or below the observation's
    residual_tolerance or 1e-12, or the decay rule from ``si`` fires (the
    offending block is discarded). Blocks are scored through the
    measurement's cached ``single_precision`` copy, the correlations of all
    pursuits in one product per step (see ``_greedy_blocks``); each result
    is the one the observation would get alone. Every observation must have
    one sample per measurement row, and all must share one subcarrier count.

    ``cfg`` is one config for every observation, or one per observation.
    The configs may differ only in residual_tolerance, so one batch mixes
    tolerances; a count other than the observations', or configs differing
    in max_blocks or in partition (by identity, as the stored results are
    keyed), are refused with a ``ValueError``.

    Returns per observation a RecoveryResult with dictionary-frame
    coefficients (measurement column scales undone) and the reconstruction
    A @ x per subcarrier, both read-only. A result is deterministic in its
    inputs, so it is stored on its observation: an observation that already
    holds a result for the same measurement (by identity), an equal config
    and an equal ``si`` gets the stored object without a pursuit, and an
    observation listed under two configs gets one result for each.
    """
    configs = (cfg,) * len(observations) if isinstance(cfg, RecoveryConfig) else tuple(cfg)
    shared = {(c.max_blocks, c.partition) for c in configs}
    if len(configs) != len(observations) or len(shared) > 1:
        raise ValueError("bsomp_batch takes one recovery config, or one per observation, "
                         "all with the same max_blocks and partition")
    if not shared:
        return ()
    (max_blocks, partition), = shared
    partition = partition if partition is not None else measurement.dictionary.partition
    phi = measurement.entries
    if partition.size != phi.shape[1]:
        raise ConfigurationError("partition must cover the measurement columns")

    q = phi.shape[0]
    shapes = {obs.per_subcarrier.shape for obs in observations}
    if any(shape[1] != q for shape in shapes):
        raise ValueError("observation sample count must equal the measurement rows")
    if len(shapes) > 1:
        raise ValueError("observations must share one subcarrier count")
    max_len = int(partition.lengths.max())
    if max_blocks * max_len > q:
        warnings.warn(
            "selected support may exceed the pilot dimension; least squares "
            "will be underdetermined",
            stacklevel=2,
        )

    # each (observation, config) pair once, and only without a stored result
    todo = [(obs, c) for obs, c in dict.fromkeys(zip(observations, configs))
            if (measurement, c, si) not in obs._pursuits]
    if todo:
        # each target (Q, K) a transposed view, as a lone observation's
        targets = np.stack([obs.per_subcarrier for obs, _ in todo]).transpose(0, 2, 1)
        dictionary = measurement.dictionary
        runs = _greedy_blocks(
            phi, targets, partition, max_blocks, np.array([c.residual_tolerance for _, c in todo]),
            weights=_temporal_weights(partition.num_blocks, si),
            decay_floor=si.decay_floor if si is not None else None,
            screen=measurement.single_precision,
        )
        for (obs, c), (selected, cols, solution, history) in zip(todo, runs):
            coefficients = np.zeros((targets.shape[2], phi.shape[1]), dtype=np.complex128)
            coefficients[:, cols] = solution.T / measurement.column_scales[cols]
            coefficients.flags.writeable = False
            channels = _reconstruction(coefficients, dictionary.atoms, np.sort(np.asarray(cols, dtype=np.intp)))
            channels.flags.writeable = False
            obs._pursuits[measurement, c, si] = RecoveryResult(tuple(selected), coefficients, channels,
                                                               tuple(history), dictionary.domain)
    return tuple(obs._pursuits[measurement, c, si] for obs, c in zip(observations, configs))


def bsomp(
    measurement: MeasurementMatrix,
    obs: Observation,
    cfg: RecoveryConfig,
    si: Optional[SideInformation] = None,
) -> RecoveryResult:
    """Block simultaneous orthogonal matching pursuit of one observation:
    ``bsomp_batch`` of a batch of one. A repeated call with the same
    measurement (by identity), an equal ``cfg`` and an equal ``si`` returns
    the result stored on ``obs`` without running the pursuit."""
    return bsomp_batch(measurement, (obs,), cfg, si)[0]


def _reconstruction(coefficients: np.ndarray, atoms: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """coefficients @ atoms.T, given ascending column indices ``cols`` that
    hold every non-zero coefficient: only the columns of ``cols`` with a
    non-zero coefficient enter the product, in ascending order, so any such
    ``cols`` gives the same bytes."""
    cols = cols[np.any(coefficients[:, cols] != 0, axis=0)]
    return coefficients[:, cols] @ atoms[:, cols].T


def reconstruct(dictionary: Dictionary, result: RecoveryResult) -> np.ndarray:
    """Map dictionary-frame coefficients back to channel vectors, (K, N).

    Only the atoms with a non-zero coefficient enter the product, so the
    cost follows the support, not the dictionary width. The result can
    differ from the dense coefficients @ atoms.T by a few ulps.
    """
    if result.coefficients.shape[1] != dictionary.num_atoms:
        raise ValueError("coefficient length must equal the dictionary width")
    return _reconstruction(result.coefficients, dictionary.atoms, np.flatnonzero(result.coefficients.any(axis=0)))


def nmse(estimate: Sequence, truth: Sequence) -> float:
    """Normalized mean square error in dB, floored at NMSE_FLOOR_DB.

    10 log10( sum_k ||est_k - true_k||^2 / sum_k ||true_k||^2 ). A non-finite
    entry in either argument is refused, since its nan would poison any mean
    over instances.
    """
    est = np.asarray(estimate)
    ref = np.asarray(truth)
    if est.shape != ref.shape:
        raise ValueError("estimate and truth must have matching shapes")
    if not (np.isfinite(est).all() and np.isfinite(ref).all()):
        raise ValueError("estimate and truth must be finite")
    denom = float(np.sum(np.abs(ref) ** 2))
    if denom == 0.0:
        raise ValueError("truth must not be identically zero")
    num = float(np.sum(np.abs(est - ref) ** 2))
    if num == 0.0:
        return NMSE_FLOOR_DB
    return max(10.0 * np.log10(num / denom), NMSE_FLOOR_DB)
