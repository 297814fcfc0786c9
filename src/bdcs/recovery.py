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
correlation product and one stacked solve of the support coefficients for
the decay rule, whose solutions are also the final coefficients, and one for
the pursuits that stop on a support no trial solved, and each gets the
result it would get alone; bsomp() is its batch of one. Each observation of
a batch has its own config: the pursuits of one block budget and partition
run in lockstep, and all share each observation's first correlation
product. Each result holds its support columns and their coefficients,
not a dense (K, G) matrix, and is stored on its observation, so a repeated
pursuit returns it without running again. A least-squares baseline and the
NMSE metric live here as well.
"""

from __future__ import annotations

import warnings
from dataclasses import InitVar, dataclass
from types import SimpleNamespace
from typing import Optional, Sequence

import numpy as np

from .dictionaries import BlockPartition, Dictionary
from .errors import ConfigurationError
from .sensing import MeasurementMatrix, Observation, PilotMatrix

NMSE_FLOOR_DB = -300.0
"""Lower clamp returned by nmse() for numerically exact reconstructions."""


def _is_integer(value) -> bool:
    """The library's rule for a count or an index: an int or a numpy integer,
    not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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
        if not all(_is_integer(b) and b >= 0 for b in support):
            raise ValueError("previous_support must hold non-negative integer block indices")
        object.__setattr__(self, "previous_support", support)


@dataclass(frozen=True)
class RecoveryConfig:
    """Greedy loop controls: block budget, relative-residual stop, and an
    optional partition override (a BlockPartition; None: the dictionary's
    own)."""

    max_blocks: int
    residual_tolerance: float = 0.0
    partition: Optional[BlockPartition] = None

    def __post_init__(self):
        if not (_is_integer(self.max_blocks) and self.max_blocks >= 1):
            raise ValueError("max_blocks must be an integer of at least 1")
        if not self.residual_tolerance >= 0:  # also rejects nan
            raise ValueError("residual_tolerance must be non-negative")
        if not isinstance(self.partition, (BlockPartition, type(None))):
            raise ValueError(f"partition must be a BlockPartition or None, got {type(self.partition).__name__}")


@dataclass(frozen=True, eq=False)
class RecoveryResult:
    """A block-sparse estimate: support blocks in selection order, the
    ascending column indices of their atoms (C,), those columns'
    dictionary-frame coefficients (K, C), the dictionary width G,
    reconstructed channels (K, N), and the relative residual trajectory.

    ``coefficients`` is the (K, G) matrix of the estimate, the support
    coefficients in their columns and zeros elsewhere, built read-only on
    each access, so a stored result holds nothing as wide as the dictionary.
    A dense (K, G) matrix passed as ``coefficients`` (as
    ``dataclasses.replace(result, coefficients=...)`` does) replaces the
    support form: its non-zero columns become the support columns.
    """

    support_blocks: tuple
    support_columns: np.ndarray
    support_coefficients: np.ndarray
    num_atoms: int
    reconstructed_channels: np.ndarray
    residual_history: tuple
    domain: Optional[str] = None
    coefficients: InitVar[Optional[np.ndarray]] = None

    def __post_init__(self, coefficients):
        if coefficients is not None:
            coefficients = np.asarray(coefficients)
            cols = np.flatnonzero(coefficients.any(axis=0))
            object.__setattr__(self, "support_columns", cols)
            object.__setattr__(self, "support_coefficients", coefficients[:, cols])
            object.__setattr__(self, "num_atoms", coefficients.shape[1])

    @property
    def final_residual(self) -> float:
        return self.residual_history[-1]


def _dense_coefficients(result: RecoveryResult) -> np.ndarray:
    dense = np.zeros((len(result.support_coefficients), result.num_atoms), dtype=np.complex128)
    dense[:, result.support_columns] = result.support_coefficients
    dense.flags.writeable = False
    return dense


# set after the decorator, which takes the class attribute as the InitVar's default
RecoveryResult.coefficients = property(_dense_coefficients)


def ls_estimate(pilot: PilotMatrix, obs: Observation) -> np.ndarray:
    """Minimum-norm least-squares channel estimate, shape (K, N).

    Uses the pilot's cached pseudo-inverse, so the SVD runs once per pilot;
    the result is bit-identical to pinv(P) @ y per subcarrier. The
    observation must have one sample per pilot. The pseudo-inverse, and so
    the estimate, may differ in its last bits between BLAS thread counts.
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


def _support_coefficients(p: SimpleNamespace, rows: np.ndarray, slots: int) -> np.ndarray:
    """Minimum-norm solutions of T c = Q^H target for the pursuits ``rows``
    of the stack ``p`` over their first ``slots`` slots, rows of T
    restricted to the directions and columns to the support columns that
    exist: the minimum-norm least-squares fit of each target over its
    support. Returns (len(rows), slots, S), each coefficient in its
    column's slot and zeros in the other slots.

    All square systems are solved by one ``np.linalg.solve`` over a stack
    of (slots, slots) systems: a row's support columns move to the front in
    slot order (a row without a gap is taken as it lies), and the trailing
    slots hold the identity in T and zeros in Q^H target. LAPACK's LU and
    back substitution of such a system repeat those of the compact system,
    so each solution is the compact one bit for bit (checked on random
    stacks in tests/test_stacked_solve.py); padding the gaps in place would
    not be. A row with a dependent column (a support column without a
    direction) is not square and keeps ``lstsq`` on its compact system.
    """
    real, filled = p.real[rows, :slots], p.filled[rows, :slots]
    front = np.arange(slots) < real.sum(axis=1)[:, None]  # where the support columns go
    t, qy = p.t[rows, :slots, :slots], p.qy[rows, :slots]
    odd = np.flatnonzero((filled != front).any(axis=1))  # a gap, or a column without a direction
    if odd.size:
        dependent = (filled[odd] != real[odd]).any(axis=1)
        front[odd[dependent]] = False  # an identity system; lstsq solves the row below
        gap = odd[~dependent]
        order = np.argsort(~real[gap], axis=1, kind="stable")  # the support columns first, in slot order
        t[gap], qy[gap] = t[gap[:, None, None], order[:, :, None], order[:, None, :]], qy[gap[:, None], order]
    if not front.all():
        t = np.where(front[:, :, None] & front[:, None, :], t, np.eye(slots))
        qy = np.where(front[:, :, None], qy, 0)
    x = np.linalg.solve(t, qy)
    if odd.size:
        x[gap[:, None], order] = x[gap]  # back to slot order
        for j in odd[dependent]:
            i, cols = rows[j], real[j]
            x[j, cols] = np.linalg.lstsq(p.t[i, :slots, :slots][filled[j]][:, cols], p.qy[i, :slots][filled[j]],
                                         rcond=None)[0]
    return x


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


def _first_correlation(target: np.ndarray, screen: np.ndarray) -> np.ndarray:
    """The screened correlation of the first greedy step, target^H columns /
    (||target|| c_max) in complex64, (B, S, G), of the targets (B, M, S) in
    the kernel's dtype against ``screen``; a zero target gets zeros."""
    total = np.sqrt(_sq_norms(target))
    rows = (target.conj().transpose(0, 2, 1) / np.where(total > 0, total, 1.0)[:, None, None]).astype(np.complex64)
    return _screen_product(rows.reshape(-1, target.shape[1]), screen).reshape(len(target), target.shape[2], -1)


_SLOTTED = ("q", "qh", "t", "qy", "solution")
"""The stack arrays with a slot axis; a stop moves only their filled slots."""


def _greedy_blocks(
    columns: np.ndarray, targets: np.ndarray, partition: BlockPartition, max_blocks: int,
    tolerance: float | np.ndarray, weights: Optional[np.ndarray] = None, decay_floor: Optional[float] = None,
    max_columns: Optional[int] = None, *, screen: np.ndarray, corr0: Optional[np.ndarray] = None,
) -> list:
    """Greedy block pursuit of each target of ``targets`` (B, M, S) over the
    blocks of ``columns`` (M, G), the B pursuits run in lockstep. The
    ``partition`` must cover the G columns, else ``ConfigurationError``;
    this is the one home of that rule for both callers.

    Per iteration block b scores ||R^H columns_b||_F^2 (times weights[b]) on
    the residual R, and the best unselected block (exact scores within a
    relative 1e-12 of the best tie to the lowest index) has its columns
    appended to the basis. With ``max_columns`` set, a block wider than the
    columns left is not a candidate.

    Blocks are screened in single precision: C = R^H columns / (||target||
    c_max), c_max the largest column norm, is kept in complex64 against
    ``screen``, the columns over c_max in complex64 (``_single_precision``
    of ``columns``), which every caller passes from its own cache. C of the
    first step is ``_first_correlation`` of the targets, or ``corr0`` when
    given: that of each target, which a caller that runs several pursuits
    on one target computes once for all; it is not written to. A
    running bound e on every |C^ - C| starts at _dot_error(M) and grows
    with each update by the norms of its factors, so block b's screened
    score is within L_b (2 e sqrt(S) ||R|| + S e^2), plus the rounding of
    its float32 squares and sums, of the exact one (both times
    weights[b]). Blocks whose upper bound reaches the best lower bound,
    less the tie width, are candidates; a lone candidate is selected,
    otherwise the candidates' float64 scores, over their columns only,
    decide. So the selection is that of float64 scores, and the
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
    target; they are solved for the decay rule, and at the end only for a
    support the decay rule's trials did not solve.

    Lockstep: every running pursuit has made the same number k of
    selections, so the state of all is one stack of arrays, a row per
    pursuit, and the L columns of the k-th block (L the widest block) and
    their directions sit in the slots kL to kL + L - 1 of Q, Q^H, T and Q^H
    target, a missing column or direction holding zeros; the residual, the
    history, the selections, e, the stop flags and the residual tolerances
    are rows too, so one batch may mix tolerances. Each step is a fixed
    number of array operations whatever B is, but for one float64 product
    per close call: the update rows of every pursuit, the zero rows of
    missing directions included, meet the screen in one complex64 product
    and the stack in one broadcast, one einsum and one bincount score every
    block of every pursuit, each close call's candidate columns meet its own
    residual alone (so the rescoring grows with the candidates, not with
    candidates times close calls), one gather fetches the selected columns
    of every pursuit, Gram-Schmidt runs as batched products over the slots
    so far once per column position of the widest selected block, the
    residual and history of all are updated at once, the decay rule's trial
    solves of all are one stacked solve, and so are the final solves of the
    pursuits that stop at a step on a support no trial solved
    (``_support_coefficients``; only a pursuit with a dependent column
    solves alone, by ``lstsq``). A trial at step k >= 1 solves the k + 1
    blocks so far, which are the final support of a pursuit that stops for
    its budget or tolerance at the next step; a pursuit the trial halts
    keeps the support that the trial of step k - 1 solved; so only a final
    support of one block, or every one with the rule off, is solved at the
    stop. The trial and the stop solve the same system over the same slots,
    or, for a halted pursuit, over slots that differ by trailing identity
    padding, which leaves the solution as it is, so the result is that of a
    solve at the stop bit for bit. A pursuit that stops leaves the stack,
    which shrinks in place: each row past the first stopped one moves up, by
    its k L filled slots only in Q, Q^H, T, Q^H target and the stored
    solutions. The decay rule sums a block's coefficient energy over its L
    slots, zeros included, by ``_sq_norms``, not by a per-pursuit ``np.sum``
    over its columns; the order can change a decision only for an energy
    ratio within rounding of ``decay_floor``. Every float64 operation on the
    basis, the residual and the coefficients acts on each row alone with
    shapes set by the call and the step, and the bound e holds for any
    summation order of the complex64 products, so each pursuit selects, and
    returns, exactly what it would alone; a close call's candidates may
    depend on the batch through the screen's rounding, and with them the
    shape of its rescoring product, so its exact scores may round otherwise
    in another batch, which could change a selection only for a score within
    rounding of the tie width. The price is memory: T has (L min(K,
    max_columns))^2 entries per pursuit, K the block budget.

    A pursuit stops at min(max_blocks, block count) blocks, a relative
    residual at or below its ``tolerance`` (one for all targets, or a (B,)
    array with one per target) or 1e-12, a zero target, or when no
    unselected block fits ``max_columns``; the candidate is discarded (its
    slots lose their column and direction) and the pursuit ends when its
    coefficient energy falls below ``decay_floor`` times the first block's.

    Returns per target (selected blocks, their column indices, coefficients
    (C, S), relative residual history starting at 1.0).
    """
    if partition.size != columns.shape[1]:
        raise ConfigurationError("partition must cover the columns")
    n, m, s = targets.shape
    lengths, starts = partition.lengths, partition.starts
    num_blocks = partition.num_blocks
    # every block has a column, so max_columns bounds the selections too
    budget = min(max_blocks, num_blocks, num_blocks if max_columns is None else max_columns)
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
        stop=np.maximum(tolerance, np.full(n, _NOISE_FLOOR)),  # relative-residual stops
        err=np.full(n, _dot_error(m)),
        halted=total == 0.0,  # a zero target, or the decay rule discarded the last block
        excluded=np.zeros((n, num_blocks), dtype=bool),  # blocks that are not candidates
        solution=np.zeros((n, slots, s), dtype),  # each support's coefficients, once a decay trial solved them
        corr=corr0,
    )
    results = [None] * n
    # the score index of each column score: block b of target i is i * num_blocks + b
    owners = (num_blocks * np.arange(n)[:, None] + np.repeat(np.arange(num_blocks), lengths)).ravel()
    # relative, of the float32 squares, their sums over S and each column's sum of the two
    score_rounding = 2.0 * _U * (s + 2)
    spans, ends, position = lengths.astype(float), starts + lengths, np.arange(widest)
    for k in range(budget + 1):  # k: the selections of every running pursuit
        last = p.history[:, k]
        running = ~p.halted & (last > p.stop) & (k < budget)
        if max_columns is not None:
            p.excluded |= lengths > (max_columns - p.real.sum(axis=1))[:, None]
            running &= ~p.excluded.all(axis=1)
        stopped = np.flatnonzero(~running)
        held = slice(k * widest)  # the filled slots; the later ones are zero in every row
        if len(stopped):
            done = np.maximum(k - p.halted[stopped], 0)  # a halted pursuit discarded its k-th block
            # under the decay rule, a trial solved every final support of two or more blocks
            fresh = stopped if decay_floor is None else stopped[done < 2]
            if fresh.size and k:
                p.solution[fresh, held] = _support_coefficients(p, fresh, held.stop)
            for i, d in zip(stopped, done):
                chosen = p.selected[i, :d].tolist()
                cols = [c for b in chosen for c in range(starts[b], ends[b])]
                results[p.ids[i]] = (chosen, cols, p.solution[i, held][p.real[i, held]], p.history[i, :d + 1].tolist())
        if len(stopped) == len(running):
            break
        if len(stopped):
            # the stack shrinks in place: each row past the first stopped one moves up,
            # by its filled slots only in the arrays with a slot axis
            keep = np.flatnonzero(running)
            to, moved = slice(stopped[0], len(keep)), keep[stopped[0]:]
            p.q[to, :, held] = p.q[moved, :, held]
            p.t[to, held, held] = p.t[moved, held, held]
            for v in (p.qh, p.qy, p.solution):
                v[to, held] = v[moved, held]
            p = SimpleNamespace(**{name: v if v is None else v[:len(keep)] if name in _SLOTTED else v[running]
                                   for name, v in vars(p).items()})
            last = last[running]
        live = np.arange(len(p.ids))

        if not k:
            if p.corr is None:
                p.corr = _first_correlation(p.target, screen)
        else:
            # corr -= w^H (U^H screen), w = U^H target / ||target||; the row of a
            # missing direction is zero, and so is its product
            new = np.count_nonzero(p.filled[:, previous], axis=1)
            w = p.qy[:, previous] / p.total[:, None, None]
            part = _screen_product(p.qh[:, previous].reshape(-1, m).astype(np.complex64), screen)
            part = part.reshape(len(live), widest, -1)
            factor = w.conj().transpose(0, 2, 1).astype(np.complex64)
            update = factor * part if widest == 1 else factor @ part  # matmul is slow for an inner dimension of 1
            # in place, but for corr0, the caller's array, which is not written to
            p.corr = np.subtract(p.corr, update, out=update if p.corr is corr0 else p.corr)
            del part, update
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
            candidate = np.nonzero(near[close])[1]
            count = count[close]
            size = lengths[candidate]
            first = np.cumsum(size) - size  # each candidate's first column in the lists below
            col = np.arange(first[-1] + size[-1]) + np.repeat(starts[candidate] - first, size)
            head = np.cumsum(count) - count  # each close row's first candidate
            edges = np.append(first[head], len(col))  # each close row's columns in col
            # (c^H R)^* of each close row's candidate columns against its own
            # residual; conjugating the residual spares a copy of the columns
            exact = np.concatenate([columns.T[col[a:b]] @ p.residual[i].conj()
                                    for i, a, b in zip(close, edges[:-1], edges[1:])])
            exact = np.add.reduceat(np.sum(exact.real ** 2 + exact.imag ** 2, axis=1), first)
            if weights is not None:
                exact *= weights[candidate]
            tied = exact >= np.repeat(np.maximum.reduceat(exact, head), count) * (1.0 - _TIE)
            pick = np.minimum.reduceat(np.where(tied, np.arange(len(candidate)), len(candidate)), head)  # the lowest
            block[close] = candidate[pick]
        del flat, squares, score, slack, lower, near  # not held through the next update

        # the selected blocks' columns by position, (B, L, M), zero past a block's end
        current = slice(k * widest, (k + 1) * widest)
        size = lengths[block]
        real = position < size[:, None]
        new_cols = np.zeros((len(live), widest, m), dtype)
        new_cols[real] = columns.T[(starts[block, None] + position)[real]]
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
        p.real[:, current] = real
        p.qy[:, current] = p.qh[:, current] @ p.target

        if decay_floor is not None and k:
            # decaying-energy stop: a pursuit ends, and its k-th block leaves the support
            trial = _support_coefficients(p, live, current.stop)
            p.halted = _sq_norms(trial[:, current]) < decay_floor * _sq_norms(trial[:, :widest])
            p.real[p.halted, current] = p.filled[p.halted, current] = False
            # a halted pursuit keeps the solution of the last step's trial
            np.copyto(p.solution[:, :current.stop], trial, where=~p.halted[:, None, None])
        p.residual = p.residual - p.q[:, :, current] @ p.qy[:, current]
        p.history[:, k + 1] = np.sqrt(_sq_norms(p.residual)) / p.total
        p.selected[:, k] = block
        p.excluded[live, block] = True
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

    ``cfg`` is one config for every observation, or one per observation;
    a count other than the observations' is refused with a ``ValueError``.
    The configs may differ in residual_tolerance, max_blocks and partition.
    The pursuits of one max_blocks and partition (by identity, as the
    stored results are keyed; None is the measurement's own) run in one
    lockstep batch, each with its own tolerance, and the first correlation
    product of each observation is computed once for all of them, so the
    pursuits of one observation under several budgets or partitions share
    it.

    Returns per observation a RecoveryResult with the ascending support
    columns, their dictionary-frame coefficients (measurement column scales
    undone; ``coefficients`` scatters them into a (K, G) matrix on access)
    and the reconstruction A @ x per subcarrier, all read-only. A result is
    deterministic in its inputs, so it is stored on its observation: an
    observation that already holds a result for the same measurement (by
    identity), an equal config and an equal ``si`` gets the stored object
    without a pursuit, and an observation listed under two configs gets one
    result for each.
    """
    configs = (cfg,) * len(observations) if isinstance(cfg, RecoveryConfig) else tuple(cfg)
    if len(configs) != len(observations):
        raise ValueError("bsomp_batch takes one recovery config, or one per observation")
    phi = measurement.entries
    q = phi.shape[0]
    shapes = {obs.per_subcarrier.shape for obs in observations}
    if any(shape[1] != q for shape in shapes):
        raise ValueError("observation sample count must equal the measurement rows")
    if len(shapes) > 1:
        raise ValueError("observations must share one subcarrier count")
    own = measurement.dictionary.partition
    kinds = {(c.max_blocks, c.partition if c.partition is not None else own) for c in configs}
    if any(blocks * int(partition.lengths.max()) > q for blocks, partition in kinds):
        warnings.warn(
            "selected support may exceed the pilot dimension; least squares "
            "will be underdetermined",
            stacklevel=2,
        )
    weights = {partition: _temporal_weights(partition.num_blocks, si) for _, partition in kinds}

    # the (observation, config) pairs without a stored result, each once, by block budget and partition
    todo: dict = {}
    for obs, c in dict.fromkeys(zip(observations, configs)):
        if (measurement, c, si) not in obs._pursuits:
            todo.setdefault((c.max_blocks, c.partition if c.partition is not None else own), []).append((obs, c))

    if todo:
        # each distinct observation's target (Q, K) and its first correlation, once for every run
        distinct = list(dict.fromkeys(obs for pairs in todo.values() for obs, _ in pairs))
        samples = np.stack([obs.per_subcarrier for obs in distinct])
        targets = np.ascontiguousarray(samples.transpose(0, 2, 1), dtype=np.result_type(phi, samples))
        corr0 = _first_correlation(targets, measurement.single_precision)
        corr0.flags.writeable = False  # shared by the runs below
        row = {obs: i for i, obs in enumerate(distinct)}
        dictionary = measurement.dictionary
        for (max_blocks, partition), pairs in todo.items():
            rows = [row[obs] for obs, _ in pairs]
            index = slice(None) if rows == list(range(len(distinct))) else rows  # a view where it can be
            runs = _greedy_blocks(
                phi, targets[index], partition, max_blocks, np.array([c.residual_tolerance for _, c in pairs]),
                weights=weights[partition],
                decay_floor=si.decay_floor if si is not None else None,
                screen=measurement.single_precision, corr0=corr0[index],
            )
            for (obs, c), (selected, cols, solution, history) in zip(pairs, runs):
                order = np.argsort(cols)
                cols = np.asarray(cols, dtype=np.intp)[order]
                values = solution[order].T / measurement.column_scales[cols]
                channels = _reconstruction(values, dictionary.atoms, cols)
                for array in (cols, values, channels):
                    array.flags.writeable = False
                obs._pursuits[measurement, c, si] = RecoveryResult(
                    tuple(selected), cols, values, phi.shape[1], channels, tuple(history), dictionary.domain)
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


def _reconstruction(values: np.ndarray, atoms: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The channels of the coefficients ``values`` (K, C) of the ascending
    columns ``cols`` of ``atoms``: only the columns with a non-zero
    coefficient enter the product, in ascending order, so a support column
    with zero coefficients does not change the bytes."""
    keep = values.any(axis=0)
    return values[:, keep] @ atoms[:, cols[keep]].T


def reconstruct(dictionary: Dictionary, result: RecoveryResult) -> np.ndarray:
    """Map dictionary-frame coefficients back to channel vectors, (K, N).

    Only the atoms with a non-zero coefficient enter the product, so the
    cost follows the support, not the dictionary width. The result can
    differ from the dense coefficients @ atoms.T by a few ulps.
    """
    if result.num_atoms != dictionary.num_atoms:
        raise ValueError("coefficient length must equal the dictionary width")
    return _reconstruction(result.support_coefficients, dictionary.atoms, np.asarray(result.support_columns))


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
