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
bsomp() stores each result on its observation, so a repeated pursuit returns
it without running again. A least-squares baseline and the NMSE metric live
here as well.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
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
    block-index distance to the previous support. decay_floor (in (0, 1])
    stops the greedy loop once a new block's energy falls below
    decay_floor times the first block's energy; None disables the rule.
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
        object.__setattr__(self, "previous_support", tuple(self.previous_support))


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
    the result is bit-identical to pinv(P) @ y per subcarrier.
    """
    return (pilot.pseudo_inverse @ obs.per_subcarrier.T).T


def _temporal_weights(num_blocks: int, si: Optional[SideInformation]) -> Optional[np.ndarray]:
    """BD-SI block weights, or None when ``si`` leaves every weight at 1."""
    if si is None or si.temporal_gain == 0 or len(si.previous_support) == 0:
        return None
    prev = np.asarray(si.previous_support, dtype=float)
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


def _support_coefficients(t: np.ndarray, qy: np.ndarray, rank: int, width: int) -> np.ndarray:
    """Minimum-norm solution of T[:rank, :width] c = (Q^H target)[:rank], which
    is the minimum-norm least-squares fit of the target over the basis Q T."""
    if rank == width:
        return np.linalg.solve(t[:rank, :rank], qy[:rank])
    return np.linalg.lstsq(t[:rank, :width], qy[:rank], rcond=None)[0]


def _greedy_blocks(
    columns: np.ndarray, target: np.ndarray, partition: BlockPartition, max_blocks: int,
    tolerance: float, weights: Optional[np.ndarray] = None, decay_floor: Optional[float] = None,
    column_map: Optional[Callable] = None, max_columns: Optional[int] = None,
    screen: Optional[np.ndarray] = None,
):
    """Greedy block pursuit of ``target`` (M, S) over the blocks of ``columns`` (M, G).

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

    The basis is held as Q T: Q has orthonormal columns, T is upper
    trapezoidal, and Q^H target is kept beside them. Each new column is
    orthogonalised against Q by classical Gram-Schmidt with one
    re-orthogonalisation; a column with (almost) no component outside Q adds
    no direction, so supports wider than M stay exact. The new directions U
    update the residual R <- R - U (U^H target) and the correlation by the
    cheaper of (U^H target)^H (U^H columns) and (U U^H target)^H columns;
    that update runs only once another block is known to be admissible. The
    coefficients, the minimum-norm least-squares fit over the basis, solve
    T c = Q^H target; they are solved for the decay rule and once at the end.

    Stops at min(max_blocks, block count) blocks, a relative residual at or
    below ``tolerance`` or 1e-12, a zero target, or when no unselected block
    fits ``max_columns``; the candidate is discarded and the loop ends when
    its coefficient energy falls below ``decay_floor`` times the first
    block's.

    Returns (selected blocks, their column indices, coefficients (C, S),
    relative residual history starting at 1.0).
    """
    m, s = target.shape
    lengths = partition.lengths
    budget = min(max_blocks, partition.num_blocks)
    width = int(np.sort(lengths)[partition.num_blocks - budget:].sum())
    if max_columns is not None:
        width = min(width, max_columns)
    dtype = np.result_type(columns, target)
    q = np.empty((m, min(m, width)), dtype=dtype)
    qh = np.empty((q.shape[1], m), dtype=dtype)  # Q^H, row by row
    t = np.zeros((q.shape[1], width), dtype=dtype)
    qy = np.empty((q.shape[1], s), dtype=dtype)
    owner = np.repeat(np.arange(partition.num_blocks), 2 * lengths)  # block of each float32 of a row of C
    score_rounding = 2.0 * _U * (s + 2)  # relative, of the float32 squares and sums over S

    total = float(np.linalg.norm(target))
    stop = max(tolerance, _NOISE_FLOOR)
    selected: list = []
    cols: list = []
    history = [1.0]
    residual = target
    corr = None
    rank = used = new_rank = 0
    candidates = np.ones(partition.num_blocks, dtype=bool)

    while total > 0.0 and len(selected) < budget and history[-1] > stop:
        if max_columns is not None:
            candidates &= lengths <= max_columns - used
            if not candidates.any():
                break
        r = history[-1]
        if corr is None:
            screen = _single_precision(columns) if screen is None else screen
            corr = (target.conj().T / total).astype(np.complex64) @ screen  # (S, G)
            err = _dot_error(m)
        elif new_rank:
            w = uy / total
            w_norm = np.vdot(w, w).real ** 0.5  # bounds every column norm of w
            if new_rank < s:
                # np.dot: matmul is several times slower for an inner dimension of 1
                corr -= np.dot(w.conj().T.astype(np.complex64), uh.astype(np.complex64) @ screen)
                step = w_norm * (new_rank ** 0.5 * _dot_error(m) + _dot_error(new_rank))
            else:
                corr -= (w.conj().T @ uh).astype(np.complex64) @ screen
                step = w_norm * _dot_error(m)
            err = (err + step) * (1.0 + _U) + _U * r  # the subtraction rounds too
        flat = corr.view(np.float32)
        score = np.bincount(owner, np.einsum("ij,ij->j", flat, flat), partition.num_blocks)
        slack = lengths * (2.0 * err * s ** 0.5 * r + s * err ** 2) + score_rounding * score
        if weights is not None:
            score, slack = score * weights, slack * weights
        upper, lower = score + slack, score - slack
        excluded = ~candidates
        upper[excluded] = lower[excluded] = -np.inf
        near = upper >= lower.max() * (1.0 - _TIE)
        block = int(np.argmax(near))
        if np.count_nonzero(near) > 1:
            picked = np.flatnonzero(near)
            exact = residual.conj().T @ columns[:, np.flatnonzero(np.repeat(near, lengths))]
            exact = np.add.reduceat(
                np.sum(exact.real ** 2 + exact.imag ** 2, axis=0),
                np.cumsum(lengths[picked]) - lengths[picked],
            )
            if weights is not None:
                exact *= weights[picked]
            block = int(picked[np.argmax(exact >= exact.max() * (1.0 - _TIE))])

        block_slice = partition.block_slice(block)
        new_cols = columns[:, block_slice]
        if column_map is not None:
            new_cols = column_map(new_cols)
        start = rank
        for j in range(new_cols.shape[1]):
            a = new_cols[:, j]
            h = qh[:rank] @ a
            v = a - q[:, :rank] @ h
            h2 = qh[:rank] @ v
            v -= q[:, :rank] @ h2
            t[:rank, used + j] = h + h2
            norm = np.vdot(v, v).real ** 0.5
            if norm > _DEPENDENT * np.vdot(a, a).real ** 0.5:
                v /= norm
                q[:, rank] = v
                qh[rank] = v.conj()
                t[rank, used + j] = norm
                rank += 1
        qy[start:rank] = qh[start:rank] @ target

        if decay_floor is not None and selected:
            trial = _support_coefficients(t, qy, rank, used + new_cols.shape[1])
            first = trial[: lengths[selected[0]]]
            new = trial[used:]
            energy_first = float(np.sum(first.real ** 2 + first.imag ** 2))
            if float(np.sum(new.real ** 2 + new.imag ** 2)) < decay_floor * energy_first:
                rank = start
                break  # decaying-energy stop

        selected.append(block)
        candidates[block] = False
        cols.extend(range(*block_slice.indices(columns.shape[1])))
        used += new_cols.shape[1]
        new_rank = rank - start
        uh, uy = qh[start:rank], qy[start:rank]
        residual = residual - q[:, start:rank] @ uy
        history.append(float(np.linalg.norm(residual)) / total)

    coef = _support_coefficients(t, qy, rank, used)
    return selected, cols, coef, history


def bsomp(
    measurement: MeasurementMatrix,
    obs: Observation,
    cfg: RecoveryConfig,
    si: Optional[SideInformation] = None,
) -> RecoveryResult:
    """Block simultaneous orthogonal matching pursuit.

    Per iteration the score of block b is sum_k ||Phi_b^H r_k||^2 over the
    residuals of all K subcarriers; a single subcarrier reduces this to plain
    block OMP, and single-column blocks reduce it further to OMP. The argmax
    block (scores within a relative 1e-12 tie to the lowest index, already
    selected blocks excluded) is appended; the residual drops its projection
    onto the block's new orthonormal directions, which keeps the relative
    residual non-increasing, and the coefficients are the minimum-norm joint
    least-squares fit over the whole accumulated support. Stopping: block
    budget reached, relative residual at or below cfg.residual_tolerance or
    1e-12, or the decay rule from ``si`` fires (the offending block is
    discarded). Blocks are scored through the measurement's cached
    ``single_precision`` copy (see ``_greedy_blocks``).

    Returns dictionary-frame coefficients (measurement column scales undone)
    and the reconstruction A @ x per subcarrier, both read-only. The result
    is deterministic in its inputs, so it is stored on ``obs``: a repeated
    call with the same measurement (by identity), an equal ``cfg`` and an
    equal ``si`` returns the stored object without running the pursuit.
    """
    partition = cfg.partition if cfg.partition is not None else measurement.dictionary.partition
    phi = measurement.entries
    if partition.size != phi.shape[1]:
        raise ConfigurationError("partition must cover the measurement columns")

    q = phi.shape[0]
    max_len = int(partition.lengths.max())
    if cfg.max_blocks * max_len > q:
        warnings.warn(
            "selected support may exceed the pilot dimension; least squares "
            "will be underdetermined",
            stacklevel=2,
        )

    key = (measurement, cfg, si)
    stored = obs._pursuits.get(key)
    if stored is not None:
        return stored

    y = obs.per_subcarrier.T  # (Q, K)
    dictionary = measurement.dictionary
    selected, cols, solution, history = _greedy_blocks(
        phi, y, partition, cfg.max_blocks, cfg.residual_tolerance,
        weights=_temporal_weights(partition.num_blocks, si),
        decay_floor=si.decay_floor if si is not None else None,
        screen=measurement.single_precision,
    )
    coefficients = np.zeros((y.shape[1], phi.shape[1]), dtype=np.complex128)
    coefficients[:, cols] = solution.T / measurement.column_scales[cols]
    coefficients.flags.writeable = False
    result = RecoveryResult(tuple(selected), coefficients, None, tuple(history), domain=dictionary.domain)
    channels = reconstruct(dictionary, result)
    channels.flags.writeable = False
    result = replace(result, reconstructed_channels=channels)
    obs._pursuits[key] = result
    return result


def reconstruct(dictionary: Dictionary, result: RecoveryResult) -> np.ndarray:
    """Map dictionary-frame coefficients back to channel vectors, (K, N).

    Only the atoms with a non-zero coefficient enter the product, so the
    cost follows the support, not the dictionary width. The result can
    differ from the dense coefficients @ atoms.T by a few ulps.
    """
    if result.coefficients.shape[1] != dictionary.num_atoms:
        raise ValueError("coefficient length must equal the dictionary width")
    cols = np.flatnonzero(np.any(result.coefficients != 0, axis=0))
    return result.coefficients[:, cols] @ dictionary.atoms[:, cols].T


def nmse(estimate: Sequence, truth: Sequence) -> float:
    """Normalized mean square error in dB, floored at NMSE_FLOOR_DB.

    10 log10( sum_k ||est_k - true_k||^2 / sum_k ||true_k||^2 ).
    """
    est = np.asarray(estimate)
    ref = np.asarray(truth)
    if est.shape != ref.shape:
        raise ValueError("estimate and truth must have matching shapes")
    denom = float(np.sum(np.abs(ref) ** 2))
    if denom == 0.0:
        raise ValueError("truth must not be identically zero")
    num = float(np.sum(np.abs(est - ref) ** 2))
    if num == 0.0:
        return NMSE_FLOOR_DB
    return max(10.0 * np.log10(num / denom), NMSE_FLOOR_DB)
