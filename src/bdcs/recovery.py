"""Greedy block-sparse recovery.

bsomp() selects whole dictionary blocks by correlating all subcarrier
residuals at once (joint scoring), optionally biased toward a previously
known support (temporal weighting) and stopped early when a newly selected
block carries almost no energy (decay stopping). Its greedy loop,
_greedy_blocks(), is shared with the block-sparse hybrid precoder. A
least-squares baseline and the NMSE metric live here as well.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .dictionaries import BlockPartition, Dictionary
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
        if self.temporal_gain < 0:
            raise ValueError("temporal_gain must be non-negative")
        if self.temporal_width <= 0:
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
        if self.max_blocks < 1:
            raise ValueError("max_blocks must be at least 1")
        if self.residual_tolerance < 0:
            raise ValueError("residual_tolerance must be non-negative")


@dataclass(frozen=True)
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
    """Minimum-norm least-squares channel estimate, shape (K, N)."""
    pinv = np.linalg.pinv(pilot.entries)
    return (pinv @ obs.per_subcarrier.T).T


def _temporal_weights(num_blocks: int, si: SideInformation) -> np.ndarray:
    weights = np.ones(num_blocks)
    if si.temporal_gain > 0 and len(si.previous_support) > 0:
        prev = np.asarray(si.previous_support, dtype=float)
        dist = np.abs(np.arange(num_blocks)[:, None] - prev[None, :]).min(axis=1)
        weights += si.temporal_gain * np.exp(-dist / si.temporal_width)
    return weights


def _greedy_blocks(
    columns: np.ndarray, target: np.ndarray, partition: BlockPartition, max_blocks: int,
    tolerance: float, weights: Optional[np.ndarray] = None, decay_floor: Optional[float] = None,
    column_map: Optional[Callable] = None, max_columns: Optional[int] = None,
):
    """Greedy block pursuit of ``target`` (M, S) over the blocks of ``columns`` (M, G).

    Per iteration block b scores ||columns_b^H R||_F^2 (times weights[b]) on
    the residual R; the best unselected block (ties to the lowest index) has
    its columns, through ``column_map`` when given, appended to the basis,
    and ``target`` is refit by least squares over the whole basis. Stops at
    min(max_blocks, block count) blocks, a relative residual at or below
    ``tolerance``, or a zero target; the candidate is discarded and the loop
    ends when it would grow the basis past ``max_columns`` columns or its
    coefficient energy falls below ``decay_floor`` times the first block's.

    Returns (selected blocks, their column indices, basis (M, C),
    coefficients (C, S), relative residual history starting at 1.0).
    """
    total = float(np.linalg.norm(target))
    selected: list = []
    cols: list = []
    basis = columns[:, :0]
    coef = np.zeros((0, target.shape[1]), dtype=np.result_type(columns, target))
    residual = target
    history = [1.0]
    budget = min(max_blocks, partition.num_blocks)

    while total > 0.0 and len(selected) < budget and history[-1] > tolerance:
        corr = columns.conj().T @ residual  # (G, S)
        scores = np.add.reduceat(np.sum(np.abs(corr) ** 2, axis=1), partition.starts)
        if weights is not None:
            scores = scores * weights
        if selected:
            scores[np.asarray(selected)] = -np.inf
        block = int(np.argmax(scores))

        block_slice = partition.block_slice(block)
        new_cols = columns[:, block_slice]
        if column_map is not None:
            new_cols = column_map(new_cols)
        if max_columns is not None and basis.shape[1] + new_cols.shape[1] > max_columns:
            break
        trial_basis = np.concatenate([basis, new_cols], axis=1)
        trial_coef, *_ = np.linalg.lstsq(trial_basis, target, rcond=None)

        if decay_floor is not None and selected:
            first_len = int(partition.lengths[selected[0]])
            energy_first = float(np.sum(np.abs(trial_coef[:first_len]) ** 2))
            energy_new = float(np.sum(np.abs(trial_coef[-new_cols.shape[1]:]) ** 2))
            if energy_new < decay_floor * energy_first:
                break  # decaying-energy stop

        selected.append(block)
        cols.extend(range(*block_slice.indices(columns.shape[1])))
        basis, coef = trial_basis, trial_coef
        residual = target - basis @ coef
        history.append(float(np.linalg.norm(residual)) / total)

    return selected, cols, basis, coef, history


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
    block (ties to the lowest index, already selected blocks excluded) is
    appended and the coefficients are refit by joint least squares over the
    whole accumulated support, which keeps the relative residual
    non-increasing. Stopping: block budget reached, relative residual at or
    below cfg.residual_tolerance, or the decay rule from ``si`` fires (the
    offending block is discarded).

    Returns dictionary-frame coefficients (measurement column scales undone)
    and the reconstruction A @ x per subcarrier.
    """
    partition = cfg.partition if cfg.partition is not None else measurement.dictionary.partition
    if partition is None or partition.num_blocks == 0:
        raise ConfigurationError("a block partition is required")
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

    y = obs.per_subcarrier.T  # (Q, K)
    dictionary = measurement.dictionary
    selected, cols, _, solution, history = _greedy_blocks(
        phi, y, partition, cfg.max_blocks, cfg.residual_tolerance,
        weights=_temporal_weights(partition.num_blocks, si) if si is not None else None,
        decay_floor=si.decay_floor if si is not None else None,
    )
    coefficients = np.zeros((y.shape[1], phi.shape[1]), dtype=np.complex128)
    coefficients[:, cols] = solution.T
    if measurement.column_scales is not None:
        coefficients = coefficients / measurement.column_scales[None, :]
    reconstructed = coefficients @ dictionary.atoms.T
    return RecoveryResult(
        tuple(selected), coefficients, reconstructed, tuple(history), domain=dictionary.domain
    )


def reconstruct(dictionary: Dictionary, result: RecoveryResult) -> np.ndarray:
    """Map dictionary-frame coefficients back to channel vectors, (K, N)."""
    if result.coefficients.shape[1] != dictionary.num_atoms:
        raise ValueError("coefficient length must equal the dictionary width")
    return result.coefficients @ dictionary.atoms.T


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
