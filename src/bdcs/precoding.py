"""Hybrid precoding via block-sparse approximation of the SVD precoder.

The unconstrained optimum is the top right-singular subspace of the channel;
the hybrid stage greedily picks dictionary blocks whose (phase-projected)
steering vectors best explain it, then solves the baseband stage by least
squares and renormalizes to the stream power budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .dictionaries import Dictionary
from .errors import ConfigurationError
from .recovery import RecoveryConfig, _greedy_blocks


@dataclass(frozen=True, eq=False)
class MatrixChannel:
    """Dense N_r x N_t channel matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.matrix)
        if h.ndim != 2 or h.shape[0] < 1:
            raise ValueError("channel must be a 2-D matrix with at least one row")
        if not np.all(np.isfinite(h.view(float))):
            raise ValueError("channel entries must be finite")

    @property
    def num_rx(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_tx(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True, eq=False)
class PrecoderPair:
    """Constant-modulus analog stage F_RF (N_t x n_rf) and digital stage
    F_BB (n_rf x N_s), normalized so ||F_RF F_BB||_F^2 = N_s."""

    f_rf: np.ndarray
    f_bb: np.ndarray

    def __post_init__(self):
        n_t, n_rf = self.f_rf.shape
        n_rf_b, n_s = self.f_bb.shape
        if n_rf != n_rf_b:
            raise ValueError("F_RF and F_BB dimensions do not chain")
        check_counts(n_s, n_t, num_rf_chains=n_rf)
        target = 1.0 / np.sqrt(n_t)
        if np.any(np.abs(np.abs(self.f_rf) - target) > 1e-10):
            raise ValueError("every F_RF entry must have modulus 1/sqrt(N_t)")
        power = np.linalg.norm(self.f_rf @ self.f_bb) ** 2
        if abs(power - n_s) > 1e-8:
            raise ValueError("||F_RF F_BB||_F^2 must equal the stream count")

    @property
    def num_streams(self) -> int:
        return self.f_bb.shape[1]

    @property
    def num_chains(self) -> int:
        return self.f_rf.shape[1]

    @property
    def combined(self) -> np.ndarray:
        return self.f_rf @ self.f_bb


@dataclass(frozen=True)
class SEReport:
    """Spectral efficiency of one precoder, in bits/s/Hz."""

    spectral_efficiency: float

    def __post_init__(self):
        if self.spectral_efficiency < 0:
            raise ValueError("spectral efficiency must be non-negative")


def check_counts(num_streams: int, num_tx: int, num_rx: Optional[int] = None,
                 num_rf_chains: Optional[int] = None, block_length: Optional[int] = None) -> None:
    """The count rules of precoding, for the counts given: 1 <= N_s <= N_t and
    N_s <= N_r (optimal_precoder), N_s <= N_RF <= N_t (PrecoderPair and
    block_sparse_precoding), and a uniform block length (None: blocks vary)
    that divides N_RF."""
    if not 1 <= num_streams <= min(num_tx, num_tx if num_rx is None else num_rx):
        raise ValueError("num_streams must satisfy 1 <= N_s <= min(N_r, N_t)")
    if num_rf_chains is not None and not num_streams <= num_rf_chains <= num_tx:
        raise ValueError("num_rf_chains must satisfy N_s <= N_RF <= N_t")
    if block_length is not None and num_rf_chains % block_length != 0:
        raise ConfigurationError("num_rf_chains must be a multiple of the block length")


def optimal_precoder(channel: MatrixChannel, num_streams: int) -> np.ndarray:
    """Top right-singular vectors of H, orthonormal columns, N_t x N_s."""
    check_counts(num_streams, channel.num_tx, channel.num_rx)
    _, _, vh = np.linalg.svd(channel.matrix, full_matrices=False)
    return vh[:num_streams].conj().T


def block_sparse_precoding(
    f_opt: np.ndarray,
    dictionary: Dictionary,
    num_rf_chains: int,
    cfg: Optional[RecoveryConfig] = None,
) -> PrecoderPair:
    """Greedy block approximation of the unconstrained precoder.

    Iterates: score every block by ||A_b^H R||_F^2 against the residual
    R = F_OPT - F_RF F_BB, append the winning block's atoms phase-projected
    to modulus 1/sqrt(N_t), and remove from R its projection onto their new
    orthonormal directions. Blocks wider than the RF chains left are
    skipped. Stops when no unselected block fits the chains left, the
    relative residual reaches the tolerance, or the block budget runs out;
    F_RF stacks the blocks as the loop projected them, and F_BB is the
    minimum-norm least-squares fit over them, rescaled to the stream power
    budget. Blocks are scored through the dictionary's ``single_precision``.
    """
    f_opt = np.asarray(f_opt)
    n_t, n_s = f_opt.shape
    if dictionary.num_antennas != n_t:
        raise ValueError("dictionary atom length must match the precoder rows")
    partition = cfg.partition if cfg is not None and cfg.partition is not None else dictionary.partition
    check_counts(n_s, n_t, num_rf_chains=num_rf_chains, block_length=partition.uniform_length)
    tol = cfg.residual_tolerance if cfg is not None else 1e-10
    max_blocks = cfg.max_blocks if cfg is not None else partition.num_blocks
    target_mod = 1.0 / np.sqrt(n_t)
    projected = []  # without a decay rule, the kernel maps exactly the blocks it selects

    def phase_projection(cols):
        projected.append(target_mod * np.exp(1j * np.angle(cols)))
        return projected[-1]

    _, _, f_bb, _ = _greedy_blocks(
        dictionary.atoms, f_opt[None], partition, max_blocks, tol, column_map=phase_projection,
        max_columns=num_rf_chains, screen=dictionary.single_precision,
    )[0]
    f_rf = np.hstack(projected) if projected else np.empty((n_t, 0))

    combined_norm = float(np.linalg.norm(f_rf @ f_bb))
    if combined_norm == 0.0:
        raise ValueError("degenerate precoder: F_RF F_BB vanished")
    f_bb = f_bb * (np.sqrt(n_s) / combined_norm)
    return PrecoderPair(f_rf, f_bb)


def spectral_efficiency(
    channel: MatrixChannel,
    precoder: Union[np.ndarray, PrecoderPair],
    snr_db: float,
) -> SEReport:
    """log2 det(I + rho/N_s * H F F^H H^H) with equal power per stream."""
    f = precoder.combined if isinstance(precoder, PrecoderPair) else np.asarray(precoder)
    if f.shape[0] != channel.num_tx:
        raise ValueError("precoder rows must match the transmit antenna count")
    rho = 10.0 ** (snr_db / 10.0)
    n_s = f.shape[1]
    effective = channel.matrix @ f  # (N_r, N_s)
    m = np.eye(channel.num_rx, dtype=np.complex128) + (rho / n_s) * (effective @ effective.conj().T)
    _, logdet = np.linalg.slogdet(m)
    return SEReport(max(float(logdet) / np.log(2.0), 0.0))
