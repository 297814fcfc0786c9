"""Correctness checks on what the sweeps return.

Every check compares against a computation made here with numpy, or
against a property the method must have; none compares against a stored
copy of earlier output. Each returns a list of problems, empty when the
output is correct.
"""

from __future__ import annotations

import numpy as np

LS_TOLERANCE_DB = 0.75
"""Allowed distance of an ``ls`` row from the random-phase closed form. A
round has 1 or 2 trials of 4 users; rows deviated by at most 0.39 dB over
30 seeds of each NMSE workload."""

CS_MARGIN_DB = 5.0
"""On ref-distance every compressed-sensing method is this far below ls."""

FIT_TOLERANCE = 1e-8
"""Relative tolerance of least-squares identities (fit, orthogonality)."""


def curve_table(points) -> dict:
    """CurvePoint list -> {x: {method: mean_db}}."""
    table: dict = {}
    for p in points:
        table.setdefault(float(p.x), {})[p.method] = float(p.mean_db)
    return table


def ls_closed_form_db(num_antennas: int, pilot_count: int, snr_db: float) -> float:
    """NMSE of the minimum-norm LS estimate for a random-phase pilot:
    the null-space share (N-Q)/N plus the noise term Q/((N-Q) rho)."""
    n, q = num_antennas, pilot_count
    rho = 10.0 ** (snr_db / 10.0)
    return float(10.0 * np.log10((n - q) / n + q / ((n - q) * rho)))


def check_ls_rows(table: dict, num_antennas: int, pilot_count: int, snr_of_x) -> list:
    problems = []
    for x, row in table.items():
        expected = ls_closed_form_db(num_antennas, pilot_count, snr_of_x(x))
        if abs(row["ls"] - expected) > LS_TOLERANCE_DB:
            problems.append(f"ls at x={x:g}: {row['ls']:.3f} dB, closed form {expected:.3f} dB")
    return problems


def check_cs_margin(table: dict) -> list:
    problems = []
    for x, row in table.items():
        for method, value in row.items():
            if method != "ls" and value > row["ls"] - CS_MARGIN_DB:
                problems.append(
                    f"{method} at x={x:g}: {value:.3f} dB is not {CS_MARGIN_DB} dB below ls {row['ls']:.3f} dB"
                )
    return problems


def check_se_rows(table: dict) -> list:
    problems = []
    previous = -np.inf
    for snr in sorted(table):
        row = table[snr]
        for name in ("hybrid_angular", "hybrid_polar"):
            if row[name] > row["optimal"] * (1.0 + 1e-12):
                problems.append(f"{name} at {snr:g} dB: {row[name]:.6f} above optimal {row['optimal']:.6f}")
        if not row["optimal"] > previous:
            problems.append(f"optimal SE does not rise with SNR at {snr:g} dB")
        previous = row["optimal"]
    return problems


def support_columns(partition, support) -> np.ndarray:
    cols = [np.arange(*partition.block_slice(b).indices(partition.size)) for b in support]
    return np.concatenate(cols) if cols else np.empty(0, dtype=int)


def check_pursuit(measurement, obs, cfg, result) -> list:
    """Invariants of one greedy block pursuit (bsomp) call."""
    problems = []
    history = np.asarray(result.residual_history, dtype=float)
    if np.any(np.diff(history) > 1e-12):
        problems.append(f"residual history increases: {history.tolist()}")
    partition = cfg.partition if cfg.partition is not None else measurement.dictionary.partition
    support = list(result.support_blocks)
    if len(support) > cfg.max_blocks or len(set(support)) != len(support):
        problems.append(f"support {support} breaks the budget of {cfg.max_blocks} distinct blocks")
    if any(not 0 <= b < partition.num_blocks for b in support):
        problems.append(f"support {support} leaves the partition")
        return problems

    phi = measurement.entries
    y = obs.per_subcarrier.T  # (Q, K)
    cols = support_columns(partition, support)
    scales = measurement.column_scales
    coef = result.coefficients.T  # (G, K), dictionary frame
    outside = np.ones(coef.shape[0], dtype=bool)
    outside[cols] = False
    if np.any(coef[outside] != 0):
        problems.append("coefficients are non-zero outside the support")
    x = coef[cols] * (scales[cols, None] if scales is not None else 1.0)
    residual = y - phi[:, cols] @ x
    y_norm = float(np.linalg.norm(y))
    if y_norm == 0.0:
        return problems
    rel = float(np.linalg.norm(residual)) / y_norm
    if abs(rel - history[-1]) > FIT_TOLERANCE:
        problems.append(f"final residual {rel:.12g} differs from the last history entry {history[-1]:.12g}")
    if cols.size and float(np.linalg.norm(phi[:, cols].conj().T @ residual)) > FIT_TOLERANCE * y_norm:
        problems.append("final residual is not orthogonal to the selected columns")
    return problems


def check_ls_fit(pilot, obs, estimate) -> list:
    """The minimum-norm LS estimate reproduces the observation: P h_k = y_k."""
    y = obs.per_subcarrier
    err = float(np.linalg.norm(np.asarray(estimate) @ pilot.entries.T - y))
    if err > FIT_TOLERANCE * max(float(np.linalg.norm(y)), 1e-300):
        return [f"LS estimate misses the observation by {err:.3g}"]
    return []


def check_routing(result, angular, polar) -> list:
    """by_residual keeps the smaller final residual, ties to angular."""
    expected = polar if polar.final_residual < angular.final_residual else angular
    if result.domain != expected.domain or result.final_residual != expected.final_residual:
        return [
            f"complete_bdcs returned {result.domain} ({result.final_residual:.6g}); "
            f"angular {angular.final_residual:.6g}, polar {polar.final_residual:.6g}"
        ]
    return []


def check_svd_se(matrix, num_streams: int, snr_db: float, se: float) -> list:
    """SE of the SVD precoder = sum_i log2(1 + rho/N_s sigma_i^2) over the
    top N_s singular values, from an independent SVD."""
    sigma = np.linalg.svd(np.asarray(matrix), compute_uv=False)[:num_streams]
    rho = 10.0 ** (snr_db / 10.0)
    expected = float(np.sum(np.log2(1.0 + rho / num_streams * sigma**2)))
    if abs(se - expected) > 1e-9 * max(1.0, expected):
        return [f"SVD precoder SE {se:.12g} differs from {expected:.12g} at {snr_db:g} dB"]
    return []


def check_hybrid(f_rf, f_bb, num_streams: int, num_rf_chains: int) -> list:
    """Constant modulus 1/sqrt(N_t), stream power N_s, within the chain budget."""
    problems = []
    n_t = f_rf.shape[0]
    if np.max(np.abs(np.abs(f_rf) - 1.0 / np.sqrt(n_t))) > 1e-10:
        problems.append("hybrid F_RF leaves modulus 1/sqrt(N_t)")
    power = float(np.linalg.norm(f_rf @ f_bb) ** 2)
    if abs(power - num_streams) > 1e-8:
        problems.append(f"hybrid power {power:.12g} differs from N_s = {num_streams}")
    if f_rf.shape[1] > num_rf_chains:
        problems.append(f"hybrid uses {f_rf.shape[1]} chains of {num_rf_chains}")
    return problems
