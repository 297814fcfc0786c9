"""Shared test utilities: synthetic dictionaries, observation builders, and
independent reference implementations used as oracles."""

from typing import Optional

import numpy as np

from bdcs import BlockPartition, Dictionary, Observation


def random_dictionary(rng, num_antennas, num_atoms, block_length, constant_modulus=False):
    """Unit-norm dictionary with a uniform partition: complex Gaussian atoms,
    or with ``constant_modulus`` random phases over sqrt(num_antennas), as
    the hybrid precoder's analog stage needs."""
    if constant_modulus:
        m = np.exp(2j * np.pi * rng.random((num_antennas, num_atoms))) / np.sqrt(num_antennas)
    else:
        m = rng.standard_normal((num_antennas, num_atoms)) + 1j * rng.standard_normal(
            (num_antennas, num_atoms)
        )
        m = m / np.linalg.norm(m, axis=0)
    angles = np.linspace(-1.0, 1.0, num_atoms)
    return Dictionary(
        m, angles, np.full(num_atoms, np.inf), BlockPartition.uniform(num_atoms, block_length),
        domain="angular",
    )


FINITENESS_CASES = [
    (np.array([[np.nan, 1.0]], np.float32), False),
    (np.array([[np.inf, 1.0]], np.float16), False),
    (np.ones((2, 3), np.float32), True),
    (np.array([[0x7FF8000000000000]], np.int64), True),  # the bytes of a float64 nan
]
"""(matrix, finite) rows for channel types that refuse non-finite entries:
the check reads the values in their own dtype, not their bytes as float64."""


def count_kernel_runs(monkeypatch) -> list:
    """Wrap the greedy block kernel that bsomp and bsomp_batch call so that
    every run appends its number of targets to the returned list."""
    import bdcs.recovery

    runs = []
    kernel = bdcs.recovery._greedy_blocks

    def counted(columns, targets, *args, **kwargs):
        runs.append(len(targets))
        return kernel(columns, targets, *args, **kwargs)

    monkeypatch.setattr(bdcs.recovery, "_greedy_blocks", counted)
    return runs


def block_sparse_instance(rng, measurement, sparsity_blocks, snr_db, num_subcarriers=1):
    """Draw a block-sparse coefficient matrix, its noisy observation, and the
    true block support. Coefficients live in the (renormalized) measurement
    frame, i.e. y = Phi_tilde x + n."""
    partition = measurement.dictionary.partition
    g = measurement.num_columns
    true_blocks = rng.choice(partition.num_blocks, size=sparsity_blocks, replace=False)
    cols = np.concatenate(
        [np.arange(*partition.block_slice(int(b)).indices(g)) for b in true_blocks]
    )
    x = np.zeros((num_subcarriers, g), dtype=np.complex128)
    x[:, cols] = (
        rng.standard_normal((num_subcarriers, cols.size))
        + 1j * rng.standard_normal((num_subcarriers, cols.size))
    ) / np.sqrt(2.0)
    clean = x @ measurement.entries.T
    if np.isinf(snr_db):
        sigma2 = 0.0
        received = clean
    else:
        sigma2 = float(np.mean(np.abs(clean) ** 2)) / 10.0 ** (snr_db / 10.0)
        noise = np.sqrt(sigma2 / 2.0) * (
            rng.standard_normal(clean.shape) + 1j * rng.standard_normal(clean.shape)
        )
        received = clean + noise
    obs = Observation(received, sigma2, snr_db)
    return x, obs, set(int(b) for b in true_blocks)


def block_somp_reference(matrix, y, partition, max_blocks):
    """Block SOMP written out plainly, kept independent of the package
    solver: block b scores sum over its columns and the subcarriers of
    |matrix^H r|^2 on the residual r (Q, K), then a full least-squares refit.

    Returns the selected blocks in selection order.
    """
    residual = y.astype(np.complex128)
    support, cols = [], []
    for _ in range(min(max_blocks, partition.num_blocks)):
        corr = matrix.conj().T @ residual  # (G, K)
        scores = np.add.reduceat(np.sum(np.abs(corr) ** 2, axis=1), partition.starts)
        scores[support] = -np.inf
        block = int(np.argmax(scores))
        support.append(block)
        cols.extend(range(*partition.block_slice(block).indices(matrix.shape[1])))
        sol, *_ = np.linalg.lstsq(matrix[:, cols], y, rcond=None)
        residual = y - matrix[:, cols] @ sol
    return support


def omp_reference(matrix, y, max_atoms, tol=0.0):
    """Plain orthogonal matching pursuit, kept independent of the package
    solver: greedy single-column selection with a full least-squares refit.

    Returns (support list in selection order, coefficient vector length G).
    """
    g = matrix.shape[1]
    residual = y.astype(np.complex128)
    y_norm = np.linalg.norm(y)
    support = []
    coef = np.zeros(g, dtype=np.complex128)
    if y_norm == 0:
        return support, coef
    for _ in range(max_atoms):
        scores = np.abs(matrix.conj().T @ residual)
        scores[support] = -1.0
        j = int(np.argmax(scores))
        support.append(j)
        basis = matrix[:, support]
        sol, *_ = np.linalg.lstsq(basis, y, rcond=None)
        residual = y - basis @ sol
        if np.linalg.norm(residual) / y_norm <= tol:
            break
    coef[support] = sol
    return support, coef


def greedy_blocks_reference(
    columns: np.ndarray, target: np.ndarray, partition: BlockPartition, max_blocks: int,
    tolerance: float, weights: Optional[np.ndarray] = None, decay_floor: Optional[float] = None,
    max_columns: Optional[int] = None,
):
    """Greedy block pursuit of ``target`` (M, S) over the blocks of ``columns`` (M, G).

    Per iteration block b scores ||R^H columns_b||_F^2 (times weights[b]) on
    the residual R; the correlation R^H columns, (S, G), conjugates only the
    residual and never copies ``columns``. The best unselected block (ties
    to the lowest index) has its columns appended to the basis, and
    ``target`` is refit by least squares over the whole basis. With
    ``max_columns`` set, a block wider than the columns left scores -inf.
    Stops at min(max_blocks, block count) blocks, a relative residual at or
    below ``tolerance``, a zero target, or when no unselected block fits
    ``max_columns``; the candidate is discarded and the loop ends when its
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
        corr = residual.conj().T @ columns  # (S, G)
        scores = np.add.reduceat(np.sum(np.abs(corr) ** 2, axis=0), partition.starts)
        if weights is not None:
            scores = scores * weights
        if selected:
            scores[np.asarray(selected)] = -np.inf
        if max_columns is not None:
            scores[partition.lengths > max_columns - basis.shape[1]] = -np.inf
        block = int(np.argmax(scores))
        if scores[block] == -np.inf:
            break  # no unselected block fits the column cap

        block_slice = partition.block_slice(block)
        new_cols = columns[:, block_slice]
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
