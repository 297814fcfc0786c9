"""Shared test utilities: synthetic dictionaries, observation builders, and
independent reference implementations used as oracles."""

import numpy as np

from bdcs import BlockPartition, Dictionary, Observation


def random_dictionary(rng, num_antennas, num_atoms, block_length):
    """Unit-norm complex Gaussian dictionary with a uniform partition."""
    m = rng.standard_normal((num_antennas, num_atoms)) + 1j * rng.standard_normal(
        (num_antennas, num_atoms)
    )
    m = m / np.linalg.norm(m, axis=0)
    angles = np.linspace(-1.0, 1.0, num_atoms)
    return Dictionary(
        m, angles, np.full(num_atoms, np.inf), BlockPartition.uniform(num_atoms, block_length),
        domain="angular",
    )


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
        scores = np.array([
            np.sum(np.abs(corr[partition.block_slice(b)]) ** 2) for b in range(partition.num_blocks)
        ])
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
