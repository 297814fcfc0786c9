"""Angular (DFT grid) and polar (angle x distance rings) dictionaries.

The polar grid samples angle uniformly and distance on inverse-distance
rings r_s = Z(angle)/s, where Z(angle) = N^2 d^2 (1 - angle^2) / (2 beta^2 lambda)
shrinks toward endfire. Each angle contributes one far-field atom (distance
inf) followed by its rings from far to near, so atoms of one angle form a
contiguous run and block partitions never straddle two angles.

A Dictionary describes its columns with two float arrays of length G:
``angles[g]`` is the spatial angle of column g and ``distances[g]`` its
distance in meters (inf for a far-field column). Column g equals
``steering(array, distances[g], angles[g])`` bit for bit. Angular columns
are all far-field; polar columns run, per angle, inf first and then the
rings far to near.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np

from .channel import ArrayConfig, steering_far, steering_near
from .errors import ConfigurationError

DEFAULT_POLAR_BETA = 1.15
"""Ring-density control frozen so a 256-element half-wavelength array at
30 GHz yields roughly 2200 polar atoms."""

DEFAULT_POLAR_R_MIN = 5.0
"""Closest polar ring kept in the grid, meters."""


@dataclass(frozen=True)
class BlockPartition:
    """Ordered, contiguous, disjoint cover of column indices [0, G)."""

    blocks: tuple

    def __post_init__(self):
        if len(self.blocks) == 0:
            raise ConfigurationError("partition must contain at least one block")
        cursor = 0
        for start, length in self.blocks:
            if start != cursor or length < 1:
                raise ConfigurationError("blocks must be contiguous, disjoint, and non-empty")
            cursor += length
        object.__setattr__(self, "_starts", np.array([s for s, _ in self.blocks], dtype=np.intp))
        object.__setattr__(self, "_lengths", np.array([l for _, l in self.blocks], dtype=np.intp))

    @classmethod
    def uniform(cls, total: int, block_length: int) -> "BlockPartition":
        if block_length < 1 or total % block_length != 0:
            raise ConfigurationError(
                f"block_length {block_length} must divide the column count {total}"
            )
        return cls(tuple((s, block_length) for s in range(0, total, block_length)))

    @classmethod
    def from_lengths(cls, lengths: Sequence[int]) -> "BlockPartition":
        starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        return cls(tuple((int(s), int(l)) for s, l in zip(starts, lengths)))

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def size(self) -> int:
        start, length = self.blocks[-1]
        return start + length

    @property
    def starts(self) -> np.ndarray:
        return self._starts  # type: ignore[attr-defined]

    @property
    def lengths(self) -> np.ndarray:
        return self._lengths  # type: ignore[attr-defined]

    @property
    def uniform_length(self) -> Optional[int]:
        """Common block length, or None when blocks vary in size."""
        lengths = self.lengths
        if np.all(lengths == lengths[0]):
            return int(lengths[0])
        return None

    def block_slice(self, block_index: int) -> slice:
        start, length = self.blocks[block_index]
        return slice(start, start + length)


@dataclass(frozen=True, eq=False)
class Dictionary:
    """Unit-norm atom matrix with per-column angles and distances and a
    block partition.

    ``atoms`` has shape (N, G) and is made read-only in place, so the cached
    ``single_precision`` copy can never go stale; ``angles`` and
    ``distances`` have length G.
    """

    atoms: np.ndarray
    angles: np.ndarray
    distances: np.ndarray
    partition: BlockPartition
    domain: str = "angular"

    def __post_init__(self):
        a = np.asarray(self.atoms)
        if a.ndim != 2:
            raise ValueError("atoms must be a 2-D matrix")
        norms = np.linalg.norm(a, axis=0)
        if not np.all(np.abs(norms - 1.0) <= 1e-10):  # also rejects nan
            raise ValueError("all dictionary columns must be unit-norm")
        a.flags.writeable = False
        object.__setattr__(self, "atoms", a)
        angles = np.asarray(self.angles, dtype=float)
        distances = np.asarray(self.distances, dtype=float)
        if angles.shape != (a.shape[1],) or distances.shape != (a.shape[1],):
            raise ValueError("angles and distances must have one entry per column")
        if not np.all(np.abs(angles) <= 1):
            raise ValueError("angles must lie in [-1, 1]")
        if not np.all((distances > 0) | np.isinf(distances)):
            raise ValueError("distances must be positive or inf (far-field)")
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "distances", distances)
        if self.partition.size != a.shape[1]:
            raise ConfigurationError("partition must cover the columns exactly")

    @cached_property
    def single_precision(self) -> np.ndarray:
        """The atoms in complex64, scaled to a largest column norm of 1
        (read-only): the greedy block kernel's screen, built once per
        dictionary."""
        return _single_precision(self.atoms)

    @property
    def num_atoms(self) -> int:
        return self.atoms.shape[1]

    @property
    def num_antennas(self) -> int:
        return self.atoms.shape[0]


def _single_precision(matrix: np.ndarray) -> np.ndarray:
    """Read-only complex64 copy of ``matrix`` divided by its largest column
    norm, rounded chunk by chunk, so no float64 copy is made."""
    largest = float(np.linalg.norm(matrix, axis=0).max(initial=0.0))
    low = np.empty(matrix.shape, dtype=np.complex64)
    np.multiply(matrix, 1.0 / largest if largest > 0 else 1.0, out=low, casting="same_kind")
    low.flags.writeable = False
    return low


@dataclass(frozen=True)
class DictionaryMetrics:
    """Coherence mu, block coherence mu_B (spectral norm / L_b), sub-coherence nu."""

    coherence: float
    block_coherence: float
    sub_coherence: float

    def __post_init__(self):
        if not (-1e-9 <= self.coherence <= 1.0 + 1e-9):
            raise ValueError("coherence must lie in [0, 1]")
        if self.block_coherence < -1e-9 or self.sub_coherence < -1e-9:
            raise ValueError("block metrics must be non-negative")


def build_angular_dictionary(
    array: ArrayConfig, oversampling: int = 1, block_length: int = 1
) -> Dictionary:
    """DFT-style grid of far-field steering vectors.

    Columns sit at spatial angles (2m - G + 1)/G for m = 0..G-1 with
    G = oversampling * N; adjacent angles are grouped into blocks of
    ``block_length`` (which must divide G).
    """
    if oversampling < 1:
        raise ValueError("oversampling must be at least 1")
    g = oversampling * array.num_antennas
    partition = BlockPartition.uniform(g, block_length)
    angles = (2.0 * np.arange(g) - g + 1) / g
    atoms = steering_far(array, angles)
    return Dictionary(atoms, angles, np.full(g, np.inf), partition, domain="angular")


def polar_ring_distances(array: ArrayConfig, beta: float, r_min: float, spatial_angle: float) -> np.ndarray:
    """Near-field ring distances Z/s, s = 1, 2, ... down to r_min, far to near."""
    z = (
        array.num_antennas**2
        * array.element_spacing**2
        * (1.0 - spatial_angle**2)
        / (2.0 * beta**2 * array.wavelength)
    )
    count = int(np.floor(z / r_min)) if z >= r_min else 0
    if count == 0:
        return np.empty(0)
    return z / np.arange(1, count + 1)


def build_polar_dictionary(
    array: ArrayConfig,
    beta: float = DEFAULT_POLAR_BETA,
    r_min: float = DEFAULT_POLAR_R_MIN,
    block_length: int = 1,
) -> Dictionary:
    """Polar grid: per uniform angle, one far-field atom plus distance rings.

    Atoms are ordered angle-major with rings contiguous (far to near). The
    partition chops each angle run into blocks of ``block_length``; a run
    whose size is not a multiple of ``block_length`` ends with one shorter
    block, so the partition is only uniform when every run divides evenly.

    Larger beta or r_min prune rings; if no angle keeps a ring the grid
    degenerates to the far-field-only N columns and a warning is issued.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if r_min <= 0:
        raise ValueError("r_min must be positive")
    if block_length < 1:
        raise ValueError("block_length must be at least 1")
    n = array.num_antennas
    grid = (2.0 * np.arange(n) - n + 1) / n
    runs = [np.concatenate(([np.inf], polar_ring_distances(array, beta, r_min, a))) for a in grid]
    run_lengths = [len(run) for run in runs]
    angles = np.repeat(grid, run_lengths)
    distances = np.concatenate(runs)
    if len(distances) == n:
        warnings.warn(
            "polar dictionary degenerated to far-field-only atoms "
            "(r_min exceeds every ring distance)",
            stacklevel=2,
        )

    far = np.isinf(distances)
    atoms = np.empty((n, len(distances)), dtype=np.complex128)
    atoms[:, ~far] = steering_near(array, distances[~far], angles[~far])
    atoms[:, far] = steering_far(array, angles[far])

    block_lengths = []
    for run in run_lengths:
        full, rest = divmod(run, block_length)
        block_lengths.extend([block_length] * full)
        if rest:
            block_lengths.append(rest)
    partition = BlockPartition.from_lengths(block_lengths)
    return Dictionary(atoms, angles, distances, partition, domain="polar")


def _as_matrix(dict_or_matrix: Union[Dictionary, np.ndarray]) -> np.ndarray:
    if isinstance(dict_or_matrix, Dictionary):
        return dict_or_matrix.atoms
    return np.asarray(dict_or_matrix)


def coherence(dict_or_matrix: Union[Dictionary, np.ndarray]) -> float:
    """Mutual coherence: max |<a_i, a_j>| over distinct unit-norm columns."""
    a = _as_matrix(dict_or_matrix)
    if a.shape[1] < 2:
        raise ValueError("coherence needs at least two columns")
    gram = np.abs(a.conj().T @ a)
    np.fill_diagonal(gram, 0.0)
    return float(gram.max())


def block_metrics(
    dict_or_matrix: Union[Dictionary, np.ndarray],
    partition: Optional[BlockPartition] = None,
) -> DictionaryMetrics:
    """Coherence, block coherence, and sub-coherence under a uniform partition.

    mu_B is the max over distinct block pairs (b, c) of the spectral norm of
    A_b^H A_c divided by the block length; nu is the max off-diagonal
    coherence inside any single block. Requires equal-sized blocks.
    """
    a = _as_matrix(dict_or_matrix)
    if partition is None:
        if not isinstance(dict_or_matrix, Dictionary):
            raise ConfigurationError("a partition is required for raw matrices")
        partition = dict_or_matrix.partition
    length = partition.uniform_length
    if length is None:
        raise ConfigurationError("block metrics require a uniform block length")
    if partition.size != a.shape[1]:
        raise ConfigurationError("partition must cover the columns exactly")

    gram = a.conj().T @ a
    abs_gram = np.abs(gram)
    off = abs_gram.copy()
    np.fill_diagonal(off, 0.0)
    mu = float(off.max()) if a.shape[1] > 1 else 0.0

    num_blocks = partition.num_blocks
    if length == 1:
        # blocks are single columns: mu_B reduces to mu and nu vanishes
        return DictionaryMetrics(mu, mu, 0.0)

    blocked = gram.reshape(num_blocks, length, num_blocks, length).transpose(0, 2, 1, 3)
    spectral = np.linalg.svd(blocked, compute_uv=False)[..., 0]
    inter = spectral.copy()
    np.fill_diagonal(inter, 0.0)
    mu_block = float(inter.max()) / length if num_blocks > 1 else 0.0

    nu = 0.0
    for b in range(num_blocks):
        sl = partition.block_slice(b)
        intra = off[sl, sl]
        if intra.size:
            nu = max(nu, float(intra.max()))
    return DictionaryMetrics(mu, mu_block, nu)


def export_metadata_csv(dictionary: Dictionary, path) -> None:
    """Write the atom table (column_index, domain, angle, distance) to CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["column_index", "domain", "angle", "distance"])
        for index, (angle, distance) in enumerate(zip(dictionary.angles, dictionary.distances)):
            distance = "inf" if np.isinf(distance) else f"{distance:.10g}"
            writer.writerow([index, dictionary.domain, f"{angle:.10g}", distance])
