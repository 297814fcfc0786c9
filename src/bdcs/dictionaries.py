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

Both builders are memoized by their arguments, which are hashable values:
an equal call, with arguments of the same types, returns the same read-only
Dictionary, with its cached ``single_precision`` screen (so a count passed
as a float or a bool is refused, never served from the memo). Each keeps
only its most recent grid, so a process holds one dictionary of each kind,
as much as one sweep holds.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .channel import ArrayConfig, _check_count, steering, steering_far
from .errors import ConfigurationError

DEFAULT_POLAR_BETA = 1.15
"""Ring-density control frozen so a 256-element half-wavelength array at
30 GHz yields roughly 2200 polar atoms."""

DEFAULT_POLAR_R_MIN = 5.0
"""Closest polar ring kept in the grid, meters."""

MAX_POLAR_ATOMS = 100_000
"""Largest polar grid built: the reference grid has 2248 atoms, and at
N = 256 a grid this size takes 410 MB in complex128 atoms alone."""


@dataclass(frozen=True, eq=False)
class BlockPartition:
    """Ordered, contiguous, disjoint cover of columns [0, G), held as its
    block lengths: a read-only 1-D intp array of integers at least 1
    (booleans and floats are refused). ``starts`` derives from it."""

    lengths: np.ndarray

    def __post_init__(self):
        lengths = np.asarray(self.lengths)
        if lengths.ndim != 1 or lengths.size == 0 or lengths.dtype.kind not in "iu":
            raise ConfigurationError("block lengths must be a non-empty 1-D sequence of integers")
        if not np.all(lengths >= 1):
            raise ConfigurationError("block lengths must be at least 1")
        lengths = lengths.astype(np.intp)
        lengths.flags.writeable = False
        object.__setattr__(self, "lengths", lengths)

    @classmethod
    def uniform(cls, total: int, block_length: int) -> "BlockPartition":
        if block_length < 1 or total % block_length != 0:
            raise ConfigurationError(
                f"block_length {block_length} must divide the column count {total}"
            )
        return cls(np.full(total // block_length, block_length))

    @property
    def num_blocks(self) -> int:
        return len(self.lengths)

    @property
    def size(self) -> int:
        return int(self.lengths.sum())

    @cached_property
    def starts(self) -> np.ndarray:
        """First column of each block (read-only)."""
        starts = np.concatenate(([0], np.cumsum(self.lengths)[:-1]))
        starts.flags.writeable = False
        return starts

    @property
    def uniform_length(self) -> Optional[int]:
        """Common block length, or None when blocks vary in size."""
        if np.all(self.lengths == self.lengths[0]):
            return int(self.lengths[0])
        return None

    def block_slice(self, block_index: int) -> slice:
        start = int(self.starts[block_index])
        return slice(start, start + int(self.lengths[block_index]))


@dataclass(frozen=True, eq=False)
class Dictionary:
    """Unit-norm atom matrix with per-column angles and distances and a
    block partition.

    ``atoms`` has shape (N, G); ``angles`` and ``distances`` have length G.
    All three are made read-only in place, so one dictionary can be shared
    by every caller and the cached ``single_precision`` copy can never go
    stale.
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
        angles.flags.writeable = distances.flags.writeable = False
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
    ``block_length`` (which must divide G). An equal call returns the same
    dictionary.
    """
    return _angular_grid(array, oversampling, block_length)


@lru_cache(maxsize=1, typed=True)
def _angular_grid(array: ArrayConfig, oversampling: int, block_length: int) -> Dictionary:
    partition = angular_partition(array, oversampling, block_length)
    g = partition.size
    angles = (2.0 * np.arange(g) - g + 1) / g
    atoms = steering_far(array, angles)
    return Dictionary(atoms, angles, np.full(g, np.inf), partition, domain="angular")


def angular_partition(array: ArrayConfig, oversampling: int = 1, block_length: int = 1) -> BlockPartition:
    """Blocks of ``block_length`` over the G = oversampling * N angular columns."""
    _check_count("oversampling", oversampling)
    _check_count("block_length", block_length)
    return BlockPartition.uniform(oversampling * array.num_antennas, block_length)


def polar_ring_distances(array: ArrayConfig, beta: float, r_min: float, spatial_angle: float) -> np.ndarray:
    """Near-field ring distances Z/s, s = 1, 2, ... down to r_min, far to near."""
    z = _ring_scale(array, beta, r_min, spatial_angle)
    return z / np.arange(1, int(np.floor(z / r_min)) + 1)


def polar_atom_count(array: ArrayConfig, beta: float, r_min: float) -> int:
    """Column count of the polar grid, from the ring formula alone: N
    far-field atoms plus floor(Z(a) / r_min) rings per grid angle a. A count
    above MAX_POLAR_ATOMS is refused, before anything is allocated. The ring
    count scales as 1 / (beta^2 r_min), so the message names first the one of
    beta and r_min that raises it by the larger factor over its default."""
    with np.errstate(all="ignore"):  # an infinite or nan count (beta^2 can underflow to 0) is refused below
        rings = sum(np.floor(_ring_scale(array, beta, r_min, a) / r_min) for a in _polar_angles(array))
    count = array.num_antennas + rings
    if not count <= MAX_POLAR_ATOMS:
        # (beta0 / beta)^2 > r_min0 / r_min, as products: a float ** can raise OverflowError
        if DEFAULT_POLAR_BETA * DEFAULT_POLAR_BETA * r_min > beta * beta * DEFAULT_POLAR_R_MIN:
            cause = f"beta {beta} (r_min {r_min} m)"
        else:
            cause = f"r_min {r_min} m (beta {beta})"
        raise ValueError(f"{cause} gives {count:.4g} polar atoms, more than MAX_POLAR_ATOMS = {MAX_POLAR_ATOMS}")
    return int(count)


def _ring_scale(array: ArrayConfig, beta: float, r_min: float, spatial_angle: float) -> float:
    """Z(angle) of the ring formula; a beta or r_min that is not positive is refused."""
    if not beta > 0:  # also rejects nan
        raise ValueError("beta must be positive")
    if not r_min > 0:
        raise ValueError("r_min must be positive")
    return (
        array.num_antennas**2
        * array.element_spacing**2
        * (1.0 - spatial_angle**2)
        / (2.0 * beta**2 * array.wavelength)
    )


def _polar_angles(array: ArrayConfig) -> np.ndarray:
    n = array.num_antennas
    return (2.0 * np.arange(n) - n + 1) / n


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
    degenerates to the far-field-only N columns and a warning is issued, on
    every call that returns such a grid. A grid of more than
    MAX_POLAR_ATOMS atoms is refused (see ``polar_atom_count``). An equal
    call returns the same dictionary.
    """
    dictionary = _polar_grid(array, beta, r_min, block_length)
    if dictionary.num_atoms == array.num_antennas:
        warnings.warn(
            "polar dictionary degenerated to far-field-only atoms "
            "(r_min exceeds every ring distance)",
            stacklevel=2,
        )
    return dictionary


@lru_cache(maxsize=1, typed=True)
def _polar_grid(array: ArrayConfig, beta: float, r_min: float, block_length: int) -> Dictionary:
    _check_count("block_length", block_length)
    polar_atom_count(array, beta, r_min)
    grid = _polar_angles(array)
    runs = [np.concatenate(([np.inf], polar_ring_distances(array, beta, r_min, a))) for a in grid]
    run_lengths = [len(run) for run in runs]
    angles = np.repeat(grid, run_lengths)
    distances = np.concatenate(runs)

    atoms = steering(array, distances, angles)

    block_lengths = []
    for run in run_lengths:
        full, rest = divmod(run, block_length)
        block_lengths.extend([block_length] * full)
        if rest:
            block_lengths.append(rest)
    return Dictionary(atoms, angles, distances, BlockPartition(block_lengths), domain="polar")


def coherence(matrix: np.ndarray) -> float:
    """Mutual coherence of a matrix: max |<a_i, a_j>| over distinct unit-norm columns."""
    a = np.asarray(matrix)
    if a.shape[1] < 2:
        raise ValueError("coherence needs at least two columns")
    gram = np.abs(a.conj().T @ a)
    np.fill_diagonal(gram, 0.0)
    return float(gram.max())


def block_metrics(matrix: np.ndarray, partition: BlockPartition) -> DictionaryMetrics:
    """Coherence, block coherence and sub-coherence of a matrix under a uniform partition.

    mu_B is the max over distinct block pairs (b, c) of the spectral norm of
    A_b^H A_c divided by the block length; nu is the max off-diagonal
    coherence inside any single block. Requires equal-sized blocks.
    """
    a = np.asarray(matrix)
    length = partition.uniform_length
    if length is None:
        raise ConfigurationError("block metrics require a uniform block length")
    if partition.size != a.shape[1]:
        raise ConfigurationError("partition must cover the columns exactly")

    gram = a.conj().T @ a
    off = np.abs(gram)
    np.fill_diagonal(off, 0.0)
    mu = float(off.max())
    if length == 1:
        # blocks are single columns: mu_B reduces to mu and nu vanishes
        return DictionaryMetrics(mu, mu, 0.0)

    num_blocks = partition.num_blocks
    blocked = gram.reshape(num_blocks, length, num_blocks, length).transpose(0, 2, 1, 3)
    spectral = np.linalg.svd(blocked, compute_uv=False)[..., 0]
    np.fill_diagonal(spectral, 0.0)
    mu_block = float(spectral.max()) / length

    nu = 0.0
    for b in range(num_blocks):
        sl = partition.block_slice(b)
        nu = max(nu, float(off[sl, sl].max()))
    return DictionaryMetrics(mu, mu_block, nu)


def export_metadata_csv(dictionary: Dictionary, path) -> None:
    """Write the atom table (column_index, domain, angle, distance) to CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["column_index", "domain", "angle", "distance"])
        for index, (angle, distance) in enumerate(zip(dictionary.angles, dictionary.distances)):
            writer.writerow([index, dictionary.domain, f"{angle:.10g}", f"{distance:.10g}"])
