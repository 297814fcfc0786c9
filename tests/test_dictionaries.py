import csv
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdcs import (
    ArrayConfig,
    BlockPartition,
    ConfigurationError,
    Dictionary,
    block_metrics,
    build_angular_dictionary,
    build_polar_dictionary,
    coherence,
    export_metadata_csv,
    steering,
)
from bdcs.dictionaries import (
    DEFAULT_POLAR_BETA,
    DEFAULT_POLAR_R_MIN,
    MAX_POLAR_ATOMS,
    _angular_grid,
    _polar_grid,
    angular_partition,
    polar_atom_count,
    polar_ring_distances,
)
from helpers import random_dictionary


def brute_force_coherence(matrix):
    g = matrix.shape[1]
    best = 0.0
    for i in range(g):
        for j in range(g):
            if i != j:
                best = max(best, abs(np.vdot(matrix[:, i], matrix[:, j])))
    return best


def brute_force_block_metrics(matrix, block_length):
    g = matrix.shape[1]
    blocks = [matrix[:, s : s + block_length] for s in range(0, g, block_length)]
    mu_b = 0.0
    for b, mb in enumerate(blocks):
        for c, mc in enumerate(blocks):
            if b == c:
                continue
            product = mb.conj().T @ mc
            top = np.sqrt(max(np.linalg.eigvalsh(product.conj().T @ product).max(), 0.0))
            mu_b = max(mu_b, top / block_length)
    nu = 0.0
    for mb in blocks:
        for i in range(block_length):
            for j in range(block_length):
                if i != j:
                    nu = max(nu, abs(np.vdot(mb[:, i], mb[:, j])))
    return mu_b, nu


class TestAngularDictionary:
    def test_orthogonal_grid(self):
        arr = ArrayConfig(8, 30e9)
        d = build_angular_dictionary(arr, 1, 1)
        assert d.num_atoms == 8
        gram = d.atoms.conj().T @ d.atoms
        assert np.allclose(gram, np.eye(8), atol=1e-10)

    def test_oversampled_grid(self):
        arr = ArrayConfig(4, 30e9)
        d = build_angular_dictionary(arr, 2, 1)
        assert d.num_atoms == 8
        gram = np.abs(d.atoms.conj().T @ d.atoms)
        np.fill_diagonal(gram, 0)
        assert gram.max() > 0.1
        # brute-force Gram agrees with the matrix product
        assert abs(coherence(d.atoms) - brute_force_coherence(d.atoms)) < 1e-12

    def test_partition_arithmetic(self):
        arr = ArrayConfig(256, 30e9)
        d = build_angular_dictionary(arr, 1, 4)
        assert d.partition.num_blocks == 64
        assert d.partition.size == 256
        assert d.partition.uniform_length == 4

    def test_partition_is_the_dictionary_partition(self):
        arr = ArrayConfig(16, 30e9)
        partition = angular_partition(arr, 2, 4)
        assert np.array_equal(partition.lengths, build_angular_dictionary(arr, 2, 4).partition.lengths)
        with pytest.raises(ValueError, match="^oversampling"):
            angular_partition(arr, 0, 4)

    def test_non_divisible_block_length(self):
        with pytest.raises(ConfigurationError):
            build_angular_dictionary(ArrayConfig(8, 30e9), 1, 3)

    def test_metadata_angles_cover_grid(self):
        d = build_angular_dictionary(ArrayConfig(16, 30e9), 1, 1)
        assert d.angles[0] == pytest.approx(-15 / 16)
        assert d.angles[-1] == pytest.approx(15 / 16)
        assert np.all(np.isinf(d.distances))


class TestPolarDictionary:
    def test_reference_size_window(self):
        d = build_polar_dictionary(ArrayConfig(256, 30e9), block_length=4)
        assert 1870 <= d.num_atoms <= 2530
        assert d.num_atoms > 4 * 256

    def test_large_beta_degenerates_to_far_field(self):
        arr = ArrayConfig(16, 30e9)
        with pytest.warns(UserWarning):
            d = build_polar_dictionary(arr, beta=1e6, r_min=1.0)
        assert d.num_atoms == 16
        assert np.all(np.isinf(d.distances))
        # an equal call returns the stored grid and warns again
        with pytest.warns(UserWarning):
            assert build_polar_dictionary(arr, beta=1e6, r_min=1.0) is d

    def test_size_monotone_in_beta_and_r_min(self):
        arr = ArrayConfig(64, 30e9)
        sizes_beta = [
            build_polar_dictionary(arr, beta=b, r_min=1.0).num_atoms for b in (0.8, 1.0, 1.3, 2.0)
        ]
        assert all(a >= b for a, b in zip(sizes_beta, sizes_beta[1:]))
        sizes_rmin = [
            build_polar_dictionary(arr, r_min=r).num_atoms for r in (0.25, 0.5, 1.0, 2.0)
        ]
        assert all(a >= b for a, b in zip(sizes_rmin, sizes_rmin[1:]))

    def test_metadata_round_trip(self):
        # every column of both dictionaries equals the scalar steering call bit for bit
        arr = ArrayConfig(32, 30e9)
        for d in (build_polar_dictionary(arr, r_min=0.5), build_angular_dictionary(arr, 2, 1)):
            assert d.angles.shape == d.distances.shape == (d.num_atoms,)
            for g in range(d.num_atoms):
                regenerated = steering(arr, d.distances[g], d.angles[g])
                assert np.array_equal(regenerated, d.atoms[:, g])

    def test_blocks_never_straddle_angles(self):
        arr = ArrayConfig(32, 30e9)
        d = build_polar_dictionary(arr, r_min=0.5, block_length=4)
        for b in range(d.partition.num_blocks):
            sl = d.partition.block_slice(b)
            assert len(set(d.angles[sl])) == 1

    def test_rings_are_contiguous_and_descending(self):
        arr = ArrayConfig(32, 30e9)
        d = build_polar_dictionary(arr, r_min=0.5)
        for angle in np.unique(d.angles):
            (columns,) = np.nonzero(d.angles == angle)
            assert np.array_equal(columns, np.arange(columns[0], columns[-1] + 1))
            distances = d.distances[columns]
            assert np.isinf(distances[0])
            finite = distances[1:]
            assert all(a > b for a, b in zip(finite, finite[1:]))

    @pytest.mark.parametrize("n, beta, r_min", [(256, DEFAULT_POLAR_BETA, 5.0), (32, 1.0, 0.5), (16, 1e6, 1.0)])
    def test_atom_count_is_the_built_size(self, n, beta, r_min):
        arr = ArrayConfig(n, 30e9)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the far-field-only grid
            assert polar_atom_count(arr, beta, r_min) == build_polar_dictionary(arr, beta, r_min).num_atoms

    @pytest.mark.parametrize("r_min", [1e-6, 1e-300, 5e-324])
    def test_oversized_grid_refused_before_allocation(self, r_min):
        # 1e-6 m asks for about 1e10 atoms, 5e-324 m for an infinite count
        arr = ArrayConfig(256, 30e9)
        for call in (polar_atom_count, build_polar_dictionary):
            with pytest.raises(ValueError, match=f"^r_min .*MAX_POLAR_ATOMS = {MAX_POLAR_ATOMS}"):
                call(arr, DEFAULT_POLAR_BETA, r_min)

    @pytest.mark.parametrize("beta, r_min, name", [
        (1e-3, DEFAULT_POLAR_R_MIN, "beta"),  # about 2.8e9 atoms
        (1e-200, 1e6, "beta"),  # an infinite count
        (1e-2, 1e-3, "beta"),  # both small, beta the more: (1.15 / 1e-2)^2 > 5 / 1e-3
        (0.5, 1e-4, "r_min"),  # both small, r_min the more
    ])
    def test_oversized_grid_names_the_value_at_fault(self, beta, r_min, name):
        with pytest.raises(ValueError, match=f"^{name} .*MAX_POLAR_ATOMS = {MAX_POLAR_ATOMS}"):
            polar_atom_count(ArrayConfig(256, 30e9), beta, r_min)

    def test_invalid_parameters(self):
        arr = ArrayConfig(8, 30e9)
        with pytest.raises(ValueError):
            build_polar_dictionary(arr, beta=0.0)
        with pytest.raises(ValueError):
            build_polar_dictionary(arr, r_min=-1.0)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"beta": np.nan}, "beta"),
            ({"beta": -1.0}, "beta"),
            ({"r_min": np.nan}, "r_min"),
            ({"r_min": 0.0}, "r_min"),
        ],
    )
    def test_ring_parameters_refused_naming_the_argument(self, kwargs, name):
        arr = ArrayConfig(8, 30e9)
        args = {"beta": 1.15, "r_min": 5.0, **kwargs}
        with pytest.raises(ValueError, match=f"^{name} must be positive"):
            polar_ring_distances(arr, args["beta"], args["r_min"], 0.0)
        with pytest.raises(ValueError, match=f"^{name} must be positive"):
            build_polar_dictionary(arr, **args)


class TestSharedDictionaries:
    @pytest.mark.parametrize("name", ["atoms", "angles", "distances"])
    def test_arrays_are_read_only(self, name):
        arr = ArrayConfig(8, 30e9)
        for d in (build_angular_dictionary(arr), build_polar_dictionary(arr, r_min=0.01)):
            with pytest.raises(ValueError, match="read-only"):
                getattr(d, name)[0] = 0

    def test_equal_calls_return_one_object(self):
        polar = build_polar_dictionary(ArrayConfig(16, 30e9), r_min=0.05, block_length=2)
        assert build_polar_dictionary(ArrayConfig(16, 30e9), DEFAULT_POLAR_BETA, 0.05, 2) is polar
        angular = build_angular_dictionary(ArrayConfig(16, 30e9), 2, 4)
        assert build_angular_dictionary(ArrayConfig(16, 30e9), oversampling=2, block_length=4) is angular
        assert build_angular_dictionary(ArrayConfig(16, 30e9), 1, 4) is not angular

    def test_memo_holds_at_most_its_bound(self):
        for grid, build in ((_angular_grid, build_angular_dictionary),
                            (_polar_grid, lambda arr: build_polar_dictionary(arr, r_min=1e-3))):
            bound = grid.cache_info().maxsize
            for n in range(4, 6 + bound):
                build(ArrayConfig(n, 30e9))
            assert grid.cache_info().currsize <= bound


class TestCoherence:
    def test_orthonormal_zero(self):
        d = build_angular_dictionary(ArrayConfig(8, 30e9), 1, 1)
        assert coherence(d.atoms) < 1e-10

    def test_duplicate_columns_one(self):
        rng = np.random.default_rng(0)
        col = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        col /= np.linalg.norm(col)
        m = np.column_stack([col, col, rng.standard_normal(6) / 10 + col])
        m /= np.linalg.norm(m, axis=0)
        assert coherence(m) == pytest.approx(1.0, abs=1e-12)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((8, 16)) + 1j * rng.standard_normal((8, 16))
        m /= np.linalg.norm(m, axis=0)
        assert abs(coherence(m) - brute_force_coherence(m)) < 1e-12

    def test_needs_two_columns(self):
        with pytest.raises(ValueError):
            coherence(np.ones((4, 1)))


class TestBlockMetrics:
    def test_single_column_blocks_reduce_to_coherence(self):
        rng = np.random.default_rng(5)
        d = random_dictionary(rng, 8, 16, 1)
        metrics = block_metrics(d.atoms, d.partition)
        assert metrics.block_coherence == coherence(d.atoms)
        assert metrics.sub_coherence == 0.0

    def test_identical_subspace_blocks_maximal(self):
        rng = np.random.default_rng(6)
        col = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        col /= np.linalg.norm(col)
        m = np.column_stack([col, col, col, col])  # two blocks spanning the same line
        metrics = block_metrics(m, BlockPartition.uniform(4, 2))
        mu_b, nu = brute_force_block_metrics(m, 2)
        assert metrics.block_coherence == pytest.approx(1.0, abs=1e-12)
        assert metrics.block_coherence == pytest.approx(mu_b, abs=1e-12)
        assert metrics.sub_coherence == pytest.approx(nu, abs=1e-12)

    def test_block_diagonal_orthogonal_zero(self):
        m = np.eye(8, dtype=complex)
        metrics = block_metrics(m, BlockPartition.uniform(8, 2))
        assert metrics.block_coherence == 0.0

    @pytest.mark.parametrize("block_length", [1, 2, 4])
    def test_matches_brute_force(self, block_length):
        rng = np.random.default_rng(40 + block_length)
        for _ in range(5):
            d = random_dictionary(rng, 16, 40, block_length)
            metrics = block_metrics(d.atoms, d.partition)
            assert abs(metrics.coherence - brute_force_coherence(d.atoms)) < 1e-12
            mu_b, nu = brute_force_block_metrics(d.atoms, block_length)
            assert abs(metrics.block_coherence - mu_b) < 1e-12
            assert abs(metrics.sub_coherence - nu) < 1e-12

    def test_non_uniform_partition_rejected(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((4, 5)) + 0j
        m /= np.linalg.norm(m, axis=0)
        partition = BlockPartition([2, 3])
        with pytest.raises(ConfigurationError):
            block_metrics(m, partition)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_unit_blocks_equal_coherence_property(self, seed):
        rng = np.random.default_rng(seed)
        d = random_dictionary(rng, 6, 12, 1)
        assert block_metrics(d.atoms, d.partition).block_coherence == coherence(d.atoms)


class TestBlockPartition:
    def test_cover_validation(self):
        # a partition is its block lengths, so a gap cannot be written down;
        # what remains to refuse is a length list that is not one
        for lengths in ([], [2, 0], [2, -1], [2.0, 1.5], [True, True], [[2, 2]]):
            with pytest.raises(ConfigurationError):
                BlockPartition(lengths)

    def test_uniform_requires_divisibility(self):
        with pytest.raises(ConfigurationError):
            BlockPartition.uniform(10, 3)

    def test_from_lengths(self):
        p = BlockPartition([3, 2, 4])
        assert p.starts.tolist() == [0, 3, 5] and p.lengths.tolist() == [3, 2, 4]
        assert p.block_slice(1) == slice(3, 5)
        assert p.uniform_length is None
        assert p.size == 9

    def test_starts_and_lengths_read_only(self):
        source = np.array([3, 2, 4])
        p = BlockPartition(source)
        with pytest.raises(ValueError):
            p.lengths[0] = 1
        with pytest.raises(ValueError):
            p.starts[1] = 0
        assert p.starts is p.starts
        source[0] = 1  # the partition holds its own copy
        assert p.lengths.tolist() == [3, 2, 4]


class TestDictionaryValidation:
    def test_rejects_non_unit_columns(self):
        m = np.ones((4, 2), dtype=complex)
        with pytest.raises(ValueError):
            Dictionary(m, [0.0, 0.1], [np.inf, np.inf], BlockPartition.uniform(2, 1))

    def test_rejects_nan_column(self):
        m = np.eye(2, dtype=complex)
        m[:, 1] = np.nan
        with pytest.raises(ValueError, match="unit-norm"):
            Dictionary(m, [0.0, 0.1], [np.inf, np.inf], BlockPartition.uniform(2, 1))

    def test_metadata_length_checked(self):
        m = np.eye(2, dtype=complex)
        with pytest.raises(ValueError, match="one entry per column"):
            Dictionary(m, [0.0], [np.inf, np.inf], BlockPartition.uniform(2, 1))
        with pytest.raises(ValueError, match="one entry per column"):
            Dictionary(m, [0.0, 0.1], [np.inf], BlockPartition.uniform(2, 1))

    def test_angle_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="angles"):
            Dictionary(np.eye(2, dtype=complex), [0.0, 1.5], [np.inf, np.inf], BlockPartition.uniform(2, 1))

    def test_nan_angle_rejected(self):
        with pytest.raises(ValueError, match="angles"):
            Dictionary(np.eye(2, dtype=complex), [0.0, np.nan], [np.inf, np.inf], BlockPartition.uniform(2, 1))

    @pytest.mark.parametrize("distance", [0.0, -3.0, np.nan])
    def test_non_positive_distance_rejected(self, distance):
        with pytest.raises(ValueError, match="distances"):
            Dictionary(np.eye(2, dtype=complex), [0.0, 0.1], [np.inf, distance], BlockPartition.uniform(2, 1))

    def test_valid_columns_accepted(self):
        d = Dictionary(np.eye(2, dtype=complex), [-1.0, 1.0], [np.inf, 2.5], BlockPartition.uniform(2, 1))
        assert d.angles.dtype == d.distances.dtype == np.float64

    def test_atoms_are_read_only_and_not_copied(self):
        m = np.eye(2, dtype=complex)
        d = Dictionary(m, [-1.0, 1.0], [np.inf, 2.5], BlockPartition.uniform(2, 1))
        assert d.atoms is m
        with pytest.raises(ValueError):
            d.atoms[0, 0] = 0.0
        with pytest.raises(ValueError):
            d.single_precision[0, 0] = 0.0

    def test_single_precision_computed_once(self):
        d = build_polar_dictionary(ArrayConfig(16, 30e9), r_min=0.05, block_length=2)
        low = d.single_precision
        assert low is d.single_precision and low.dtype == np.complex64
        np.testing.assert_allclose(low, d.atoms, rtol=0, atol=2.0**-24)


def test_export_metadata_csv(tmp_path):
    d = build_polar_dictionary(ArrayConfig(16, 30e9), r_min=0.05, block_length=2)
    path = tmp_path / "atoms.csv"
    export_metadata_csv(d, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["column_index", "domain", "angle", "distance"]
    assert len(rows) == d.num_atoms + 1
    assert rows[1][1] == "polar" and rows[1][3] == "inf"
