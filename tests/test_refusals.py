"""Boundary refusals of the library's value objects and builders: each bad
input raises where it enters, with a message that names what is at fault."""

import numpy as np
import pytest

from bdcs import (
    ArrayConfig,
    BlockPartition,
    ChannelRealization,
    ConfigurationError,
    Dictionary,
    DictionaryMetrics,
    ExperimentConfig,
    MatrixChannel,
    Observation,
    PilotMatrix,
    PrecoderPair,
    SparsityProfile,
    block_metrics,
    build_angular_dictionary,
    build_polar_dictionary,
    make_pilot_matrix,
    sparsity_profile,
    sparsity_upper_limit,
    synthesize_matrix_channel,
)
from bdcs.dictionaries import angular_partition
from bdcs.partition import check_profile

ARRAY = ArrayConfig(8, 30e9)


def _precoder_stages_that_do_not_chain():
    f_rf = np.ones((8, 2), dtype=complex) / np.sqrt(8)
    return PrecoderPair(f_rf, np.ones((3, 2), dtype=complex))


REFUSALS = [
    (lambda: ExperimentConfig.from_dict([("trials", 2)]), ConfigurationError, "must be a mapping"),
    (lambda: ChannelRealization(np.ones(8, dtype=complex), ()), ValueError, "channel matrix must have shape"),
    (lambda: synthesize_matrix_channel(ARRAY, ArrayConfig(2, 30e9), [], []), ValueError, "at least one path"),
    (lambda: Dictionary(np.ones(2, dtype=complex), [0.0], [np.inf], BlockPartition.uniform(1, 1)),
     ValueError, "atoms must be a 2-D matrix"),
    (lambda: Dictionary(np.eye(2, dtype=complex), [0.0, 0.5], [np.inf, np.inf], BlockPartition.uniform(3, 1)),
     ConfigurationError, "partition must cover the columns"),
    (lambda: DictionaryMetrics(1.5, 0.1, 0.1), ValueError, "coherence must lie in"),
    (lambda: DictionaryMetrics(0.5, -0.1, 0.0), ValueError, "block metrics must be non-negative"),
    (lambda: build_polar_dictionary(ARRAY, block_length=0), ValueError, "block_length must be"),
    (lambda: block_metrics(np.eye(4, dtype=complex), BlockPartition.uniform(2, 1)),
     ConfigurationError, "partition must cover the columns"),
    (lambda: SparsityProfile((2.0, 1.0), (1.0, 1.0), 0.9), ValueError, "strictly increasing"),
    (lambda: SparsityProfile((1.0,), (0.0,), 0.9), ValueError, "tap_counts must be at least 1"),
    (lambda: sparsity_upper_limit(DictionaryMetrics(0.5, 0.5, 0.0), 0), ValueError, "block_length must be"),
    (lambda: MatrixChannel(np.ones(4, dtype=complex)), ValueError, "channel must be a 2-D matrix"),
    (_precoder_stages_that_do_not_chain, ValueError, "do not chain"),
    (lambda: PilotMatrix(np.ones(4, dtype=complex)), ValueError, "pilot entries must form a Q x N matrix"),
    (lambda: Observation(np.ones(4, dtype=complex), 0.0, 10.0), ValueError, "per_subcarrier must have shape"),
]


@pytest.mark.parametrize("build, error, message", REFUSALS)
def test_refused_at_the_boundary(build, error, message):
    with pytest.raises(error, match=message):
        build()


COUNTS = [
    (lambda: make_pilot_matrix(2.5, 8, 0), "pilot_count"),
    (lambda: make_pilot_matrix(True, 8, 0), "pilot_count"),
    (lambda: make_pilot_matrix(4, True, 0), "num_antennas"),
    (lambda: make_pilot_matrix(4, 8.0, 0), "num_antennas"),
    (lambda: make_pilot_matrix(4, 0, 0), "num_antennas"),
    (lambda: angular_partition(ARRAY, 1.5, 1), "oversampling"),
    (lambda: angular_partition(ARRAY, 1, 2.0), "block_length"),
    (lambda: build_angular_dictionary(ARRAY, 1.5, 1), "oversampling"),
    (lambda: build_polar_dictionary(ARRAY, block_length=1.5), "block_length"),
    (lambda: sparsity_profile(ARRAY, build_angular_dictionary(ARRAY), [10.0], trials=2.5), "trials"),
    (lambda: check_profile([10.0], 0.9, True), "trials"),
    # a count equal to a stored grid's is still refused, not served from the memo
    (lambda: (build_angular_dictionary(ARRAY, 1, 1), build_angular_dictionary(ARRAY, True, 1)), "oversampling"),
    (lambda: (build_angular_dictionary(ARRAY, 1, 2), build_angular_dictionary(ARRAY, 1, 2.0)), "block_length"),
    (lambda: (build_polar_dictionary(ARRAY, r_min=0.01, block_length=1),
              build_polar_dictionary(ARRAY, r_min=0.01, block_length=True)), "block_length"),
]


@pytest.mark.parametrize("call, name", COUNTS)
def test_count_that_is_not_an_integer_names_the_argument(call, name):
    # the message starts with the argument, which the config boundary reads
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        call()
