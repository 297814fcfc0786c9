"""The public surface: every name bdcs exports exists, once, and the
dataclasses holding arrays compare by identity."""

import numpy as np
import pytest

import bdcs


def test_every_exported_name_resolves():
    missing = [name for name in bdcs.__all__ if not hasattr(bdcs, name)]
    assert missing == []


def test_exported_names_are_unique():
    assert len(set(bdcs.__all__)) == len(bdcs.__all__)


ARRAY_DATACLASSES = (
    "PilotMatrix", "Observation", "MeasurementMatrix", "Dictionary",
    "ChannelRealization", "RecoveryResult", "MatrixChannel", "PrecoderPair",
    "BlockPartition",
)


@pytest.mark.parametrize("name", ARRAY_DATACLASSES)
def test_array_dataclasses_compare_by_identity(name):
    assert not getattr(bdcs, name).__dataclass_params__.eq


def _two_dictionaries():
    """Two dictionaries of equal contents; the builder returns one shared
    object, so the second is constructed from copies of the first's arrays."""
    d = bdcs.build_angular_dictionary(bdcs.ArrayConfig(8, 30e9), 1, 1)
    return d, bdcs.Dictionary(d.atoms.copy(), d.angles.copy(), d.distances.copy(), d.partition, d.domain)


@pytest.mark.parametrize("build", [
    lambda: (bdcs.make_pilot_matrix(4, 8, 0), bdcs.make_pilot_matrix(4, 8, 0)),
    _two_dictionaries,
    lambda: (bdcs.Observation(np.ones((2, 4), complex), 0.1, 10.0),
             bdcs.Observation(np.ones((2, 4), complex), 0.1, 10.0)),
], ids=["pilot", "dictionary", "observation"])
def test_equal_contents_compare_without_raising(build):
    a, b = build()
    assert a == a
    assert (a == b) is False
    assert len({a, b}) == 2
