"""The public surface: every name bdcs exports exists, once."""

import bdcs


def test_every_exported_name_resolves():
    missing = [name for name in bdcs.__all__ if not hasattr(bdcs, name)]
    assert missing == []


def test_exported_names_are_unique():
    assert len(set(bdcs.__all__)) == len(bdcs.__all__)
