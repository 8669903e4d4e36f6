"""The package's public names resolve: a deletion leaves no stale export."""

import ifpmine


def test_every_export_is_an_attribute():
    missing = [name for name in ifpmine.__all__ if not hasattr(ifpmine, name)]
    assert missing == []


def test_no_export_is_listed_twice():
    assert len(ifpmine.__all__) == len(set(ifpmine.__all__))
