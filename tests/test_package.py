"""The package's public names."""

import sqitest


def test_every_export_resolves_once():
    # a deleted class must not leave a stale name in __all__
    names = sqitest.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(sqitest, name)]
    assert missing == []
