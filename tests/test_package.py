"""The package's public surface."""

import marketrng


def test_every_exported_name_resolves():
    missing = [name for name in marketrng.__all__ if not hasattr(marketrng, name)]
    assert not missing
    assert len(set(marketrng.__all__)) == len(marketrng.__all__)
