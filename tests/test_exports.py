"""The package's export list is its layer modules' own __all__, each name once."""

import betasn
from betasn import balakrishnan, betafamily, bsn, checks, core, orderstats, quadrature, reference, skewnormal, special

LAYERS = (special, quadrature, core, balakrishnan, skewnormal, betafamily, bsn, orderstats, reference, checks)


def test_exports_are_the_layers_own_lists():
    names = betasn.__all__
    assert len(set(names)) == len(names)
    assert len(names) <= 60
    assert names == [name for layer in LAYERS for name in layer.__all__]
    for layer in LAYERS:
        for name in layer.__all__:
            assert getattr(betasn, name) is getattr(layer, name), name
