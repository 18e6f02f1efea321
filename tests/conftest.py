import numpy as np
import pytest


@pytest.fixture
def np_rng():
    return np.random.default_rng(20240809)


def random_hermitian(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2.0


def random_psd(rng, d, rank=None):
    rank = d if rank is None else rank
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    return g @ g.conj().T


@pytest.fixture
def chernoff_calls(monkeypatch):
    """List that grows by one per ``chernoff_distance`` call."""
    from qmultitest import chernoff

    calls = []
    original = chernoff.chernoff_distance

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(chernoff, "chernoff_distance", counted)
    return calls
