import numpy as np
import pytest

from qmultitest.errors import PSDViolation


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


def matrix_power(a, s):
    """Fractional power ``A**s`` of a PSD matrix, ``s >= 0``, from a raw
    decomposition: the oracle for the Chernoff overlap curve.

    Eigenvalues at or below ``1e-12 * max |eigenvalue|`` are sent to zero
    for every ``s``, so ``s = 0`` yields the support projection rather
    than the identity.
    """
    if s < 0:
        raise ValueError(f"exponent must be nonnegative, got {s}")
    w, v = np.linalg.eigh(a)
    if w.size and w[0] < -1e-10:
        raise PSDViolation(f"matrix has negative eigenvalue {w[0]:.3e}")
    powered = np.zeros_like(w)
    keep = w > 1e-12 * np.max(np.abs(w))
    powered[keep] = w[keep] ** s
    out = (v * powered) @ v.conj().T
    return (out + out.conj().T) / 2.0


def residual_oracle(partials):
    """``Q = I - sum(partials)`` and ``Q^(1/2)`` from a raw decomposition,
    independently of the composition under test."""
    residual = np.eye(partials[0].shape[0]) - sum(partials)
    w, v = np.linalg.eigh(residual)
    sqrt_residual = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    return residual, (sqrt_residual + sqrt_residual.conj().T) / 2.0


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
