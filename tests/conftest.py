import numpy as np
import pytest

from qmultitest import DEFAULT_DIM_CAP
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


def residual_oracle(partials, floor=False):
    """``Q = I - sum(partials)`` and ``Q^(1/2)`` from a raw decomposition,
    independently of the composition under test.  With ``floor``, the
    eigenvalues of ``Q`` at or below ``1e-12`` times the largest are
    zeros, in both."""
    residual = np.eye(partials[0].shape[0]) - sum(partials)
    w, v = np.linalg.eigh(residual)
    w = np.clip(w, 0.0, None)
    if floor:
        w[w <= 1e-12 * np.max(w)] = 0.0
        residual = (v * w) @ v.conj().T
    sqrt_residual = (v * np.sqrt(w)) @ v.conj().T
    return residual, (sqrt_residual + sqrt_residual.conj().T) / 2.0


def dense_detector(elements):
    """A ``Detector`` holding these dense elements as the one block of one
    copy of their space."""
    from qmultitest import Detector, sectors

    layout = sectors.layout(len(elements[0]), (1,))
    return Detector(tuple((e,) for e in elements), layout)


def table_without_parts(ensemble, ns, sub, monkeypatch, k_fit=2):
    """``run_experiment`` with every ``sectors.layout`` made of one-copy
    factors, one block: the dense path, which builds every binary test,
    sub-detector and composition on the dense operators and evaluates the
    misses on dense n-copy states."""
    from qmultitest import sectors
    from qmultitest.evaluation import run_experiment

    layout = sectors.layout
    with monkeypatch.context() as patch:
        patch.setattr(sectors, "layout", lambda d, parts: layout(d, (1,) * sum(parts)))
        return run_experiment(ensemble, ns, sub=sub, k_fit=k_fit)


# Rounding allowance of the binary bound err(n) <= exp(-n xi).
DECAY_SLACK = 1e-12


def binary_table(rho1, rho2, n_max, dim_cap=DEFAULT_DIM_CAP):
    """The pair's binary table for ``n = 1..n_max``, at the default
    ``k_fit = 4``: each row holds the optimal test's summed error and
    ``exp(-n xi)``, and the table's ``fitted_slope`` is fitted over the last
    four."""
    from qmultitest import Ensemble, run_experiment

    ensemble = Ensemble((rho1, rho2))
    return run_experiment(ensemble, range(1, n_max + 1), dim_cap=dim_cap)


def clear_sectors_caches():
    """Empty every cache in ``sectors``: layouts, spin blocks, their powers
    and columns."""
    from qmultitest import sectors

    for value in vars(sectors).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


def helstrom_error_oracle(a, b):
    """``1 - ||A - B||_1 / 2``, the optimal binary test's summed error on
    the states ``A`` and ``B``, from a raw spectrum."""
    return 1.0 - 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))


@pytest.fixture
def chernoff_calls(monkeypatch):
    """List that grows by one per pair handed to the batched Chernoff
    search, ``chernoff._minimize``, through which every pairwise table and
    every ``chernoff_distance`` call goes."""
    from qmultitest import chernoff

    calls = []
    original = chernoff._minimize

    def counted(curves):
        calls.extend(curves)
        return original(curves)

    monkeypatch.setattr(chernoff, "_minimize", counted)
    return calls
