"""Block layouts of ``n``-copy operators, made of tensor factors.

A split row's operators are unchanged by permuting copies inside each part
of the copy budget (its runs of consecutive copies): tensor powers commute
with copy permutations, and so do the detectors built from them (Harrow,
quant-ph/0512255).  A layout is a real orthogonal ``W`` under which every
such operator is block diagonal, ``W^T X W = (+)_s B_s (x) I_{m_s}``: block
``s`` appears ``m_s`` times, its multiplicity, and the operator is held as
its blocks ``B_s``.  A trace or a squared Frobenius norm is then the
multiplicity-weighted sum over the blocks, and a lowest eigenvalue the
lowest over them.  ``W`` is never formed on the way from states to errors.

A layout is a tensor product of factors, one per run of copies in copy
order, each with its own local decomposition (``Factor``): local blocks of
``sizes``, repeated ``mults`` times, the local blocks of ``rho^(x)copies``
(``Factor.blocks``), and the local ``W`` (``Factor.basis``), built only on
demand.  There are three kinds:

* *a qubit part* of ``p`` copies: by Schur–Weyl duality, blocks
  ``det(rho)^t Sym^(p-2t)(rho)`` for ``t = 0..p//2``, of size
  ``p - 2t + 1``, each repeated ``m_t = C(p, t) - C(p, t - 1)`` times
  (``_spin_blocks``), with ``W = schur_basis(p)``;
* *a copy pair* of ``C^d``: its symmetric and antisymmetric subspaces,
  blocks ``S(rho)`` and ``A(rho)`` of ``rho (x) rho``, with
  ``W = pair_basis(d)``;
* *a lone copy*: ``rho`` itself, with ``W = I``.

``layout(d, parts)`` picks them: one qubit factor per part for ``d = 2``,
and for ``d >= 3`` the copy pairs ``(o, o+1), (o+2, o+3), ...`` of each part
with the last copy of an odd part alone.  A block is one local block of
every factor: its size and multiplicity are the products of theirs, and
blocks are ordered lexicographically, first factor most significant.  So
the ``W`` of two layouts side by side is the tensor product of theirs: block
``(s, t)`` of ``X (x) Y`` is ``kron(X_s, Y_t)``, of multiplicity ``m_s m_t``,
on the two layouts' factors joined (``kron``).  A dense operator on ``n``
copies is the one block of ``n`` one-copy factors, ``layout(d, (1,) * n)``,
with ``W = I``.

Only ``layout`` branches on ``d``.  Each factor's local blocks are computed
here, and ``power_blocks`` checks every state against its layout.  A layout
is the one record of an operator's copies (``Layout.copies``), and an
operator on it carries it (``Blocks``).  Every detector is built on the
layout of its own parts: the binary test and the PGM on ``layout(d, (n,))``,
a split on its sub-detectors' layouts joined, so no operator is ever moved
onto a layout from its dense form.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import linalg
from .errors import DimensionMismatch
from .states import DensityMatrix, check_power


def pair_basis(d: int) -> tuple[np.ndarray, int]:
    """Real orthogonal basis of ``C^d (x) C^d`` as columns: the symmetric
    ``e_i e_i`` and ``(e_i e_j + e_j e_i) / sqrt 2`` (``i < j``), then the
    antisymmetric ``(e_i e_j - e_j e_i) / sqrt 2``; and the symmetric
    dimension ``d (d + 1) / 2``."""
    basis = np.zeros((d * d, d * d))
    upper = [(i, j) for i in range(d) for j in range(i + 1, d)]
    for i in range(d):
        basis[i * d + i, i] = 1.0
    column = d
    for sign in (1.0, -1.0):
        for i, j in upper:
            basis[i * d + j, column] = math.sqrt(0.5)
            basis[j * d + i, column] = sign * math.sqrt(0.5)
            column += 1
    return basis, d + len(upper)


class Factor(NamedTuple):
    """One tensor factor of a layout: ``copies`` consecutive copies, of
    local dimension ``dim``, whose local blocks have ``sizes`` and
    ``mults``.  ``blocks(rho)`` returns the local blocks of
    ``rho^(x)copies`` and ``basis()`` the local ``W``, its columns grouped
    by block, then by the block's row, then by copy."""

    copies: int
    dim: int
    sizes: tuple[int, ...]
    mults: tuple[int, ...]
    blocks: Callable[[DensityMatrix], Sequence[np.ndarray]]
    basis: Callable[[], np.ndarray]


class Layout(NamedTuple):
    """A block layout: its tensor factors in copy order, each block's
    multiplicity and the dimension of the operators on it, both products of
    the factors' local ones, and the number of copies the factors hold."""

    factors: tuple[Factor, ...]
    mults: tuple[int, ...]
    dim: int
    copies: int


@functools.lru_cache(maxsize=None)
def _spin(p: int) -> Factor:
    """A qubit part of ``p`` copies: its spin blocks."""
    ts = range(p // 2 + 1)
    return Factor(
        p,
        2 ** p,
        tuple(p - 2 * t + 1 for t in ts),
        tuple(math.comb(p, t) - (math.comb(p, t - 1) if t else 0) for t in ts),
        lambda rho: _spin_blocks(rho.matrix.tobytes(), p),
        lambda: schur_basis(p),
    )


def _binomial(a: complex, b: complex, e: int) -> np.ndarray:
    """Coefficients of ``(a + b z)^e`` in ascending powers of ``z``."""
    return np.array(
        [math.comb(e, p) * a ** (e - p) * b ** p for p in range(e + 1)],
        dtype=np.complex128,
    )


def _binomials(a: np.ndarray, k: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The coefficients of ``(a00 + a10 z)^e`` and ``(a01 + a11 z)^e`` for
    ``e = 0..k``: the factors ``_sym_power`` convolves, for powers to ``k``."""
    return (
        [_binomial(a[0, 0], a[1, 0], e) for e in range(k + 1)],
        [_binomial(a[0, 1], a[1, 1], e) for e in range(k + 1)],
    )


def _sym_power(
    a: np.ndarray, k: int, binomials: tuple[list[np.ndarray], list[np.ndarray]]
) -> np.ndarray:
    """``A^(x)k`` restricted to the symmetric subspace, in the orthonormal
    Dicke basis (``j`` = number of second basis vectors).

    In the monomial basis ``x^(k-j) y^j`` column ``j`` holds the
    coefficients of ``(a00 x + a10 y)^(k-j) (a01 x + a11 y)^j``; the Dicke
    vector ``j`` is ``sqrt(C(k, j))`` times that monomial.  ``binomials``
    is ``_binomials(a, k')`` for some ``k' >= k``, so several powers share
    their factors.
    """
    left, right = binomials
    out = np.empty((k + 1, k + 1), dtype=np.complex128)
    for j in range(k + 1):
        out[:, j] = np.convolve(left[k - j], right[j])
    # Python floats: past k = 66 the binomials overflow int64.
    norms = np.array([math.sqrt(float(math.comb(k, j))) for j in range(k + 1)])
    return out * (norms[None, :] / norms[:, None])


# A binary test and its misses, or a split row's composition and errors,
# ask for the same states' blocks in turn.  A split row has r states times
# its distinct parts as keys (10 for r = 5 at n = 7, 16 for r = 8), and
# sixteen entries hold them all for r <= 8, so each is computed once per
# row.  A row on other copy counts evicts them.
@functools.lru_cache(maxsize=16)
def _spin_blocks(matrix: bytes, p: int) -> tuple[np.ndarray, ...]:
    """The local blocks of ``rho^(x)p`` for the qubit state with these
    matrix bytes, read-only: ``det(rho)^t Sym^(p-2t)(rho)`` for
    ``t = 0..p//2`` (Harrow, quant-ph/0512255)."""
    a = np.frombuffer(matrix, dtype=np.complex128).reshape(2, 2)
    det = float((a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]).real)
    binomials = _binomials(a, p)
    ts = range(p // 2 + 1)
    out = tuple(det ** t * _sym_power(a, p - 2 * t, binomials) for t in ts)
    for block in out:
        block.setflags(write=False)
    return out


@functools.lru_cache(maxsize=None)
def _pair(d: int) -> Factor:
    """A pair of copies of ``C^d``: its symmetric and antisymmetric
    blocks."""
    basis, sym = pair_basis(d)
    basis.setflags(write=False)

    def blocks(rho: DensityMatrix) -> list[np.ndarray]:
        both = basis.T @ linalg.kron(rho.matrix, rho.matrix) @ basis
        return [linalg.hermitize(h) for h in (both[:sym, :sym], both[sym:, sym:])]

    return Factor(2, d * d, (sym, d * d - sym), (1, 1), blocks, lambda: basis)


@functools.lru_cache(maxsize=None)
def _lone(d: int) -> Factor:
    """A lone copy of ``C^d``: one block, the state itself."""
    return Factor(1, d, (d,), (1,), lambda rho: [rho.matrix], lambda: np.eye(d))


@functools.lru_cache(maxsize=None)
def _layout(factors: tuple[Factor, ...]) -> Layout:
    """The layout of these factors, built once per tuple of them and shared."""
    mults = tuple(map(math.prod, itertools.product(*(f.mults for f in factors))))
    dim = math.prod(f.dim for f in factors)
    return Layout(factors, mults, dim, sum(f.copies for f in factors))


@functools.lru_cache(maxsize=None)
def layout(d: int, parts: tuple[int, ...]) -> Layout:
    """The layout of an operator on copy ``parts`` (sizes of consecutive
    runs of copies) of ``C^d``: one qubit factor per part for ``d = 2``, or
    each part's copies paired in order, the last of an odd part alone."""
    if d == 2:
        return _layout(tuple(_spin(p) for p in parts))
    kinds = [kind for m in parts for kind in (_pair,) * (m // 2) + (_lone,) * (m % 2)]
    return _layout(tuple(kind(d) for kind in kinds))


@functools.lru_cache(maxsize=None)
def schur_basis(p: int) -> np.ndarray:
    """Real orthogonal ``W`` of the qubit factor ``_spin(p)``:
    ``W^T rho^(x)p W`` is the direct sum over ``t`` of its local block
    ``det(rho)^t Sym^(p-2t)(rho)`` (x) ``I_{m_t}`` (``_spin_blocks``), its
    columns grouped by ``t``, then by Dicke index ``a`` (the block's row),
    then by copy.

    Qubits are coupled one at a time with the spin-1/2 Clebsch–Gordan
    coefficients (Condon–Shortley phases), so every copy of spin ``J``
    holds ``|J, J - a>`` in column ``a``, which ``rho^(x)p`` maps as
    ``det(rho)^t Sym^(2J)(rho)`` maps the Dicke vector ``a``.  Built once
    per ``p``; its array is read-only.
    """
    # Each copy: (2J, columns |J, J - a> for a = 0..2J), on the qubits so far.
    copies = [(1, np.eye(2))]
    for _ in range(p - 1):
        grown = []
        for j2, v in copies:
            rows = 2 * len(v)
            # J = j + 1/2: sqrt((2j+1-a)/(2j+1)) |j, a> |0>
            #              + sqrt(a/(2j+1)) |j, a-1> |1>.
            up = np.zeros((rows, j2 + 2))
            a = np.arange(j2 + 1)
            up[0::2, : j2 + 1] = v * np.sqrt((j2 + 1 - a) / (j2 + 1))
            up[1::2, 1:] = v * np.sqrt((a + 1) / (j2 + 1))
            grown.append((j2 + 1, up))
            if j2:
                # J = j - 1/2: -sqrt((a+1)/(2j+1)) |j, a+1> |0>
                #              + sqrt((2j-a)/(2j+1)) |j, a> |1>.
                a = np.arange(j2)
                down = np.zeros((rows, j2))
                down[0::2] = -v[:, 1:] * np.sqrt((a + 1) / (j2 + 1))
                down[1::2] = v[:, :-1] * np.sqrt((j2 - a) / (j2 + 1))
                grown.append((j2 - 1, down))
        copies = grown
    columns = []
    for t in range(p // 2 + 1):
        same = [v for j2, v in copies if j2 == p - 2 * t]
        # Dicke index major, copy minor: block (x) I_{m_t}.
        columns.append(np.stack(same, axis=2).reshape(2 ** p, -1))
    basis = np.concatenate(columns, axis=1)
    basis.setflags(write=False)
    return basis


class Blocks(NamedTuple):
    """An operator on a layout: the blocks of ``W^T X W``, and the
    layout."""

    blocks: Sequence[np.ndarray]
    layout: Layout


def kron(x: Blocks, y: Blocks) -> Blocks:
    """``X (x) Y`` on ``X``'s layout followed by ``Y``'s, their factors
    joined: ``W = W_X (x) W_Y``, so block ``(s, t)``, ``s`` the more
    significant, holds ``kron(X_s, Y_t)`` with multiplicity ``m_s m_t``."""
    return Blocks(
        [linalg.kron(a, b) for a in x.blocks for b in y.blocks],
        _layout(x.layout.factors + y.layout.factors),
    )


def from_blocks(blocks: Sequence[np.ndarray], lay: Layout) -> np.ndarray:
    """``W B W^T`` for ``B`` the direct sum of these blocks, each repeated
    its multiplicity."""
    dim = lay.dim
    x = np.zeros((dim, dim), dtype=np.complex128)
    labels = itertools.product(*(range(len(f.sizes)) for f in lay.factors))
    for label, block in zip(labels, blocks, strict=True):
        # The block's rows in the factors' local bases, one column per copy.
        flat = np.zeros((1, 1), dtype=np.intp)
        for f, t in zip(lay.factors, label):
            size, m = f.sizes[t], f.mults[t]
            start = sum(map(math.prod, zip(f.sizes[:t], f.mults[:t])))
            local = start + np.arange(size)[:, None] * m + np.arange(m)
            flat = flat[:, None, :, None] * f.dim + local[None, :, None, :]
            flat = flat.reshape(flat.shape[0] * size, -1)
        for copy in flat.T:
            x[np.ix_(copy, copy)] = block
    # One factor of W and one side at a time; a factor with one block has
    # W = I.  Real and imaginary parts transform alike, so the factor acts
    # on the real view: rows, then columns.
    outer = 1
    for f in lay.factors:
        size = f.dim
        inner = dim // (outer * size)
        if len(f.sizes) > 1:
            basis = f.basis()
            for shape in (outer, size, 2 * inner * dim), (dim * outer, size, 2 * inner):
                x = np.matmul(basis, x.view(np.float64).reshape(shape))
                x = x.reshape(dim, 2 * dim).view(np.complex128)
        outer *= size
    return x


def power_blocks(rho: DensityMatrix, lay: Layout, dim_cap: int) -> Sequence[np.ndarray]:
    """The blocks of ``rho^(x)n`` on a layout of ``n`` copies, without their
    multiplicities: the Kronecker products of the factors' local blocks,
    each distinct factor's built once; on ``n`` one-copy factors,
    ``[tensor_power(rho, n)]``.  A state that does not fit the layout's
    copies is refused, and the dimension cap applies to the ``d^n`` the
    blocks stand for."""
    d, n = rho.dim, lay.copies
    if lay.dim != d ** n:
        raise DimensionMismatch(
            f"the layout holds {n} copies of dim {lay.dim}, not {d}^{n}"
        )
    check_power(rho, n, dim_cap)
    local = {f: f.blocks(rho) for f in dict.fromkeys(lay.factors)}
    blocks = local[lay.factors[0]]
    for f in lay.factors[1:]:
        blocks = [linalg.kron(b, c) for b in blocks for c in local[f]]
    return blocks
