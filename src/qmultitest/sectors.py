"""Copy-pair sectors: a block layout of ``n``-copy operators.

An operator on ``n`` copies that commutes with swapping two copies is
block diagonal once that pair is written in the symmetric and
antisymmetric subspaces of ``C^d (x) C^d``.  A split row's operators are
unchanged by permuting copies inside each part of the copy budget, so
pairing adjacent copies inside each part gives ``2^(pairs)`` sectors on
which every operator of its composition is block diagonal (tensor powers
commute with copy permutations; Harrow, quant-ph/0512255).

Copies are paired inside each part, ``(o, o+1), (o+2, o+3), ...``, and the
last copy of an odd part stays alone.  ``W`` is the tensor product of
``pair_basis`` on each pair and the identity on each lone copy, its columns
grouped by sector: a sector takes the symmetric or the antisymmetric half
of every pair, and sectors run in lexicographic order, first pair most
significant.  ``W`` is real orthogonal and is never formed as a ``D x D``
matrix.  With no pair there is one sector and ``W = I``.

Copies are paired only inside a part, so the ``W`` of two runs of parts side
by side is the tensor product of theirs: sector ``(s, t)`` of ``X (x) Y`` is
``kron(X_s, Y_t)`` (``kron``), and an operator built from the sub-detectors
of a split never needs its ``D x D`` form.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import linalg
from .states import DensityMatrix, tensor_power


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


class Layout(NamedTuple):
    """The sectors for one ``(d, parts)``.

    ``sites`` lists, in copy order, 2 for a pair and 1 for a lone copy.
    ``chunks`` holds ``W`` as at most two tensor factors, each
    ``(outer, basis, inner)`` with the identity on ``outer`` and ``inner``
    dimensions around it (a factor without a pair is left out), and
    ``index[s]`` is sector ``s``'s ``np.ix_`` in the basis they give.
    """

    pair: np.ndarray
    sym: int
    sites: tuple[int, ...]
    chunks: tuple[tuple[int, np.ndarray, int], ...]
    index: tuple[tuple[np.ndarray, np.ndarray], ...]


# The layout of every operator without a copy pair: one sector, ``W = I``.
ONE = Layout(np.eye(0), 0, (), (), ())


@functools.lru_cache(maxsize=None)
def layout(d: int, parts: tuple[int, ...]) -> Layout:
    """The layout for one-copy dimension ``d`` and copy ``parts`` (sizes of
    consecutive runs of copies), ``ONE`` when no part holds a pair; built
    once per ``(d, parts)`` and shared, so its arrays are read-only."""
    sites = tuple(s for m in parts for s in (2,) * (m // 2) + (1,) * (m % 2))
    if 2 not in sites:
        return ONE
    pair, sym = pair_basis(d)
    pair.setflags(write=False)
    dims = [d ** s for s in sites]
    # Two factors of about equal size: applying one costs D^2 times its size.
    cut = min(
        range(1, len(sites) + 1),
        key=lambda k: max(math.prod(dims[:k]), math.prod(dims[k:])),
    )
    chunks = []
    for lo, hi in ((0, cut), (cut, len(sites))):
        if 2 in sites[lo:hi]:
            factors = [pair if s == 2 else np.eye(d) for s in sites[lo:hi]]
            basis = functools.reduce(np.kron, factors)
            basis.setflags(write=False)
            chunks.append((math.prod(dims[:lo]), basis, math.prod(dims[hi:])))
    halves = (np.arange(sym), np.arange(sym, d * d))
    index = []
    for labels in itertools.product((0, 1), repeat=sites.count(2)):
        label = iter(labels)
        flat = np.zeros(1, dtype=np.intp)
        for s, size in zip(sites, dims):
            local = halves[next(label)] if s == 2 else np.arange(size)
            flat = (flat[:, None] * size + local[None, :]).reshape(-1)
        rows, cols = np.ix_(flat, flat)
        rows.setflags(write=False)
        cols.setflags(write=False)
        index.append((rows, cols))
    return Layout(pair, sym, sites, tuple(chunks), tuple(index))


def _change_basis(x: np.ndarray, lay: Layout, inverse: bool) -> np.ndarray:
    """``W^T X W`` (``W X W^T`` when ``inverse``) up to the sector order,
    one tensor factor and one side at a time."""
    dim = len(x)
    for outer, basis, inner in lay.chunks:
        factor = basis if inverse else basis.T
        size = len(basis)
        # Real and imaginary parts transform alike, so the factor acts on
        # the real view: rows, then columns.
        for shape in ((outer, size, 2 * inner * dim), (dim * outer, size, 2 * inner)):
            x = np.matmul(factor, x.view(np.float64).reshape(shape))
            x = x.reshape(dim, 2 * dim).view(np.complex128)
    return x


class Blocks(NamedTuple):
    """An operator ``X`` on a layout's sectors: the sector blocks of
    ``W^T X W``, the Frobenius norm of its part outside them, which the
    blocks drop, and ``dense()``, which forms ``X`` itself."""

    blocks: Sequence[np.ndarray]
    outside: float
    dense: Callable[[], np.ndarray]


def _squared_norm(blocks: Sequence[np.ndarray]) -> float:
    return sum(np.vdot(b, b).real for b in blocks)


def to_blocks(x: np.ndarray, lay: Layout) -> Blocks:
    """``X`` on the sectors of ``lay``; its one block ``X``, with nothing
    outside, with one sector."""
    if not lay.chunks:
        return Blocks([x], 0.0, lambda: x)
    y = _change_basis(np.ascontiguousarray(x), lay, inverse=False)
    blocks = []
    for ix in lay.index:
        blocks.append(y[ix])
        y[ix] = 0.0
    return Blocks(blocks, math.sqrt(np.vdot(y, y).real), lambda: x)


def kron(x: Blocks, y: Blocks) -> Blocks:
    """``X (x) Y`` on the layout of ``X``'s parts followed by ``Y``'s.

    ``W = W_X (x) W_Y``, so sector ``(s, t)``, ``s`` the more significant,
    holds ``kron(X_s, Y_t)``.  The squared norm outside the sectors is the
    whole, ``(i_X + o_X)(i_Y + o_Y)``, less the inside, ``i_X i_Y``, with
    ``i`` and ``o`` the factors' squared norms inside and outside theirs.
    """
    i_x, i_y = _squared_norm(x.blocks), _squared_norm(y.blocks)
    o_x, o_y = x.outside ** 2, y.outside ** 2
    return Blocks(
        [linalg.kron(a, b) for a in x.blocks for b in y.blocks],
        math.sqrt(o_x * (i_y + o_y) + i_x * o_y),
        lambda: linalg.kron(x.dense(), y.dense()),
    )


def from_blocks(blocks: Sequence[np.ndarray], lay: Layout) -> np.ndarray:
    """``W B W^T`` for the block-diagonal ``B`` with these sector blocks;
    the one block itself with one sector."""
    if not lay.chunks:
        return blocks[0]
    dim = sum(len(b) for b in blocks)
    y = np.zeros((dim, dim), dtype=np.complex128)
    for ix, block in zip(lay.index, blocks):
        y[ix] = block
    return _change_basis(y, lay, inverse=True)


def power_blocks(
    rho: DensityMatrix, n: int, lay: Layout, dim_cap: int
) -> list[np.ndarray]:
    """The sector blocks of ``rho^(x)n``: in each sector, the tensor
    product over sites of ``S(rho)`` or ``A(rho)``, the symmetric and
    antisymmetric blocks of ``rho (x) rho``, or ``rho`` on a lone copy.
    With one sector, ``[tensor_power(rho, n)]``."""
    if not lay.chunks:
        return [tensor_power(rho, n, dim_cap).matrix]
    both = lay.pair.T @ linalg.kron(rho.matrix, rho.matrix) @ lay.pair
    s = lay.sym
    halves = tuple((h + h.conj().T) / 2.0 for h in (both[:s, :s], both[s:, s:]))
    # Sectors sharing their first sites share those factors' product.
    blocks = [np.ones((1, 1), dtype=np.complex128)]
    for site in lay.sites:
        factors = halves if site == 2 else (rho.matrix,)
        blocks = [linalg.kron(b, f) for b in blocks for f in factors]
    return blocks
