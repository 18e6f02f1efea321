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
  ``t = 0..p//2`` of size ``p - 2t + 1``, each repeated
  ``m_t = C(p, t) - C(p, t - 1)`` times (``states.spin_blocks``), with
  ``W = schur_basis(p)``;
* *a copy pair* of ``C^d``: its symmetric and antisymmetric subspaces,
  blocks ``S(rho)`` and ``A(rho)`` of ``rho (x) rho``, with
  ``W = pair_basis(d)``;
* *a lone copy*: ``rho`` itself, with ``W = I``.

``layout(d, parts)`` picks them: one qubit factor per part for ``d = 2``,
and for ``d >= 3`` the copy pairs ``(o, o+1), (o+2, o+3), ...`` of each part
with the last copy of an odd part alone (``pair_layout``).  A block is one
local block of every factor: its size and multiplicity are the products of
theirs, and blocks are ordered lexicographically, first factor most
significant.  So the ``W`` of two runs of parts side by side is the tensor
product of theirs: block ``(s, t)`` of ``X (x) Y`` is ``kron(X_s, Y_t)``, of
multiplicity ``m_s m_t`` (``kron``), and an operator built from the
sub-detectors of a split never needs its ``D x D`` form.  A dense operator
on ``n`` copies is the one block of ``n`` one-copy factors, ``layout(d, (1,)
* n)``, with ``W = I``: the Kronecker product of the copies.

Every detector is built on the layout of its own parts: the binary test and
the PGM on ``n`` copies on ``layout(d, (n,))``, a split on its sub-detectors'
parts side by side.  So no operator is ever moved onto a layout from its
dense form.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import linalg
from .errors import DimensionMismatch
from .states import DensityMatrix, check_power, spin_blocks, spin_multiplicity


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
    ``mults``.  ``blocks(rho, dim_cap)`` returns the local blocks of
    ``rho^(x)copies`` and ``basis()`` the local ``W``, its columns grouped
    by block, then by the block's row, then by copy."""

    copies: int
    dim: int
    sizes: tuple[int, ...]
    mults: tuple[int, ...]
    blocks: Callable[[DensityMatrix, int], Sequence[np.ndarray]]
    basis: Callable[[], np.ndarray]


class Layout(NamedTuple):
    """A block layout: its tensor factors in copy order, each block's
    multiplicity, and the dimension of the operators on it; both are
    products of the factors' local ones."""

    factors: tuple[Factor, ...]
    mults: tuple[int, ...]
    dim: int


@functools.lru_cache(maxsize=None)
def _spin(p: int) -> Factor:
    """A qubit part of ``p`` copies: its spin blocks."""
    ts = range(p // 2 + 1)
    return Factor(
        p,
        2 ** p,
        tuple(p - 2 * t + 1 for t in ts),
        tuple(spin_multiplicity(p, t) for t in ts),
        lambda rho, dim_cap: [block for _, block in spin_blocks(rho, p, dim_cap)],
        lambda: schur_basis(p),
    )


@functools.lru_cache(maxsize=None)
def _pair(d: int) -> Factor:
    """A pair of copies of ``C^d``: its symmetric and antisymmetric
    blocks."""
    basis, sym = pair_basis(d)
    basis.setflags(write=False)

    def blocks(rho: DensityMatrix, dim_cap: int) -> list[np.ndarray]:
        both = basis.T @ linalg.kron(rho.matrix, rho.matrix) @ basis
        return [(h + h.conj().T) / 2.0 for h in (both[:sym, :sym], both[sym:, sym:])]

    return Factor(2, d * d, (sym, d * d - sym), (1, 1), blocks, lambda: basis)


@functools.lru_cache(maxsize=None)
def _lone(d: int) -> Factor:
    """A lone copy of ``C^d``: one block, the state itself."""
    return Factor(1, d, (d,), (1,), lambda rho, _: [rho.matrix], lambda: np.eye(d))


def _layout(factors: tuple[Factor, ...]) -> Layout:
    """The layout of these factors."""
    mults = tuple(map(math.prod, itertools.product(*(f.mults for f in factors))))
    return Layout(factors, mults, math.prod(f.dim for f in factors))


@functools.lru_cache(maxsize=None)
def layout(d: int, parts: tuple[int, ...]) -> Layout:
    """The layout of an operator on copy ``parts`` (sizes of consecutive
    runs of copies): one qubit factor per part for ``d = 2``, copy pairs
    and lone copies otherwise; built once per ``(d, parts)`` and shared."""
    if d == 2:
        return _layout(tuple(_spin(p) for p in parts))
    return pair_layout(d, parts)


@functools.lru_cache(maxsize=None)
def pair_layout(d: int, parts: tuple[int, ...]) -> Layout:
    """The copy-pair layout for one-copy dimension ``d`` and copy
    ``parts``: the copies of each part paired in order, and the last copy of
    an odd part alone."""
    kinds = [kind for m in parts for kind in (_pair,) * (m // 2) + (_lone,) * (m % 2)]
    return _layout(tuple(kind(d) for kind in kinds))


@functools.lru_cache(maxsize=None)
def schur_basis(p: int) -> np.ndarray:
    """Real orthogonal ``W`` for ``p`` qubits: ``W^T rho^(x)p W`` is the
    direct sum over ``t`` of ``spin_blocks(rho, p)[t]`` block (x) ``I_{m_t}``,
    its columns grouped by ``t``, then by Dicke index ``a`` (the block's
    row), then by copy.

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
    """An operator on a layout: the blocks of ``W^T X W`` and their
    multiplicities."""

    blocks: Sequence[np.ndarray]
    mults: tuple[int, ...]


def squared_norm(blocks: Sequence[np.ndarray], mults: Sequence[int]) -> float:
    """The squared Frobenius norm of the operator with these blocks."""
    return sum(m * np.vdot(b, b).real for m, b in zip(mults, blocks, strict=True))


def kron(x: Blocks, y: Blocks) -> Blocks:
    """``X (x) Y`` on the layout of ``X``'s parts followed by ``Y``'s:
    ``W = W_X (x) W_Y``, so block ``(s, t)``, ``s`` the more significant,
    holds ``kron(X_s, Y_t)`` with multiplicity ``m_s m_t``."""
    return Blocks(
        [linalg.kron(a, b) for a in x.blocks for b in y.blocks],
        tuple(a * b for a in x.mults for b in y.mults),
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


def power_blocks(
    rho: DensityMatrix, n: int, lay: Layout, dim_cap: int
) -> list[np.ndarray]:
    """The blocks of ``rho^(x)n``, without their multiplicities: the
    Kronecker products of the factors' local blocks, each distinct factor's
    built once; on ``n`` one-copy factors, ``[tensor_power(rho, n)]``.  The
    dimension cap applies to the ``d^n`` the blocks stand for, and a layout
    whose factors do not hold ``n`` copies raises ``DimensionMismatch``."""
    check_power(rho, n, dim_cap)
    copies = sum(f.copies for f in lay.factors)
    if copies != n:
        raise DimensionMismatch(f"the layout holds {copies} copies, not {n}")
    local = {f: f.blocks(rho, dim_cap) for f in dict.fromkeys(lay.factors)}
    blocks = local[lay.factors[0]]
    for f in lay.factors[1:]:
        blocks = [linalg.kron(b, c) for b in blocks for c in local[f]]
    return blocks
