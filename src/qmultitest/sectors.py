"""Block layouts of ``n``-copy operators: copy-pair sectors and qubit spin
blocks.

A split row's operators are unchanged by permuting copies inside each part
of the copy budget (its runs of consecutive copies): tensor powers commute
with copy permutations, and so do the detectors built from them (Harrow,
quant-ph/0512255).  A layout is a real orthogonal ``W`` under which every
such operator is block diagonal, ``W^T X W = (+)_s B_s (x) I_{m_s}``: block
``s`` appears ``m_s`` times, its multiplicity, and the operator is held as
its blocks ``B_s``.  A trace or a squared Frobenius norm is then the
multiplicity-weighted sum over the blocks, and a lowest eigenvalue the
lowest over them.  ``W`` is never formed on the way from states to errors.

*Copy-pair sectors* (``pair_layout``, any ``d``).  An operator that
commutes with swapping two copies is block diagonal once that pair is
written in the symmetric and antisymmetric subspaces of ``C^d (x) C^d``.
Copies are paired inside each part, ``(o, o+1), (o+2, o+3), ...``, and the
last copy of an odd part stays alone.  ``W`` is the tensor product of
``pair_basis`` on each pair and the identity on each lone copy, its columns
grouped by sector: a sector takes the symmetric or the antisymmetric half
of every pair, first pair most significant.  Every multiplicity is 1.

*Spin blocks* (``spin_layout``, qubits).  By Schur–Weyl duality ``p``
qubits are blocks ``t = 0..p//2`` of size ``p - 2t + 1``, each repeated
``m_t = C(p, t) - C(p, t - 1)`` times, and an operator that commutes with
every permutation of them is ``(+)_t B_t (x) I_{m_t}``.  Over several parts
a block is a label ``(t_1, ..., t_k)``, of size ``prod(p_i - 2t_i + 1)``
and multiplicity ``prod(m_{t_i})``; the block of ``rho^(x)n`` is the
Kronecker product of the parts' ``states.spin_blocks``.  ``W`` is the
tensor product of each part's ``schur_basis``, built only to assemble an
operator from its blocks (``from_blocks``).

Both order their blocks lexicographically, first part most significant, so
the ``W`` of two runs of parts side by side is the tensor product of theirs:
block ``(s, t)`` of ``X (x) Y`` is ``kron(X_s, Y_t)``, of multiplicity
``m_s m_t`` (``kron``), and an operator built from the sub-detectors of a
split never needs its ``D x D`` form.  Without a part of two copies there is
one block, ``ONE``, with ``W = I``.

Every detector is built on the layout of its own parts: the binary test and
the PGM on ``n`` copies on ``layout(d, (n,))``, a split on its sub-detectors'
parts side by side.  So no operator is ever moved onto a layout from its
dense form.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple, Sequence

import numpy as np

from . import linalg
from .states import (
    DensityMatrix,
    check_power,
    spin_blocks,
    spin_multiplicity,
    tensor_power,
)


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
    """The copy-pair sectors for one ``(d, parts)``.

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

    @property
    def mults(self) -> tuple[int, ...]:
        """Every sector's multiplicity, 1."""
        return (1,) * max(1, len(self.index))


class SpinLayout(NamedTuple):
    """The qubit spin blocks for one ``parts``: block ``s`` is
    ``labels[s] = (t_1, ..., t_k)``, repeated ``mults[s]`` times."""

    parts: tuple[int, ...]
    labels: tuple[tuple[int, ...], ...]
    mults: tuple[int, ...]


# The layout of every operator without a part of two copies: one block,
# ``W = I``.
ONE = Layout(np.eye(0), 0, (), (), ())


def layout(d: int, parts: tuple[int, ...]) -> Layout | SpinLayout:
    """The layout of a split row on copy ``parts`` (sizes of consecutive
    runs of copies): spin blocks for qubits, copy-pair sectors otherwise."""
    return spin_layout(parts) if d == 2 else pair_layout(d, parts)


@functools.lru_cache(maxsize=None)
def pair_layout(d: int, parts: tuple[int, ...]) -> Layout:
    """The copy-pair sectors for one-copy dimension ``d`` and copy
    ``parts``, ``ONE`` when no part holds a pair; built once per
    ``(d, parts)`` and shared, so its arrays are read-only."""
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


@functools.lru_cache(maxsize=None)
def spin_layout(parts: tuple[int, ...]) -> Layout | SpinLayout:
    """The qubit spin blocks for copy ``parts``, ``ONE`` when no part holds
    two copies; built once per ``parts`` and shared."""
    if all(p < 2 for p in parts):
        return ONE
    labels = tuple(itertools.product(*(range(p // 2 + 1) for p in parts)))
    mults = tuple(
        math.prod(spin_multiplicity(p, t) for p, t in zip(parts, label))
        for label in labels
    )
    return SpinLayout(parts, labels, mults)


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


def _spin_basis(lay: SpinLayout) -> tuple[tuple, list[list[tuple]]]:
    """``W`` of a spin layout as tensor factors, as ``Layout.chunks``, and
    for each block the ``np.ix_`` of each of its copies in the basis they
    give (the Kronecker product of the parts' ``schur_basis`` columns)."""
    dims = [2 ** p for p in lay.parts]
    chunks = tuple(
        (math.prod(dims[:i]), schur_basis(p), math.prod(dims[i + 1 :]))
        for i, p in enumerate(lay.parts)
        if p >= 2
    )
    copies = []
    for label in lay.labels:
        flat = np.zeros((1, 1), dtype=np.intp)
        for p, t in zip(lay.parts, label):
            size, m = p - 2 * t + 1, spin_multiplicity(p, t)
            start = sum(
                (p - 2 * u + 1) * spin_multiplicity(p, u) for u in range(t)
            )
            local = start + np.arange(size)[:, None] * m + np.arange(m)
            flat = (flat[:, None, :, None] * 2 ** p + local[None, :, None, :])
            flat = flat.reshape(flat.shape[0] * size, -1)
        copies.append([np.ix_(c, c) for c in flat.T])
    return chunks, copies


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


def from_blocks(blocks: Sequence[np.ndarray], lay: Layout | SpinLayout) -> np.ndarray:
    """``W B W^T`` for ``B`` the direct sum of these blocks, each repeated
    its multiplicity; the one block itself with one block."""
    if lay is ONE:
        return blocks[0]
    if isinstance(lay, SpinLayout):
        chunks, copies = _spin_basis(lay)
    else:
        chunks, copies = lay.chunks, [[ix] for ix in lay.index]
    dim = sum(len(ixs) * len(b) for ixs, b in zip(copies, blocks))
    x = np.zeros((dim, dim), dtype=np.complex128)
    for ixs, block in zip(copies, blocks):
        for ix in ixs:
            x[ix] = block
    # One tensor factor of W and one side at a time.  Real and imaginary
    # parts transform alike, so the factor acts on the real view: rows,
    # then columns.
    for outer, basis, inner in chunks:
        size = len(basis)
        for shape in ((outer, size, 2 * inner * dim), (dim * outer, size, 2 * inner)):
            x = np.matmul(basis, x.view(np.float64).reshape(shape))
            x = x.reshape(dim, 2 * dim).view(np.complex128)
    return x


def power_blocks(
    rho: DensityMatrix, n: int, lay: Layout | SpinLayout, dim_cap: int
) -> list[np.ndarray]:
    """The blocks of ``rho^(x)n``, without their multiplicities: a spin
    block is the Kronecker product over the parts of their
    ``states.spin_blocks``, and a copy-pair sector the one over the sites
    of ``S(rho)`` or ``A(rho)``, the symmetric and antisymmetric blocks of
    ``rho (x) rho``, or ``rho`` on a lone copy.  With one block,
    ``[tensor_power(rho, n)]``.  The dimension cap applies to the ``d^n``
    the blocks stand for."""
    check_power(rho, n, dim_cap)
    if lay is ONE:
        return [tensor_power(rho, n, dim_cap).matrix]
    if isinstance(lay, SpinLayout):
        per_size = {
            p: [block for _, block in spin_blocks(rho, p, dim_cap)]
            for p in set(lay.parts)
        }
        blocks = per_size[lay.parts[0]]
        for p in lay.parts[1:]:
            blocks = [linalg.kron(b, f) for b in blocks for f in per_size[p]]
        return blocks
    both = lay.pair.T @ linalg.kron(rho.matrix, rho.matrix) @ lay.pair
    s = lay.sym
    halves = tuple((h + h.conj().T) / 2.0 for h in (both[:s, :s], both[s:, s:]))
    # Sectors sharing their first sites share those factors' product.
    blocks = [np.ones((1, 1), dtype=np.complex128)]
    for site in lay.sites:
        factors = halves if site == 2 else (rho.matrix,)
        blocks = [linalg.kron(b, f) for b in blocks for f in factors]
    return blocks
