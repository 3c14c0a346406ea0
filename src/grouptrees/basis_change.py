"""Inverting a free-group basis given as words in the standard generators.

Given words w_1..w_n claimed to form a basis of the rank-n free group, compute
expressions d_1..d_n (words in symbols x_1..x_n) with d_i(w_1,..,w_n) = a_i,
i.e. the inverse of the substitution endomorphism x_j -> w_j.

Method: fold the wedge of the w_j-labeled petals with :func:`folding.fold`,
decorating the first edge of petal j with x_j, so that the decoration product
along a closed path at the basepoint records that path in terms of the w_j's.
Folding preserves those products.  A genuine basis folds to the rank-n rose;
the decoration of the loop labeled i is then d_i.  Anything else (rank drop,
proper subgroup) raises NotABasisError.
"""

from __future__ import annotations

from . import folding
from .core import Word, reduce_letters
from .errors import NotABasisError


def invert_basis(words: list[Word], rank: int) -> list[Word]:
    """Return d_1..d_rank over symbols 1..rank with d_i(words) = letter i.

    Raises NotABasisError unless `words` is a free basis of the whole rank-n
    free group.  The result is verified by substitution before returning.
    """
    if len(words) != rank:
        raise NotABasisError(f"need exactly {rank} words, got {len(words)}")
    if any(w.rank != rank for w in words):
        raise ValueError("word rank mismatch")

    edges: list[tuple[int, int, int]] = []
    decorations: list[tuple[int, ...]] = []
    nv = 1  # vertex 0 is the basepoint
    for j, w in enumerate(words, start=1):
        if not w.letters:
            raise NotABasisError("the identity word cannot belong to a basis")
        chain = [0] + [nv + t for t in range(len(w.letters) - 1)] + [0]
        nv += len(w.letters) - 1
        for t, letter in enumerate(w.letters):
            decorations.append(() if t else ((j,) if letter > 0 else (-j,)))
            if letter > 0:
                edges.append((chain[t], letter, chain[t + 1]))
            else:
                edges.append((chain[t + 1], -letter, chain[t]))

    nv, edges, _, _, loops = folding.fold(nv, edges, 0, decorations)
    if nv != 1 or edges != [(0, i, 0) for i in range(1, rank + 1)]:
        raise NotABasisError("words generate a proper subgroup, not the whole free group")

    images = {}
    for j, w in enumerate(words, start=1):
        images[j], images[-j] = w.letters, tuple(-l for l in reversed(w.letters))
    result = []
    for i, dec in enumerate(loops, start=1):
        check = reduce_letters(l for s in dec for l in images[s])
        if check != (i,):
            raise AssertionError("basis inversion self-check failed")
        result.append(Word(dec, rank))
    return result
