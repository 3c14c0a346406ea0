"""Inverting a free-group basis given as words in the standard generators.

Given words w_1..w_n claimed to form a basis of the rank-n free group, compute
expressions d_1..d_n (words in symbols x_1..x_n) with d_i(w_1,..,w_n) = a_i,
i.e. the inverse of the substitution endomorphism x_j -> w_j.

Method: fold the wedge (:func:`folding.wedge`) of the w_j-labeled petals,
decorating the first edge of petal j with x_j, so that the decoration product
along a closed path at the basepoint records that path in terms of the w_j's.
Folding preserves those products.  A genuine basis folds to the rank-n rose;
the decoration of the loop labeled i is then d_i.  Anything else (rank drop,
proper subgroup) raises NotABasisError.
"""

from __future__ import annotations

from . import folding
from .core import Word, inverse, product
from .errors import NotABasisError


def invert_basis(words: list[Word], rank: int) -> list[tuple[int, ...]]:
    """Return d_1..d_rank, letter tuples over symbols 1..rank with d_i(words) = letter i.

    Raises NotABasisError unless `words` is a free basis of the whole rank-n
    free group.  The result is verified by substitution before returning.
    """
    if len(words) != rank:
        raise NotABasisError(f"need exactly {rank} words, got {len(words)}")
    if any(w.rank != rank for w in words):
        raise ValueError("word rank mismatch")

    decorations: list[tuple[int, ...]] = []
    images = {}
    for j, w in enumerate(words, start=1):
        if not w.letters:
            raise NotABasisError("the identity word cannot belong to a basis")
        decorations += [(j if w.letters[0] > 0 else -j,)] + [()] * (len(w.letters) - 1)
        images[j], images[-j] = w.letters, inverse(w.letters)
    nv, edges = folding.wedge(w.letters for w in words)
    nv, darts, decs = folding.fold(nv, edges, decorations)
    if nv != 1 or len(darts[0]) != 2 * rank:
        raise NotABasisError("words generate a proper subgroup, not the whole free group")
    loops = [decs[0][i] for i in range(1, rank + 1)]

    for i, dec in enumerate(loops, start=1):
        if product(*(images[s] for s in dec)) != (i,):
            raise RuntimeError("basis inversion self-check failed")
    return loops
