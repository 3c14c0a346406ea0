"""Exact arithmetic and free-group words.

Two foundations live here:

* :class:`Scalar` — exact numbers of the form p + q*sqrt(D) with rational p, q
  and a square-free natural D, with decidable sign and total order.  Every
  length, measure, and translation length in the library is a Scalar; floats
  never enter any computation or any report.

* :class:`Word` — reduced words over the letters {±1, .., ±n} representing
  elements of a free group of rank n, plus the canonical word enumeration that
  drives every budgeted search.

Determinism contract: all orders used anywhere downstream (letter order, word
order, enumeration order) are defined in this module and nowhere else.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import gcd, isqrt, lcm
from operator import add, attrgetter, neg
from typing import Iterable, Iterator

from .errors import MixedFieldError, ParseError

# --------------------------------------------------------------------------
# scalars
# --------------------------------------------------------------------------

# Largest accepted field tag D: deciding square-freeness of any D up to the
# bound takes at most 10^5 trial divisions (see _is_square_free).
D_MAX = 10**15


@lru_cache(maxsize=256)
def _is_square_free(d: int) -> bool:
    """Exact test for 1 <= d <= D_MAX in O(d^(1/3)) trial divisions, made
    once per distinct d.

    Every prime p with p^3 <= (what is left of) d is stripped once; a second
    factor p means a square.  What is left then has at most two prime
    factors, each above its cube root, so it is square-free unless it is the
    square of a prime.
    """
    if not 0 < d <= D_MAX:
        return False
    p = 2
    while p * p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return False
        p += 1
    return d == 1 or isqrt(d) ** 2 != d


def field_problem(d: int) -> str | None:
    """Why the integer d cannot tag a field Q(sqrt d), or None when it can."""
    if d > D_MAX:
        return f"D={d} exceeds the bound D <= 10^15"
    if not _is_square_free(d):
        return f"D must be a square-free natural, got {d}"
    return None


_RAT = r"-?\d+(?:/\d+)?"
_RAT_RE = re.compile(_RAT)
# Accepted spellings (whitespace-insensitive):  "3",  "-1/2",  "3/2-1/2*sqrt5",
# "sqrt5", "-sqrt5", "1/2*sqrt5", "2+sqrt2".  Nothing else — in particular no
# floating-point literals.  A rational part must be followed by its sign, so
# "12*sqrt2" is one coefficient, never 1 + 2*sqrt2, and "2sqrt2" is refused.
_SCALAR_RE = re.compile(
    rf"(?P<rat>{_RAT})?"
    rf"(?:(?<=\d)(?P<op>[+-])|(?<!\d)(?P<lead>-)?)"
    rf"(?:(?P<coef>{_RAT})\*)?sqrt(?P<d>\d+)"
)


class Scalar:
    """Exact value (a + b*sqrt(d)) / den, held as plain integers.

    Only :meth:`of` and :meth:`parse` build one (``Scalar(x)``, like
    ``Scalar()``, is a TypeError).  Normal form, kept by every operation:
      * den > 0 and gcd(a, b, den) == 1;
      * d is a square-free natural no larger than D_MAX;
      * b == 0 forces d == 1, and d == 1 folds the irrational part into the
        rational part, so equal rationals compare and hash equal no matter
        which field their document declared.

    The field tag ``d`` is read-only.  Nothing builds a Fraction: rendering,
    hashing and parsing work on the integers.
    """

    __slots__ = ("_a", "_b", "_den", "_d")

    def __new__(cls, *args, **kwargs):
        raise TypeError("Scalar() takes no arguments: use Scalar.of or Scalar.parse")

    @property
    def d(self) -> int:
        return self._d

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def of(value: "Scalar | Fraction | int | str") -> "Scalar":
        """Coerce ints, Fractions, and strings. Strings go through :meth:`parse`."""
        if isinstance(value, Scalar):
            return value
        if isinstance(value, str):
            return Scalar.parse(value)
        out = _coerce(value)
        if out is None:
            raise TypeError(f"cannot make a Scalar from {type(value).__name__}")
        return out

    @staticmethod
    def parse(text: str) -> "Scalar":
        """Parse "p/q", "p/q + r/s*sqrtD", "r/s*sqrtD", "sqrtD" and signed variants.

        Floats are rejected; whitespace is ignored.  The canonical ``str`` form
        of every Scalar parses back to an equal Scalar.
        """
        compact = "".join(text.split())
        if not compact:
            raise ParseError("empty scalar string")
        if "sqrt" not in compact:
            if not _RAT_RE.fullmatch(compact):
                raise ParseError(f"bad rational {text!r} (integers and p/q only, no floats)")
            try:
                num, den = _ratio(compact)
            except ZeroDivisionError:
                raise ParseError(f"bad rational {text!r}: zero denominator") from None
            except ValueError as exc:   # an integer past Python's digit limit
                raise ParseError(f"bad rational {text!r}: {exc}") from None
            return _make(num, 0, den, 1)
        m = _SCALAR_RE.fullmatch(compact)
        if m is None:
            raise ParseError(f"bad scalar {text!r}")
        try:
            a, p = _ratio(m.group("rat") or "0")
            b, q = _ratio(m.group("coef") or "1")
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad scalar {text!r}: {exc}") from None
        if m.group("op") == "-" or m.group("lead") == "-":
            b = -b
        digits = m.group("d").lstrip("0") or "0"
        if len(digits) > 16 or int(digits) > D_MAX:
            raise ParseError("sqrt argument exceeds the bound D <= 10^15")
        d = int(digits)
        if not _is_square_free(d):
            raise ParseError(f"sqrt argument must be square-free, got {d}")
        if d == 1:   # sqrt1 is rational
            return _make(a * q + b * p, 0, p * q, 1)
        return _make(a * q, b * p, p * q, d)

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other) -> "Scalar":
        o = other if type(other) is Scalar else _coerce(other)
        if o is None:
            return NotImplemented
        d = self._d if self._d == o._d else _join(self._d, o._d)
        den, oden = self._den, o._den
        if den == oden:
            return _make(self._a + o._a, self._b + o._b, den, d)
        return _make(self._a * oden + o._a * den, self._b * oden + o._b * den,
                     den * oden, d)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return _build(-self._a, -self._b, self._den, self._d)

    def __sub__(self, other) -> "Scalar":
        o = other if type(other) is Scalar else _coerce(other)  # -o keeps its field
        return NotImplemented if o is None else self + -o

    def __mul__(self, other) -> "Scalar":
        o = other if type(other) is Scalar else _coerce(other)
        if o is None:
            return NotImplemented
        d = self._d if self._d == o._d else _join(self._d, o._d)
        a1, b1, a2, b2 = self._a, self._b, o._a, o._b
        return _make(a1 * a2 + b1 * b2 * d, a1 * b2 + b1 * a2,
                     self._den * o._den, d)

    __rmul__ = __mul__

    # -- order -----------------------------------------------------------------

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}, decided by integer arithmetic only."""
        return _sign(self._a, self._b, self._d)

    def is_zero(self) -> bool:
        return self._a == 0 and self._b == 0

    def _cmp(self, other) -> int:
        """Sign of self - other, without building the difference."""
        o = other if type(other) is Scalar else _coerce(other)
        if o is None:
            raise TypeError(f"cannot compare Scalar with {type(other).__name__}")
        d = self._d if self._d == o._d else _join(self._d, o._d)
        den, oden = self._den, o._den
        if den == oden:
            return _sign(self._a - o._a, self._b - o._b, d)
        return _sign(self._a * oden - o._a * den, self._b * oden - o._b * den, d)

    def __lt__(self, other) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other) -> bool:
        return self._cmp(other) >= 0

    # The normal form is unique, so equality, and with it the hash, is that
    # of the integers.
    def __eq__(self, other) -> bool:
        if type(other) is not Scalar:
            return NotImplemented
        return (self._a == other._a and self._b == other._b
                and self._den == other._den and self._d == other._d)

    def __hash__(self) -> int:
        return hash((self._a, self._b, self._den, self._d))

    # -- rendering ---------------------------------------------------------------

    def __str__(self) -> str:
        return _text(self._a, self._b, self._den, self._d)

    def __repr__(self) -> str:
        return f"Scalar({str(self)!r})"


_new = object.__new__
_UNIT_SIGN = {"1": "", "-1": "-"}  # the coefficient text of sqrt(d) and -sqrt(d)


def _build(a: int, b: int, den: int, d: int) -> Scalar:
    """A Scalar from integers already in normal form."""
    s = _new(Scalar)
    s._a = a
    s._b = b
    s._den = den
    s._d = d
    return s


def _make(a: int, b: int, den: int, d: int) -> Scalar:
    """Normalise (a + b*sqrt(d)) / den, for den > 0 and a validated d."""
    if b:
        g = gcd(a, b, den)
    else:
        g = gcd(a, den)
        d = 1
    if g != 1:
        a //= g
        b //= g
        den //= g
    return _build(a, b, den, d)


def _integer_view(values) -> tuple[int, int, list[tuple[int, int]]]:
    """(den, d, pairs) with values[i] == (a + b*sqrt(d))/den for (a, b) ==
    pairs[i]: one common denominator, and the fields joined in list order."""
    den, d = 1, 1
    for s in values:
        den = lcm(den, s._den)
        d = d if s._d == d else _join(d, s._d)
    return den, d, [(s._a * (k := den // s._den), s._b * k) for s in values]


def _coerce(value) -> Scalar | None:
    """Ints and Fractions (values with int numerator and positive int
    denominator) as Scalars; None for anything else."""
    if isinstance(value, int):
        return _build(int(value), 0, 1, 1)
    num, den = getattr(value, "numerator", None), getattr(value, "denominator", None)
    if isinstance(num, int) and isinstance(den, int) and den > 0:
        return _make(int(num), 0, int(den), 1)
    return None


def _ratio(text: str) -> tuple[int, int]:
    """(numerator, denominator) of "p" or "p/q", unreduced; the errors are
    those Fraction(text) raises."""
    num, _, den = text.partition("/")
    n, q = int(num), int(den or 1)
    if q == 0:
        raise ZeroDivisionError(f"Fraction({n}, 0)")
    return n, q


def _ratio_text(n: int, q: int) -> str:
    """str(Fraction(n, q)) for q > 0."""
    g = gcd(n, q)
    return f"{n // g}" if q == g else f"{n // g}/{q // g}"


def _text(a: int, b: int, den: int, d: int) -> str:
    """The text of (a + b*sqrt(d)) / den for den > 0, normalised or not: that of
    rat + irr*sqrt(d) with str(Fraction) for each part, so no Scalar is needed."""
    if not b:
        return _ratio_text(a, den)
    tail = _ratio_text(b, den)
    tail = f"{_UNIT_SIGN.get(tail, tail + '*')}sqrt{d}"
    return f"{_ratio_text(a, den)}{'+' if b > 0 else ''}{tail}" if a else tail


def _join(d1: int, d2: int) -> int:
    """The common field of two tags, or MixedFieldError."""
    if d1 == d2 or d2 == 1:
        return d1
    if d1 == 1:
        return d2
    raise MixedFieldError(
        f"cannot mix sqrt{d1} and sqrt{d2} values in one computation")


def _sign(a: int, b: int, d: int) -> int:
    """Sign of a + b*sqrt(d) for square-free d."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return 1 if b > 0 else -1
    if a > 0:
        if b > 0:
            return 1
        # a > 0 > b: the sign of a wins iff a² > b²d
        lhs, rhs = a * a, b * b * d
        return (lhs > rhs) - (lhs < rhs)
    if b < 0:
        return -1
    lhs, rhs = a * a, b * b * d  # a < 0 < b
    return (rhs > lhs) - (rhs < lhs)


ZERO = _build(0, 0, 1, 1)


# --------------------------------------------------------------------------
# words
# --------------------------------------------------------------------------

_LOWER = "abcdefghijklmnopqrstuvwxyz"
#: Each basis letter is written as one of a-z, so no word has a higher rank.
MAX_RANK = len(_LOWER)


_CHAR = {sign * (i + 1): ch if sign > 0 else ch.upper()
         for i, ch in enumerate(_LOWER) for sign in (1, -1)}
_LETTER = {ch: l for l, ch in _CHAR.items()}


def _letters_text(letters: tuple[int, ...]) -> str:
    """A letter tuple in letter notation: a-z for basis letters, A-Z for
    their inverses; what str(Word) returns, without building a Word."""
    return "".join(map(_CHAR.__getitem__, letters))


def ordered_letters(rank: int) -> list[int]:
    """The letters of a rank-`rank` free group in canonical letter order."""
    return [l for a in range(1, rank + 1) for l in (a, -a)]


def letter_key(letter: int) -> tuple[int, int]:
    """Canonical letter order: a < a⁻¹ < b < b⁻¹ < ...  (1, -1, 2, -2, ...)."""
    return (abs(letter), 1 if letter < 0 else 0)


def word_sort_key(letters: tuple[int, ...]) -> tuple:
    """The canonical word order of a reduced letter tuple: length, then
    letter keys."""
    return (len(letters), tuple(map(letter_key, letters)))


def inverse(letters: tuple[int, ...]) -> tuple[int, ...]:
    """The inverse of a reduced letter tuple: reversed, every letter negated."""
    return tuple(map(neg, reversed(letters)))


def product(*pieces: tuple[int, ...]) -> tuple[int, ...]:
    """The free reduction of a product of reduced letter tuples.

    Letters cancel only at the seams.  A seam where the product so far does
    not end in the inverse of the piece's first letter is passed at once.
    Past two cancelling letters, the longest k with out[-k:] ==
    inverse(piece[:k]) is found by bisection over slices of the piece's
    inverse, whole overlap first (both are reduced: smaller k cancel too).
    """
    out: list[int] = []
    inverses = None   # id(piece): list(inverse(piece)), made once per call
    for piece in pieces:
        if not (out and piece and out[-1] == -piece[0]):
            out += piece
            continue
        n, m, k = len(out), min(len(out), len(piece)), 1
        if m > 1 and out[n - 2] == -piece[1]:
            inverses = inverses or {}
            inv = inverses.get(id(piece)) or inverses.setdefault(id(piece), list(inverse(piece)))
            k, hi, mid, top = 2, m + 1, m, len(piece)   # k letters cancel, hi do not
            while hi - k > 1:
                if out[n - mid:] == inv[top - mid:]:
                    k = mid
                else:
                    hi = mid
                mid = (k + hi) // 2
        del out[n - k:]
        out += piece[k:]
    return tuple(out)


def conjugator_length(seq) -> int:
    """How many end pairs of `seq` cancel cyclically: the largest k with
    seq[i] == -seq[-1 - i] for all i < k, stopping while two or more middle
    items remain.  seq[k:len(seq) - k] is then cyclically reduced.  Linear,
    unlike stripping one pair at a time by slicing."""
    n = len(seq)
    k = 0
    while n - 2 * k >= 2 and seq[k] == -seq[n - 1 - k]:
        k += 1
    return k


class _Frozen:
    """Base of the immutable value classes, which name their fields in
    `__slots__` and set them in `__init__` with `object.__setattr__`.

    `==`, `hash` and `repr` are those of a frozen dataclass with these
    fields: by the tuple of field values, equal only within one class.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        names = cls.__slots__
        cls._values = staticmethod(attrgetter(*names) if len(names) > 1
                                   else lambda self: (getattr(self, names[0]),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Word(_Frozen):
    """A reduced word over {±1..±n}; the identity is the empty word.

    ``Word(letters, rank)`` validates reducedness and letter range, and
    :meth:`make` reduces raw letters first; engines build with `_word`.
    """

    __slots__ = ("letters", "rank")

    def __init__(self, letters: tuple[int, ...], rank: int) -> None:
        if rank > MAX_RANK:
            raise ValueError(f"rank {rank} is above {MAX_RANK}: words are written in a-z")
        letters = tuple(letters)
        for l in letters:
            if not isinstance(l, int) or l == 0 or abs(l) > rank:
                raise ValueError(f"letter {l!r} out of range for rank {rank}")
        for a, b in zip(letters, letters[1:]):
            if a == -b:
                raise ValueError(f"word {letters} is not reduced")
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "rank", rank)

    @staticmethod
    def make(letters: Iterable[int], rank: int) -> "Word":
        # raw letters are the product of their one-letter pieces, zip's 1-tuples
        return Word(product(*zip(letters)), rank)

    # -- group operations -------------------------------------------------------

    def __mul__(self, other: "Word") -> "Word":
        if self.rank != other.rank:
            raise ValueError("rank mismatch in word multiplication")
        return _word(product(self.letters, other.letters), self.rank)

    def inverse(self) -> "Word":
        return _word(inverse(self.letters), self.rank)

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def is_cyclically_reduced(self) -> bool:
        return len(self.letters) < 2 or self.letters[0] != -self.letters[-1]

    # -- I/O ----------------------------------------------------------------------

    def __str__(self) -> str:
        return _letters_text(self.letters)

    def __repr__(self) -> str:
        return f"Word({str(self)!r}, rank={self.rank})"


def _word(letters: tuple[int, ...], rank: int) -> Word:
    """A Word from letters reduced and in range by construction, unchecked."""
    w = _new(Word)
    object.__setattr__(w, "letters", letters)
    object.__setattr__(w, "rank", rank)
    return w


def parse_word(text: str, rank: int) -> Word:
    """Read a word in letter notation: a–z are basis letters, A–Z inverses.

    The input is freely reduced (so "aA" is accepted and means the identity);
    anything but ASCII letters within the rank is rejected.  One pass maps
    the characters; `product` runs only when two adjacent letters cancel.
    """
    chars = text.strip()
    letters = tuple(map(_LETTER.get, chars))
    if letters and (None in letters or min(letters) < -rank or max(letters) > rank):
        ch = next(ch for ch in chars if not 0 < abs(_LETTER.get(ch, 0)) <= rank)
        raise ParseError(f"bad letter {ch!r} in word {text!r} (rank {rank})")
    if rank > MAX_RANK:
        raise ValueError(f"rank {rank} is above {MAX_RANK}: words are written in a-z")
    return _word(product(*zip(letters)) if 0 in map(add, letters, letters[1:])
                 else letters, rank)


# --------------------------------------------------------------------------
# enumeration
# --------------------------------------------------------------------------


def _class_representatives(rank: int, n: int) -> Iterator[tuple[int, ...]]:
    """Canonical representatives of the conjugacy-and-inversion classes of
    cyclically reduced words of length n >= 1, in letter-key order.

    Letters are indexed in letter-key order (a=0, A=1, b=2, ...), so the
    inverse of index i is i ^ 1 and index tuples compare like key tuples.
    The search runs over reduced prenecklaces (Cattell, Ruskey, Sawada,
    Serra, Miers, J. Algorithms 37, 2000): p is the length of the longest
    Lyndon prefix of w[:t], an extension c must satisfy c >= w[t - p], and
    c > w[t - p] makes w[:t + 1] a Lyndon word.  Every prefix of a reduced
    necklace is a reduced prenecklace, so nothing is pruned that could be
    accepted.  A leaf of length n is accepted when it is a necklace
    (n % p == 0), cyclically reduced, and no rotation of its inverse is
    smaller.  The first letter is a basis letter: an inverse letter would
    be least in the word, and its inverse, which is smaller, would start a
    rotation of the inverse word.
    """
    k = 2 * rank
    alphabet = ordered_letters(rank)
    w = [0] * n
    last = n - 1
    # the search runs on a stack, not by recursion, so n is not bounded by
    # the interpreter's recursion limit: lyndon[t] is the length of the
    # longest Lyndon prefix of w[:t], and after[t] the next letter to try at t
    lyndon = [1] * n
    after = [0] * n

    def inverse_is_smaller() -> bool:
        # w[0] is the least letter of w and a basis letter, so every letter of
        # the inverse is >= w[0], and only the inverse of w[0] turns into w[0]:
        # only rotations of the inverse that start there can be smaller
        w0 = w[0]
        if w0 ^ 1 not in w:
            return False
        inv = [x ^ 1 for x in reversed(w)]
        inv += inv
        return any(inv[i] == w0 and inv[i:i + n] < w for i in range(n))

    for first in range(0, k, 2):
        w[0] = first
        if n == 1:
            yield (alphabet[first],)
            continue
        first_bar = first ^ 1
        t = 1
        after[1] = first
        while t:
            # w[:t] is a reduced prenecklace whose longest Lyndon prefix is w[:p]
            p = lyndon[t]
            lo = w[t - p]
            bar = w[t - 1] ^ 1
            if t == last:
                for c in range(lo, k):
                    if c == bar or c == first_bar or (c == lo and n % p):
                        continue
                    w[t] = c
                    if not inverse_is_smaller():
                        yield tuple([alphabet[x] for x in w])
                t -= 1
                continue
            c = after[t]
            if c == bar:
                c += 1
            if c == k:
                t -= 1
                continue
            after[t] = c + 1
            w[t] = c
            t += 1
            lyndon[t] = p if c == lo else t
            after[t] = w[t - lyndon[t]]


# A class table is kept while the letters of all reduced words of its length,
# n * 2r(2r-1)^(n-1), an upper bound on the letters it holds, are at most this.
_CLASS_TABLE_LETTERS = 2 ** 16


@lru_cache(maxsize=32)
def _class_table(rank: int, n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(_class_representatives(rank, n))


def _class_words(rank: int, n: int) -> Iterable[tuple[int, ...]]:
    """The class tuples of length n: a shared table while it is small enough,
    else a stream that is not kept.  Rank 1 always streams: its one class
    a^n is built in linear time, and its tables would evict the others."""
    if rank > 1 and n * 2 * rank * (2 * rank - 1) ** (n - 1) <= _CLASS_TABLE_LETTERS:
        return _class_table(rank, n)
    return _class_representatives(rank, n)


def enumerate_words(rank: int, max_len: int, mode: str = "reduced") -> Iterator[tuple[int, ...]]:
    """Canonical deterministic stream of reduced letter tuples of length <= max_len.

    Order invariant, shared by both modes: by length, then lexicographically
    in the letter order a < a⁻¹ < b < b⁻¹ ... (the order of word_sort_key).

    mode="reduced": all reduced words including the identity, by a
    breadth-first extension of the previous length.

    mode="conjugacy": exactly one representative per conjugacy-and-inversion
    class of nontrivial cyclically reduced words, the least word of the class
    under that order.  The representatives are generated directly, length by
    length, as constrained necklaces by a pruned depth-first search over
    prenecklaces (see _class_representatives); no other word is built.

    At rank 2 and above, the class tuples of a length n with
    n * 2r(2r-1)^(n-1) <= 2^16 (the letters of all reduced words of length
    n) are built once per process: they come from a least-recently-used
    memo of 32 tables keyed by (rank, n), shared between calls (tuples are
    immutable).  So the memo holds at most 2^21 letters; the largest table,
    rank 14 and length 3 with 3290 words, takes about 0.23 MiB, so the memo
    stays under 7.5 MiB.  A longer length, and every rank-1 length, is
    streamed and not kept.  Nothing sets the limit or the memo's size.
    """
    if mode not in ("reduced", "conjugacy"):
        raise ValueError(f"unknown enumeration mode {mode!r}")
    if rank > MAX_RANK:
        raise ValueError(f"rank {rank} is above {MAX_RANK}: words are written in a-z")
    if mode == "conjugacy":
        for n in range(1, max_len + 1):
            yield from _class_words(rank, n)
        return
    alphabet = ordered_letters(rank)
    layer: list[tuple[int, ...]] = [()]
    yield ()
    for _ in range(max_len):
        layer = [letters + (l,) for letters in layer for l in alphabet
                 if not letters or l != -letters[-1]]
        yield from layer
