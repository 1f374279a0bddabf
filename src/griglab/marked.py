"""Marked groups: a fixed generator tuple plus exact group operations.

A marked group here is a group given by an ordered tuple of generator
symbols together with computable multiplication and equality on
canonical element values.  Words over the symbols evaluate by folding
multiplication over generator images, so triviality and equality of words
are decidable wherever element equality is.  No group computes element
inverses: the marking is symmetric, and the inverse of each symbol is
read off products of generators (``cayley.bfs_ball``).

The zoo covers the standard comparison targets: free groups, cyclic
groups, grid (free abelian) groups, the rank-4 involutive base group, its
exact matrix realization, the trivial marking, and finite direct products
of compatibly marked groups.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

import numpy as np

from . import matrixh, words

_INT64_MAX = 2**63 - 1


def _key_capacity(base: int) -> int:
    """Letters a base-``base`` int64 key holds: the most L with base^L - 1,
    the largest L-digit key, still an int64."""
    letters = 0
    while base ** (letters + 1) - 1 <= _INT64_MAX:
        letters += 1
    return letters


def _refuse_full(keys, grows, full: int, label: str) -> None:
    """OverflowError when a key that gains a letter already holds as many as
    int64 keys of ``label`` can (it is >= ``full``), rather than wrapping."""
    if ((keys >= full) & grows).any():
        raise OverflowError(f"an element key of {label} would pass int64")


class MarkedGroup:
    """Base class; subclasses fill in ``identity``, ``generator`` and
    ``mul`` on hashable values that compare with ``==``."""

    symbols: tuple = ()
    label: str = "group"
    # largest radius whose balls match the group the expression names;
    # None when every ball is exact (set by truncated family members)
    faithful_radius: Union[int, None] = None
    # A group with int64 element keys (key 0 the identity) defines
    # key_step(keys, s), the keys of each element times generator s for an
    # int64 array of keys, and key_element(key), the element a key stands
    # for; bfs_ball then builds its balls a sphere at a time in numpy.
    key_step = None
    key_element = None

    @property
    def k(self) -> int:
        return len(self.symbols)

    def identity(self):
        raise NotImplementedError

    def generator(self, i: int):
        raise NotImplementedError

    def generators(self) -> list:
        return [self.generator(i) for i in range(self.k)]

    def mul(self, x, y):
        raise NotImplementedError

    def parse(self, w: Union[str, Iterable]) -> tuple:
        """Word as a tuple of generator indices."""
        if isinstance(w, str):
            if w in ("e", "1", ""):
                return ()
            out = []
            for ch in w:
                if ch not in self.symbols:
                    raise ValueError(f"unknown symbol {ch!r} for {self.label}")
                out.append(self.symbols.index(ch))
            return tuple(out)
        items = tuple(w)
        if all(isinstance(t, int) for t in items):
            for t in items:
                if not 0 <= t < self.k:
                    raise ValueError(f"generator index {t} out of range")
            return items
        return self.parse("".join(items))

    def evaluate(self, w: Union[str, Iterable]):
        """The element a word names: ``mul`` folded over its generators.

        A subclass may override this with an exact shortcut that returns
        the same value (``GammaFree`` reduces the word); towers and
        products fold.
        """
        x = self.identity()
        for i in self.parse(w):
            x = self.mul(x, self.generator(i))
        return x

    def is_trivial_word(self, w) -> bool:
        return self.evaluate(w) == self.identity()

    def describe_element(self, x) -> str:
        return repr(x)

    def __repr__(self) -> str:
        return f"<{self.label}>"


class TrivialGroup(MarkedGroup):
    """One-element group carrying the standard four-symbol marking."""

    symbols = ("a", "b", "c", "d")
    label = "trivial"

    def identity(self):
        return "e"

    def generator(self, i):
        return "e"

    def mul(self, x, y):
        return "e"


class GammaFree(MarkedGroup):
    """The rank-4 involutive group: Z/2 * (Z/2 x Z/2) on a, b, c, d.

    Elements are normal-form words; the normal form is a geodesic, so its
    length is the word metric.
    """

    symbols = ("a", "b", "c", "d")
    label = "gamma_free()"

    def identity(self):
        return ()

    def generator(self, i):
        return (self.symbols[i],)

    def mul(self, x, y):
        # both operands are normal forms
        return words.reduce_onto(x, y)

    def evaluate(self, w):
        return words.reduce(tuple(self.symbols[i] for i in self.parse(w)))

    def describe_element(self, x):
        return words.word_str(x)

    # keys: the normal form's letters a, b, c, d as base-5 digits 1-4, the
    # last letter least significant
    _key_full = 5 ** (_key_capacity(5) - 1)

    def key_step(self, keys, s):
        d = s + 1
        last = keys % 5
        pop = last == d
        # two distinct letters of b, c, d make the third, digit 9 - last - d
        merge = (last >= 2) & ~pop & (d >= 2)
        _refuse_full(keys, ~(pop | merge), self._key_full, self.label)
        return np.where(pop, keys // 5, np.where(merge, keys + (9 - d) - 2 * last, keys * 5 + d))

    def key_element(self, key):
        out = []
        while key:
            key, d = divmod(key, 5)
            out.append(self.symbols[d - 1])
        return tuple(reversed(out))


class MatrixHGroup(MarkedGroup):
    """Exact projective-matrix realization of the four involutions."""

    symbols = ("a", "b", "c", "d")
    label = "matrix_h()"
    _gens = [matrixh.generator_matrices()[s] for s in symbols]

    def identity(self):
        return matrixh.MAT_ID

    def generator(self, i):
        return self._gens[i]

    def mul(self, x, y):
        return x @ y


_FREE_LETTERS = "xyzw"


class FreeGroup(MarkedGroup):
    """Free group of rank m <= 4; symbols x, X, y, Y, ... in inverse pairs.

    Elements are tuples of nonzero ints (sign encodes inversion), freely
    reduced, so length is the word metric.
    """

    def __init__(self, rank: int):
        if not 1 <= rank <= 4:
            raise ValueError("rank must be between 1 and 4")
        self.rank = rank
        self.symbols = tuple(
            ch for i in range(rank) for ch in (_FREE_LETTERS[i], _FREE_LETTERS[i].upper())
        )
        self.label = f"free({rank})"
        base = 2 * rank + 1
        # keys at least this hold as many letters as an int64 key can
        self._key_full = _INT64_MAX if rank == 1 else base ** (_key_capacity(base) - 1)

    def identity(self):
        return ()

    def generator(self, i):
        base = i // 2 + 1
        return (base,) if i % 2 == 0 else (-base,)

    def mul(self, x, y):
        out = list(x)
        for t in y:
            if out and out[-1] == -t:
                out.pop()
            else:
                out.append(t)
        return tuple(out)

    # keys: free(1) is Z, keyed by the signed exponent; a higher rank keys
    # the reduced word's symbols s as base-(2 rank + 1) digits s + 1, the last
    # letter least significant (the inverse of symbol s is symbol s ^ 1)
    def key_step(self, keys, s):
        if self.rank == 1:
            step = 1 if s == 0 else -1
            _refuse_full(keys * step, True, self._key_full, self.label)
            return keys + step
        base = 2 * self.rank + 1
        pop = keys % base == (s ^ 1) + 1
        _refuse_full(keys, ~pop, self._key_full, self.label)
        return np.where(pop, keys // base, keys * base + (s + 1))

    def key_element(self, key):
        if self.rank == 1:
            return (1,) * key if key >= 0 else (-1,) * -key
        out = []
        while key:
            key, d = divmod(key, 2 * self.rank + 1)
            out.append(self.generator(d - 1)[0])
        return tuple(reversed(out))


class CyclicGroup(MarkedGroup):
    """Z/n marked by a generator and its inverse (two symbols)."""

    symbols = ("s", "S")

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be positive")
        self.n = n
        self.label = f"cycle({n})"

    def identity(self):
        return 0

    def generator(self, i):
        return 1 % self.n if i == 0 else (-1) % self.n

    def mul(self, x, y):
        return (x + y) % self.n


class GridGroup(MarkedGroup):
    """Z^d with the standard basis marking, d <= 4."""

    def __init__(self, dim: int):
        if not 1 <= dim <= 4:
            raise ValueError("dim must be between 1 and 4")
        self.dim = dim
        self.symbols = tuple(
            ch for i in range(dim) for ch in (_FREE_LETTERS[i], _FREE_LETTERS[i].upper())
        )
        self.label = f"grid({dim})"
        self._shift = 63 // dim  # bits per coordinate of an element key

    def identity(self):
        return (0,) * self.dim

    def generator(self, i):
        v = [0] * self.dim
        v[i // 2] = 1 if i % 2 == 0 else -1
        return tuple(v)

    def mul(self, x, y):
        return tuple(p + q for p, q in zip(x, y))

    # keys: the coordinates as balanced base-2^shift digits, coordinate 0
    # least significant; a coordinate stays within |x| < 2^(shift-1) = half
    def _coordinate(self, keys, i):
        # adding half to digits 0..i makes them plain base-2^shift digits
        half = 1 << (self._shift - 1)
        low = keys + sum(half << (self._shift * j) for j in range(i + 1))
        return ((low >> (self._shift * i)) & (2 * half - 1)) - half

    def key_step(self, keys, s):
        i, sign = s // 2, 1 - 2 * (s % 2)
        full = (1 << (self._shift - 1)) - 1  # a coordinate this far from 0 grows no more
        _refuse_full(self._coordinate(keys, i) * sign, True, full, self.label)
        return keys + (sign << (self._shift * i))

    def key_element(self, key):
        return tuple(self._coordinate(key, i) for i in range(self.dim))


class ProductGroup(MarkedGroup):
    """Direct product of groups sharing one marking, generated diagonally."""

    def __init__(self, factors: Sequence[MarkedGroup], component_labels=None):
        factors = list(factors)
        if not factors:
            raise ValueError("need at least one factor")
        syms = factors[0].symbols
        for g in factors[1:]:
            if g.symbols != syms:
                raise ValueError("factors must share the same marking symbols")
        self.factors = factors
        self.symbols = syms
        self.component_labels = (
            list(component_labels)
            if component_labels is not None
            else [g.label for g in factors]
        )
        self.label = "product(" + ", ".join(g.label for g in factors) + ")"
        radii = [g.faithful_radius for g in factors if g.faithful_radius is not None]
        self.faithful_radius = min(radii, default=None)

    def identity(self):
        return tuple(g.identity() for g in self.factors)

    def generator(self, i):
        return tuple(g.generator(i) for g in self.factors)

    def mul(self, x, y):
        return tuple(g.mul(p, q) for g, p, q in zip(self.factors, x, y))

    def component_triviality(self, x) -> list:
        return [p == g.identity() for g, p in zip(self.factors, x)]

    def describe_element(self, x):
        parts = [
            f"{lbl}: {g.describe_element(p)}"
            for lbl, g, p in zip(self.component_labels, self.factors, x)
        ]
        return "(" + "; ".join(parts) + ")"


def product(factors: Sequence[MarkedGroup], component_labels=None) -> ProductGroup:
    return ProductGroup(factors, component_labels)


def has_involutive_klein_marking(g: MarkedGroup) -> bool:
    """True when g carries four involutions a, b, c, d with bc = d.

    This is the shape of marking the level functor consumes.
    """
    if g.k != 4:
        return False
    e = g.identity()
    gens = g.generators()
    if any(g.mul(s, s) != e for s in gens):
        return False
    return g.mul(gens[1], gens[2]) == gens[3]
