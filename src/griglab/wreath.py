"""Decorated binary-tree automorphisms and the level functor.

Elements are depth-d binary trees: internal nodes carry a swap bit, the
2^d leaves carry elements of a base marked group.  Composition follows
the left-action convention for the wreath recursion

    (s; g0, g1) (t; h0, h1) = (s xor t; g_t h0, g_(1 xor t) h1)

so that g h means "apply h first".  The child g0 is the state at input
bit 0.  Nodes are interned: leaf() and node() are the only constructors
and return one object per value, so two trees are equal exactly when
they are the same object.  Equality and hashing are therefore the
default identity ones, and ball enumerations stay compact in memory.
The intern pool is process-global and never shrinks.

A word splits without building a tree: ``split`` reads, in one pass,
its root swap bit and the two section words at inputs 0 and 1, each
reduced in Z/2 * (Z/2)^2 and about half as long.  Repeated down a tower
it gives the word's portrait and leaf words, off which
``family.WitnessTable`` reads separation witnesses.

``mul`` serves the ball builds and word evaluation, which folds it over
the word.  Each tower keeps one composition memo, a dict from a pair
(g, h) of interned trees to g h.  The depth-1 functor group creates it
and every group stacked on top shares it, since they share one leaf
multiplication; subtrees of every depth are keys.  So
each distinct pair of subtrees, leaf pairs included, is composed once
per tower, and a product walks the DAG of shared subtrees rather than
the whole tree.  The memo is an attribute of the groups, so it is freed
with the tower.  No tree inverse is ever computed: ``bfs_ball`` pairs
each generator with its inverse by multiplying generators, through the
memo.

The level functor takes a group with the involutive Klein marking
(a, b, c, d) and produces a new one of tree depth one greater, with the
letter x in {0, 1, 2} choosing which torsion generator is "weak" (gets an
identity child) at this level.  Iterating over a letter sequence omega
yields the decorated groups; over the trivial base, plain portrait
groups.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .cayley import bfs_ball
from .marked import MarkedGroup, TrivialGroup, has_involutive_klein_marking
from . import words
from .words import OmegaWord


class DecoratedElement:
    __slots__ = ("depth", "swap", "left", "right", "leaf")

    def __init__(self, depth, swap, left, right, leaf):
        self.depth = depth
        self.swap = swap
        self.left = left
        self.right = right
        self.leaf = leaf

    def __repr__(self):
        if self.depth == 0:
            return f"leaf({self.leaf!r})"
        return f"({self.swap}; {self.left!r}, {self.right!r})"


_POOL: dict = {}


def leaf(value) -> DecoratedElement:
    key = (0, value)
    got = _POOL.get(key)
    if got is None:
        got = _POOL[key] = DecoratedElement(0, 0, None, None, value)
    return got


def node(swap: int, left: DecoratedElement, right: DecoratedElement) -> DecoratedElement:
    if left.depth != right.depth:
        raise ValueError("children must have equal depth")
    key = (1, swap, left, right)
    got = _POOL.get(key)
    if got is None:
        got = _POOL[key] = DecoratedElement(left.depth + 1, swap, left, right, None)
    return got


def pool_size() -> int:
    return len(_POOL)


def compose(
    g: DecoratedElement, h: DecoratedElement, base_mul: Callable, memo: dict
) -> DecoratedElement:
    """The product g h, via ``memo``: pairs (g, h) -> g h under this base_mul."""
    key = (g, h)
    got = memo.get(key)
    if got is not None:
        return got
    if g.depth != h.depth:
        raise ValueError("depth mismatch")
    if g.depth == 0:
        got = leaf(base_mul(g.leaf, h.leaf))
    else:
        if h.swap == 0:
            l = compose(g.left, h.left, base_mul, memo)
            r = compose(g.right, h.right, base_mul, memo)
        else:
            l = compose(g.right, h.left, base_mul, memo)
            r = compose(g.left, h.right, base_mul, memo)
        got = node(g.swap ^ h.swap, l, r)
    memo[key] = got
    return got


def portrait(g: DecoratedElement) -> int:
    """Swap bits of a decorated element, level by level, packed in an int
    that is 0 exactly when every swap bit is: the root is bit 0, level L
    starts at bit 2^L - 1, nodes within a level in binary address order."""
    bits = 0
    pos = 0
    level = [g]
    while level[0].depth > 0:
        nxt = []
        for e in level:
            bits |= e.swap << pos
            pos += 1
            nxt.append(e.left)
            nxt.append(e.right)
        level = nxt
    return bits


def nontrivial_leaves(g: DecoratedElement, base_identity) -> list:
    """(address, leaf value) pairs for leaves differing from the identity."""
    out = []

    def walk(e, addr):
        if e.depth == 0:
            if e.leaf != base_identity:
                out.append((addr, e.leaf))
            return
        walk(e.left, addr + (0,))
        walk(e.right, addr + (1,))

    walk(g, ())
    return out


# ------------------------------------------------------------ the functor

# per letter x: which torsion generator receives the identity child;
# the other two receive the a-generator on the left
_WEAK = {0: "d", 1: "c", 2: "b"}


def split(word: str, letter: int) -> tuple:
    """(swap, section0, section1) of a word over a, b, c, d under the
    functor with ``letter``: its root swap bit and its sections at inputs 0
    and 1, reduced in Gamma = Z/2 * (Z/2)^2.

    A generator s is (0; a or e, s): it appends s to the section the swap
    bit puts at input 1 and a (unless s is weak) to the other.
    """
    weak = _WEAK[letter]
    swap = 0
    sections = ([], [])
    for ch in word:
        if ch == "a":
            swap ^= 1
            continue
        sections[1 ^ swap].append(ch)
        if ch != weak:
            sections[swap].append("a")
    s0, s1 = "".join(sections[swap]), "".join(sections[swap ^ 1])
    return swap, words.reduce(s0), words.reduce(s1)


class WreathGroup(MarkedGroup):
    """Image of a Klein-marked group under one level-functor application."""

    symbols = ("a", "b", "c", "d")

    def __init__(self, letter: int, base: MarkedGroup):
        if letter not in (0, 1, 2):
            raise ValueError("letter must be 0, 1 or 2")
        if not has_involutive_klein_marking(base):
            raise ValueError(
                f"base {base.label} lacks the involutive Klein marking"
            )
        self.letter = letter
        self.base = base
        self.faithful_radius = base.faithful_radius  # safe: sections never outgrow a word
        if isinstance(base, WreathGroup):
            self.leaf_base = base.leaf_base
            self._memo = base._memo
            wrap = lambda e: e
        else:
            self.leaf_base = base
            self._memo = {}  # (g, h) -> g h for every tree of the tower
            wrap = leaf
        a, b, c, d = (wrap(base.generator(i)) for i in range(4))
        e = wrap(base.identity())
        self._identity = node(0, e, e)
        weak = _WEAK[letter]
        mk = lambda s, child: node(0, e if s == weak else a, child)
        self._gens = [
            node(1, e, e),
            mk("b", b),
            mk("c", c),
            mk("d", d),
        ]
        self.label = f"F[{letter}]({base.label})"

    def identity(self):
        return self._identity

    def generator(self, i):
        return self._gens[i]

    def mul(self, x, y):
        return compose(x, y, self.leaf_base.mul, self._memo)

    def describe_element(self, x):
        nt = nontrivial_leaves(x, self.leaf_base.identity())
        leaf_txt = ", ".join(
            "".join(map(str, addr)) + ": " + self.leaf_base.describe_element(v)
            for addr, v in nt
        )
        return f"portrait {portrait(x):#x} depth {x.depth}; leaves {{{leaf_txt}}}"


def apply_functor(letter: int, base: MarkedGroup) -> WreathGroup:
    return WreathGroup(letter, base)


def iterate_functor(omega: OmegaWord, k: int, base: MarkedGroup) -> MarkedGroup:
    """k nested functor applications; the outermost uses omega's letter 1."""
    if k < 0:
        raise ValueError("k must be >= 0")
    g = base
    for i in range(k, 0, -1):
        g = apply_functor(omega.letter(i), g)
    if k > 0:
        g.label = f"functor({omega}, {k}, {base.label})"
    return g


def grig(omega: OmegaWord, level: int) -> MarkedGroup:
    """Depth-``level`` portrait group of the decorated family."""
    g = iterate_functor(omega, level, TrivialGroup())
    g.label = f"grig({omega}, {level})"
    return g


# ------------------------------------------------- ball agreement


def ball_agreement_radius(g1: MarkedGroup, g2: MarkedGroup, n_max: int) -> int:
    """Largest r <= n_max with identical marked balls of radius r, or -1.

    Balls are compared with their labelled edges, including those that
    leave the ball, so -1 means even the radius-0 balls differ (a
    generator is trivial in one group only).  Breadth-first search
    numbers the vertices of equal labelled balls identically, so the
    radius-r balls agree exactly when their sub-ball adjacencies
    ``within(r)`` are equal; that holds whatever the order of the
    generators.  Both radius-n_max balls are always built, even for a pair
    that differs at radius 0, but their last spheres are closed only when
    the balls agree through radius n_max - 1.
    """
    if g1.symbols != g2.symbols:
        raise ValueError("groups must share a marking to compare balls")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    b1, b2 = bfs_ball(g1, n_max), bfs_ball(g2, n_max)
    for r in range(n_max + 1):
        if not np.array_equal(b1.within(r), b2.within(r)):  # unequal sizes too
            return r - 1
    return n_max
