"""Exact projective 2x2 matrices over the Gaussian dyadic rationals.

A GaussianDyadic is (re + im*i) / 2^exp with integer re, im and exp >= 0,
kept normalized so that exp is minimal; it is a value type for entries and
printing, with no arithmetic of its own.  A ProjectiveMat stores its four
entries as one integer tuple over a shared, minimal power of two, so a
product is eight integer sums of products and one canonicalisation; the
entries come back as GaussianDyadic views.  Matrices are taken up to sign
(projectively) and must have determinant one, which holds for the four
distinguished generators below.  The canonicaliser checks the determinant
in integers on every construction, product and inverse.  All arithmetic
is exact; equality of canonical forms decides equality in the projective
group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .words import WordLike, _letters, base_relator


def _dyadic_shift(bits: int, exp: int) -> int:
    """How many factors of two cancel from x / 2^exp for every numerator x
    OR-ed into the nonzero ``bits``: their common trailing zeros, at most exp."""
    return min((bits & -bits).bit_length() - 1, exp)


@dataclass(frozen=True)
class GaussianDyadic:
    """(re_num + im_num * i) / 2**exp, normalized."""

    re_num: int
    im_num: int
    exp: int = 0

    def __post_init__(self):
        re, im, e = self.re_num, self.im_num, self.exp
        if e < 0:
            raise ValueError("exp must be >= 0")
        if re == 0 and im == 0:
            e = 0
        else:
            k = _dyadic_shift(re | im, e)
            re, im, e = re >> k, im >> k, e - k
        object.__setattr__(self, "re_num", re)
        object.__setattr__(self, "im_num", im)
        object.__setattr__(self, "exp", e)

    def __repr__(self) -> str:
        if self.exp:
            return f"({self.re_num}{self.im_num:+d}i)/2^{self.exp}"
        return f"({self.re_num}{self.im_num:+d}i)"


GD_ZERO = GaussianDyadic(0, 0)
GD_ONE = GaussianDyadic(1, 0)
GD_I = GaussianDyadic(0, 1)


def gd(re: int, im: int = 0, exp: int = 0) -> GaussianDyadic:
    return GaussianDyadic(re, im, exp)


class ProjectiveMat:
    """2x2 determinant-one matrix up to sign, entries row-major.

    Stored as one canonical tuple (exp, re00, im00, re01, im01, re10, im10,
    re11, im11): entry jk is (rejk + imjk*i) / 2^exp.  The first nonzero
    entry is positive in the (re, im) lexicographic sense and exp is
    minimal, so tuple equality and hash decide projective equality.
    """

    __slots__ = ("_key",)

    def __init__(self, m00, m01, m10, m11):
        entries = (m00, m01, m10, m11)
        e = max(x.exp for x in entries)
        ints = []
        for x in entries:
            s = e - x.exp
            ints += (x.re_num << s, x.im_num << s)
        self._key = _canonical(e, ints)

    def __matmul__(self, other: "ProjectiveMat") -> "ProjectiveMat":
        e, ar, ai, br, bi, cr, ci, dr, di = self._key
        f, er, ei, fr, fi, gr, gi, hr, hi = other._key
        return _from_key(_canonical(e + f, (
            ar * er - ai * ei + br * gr - bi * gi,
            ar * ei + ai * er + br * gi + bi * gr,
            ar * fr - ai * fi + br * hr - bi * hi,
            ar * fi + ai * fr + br * hi + bi * hr,
            cr * er - ci * ei + dr * gr - di * gi,
            cr * ei + ci * er + dr * gi + di * gr,
            cr * fr - ci * fi + dr * hr - di * hi,
            cr * fi + ci * fr + dr * hi + di * hr,
        )))

    def inverse(self) -> "ProjectiveMat":
        # adjugate works because the determinant is one
        e, ar, ai, br, bi, cr, ci, dr, di = self._key
        return _from_key(_canonical(e, (dr, di, -br, -bi, -cr, -ci, ar, ai)))

    def __eq__(self, other):
        if other.__class__ is ProjectiveMat:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

    def _entry(self, j: int) -> GaussianDyadic:
        k = self._key
        return GaussianDyadic(k[j], k[j + 1], k[0])

    m00 = property(lambda self: self._entry(1))
    m01 = property(lambda self: self._entry(3))
    m10 = property(lambda self: self._entry(5))
    m11 = property(lambda self: self._entry(7))

    @property
    def entries(self) -> tuple:
        return (self.m00, self.m01, self.m10, self.m11)

    @property
    def is_identity(self) -> bool:
        return self._key == MAT_ID._key

    @property
    def is_real(self) -> bool:
        k = self._key
        return not (k[2] or k[4] or k[6] or k[8])

    @classmethod
    def from_ints(cls, rows) -> "ProjectiveMat":
        (a, b), (c, d) = rows
        return cls(gd(a), gd(b), gd(c), gd(d))

    def __repr__(self) -> str:
        return f"[{self.m00!r} {self.m01!r}; {self.m10!r} {self.m11!r}]"


def _canonical(exp: int, ints) -> tuple:
    """The canonical key of the matrix with entries ints / 2^exp.

    ints holds re00, im00, re01, im01, re10, im10, re11, im11.  Raises on
    the zero matrix and on any determinant other than one; the check runs
    on every constructor call, product and inverse.  Sign and exponent
    are fixed after it, as neither changes whether det = 1.
    """
    for lead in ints:
        if lead:
            break
    else:
        raise ValueError("zero matrix is not projective")
    ar, ai, br, bi, cr, ci, dr, di = ints
    det_re = ar * dr - ai * di - br * cr + bi * ci
    det_im = ar * di + ai * dr - br * ci - bi * cr
    if det_re != 1 << 2 * exp or det_im:
        det = GaussianDyadic(det_re, det_im, 2 * exp)
        raise ValueError(f"determinant must be one, got {det!r}")
    s = _dyadic_shift(ar | ai | br | bi | cr | ci | dr | di, exp)
    if lead < 0:
        ints = [-x for x in ints]
    if s:
        ints = [x >> s for x in ints]
    return (exp - s, *ints)


def _from_key(key: tuple) -> ProjectiveMat:
    m = object.__new__(ProjectiveMat)
    m._key = key
    return m


MAT_ID = ProjectiveMat(GD_ONE, GD_ZERO, GD_ZERO, GD_ONE)

# the four distinguished involutions: a has the dyadic off-diagonal entry,
# b and c swap coordinates, d is diagonal
MAT_A = ProjectiveMat(GD_I, gd(0, 1, 2), GD_ZERO, gd(0, -1))
MAT_B = ProjectiveMat(GD_ZERO, GD_I, GD_I, GD_ZERO)
MAT_C = ProjectiveMat(GD_ZERO, GD_ONE, gd(-1), GD_ZERO)
MAT_D = ProjectiveMat(GD_I, GD_ZERO, GD_ZERO, gd(0, -1))


def generator_matrices() -> dict:
    return {"a": MAT_A, "b": MAT_B, "c": MAT_C, "d": MAT_D}


def word_to_matrix(w: WordLike, gens: Mapping | None = None) -> ProjectiveMat:
    table = generator_matrices() if gens is None else gens
    out = MAT_ID
    for ch in _letters(w):
        out = out @ table[ch]
    return out


def verify_relations(gens: Mapping) -> dict:
    """Pass/fail per defining relation, checked projectively."""
    a, b, c, d = gens["a"], gens["b"], gens["c"], gens["d"]
    return {
        "a^2": (a @ a).is_identity,
        "b^2": (b @ b).is_identity,
        "c^2": (c @ c).is_identity,
        "d^2": (d @ d).is_identity,
        "bcd": (b @ c @ d).is_identity,
    }


_POWER_LIMIT = 64  # powers of ad checked by the infinite-order certificate


def relation_report(gens: Mapping | None = None) -> dict:
    """Defining relations plus the distinguished exact identities.

    Includes the infinite-order certificate for the ad product (no power
    up to 64 is the identity) and the exact forms of (ad)^4 and of the
    nested-commutator image.
    """
    table = generator_matrices() if gens is None else gens
    report = dict(verify_relations(table))
    ad = table["a"] @ table["d"]
    p = MAT_ID
    order_free = True
    for _ in range(_POWER_LIMIT):
        p = p @ ad
        if p.is_identity:
            order_free = False
            break
    report[f"(ad)^m != 1 for m <= {_POWER_LIMIT}"] = order_free
    report["(ad)^4 exact"] = (
        word_to_matrix("ad", table) @ word_to_matrix("ad", table)
        @ word_to_matrix("ad", table) @ word_to_matrix("ad", table)
        == ProjectiveMat.from_ints([[1, -1], [0, 1]])
    )
    report["nested commutator exact"] = word_to_matrix(
        base_relator(), table
    ) == ProjectiveMat.from_ints([[-1, 2], [2, -5]])
    report["c and ad generate a real subgroup (sampled)"] = _real_subgroup_probe(table)
    return report


def _real_subgroup_probe(table: Mapping) -> bool:
    c = table["c"]
    ad = table["a"] @ table["d"]
    seen = {MAT_ID}
    frontier = [MAT_ID]
    for _ in range(6):  # products of up to six factors
        nxt = []
        for m in frontier:
            for g in (c, ad, ad.inverse()):
                y = m @ g
                if y not in seen:
                    if not y.is_real:
                        return False
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return True
