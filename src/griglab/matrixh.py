"""Exact projective 2x2 matrices over the Gaussian dyadic rationals.

A ProjectiveMat is one canonical integer tuple (exp, re00, im00, re01,
im01, re10, im10, re11, im11): entry jk is (rejk + imjk*i) / 2^exp, all
four entries over one shared, minimal power of two.  A product is eight
integer sums of products and one canonicalisation.  Matrices are taken
up to sign (projectively) and must have determinant one, which holds for
the four distinguished generators below; the canonicaliser checks the
determinant in integers on every construction, product and inverse.  All
arithmetic is exact, and equality of canonical tuples decides equality
in the projective group.  Entries are printed one at a time with their
own smallest exponent.
"""

from __future__ import annotations

from typing import Mapping

from .words import WordLike, _letters, base_relator


def _dyadic_shift(bits: int, exp: int) -> int:
    """How many factors of two cancel from x / 2^exp for every numerator x
    OR-ed into the nonzero ``bits``: their common trailing zeros, at most exp."""
    return min((bits & -bits).bit_length() - 1, exp)


def _dyadic(re: int, im: int, exp: int) -> str:
    """The printed form of (re + im*i) / 2^exp, with exp made minimal."""
    k = _dyadic_shift(re | im, exp) if re or im else exp
    re, im, exp = re >> k, im >> k, exp - k
    return f"({re}{im:+d}i)/2^{exp}" if exp else f"({re}{im:+d}i)"


class ProjectiveMat:
    """2x2 determinant-one matrix up to sign, entries row-major.

    Built from integers over one power of two, ``ProjectiveMat(exp, ints)``
    with ints = (re00, im00, re01, im01, re10, im10, re11, im11), and stored
    as the canonical key (exp, *ints): the first nonzero integer is
    positive and exp is minimal, so tuple equality and hash decide
    projective equality.
    """

    __slots__ = ("_key",)

    def __init__(self, exp: int, ints):
        if exp < 0:
            raise ValueError("exp must be >= 0")
        self._key = _canonical(exp, ints)

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
        return cls(0, (a, 0, b, 0, c, 0, d, 0))

    def __repr__(self) -> str:
        e, *ints = self._key
        a, b, c, d = (_dyadic(ints[j], ints[j + 1], e) for j in range(0, 8, 2))
        return f"[{a} {b}; {c} {d}]"


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
        det = _dyadic(det_re, det_im, 2 * exp)
        raise ValueError(f"determinant must be one, got {det}")
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


MAT_ID = ProjectiveMat(0, (1, 0, 0, 0, 0, 0, 1, 0))

# the four distinguished involutions: a has the dyadic off-diagonal entry,
# b and c swap coordinates, d is diagonal
MAT_A = ProjectiveMat(2, (0, 4, 0, 1, 0, 0, 0, -4))
MAT_B = ProjectiveMat(0, (0, 0, 0, 1, 0, 1, 0, 0))
MAT_C = ProjectiveMat(0, (0, 0, 1, 0, -1, 0, 0, 0))
MAT_D = ProjectiveMat(0, (0, 1, 0, 0, 0, 0, 0, -1))


def generator_matrices() -> dict:
    return {"a": MAT_A, "b": MAT_B, "c": MAT_C, "d": MAT_D}


def word_to_matrix(w: WordLike) -> ProjectiveMat:
    table = generator_matrices()
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


def relation_report() -> dict:
    """Defining relations plus the distinguished exact identities.

    Includes the infinite-order certificate for the ad product (no power
    up to 64 is the identity) and the exact forms of (ad)^4 and of the
    nested-commutator image.
    """
    table = generator_matrices()
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
    report["(ad)^4 exact"] = word_to_matrix("ad" * 4) == ProjectiveMat.from_ints([[1, -1], [0, 1]])
    commutator = ProjectiveMat.from_ints([[-1, 2], [2, -5]])
    report["nested commutator exact"] = word_to_matrix(base_relator()) == commutator
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
