"""Exact projective 2x2 matrices over the Gaussian dyadic rationals.

Entries have the form (re + im*i) / 2^exp with integer re, im and exp >= 0,
kept normalized so that exp is minimal.  Matrices are taken up to sign
(projectively) and are required to have determinant one, which holds for
the four distinguished generators below and is preserved by products and
inverses.  All arithmetic is exact; equality of canonical forms decides
equality in the projective group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .words import WordLike, _letters, base_relator


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
            while e > 0 and re % 2 == 0 and im % 2 == 0:
                re //= 2
                im //= 2
                e -= 1
        object.__setattr__(self, "re_num", re)
        object.__setattr__(self, "im_num", im)
        object.__setattr__(self, "exp", e)

    def __add__(self, other: "GaussianDyadic") -> "GaussianDyadic":
        e = max(self.exp, other.exp)
        s1 = 1 << (e - self.exp)
        s2 = 1 << (e - other.exp)
        return GaussianDyadic(
            self.re_num * s1 + other.re_num * s2,
            self.im_num * s1 + other.im_num * s2,
            e,
        )

    def __neg__(self) -> "GaussianDyadic":
        return GaussianDyadic(-self.re_num, -self.im_num, self.exp)

    def __sub__(self, other: "GaussianDyadic") -> "GaussianDyadic":
        return self + (-other)

    def __mul__(self, other: "GaussianDyadic") -> "GaussianDyadic":
        a, b, c, d = self.re_num, self.im_num, other.re_num, other.im_num
        return GaussianDyadic(a * c - b * d, a * d + b * c, self.exp + other.exp)

    @property
    def is_zero(self) -> bool:
        return self.re_num == 0 and self.im_num == 0

    @property
    def is_real(self) -> bool:
        return self.im_num == 0

    @property
    def sign_is_positive(self) -> bool:
        """Lexicographic sign of a nonzero value: re > 0, ties broken by im."""
        if self.re_num != 0:
            return self.re_num > 0
        return self.im_num > 0

    def __repr__(self) -> str:
        if self.exp:
            return f"({self.re_num}{self.im_num:+d}i)/2^{self.exp}"
        return f"({self.re_num}{self.im_num:+d}i)"


GD_ZERO = GaussianDyadic(0, 0)
GD_ONE = GaussianDyadic(1, 0)
GD_I = GaussianDyadic(0, 1)


def gd(re: int, im: int = 0, exp: int = 0) -> GaussianDyadic:
    return GaussianDyadic(re, im, exp)


@dataclass(frozen=True)
class ProjectiveMat:
    """2x2 determinant-one matrix up to sign, entries row-major.

    The canonical representative makes the first nonzero entry positive
    in the (re, im) lexicographic sense, so dataclass equality and hash
    decide projective equality.
    """

    m00: GaussianDyadic
    m01: GaussianDyadic
    m10: GaussianDyadic
    m11: GaussianDyadic

    def __post_init__(self):
        entries = (self.m00, self.m01, self.m10, self.m11)
        lead = next((x for x in entries if not x.is_zero), None)
        if lead is None:
            raise ValueError("zero matrix is not projective")
        if not lead.sign_is_positive:
            for name, x in zip(("m00", "m01", "m10", "m11"), entries):
                object.__setattr__(self, name, -x)
        det = self.m00 * self.m11 - self.m01 * self.m10
        if det != GD_ONE:
            raise ValueError(f"determinant must be one, got {det!r}")

    def __matmul__(self, other: "ProjectiveMat") -> "ProjectiveMat":
        return ProjectiveMat(
            self.m00 * other.m00 + self.m01 * other.m10,
            self.m00 * other.m01 + self.m01 * other.m11,
            self.m10 * other.m00 + self.m11 * other.m10,
            self.m10 * other.m01 + self.m11 * other.m11,
        )

    def inverse(self) -> "ProjectiveMat":
        # adjugate works because the determinant is one
        return ProjectiveMat(self.m11, -self.m01, -self.m10, self.m00)

    @property
    def entries(self) -> tuple:
        return (self.m00, self.m01, self.m10, self.m11)

    @property
    def is_identity(self) -> bool:
        return self == MAT_ID

    @property
    def is_real(self) -> bool:
        return all(x.is_real for x in self.entries)

    @classmethod
    def from_ints(cls, rows) -> "ProjectiveMat":
        (a, b), (c, d) = rows
        return cls(gd(a), gd(b), gd(c), gd(d))

    def __repr__(self) -> str:
        return f"[{self.m00!r} {self.m01!r}; {self.m10!r} {self.m11!r}]"


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
