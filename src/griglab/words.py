"""Reduced words over the involutive letters a, b, c, d.

The ambient group is the free product Z/2 * (Z/2 x Z/2): each letter is an
involution and any two distinct letters among {b, c, d} multiply to the
third.  A word is in normal form when no letter is doubled and no two
letters from {b, c, d} are adjacent; equality in the group is equality of
normal forms, so all word-level functions here return normal forms.

A word is a ``str`` over these letters.  The empty string is the
identity; on input "e" and "1" also name it, and it prints as "e".
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

LETTERS = "abcd"
_TORSION = "bcd"  # pairwise products stay inside this set

# product table for the Klein four-group part: b*c = d and so on
_THIRD = {}
for _x in _TORSION:
    for _y in _TORSION:
        if _x != _y:
            _THIRD[_x, _y] = next(z for z in _TORSION if z not in (_x, _y))

_NOT_LETTERS = str.maketrans("", "", LETTERS)  # deletes every letter
# per x in 0, 1, 2: cycle b -> c -> d -> b x steps, fix a
_TWISTS = [str.maketrans(_TORSION, _TORSION[x:] + _TORSION[:x]) for x in range(3)]


def reduce(w: str) -> str:
    """Normal form of ``w``: cancel doubled letters, fold b/c/d pairs."""
    if w in ("e", "1"):
        return ""
    bad = w.translate(_NOT_LETTERS)
    if bad:
        raise ValueError(f"bad letter {bad[0]!r}; expected one of {LETTERS!r}")
    return reduce_onto("", w)


def reduce_onto(u: str, letters: str) -> str:
    """Normal form of ``u`` followed by ``letters``, for ``u`` already in
    normal form: only the seam can reduce, so ``u`` is not re-checked and
    ``letters`` must be valid letters."""
    out = list(u)
    for ch in letters:
        while True:
            if not out:
                out.append(ch)
                break
            top = out[-1]
            if top == ch:
                out.pop()
                break
            if top != "a" and ch != "a":
                out.pop()
                ch = _THIRD[top, ch]
                continue
            out.append(ch)
            break
    return "".join(out)


def commutator(u: str, v: str) -> str:
    # orientation u v u^-1 v^-1, matching the exact matrix identities; every
    # letter is an involution, so a reduced word's inverse is its reversal
    u, v = reduce(u), reduce(v)
    return reduce(u + v + u[::-1] + v[::-1])


def phi_twist(w: str, x: int) -> str:
    """Cycle the torsion letters x steps along b -> c -> d -> b; fix a."""
    return reduce(w.translate(_TWISTS[x % 3]))


def sigma_sub(w: str) -> str:
    """Doubling substitution a -> aca, fixing b, c, d."""
    return reduce(w.replace("a", "aca"))


def sigma_twisted(w: str, x: int) -> str:
    return phi_twist(sigma_sub(phi_twist(w, -x)), x)


@functools.lru_cache(maxsize=1)
def base_relator() -> str:
    """The nested commutator [c, [d, [b, (ad)^4]]] in normal form."""
    u = reduce("adadadad")
    u = commutator("b", u)
    u = commutator("d", u)
    u = commutator("c", u)
    return u


def eta_word(omega: "OmegaWord", k: int) -> str:
    """Separating word at level k for the letter sequence ``omega``.

    Built from the base relator by one letter twist for the innermost
    level, then k doubling layers working back to the outermost letter.
    The twist sign at each layer is the one the matching level functor
    absorbs; the triviality checks in the test suite pin it down.
    """
    if k < 0:
        raise ValueError("level must be >= 0")
    w = phi_twist(base_relator(), -omega.letter(k + 1))
    for i in range(k, 0, -1):
        w = sigma_twisted(w, -omega.letter(i))
    return w


@dataclass(frozen=True)
class OmegaWord:
    """Eventually periodic sequence over {0, 1, 2}, indexed from 1."""

    pre: str = ""
    period: str = "012"

    def __post_init__(self):
        if not self.period:
            raise ValueError("period must be nonempty")
        for ch in self.pre + self.period:
            if ch not in "012":
                raise ValueError(f"bad symbol {ch!r}; expected 0, 1 or 2")

    def letter(self, i: int) -> int:
        """The i-th letter, 1-based."""
        if i < 1:
            raise ValueError("index is 1-based")
        j = i - 1
        if j < len(self.pre):
            return int(self.pre[j])
        return int(self.period[(j - len(self.pre)) % len(self.period)])

    def shift(self, m: int) -> "OmegaWord":
        """Drop the first m letters."""
        if m < 0:
            raise ValueError("shift must be >= 0")
        if m <= len(self.pre):
            return OmegaWord(self.pre[m:], self.period)
        r = (m - len(self.pre)) % len(self.period)
        return OmegaWord("", self.period[r:] + self.period[:r])

    @property
    def is_stabilizing(self) -> bool:
        # eventually constant sequences make the construction degenerate
        return len(set(self.period)) == 1

    def __str__(self) -> str:
        if self.pre:
            return f"{self.pre}|{self.period}"
        return f"({self.period})*"


# one omega word: "(012)*", "01|2" (pre|period) or a bare period "012";
# the expression parser matches this token inside a constructor call
OMEGA = re.compile(r"\((?P<star>[012]+)\)\*|(?P<pre>[012]*)\|(?P<per>[012]+)|(?P<bare>[012]+)")


def parse_omega(text: str) -> OmegaWord:
    """Accepts "(012)*", "01|2", or a bare period like "012"."""
    m = OMEGA.fullmatch(text.strip())
    if not m:
        raise ValueError(f"cannot parse omega word from {text!r}")
    return OmegaWord(m["pre"] or "", m["star"] or m["per"] or m["bare"])


FIRST_OMEGA = OmegaWord("", "012")
