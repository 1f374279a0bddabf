"""The product family over level-functor towers, with separation witnesses.

A family member G_J is indexed, on a letter sequence omega that does not
stabilize, by a finite set J of positive levels: level i carries the
matrix-decorated tower when i is in J and the plain portrait group
otherwise, and a single deeper portrait group rides along as a stand-in
tail for the limit group.  Balls of a fixed radius n only see finitely
many levels, so ``build_GJ(omega, J, n)`` truncates at a level N(n)
chosen so that every ball query of radius <= n is answered exactly.

A plain level i <= N is a quotient of the tail (truncating a depth-N
portrait to depth i is a homomorphism that keeps the marking), so it
adds no relation the tail does not already impose.  A built member
therefore carries only its decorated levels and the tail.

The separating word for level i evaluates trivially in every plain
component and every decorated component above i, but survives at level i
with an identity portrait and a single nontrivial leaf; that is the
computable witness that dropping level i changes the group.
"""

from __future__ import annotations

from typing import Iterable

from .cayley import bfs_ball
from .marked import MatrixHGroup, ProductGroup, product
from .words import OmegaWord, eta_word, phi_twist, base_relator
from .wreath import grig, iterate_functor, split

def activation_margin(omega: OmegaWord) -> int:
    """Extra tree depth after which truncation cannot mask a generator.

    A single torsion generator stays invisible in the portrait groups
    while the letters keep starving it; the margin is the worst number of
    levels, over all shifts of omega, before a surviving generator shows
    a swap.  Generators starved forever are trivial in the limit too, so
    they need no margin.
    """
    horizon = len(omega.pre) + 2 * len(omega.period)
    best = 1
    for t in range(len(omega.pre) + len(omega.period)):
        nu = omega.shift(t)
        for kill in (0, 1, 2):
            j = next(
                (j for j in range(1, horizon + 1) if nu.letter(j) != kill), None
            )
            if j is not None:
                best = max(best, 1 + j)
    return best


def truncation_level(n: int, omega: OmegaWord) -> int:
    """Depth at which radius-n balls of the portrait groups stabilize.

    Any word of length <= 2n + 1 has single-letter sections at depth
    ceil(log2(2n + 1)); the activation margin then guarantees the
    truncated group resolves each section's triviality exactly as the
    limit does.
    """
    if n < 0:
        raise ValueError("radius must be >= 0")
    # (2n).bit_length() is ceil(log2(2n + 1)), computed without floats
    return (2 * n).bit_length() + activation_margin(omega)


def _levels(omega: OmegaWord, J: Iterable) -> tuple:
    """J as its sorted distinct levels, refusing a set or an omega that
    indexes no member of the family."""
    J = tuple(sorted(set(int(i) for i in J)))
    if J and J[0] < 1:
        raise ValueError("levels in J must be positive")
    if omega.is_stabilizing:
        raise ValueError("letter sequence must not stabilize")
    return J


def build_GJ(omega: OmegaWord, J: Iterable, query_radius: int) -> ProductGroup:
    """Truncated member G_J of the family on omega, faithful for balls of
    radius <= query_radius.

    J is read as its sorted distinct levels, each at least 1.  Components
    are the decorated levels i in J with i <= N(n), followed by the
    depth-N(n) portrait group labeled "tail".  The plain levels are
    quotients of the tail, so they are left out: the product is the same
    marked group with or without them.
    """
    J, N = _levels(omega, J), truncation_level(query_radius, omega)
    H = MatrixHGroup()
    levels = [i for i in J if i <= N]
    factors = [iterate_functor(omega, i, H) for i in levels]
    labels = [f"level {i} decorated" for i in levels]
    factors.append(grig(omega, N))
    labels.append("tail")
    g = product(factors, labels)
    g.label = f"gj({omega}, {{{','.join(map(str, J))}}}, {query_radius})"
    g.truncation = N
    g.faithful_radius = query_radius
    return g


class WitnessTable:
    """The separating words eta_i against the levels j of one omega.

    No tree is built.  A word's swap bits and leaves in a depth-j tower are
    fixed by its sections: j rounds of ``split`` give its depth-j sections,
    and whether a section above depth j swaps.  So eta_i is trivial in
    grig(omega, j) when nothing above depth j swaps, and in F^j(H) when,
    in addition, every depth-j section is trivial in H.  Each word is split
    once per depth, and its depth-j sections are evaluated in H once.  A
    table serves one call and dies with it.
    """

    def __init__(self, omega: OmegaWord):
        self.omega = omega
        self.H = MatrixHGroup()
        self._memo = {}

    def _get(self, key, make):
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def word(self, i: int):
        return self._get(("eta", i), lambda: eta_word(self.omega, i))

    def sections(self, w, d: int) -> tuple:
        """(swapped, sections) of the reduced word w at depth d: whether a
        section above depth d swaps, and the nonempty depth-d sections as
        (address, word) pairs in address order."""
        ladder = self._get(("sections", w), lambda: [(False, [((), w)] if w else [])])
        while len(ladder) <= d:
            swapped, level = ladder[-1]
            letter, deeper = self.omega.letter(len(ladder)), []
            for address, u in level:
                swap, *halves = split(u, letter)
                swapped = swapped or swap == 1
                deeper += [(address + (b,), v) for b, v in enumerate(halves) if v]
            ladder.append((swapped, deeper))
        return ladder[d]

    def leaves(self, w, j: int) -> list:
        """(address, leaf value) pairs of the leaves of w in F^j(H) that
        differ from the identity, in address order."""
        def make():
            values = ((a, self.H.evaluate(u)) for a, u in self.sections(w, j)[1])
            return [(a, x) for a, x in values if x != self.H.identity()]

        return self._get(("leaves", w, j), make)

    def trivial(self, i: int, j: int, decorated: bool = True) -> bool:
        w = self.word(i)
        return not self.sections(w, j)[0] and not (decorated and self.leaves(w, j))

    def level(self, i: int) -> tuple:
        """(nontrivial, identity portrait, nontrivial leaves) of eta_i in F^i(H)."""
        w = self.word(i)
        swapped, leaves = self.sections(w, i)[0], self.leaves(w, i)
        return swapped or bool(leaves), not swapped, leaves

    def leaf_matches(self, i: int) -> bool:
        """Whether eta_i's first leaf in F^i(H) is the relator twisted by letter i + 1."""
        leaves, twist = self.level(i)[2], -self.omega.letter(i + 1)
        return self._get(("relator", i), lambda: bool(leaves)
                         and leaves[0][1] == self.H.evaluate(phi_twist(base_relator(), twist)))

    def report(self, J: Iterable, Jp: Iterable, i: int) -> dict:
        """The griglab/witness/1 report of separation_witness(omega, J, Jp, i)."""
        J, Jp = (_levels(self.omega, s) for s in (J, Jp))
        if not set(J) < set(Jp):
            raise ValueError("need J a proper subset of Jp")
        if i not in set(Jp) - set(J):
            raise ValueError("witness level must lie in Jp minus J")
        # scan plain levels a bit past the family; i + 1 is "one level deeper"
        plain = {j: self.trivial(i, j, False) for j in range(1, max(Jp) + 3)}
        trivial = {j: self.trivial(i, j) for j in sorted({*Jp, i + 1} - {i})}
        higher = {j: trivial[j] for j in Jp if j > i}
        nontrivial, portrait_trivial, leaves = self.level(i)
        matches = self.leaf_matches(i)
        return {
            "schema": "griglab/witness/1",
            "omega": str(self.omega),
            "J": list(J),
            "Jp": list(Jp),
            "i": i,
            "word_length": len(self.word(i)),
            "plain_components_trivial": plain,
            "higher_decorated_trivial": higher,
            "trivial_one_level_deeper": trivial[i + 1],
            "nontrivial_at_level_i": nontrivial,
            "portrait_trivial_at_level_i": portrait_trivial,
            "witness_leaves": [
                {"address": "".join(map(str, a)), "leaf": self.H.describe_element(x)}
                for a, x in leaves
            ],
            "leaf_matches_twisted_relator": matches,
            "lower_decorated_nontrivial_info": {j: not trivial[j] for j in Jp if j < i},
            "ok": all(plain.values()) and all(higher.values()) and trivial[i + 1]
            and nontrivial and portrait_trivial and len(leaves) == 1 and matches,
        }


def separation_witness(omega: OmegaWord, J: Iterable, Jp: Iterable, i: int) -> dict:
    """Check that the level-i separating word behaves as the family needs.

    Verifies: (1) the word is trivial in every decorated component above
    level i and in all plain portrait components including the tail
    stand-in; (2) it is nontrivial in the level-i decorated component,
    where it has an identity portrait and a single nontrivial leaf.
    Lower decorated components are reported informationally; the
    conditions do not involve them.  A sweep asks one WitnessTable.
    """
    return WitnessTable(omega).report(J, Jp, i)


def is_kernel_section_element(gamma: ProductGroup, x) -> bool:
    """Tail coordinate trivial, some finite coordinate nontrivial.

    The last factor is taken as the tail stand-in (build_GJ puts it
    there).  A plain level, which build_GJ leaves out, is trivial
    whenever the tail is, so it could not change the answer.
    """
    triv = gamma.component_triviality(x)
    return triv[-1] and not all(triv[:-1])


def finite_kernel_section(gamma: ProductGroup, n: int) -> set:
    """Elements within radius n that vanish in the tail but not overall."""
    ball = bfs_ball(gamma, n)
    return {x for x in ball.vertices if is_kernel_section_element(gamma, x)}
