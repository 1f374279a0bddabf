"""The product family over level-functor towers, with separation witnesses.

A family member is indexed by a finite set J of positive levels: level i
carries the matrix-decorated tower when i is in J and the plain portrait
group otherwise, and a single deeper portrait group rides along as a
stand-in tail for the limit group.  Balls of a fixed radius n only see
finitely many levels, so the build truncates at a level N(n) chosen so
that every ball query of radius <= n is answered exactly.

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

from dataclasses import dataclass
from typing import Iterable

from .cayley import bfs_ball
from .marked import MatrixHGroup, ProductGroup, product
from .words import OmegaWord, eta_word, phi_twist, base_relator
from .wreath import (
    grig,
    iterate_functor,
    nontrivial_leaves,
    portrait,
)

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


@dataclass(frozen=True)
class GJSpec:
    omega: OmegaWord
    J: tuple
    query_radius: int

    def __post_init__(self):
        J = tuple(sorted(set(int(i) for i in self.J)))
        if any(i < 1 for i in J):
            raise ValueError("levels in J must be positive")
        object.__setattr__(self, "J", J)
        if self.query_radius < 0:
            raise ValueError("query_radius must be >= 0")


def build_GJ(spec: GJSpec) -> ProductGroup:
    """Truncated member of the family, faithful for balls of radius <= n.

    Components are the decorated levels i in J with i <= N(n), followed
    by the depth-N(n) portrait group labeled "tail".  The plain levels
    are quotients of the tail, so they are left out: the product is the
    same marked group with or without them.
    """
    om, n = spec.omega, spec.query_radius
    if om.is_stabilizing:
        raise ValueError("letter sequence must not stabilize")
    N = truncation_level(n, om)
    H = MatrixHGroup()
    levels = [i for i in spec.J if i <= N]
    factors = [iterate_functor(om, i, H) for i in levels]
    labels = [f"level {i} decorated" for i in levels]
    factors.append(grig(om, N))
    labels.append("tail")
    g = product(factors, labels)
    g.label = f"gj({om}, {{{','.join(map(str, spec.J))}}}, {n})"
    g.gj_spec = spec
    g.truncation = N
    g.faithful_radius = n
    return g


def separation_witness(
    omega: OmegaWord, J: Iterable, Jp: Iterable, i: int
) -> dict:
    """Check that the level-i separating word behaves as the family needs.

    Verifies: (1) the word is trivial in every decorated component above
    level i and in all plain portrait components including the tail
    stand-in; (2) it is nontrivial in the level-i decorated component,
    where it has an identity portrait and a single nontrivial leaf.
    Lower decorated components are reported informationally; the
    conditions do not involve them.
    """
    J = tuple(sorted(set(int(x) for x in J)))
    Jp = tuple(sorted(set(int(x) for x in Jp)))
    if not set(J) < set(Jp):
        raise ValueError("need J a proper subset of Jp")
    if Jp[0] < 1:  # the least level of J and Jp
        raise ValueError("levels in J must be positive")
    if i not in set(Jp) - set(J):
        raise ValueError("witness level must lie in Jp minus J")
    if omega.is_stabilizing:
        raise ValueError("letter sequence must not stabilize")

    H = MatrixHGroup()
    w = eta_word(omega, i)
    top = max(Jp) + 2  # scan plain levels a bit past the family
    plain_trivial = {}
    for j in range(1, top + 1):
        Gj = grig(omega, j)
        plain_trivial[j] = Gj.evaluate(w) == Gj.identity()
    # one decorated tower per level: i + 1 may also be a level of Jp
    towers = {j: iterate_functor(omega, j, H) for j in sorted({*Jp, i + 1})}
    Fi = towers.pop(i)
    trivial = {j: F.evaluate(w) == F.identity() for j, F in towers.items()}
    higher_trivial = {j: trivial[j] for j in Jp if j > i}
    lower_nontrivial = {j: not trivial[j] for j in Jp if j < i}
    deeper_trivial = trivial[i + 1]

    v = Fi.evaluate(w)
    nontrivial = v != Fi.identity()
    portrait_trivial = portrait(v) == 0
    leaves = nontrivial_leaves(v, H.identity())
    leaf_report = [
        {"address": "".join(map(str, addr)), "leaf": H.describe_element(x)}
        for addr, x in leaves
    ]
    expected_leaf = H.evaluate(phi_twist(base_relator(), -omega.letter(i + 1)))
    ok = (
        all(plain_trivial.values())
        and all(higher_trivial.values())
        and deeper_trivial
        and nontrivial
        and portrait_trivial
        and len(leaves) == 1
        and leaves[0][1] == expected_leaf
    )
    return {
        "schema": "griglab/witness/1",
        "omega": str(omega),
        "J": list(J),
        "Jp": list(Jp),
        "i": i,
        "word_length": len(w),
        "plain_components_trivial": plain_trivial,
        "higher_decorated_trivial": higher_trivial,
        "trivial_one_level_deeper": deeper_trivial,
        "nontrivial_at_level_i": nontrivial,
        "portrait_trivial_at_level_i": portrait_trivial,
        "witness_leaves": leaf_report,
        "leaf_matches_twisted_relator": bool(leaves)
        and leaves[0][1] == expected_leaf,
        "lower_decorated_nontrivial_info": lower_nontrivial,
        "ok": ok,
    }


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
