"""Every argument refusal that no other test reaches, one row per call."""

import re

import pytest

from griglab import cayley, estimators, wreath
from griglab.cli import main, parse_group_expr
from griglab.marked import FreeGroup, MatrixHGroup
from griglab.words import FIRST_OMEGA, OmegaWord, eta_word

H = MatrixHGroup()
E = wreath.leaf(H.identity())

REFUSALS = [
    ("bfs_ball", lambda: cayley.bfs_ball(FreeGroup(2), -1), "radius must be >= 0"),
    ("saw_count", lambda: cayley.saw_count(FreeGroup(2), -1), "n_max must be >= 0"),
    ("boxes", lambda: cayley.cheeger_upper(FreeGroup(2), "boxes", 3),
     "boxes strategy needs a grid group"),
    ("strategy", lambda: cayley.cheeger_upper(FreeGroup(2), "nope", 3),
     "unknown strategy 'nope'"),
    ("close", lambda: parse_group_expr("free(2"), "at position 6: expected ')'"),
    ("name", lambda: parse_group_expr("(2)"), "at position 0: expected a constructor name"),
    ("walk_distribution", lambda: estimators.walk_distribution(FreeGroup(2), -1),
     "n must be >= 0"),
    ("generator", lambda: FreeGroup(2).evaluate([0, 4]), "generator index 4 out of range"),
    ("eta_word", lambda: eta_word(FIRST_OMEGA, -1), "level must be >= 0"),
    ("period", lambda: OmegaWord("", ""), "period must be nonempty"),
    ("symbol", lambda: OmegaWord("0", "13"), "bad symbol '3'; expected 0, 1 or 2"),
    ("shift", lambda: FIRST_OMEGA.shift(-1), "shift must be >= 0"),
    ("node", lambda: wreath.node(0, E, wreath.node(0, E, E)), "children must have equal depth"),
    ("compose", lambda: wreath.compose(E, wreath.node(1, E, E), H.mul, {}), "depth mismatch"),
    ("iterate_functor", lambda: wreath.iterate_functor(FIRST_OMEGA, -1, H), "k must be >= 0"),
    ("marking", lambda: wreath.ball_agreement_radius(FreeGroup(2), FreeGroup(3), 1),
     "groups must share a marking to compare balls"),
    ("agreement", lambda: wreath.ball_agreement_radius(FreeGroup(2), FreeGroup(2), -1),
     "n_max must be >= 0"),
]


@pytest.mark.parametrize("call, message", [r[1:] for r in REFUSALS], ids=[r[0] for r in REFUSALS])
def test_refusal(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_boxes_on_a_non_grid_group_is_a_usage_error(capsys):
    assert main(["estimate", "free(2)", "cheeger", "--candidates", "boxes", "--n", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "boxes strategy needs a grid group" in err
