"""Byte-identical CLI output on a fixed set of commands.

Each command runs in-process with ``--json -`` or ``--csv -`` and its whole
stdout is compared by sha256 with a pinned hash; one more pin covers the
DOT text of a small decorated ball.  A versioned change to one of these outputs re-pins
its hash and says so in CHANGES.md: the failure message prints the new pin.
"""

import hashlib
import json

import pytest

from griglab.cayley import bfs_ball
from griglab.cli import main, parse_group_expr


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


ALL_SUBSETS = ["{}", "{1}", "{2}", "{3}", "{1,2}", "{1,3}", "{2,3}", "{1,2,3}"]

GOLDEN = [
    (["estimate", "free(2)", "rho", "--n", "12"],
     "2bacdfcac7ae0cb0cf58ed5a0b1434a7139c0bdd3e3e81ca64c7e7a143eadb72"),
    (["estimate", "gamma_free()", "rho", "--n", "32"],
     "e0eadc4add09f4cf3237bb83c6c4455c56d658c655b20efe66adee360417ee25"),
    (["sweep", "rho", "free(2)", "gamma_free()", "--n", "16"],
     "7a473c3eec3097a51e6551b616c5242ec82fc6d3086c82f07fc49d6f2fc27494"),
    (["estimate", "gamma_free()", "entropy", "--n", "8"],
     "bc978d5bafc3d79d0fbaaea70e6d24320ffd6054419571a9909ddfd72f2aa085"),
    (["estimate", "free(2)", "entropy", "--n", "20"],
     "c0e72bef3a80668aa505a8cf0047416aabadad8e19d6a2579785396e9c13d523"),
    (["estimate", "grid(2)", "speed", "--n", "12"],
     "088c2fc3c6d6c2014f65f4684be4a9c94ec94a5fe83a13db6e26b007fb78582a"),
    (["estimate", "free(2)", "speed", "--n", "20"],
     "9d054a1d43dd4dcf4038b736fec0e3f329f9750ceb200855e517774192f1de73"),
    (["estimate", "free(2)", "entropy", "--n", "1000"],
     "8ecd4e72b1ba13ff1c0afb00997cedd2156bcfc50f64fbef0b8f911ac0b75c18"),
    (["estimate", "free(2)", "speed", "--n", "1000"],
     "a58b716c80f3237e3e1da35515fd70a8c73b89431bb8f2987e1ed9991fa09eb4"),
    (["estimate", "grid(2)", "mu", "--n", "8"],
     "571ae7f3ab24c625f56b68274f0182d7fc0a0a3c9c2e2f36100f8c8f9c162ea5"),
    (["estimate", "grid(2)", "pc-bond", "--R", "8", "--trials", "50", "--seed", "3"],
     "d97dc45f875722416929f591862c4f20fef5b95e76e935041e5d6c3817566eb9"),
    (["estimate", "grid(2)", "pc-site", "--R", "8", "--trials", "50", "--seed", "3"],
     "6240dd63825556cd47cec38409488b92521d6aa1f328eb521815d6e1dba16ef1"),
    (["estimate", "gamma_free()", "pc-site", "--R", "6", "--trials", "40", "--seed", "2"],
     "0aa783c553a9c1d00a1bc4db2872596bfbd1ee3a61c846844f8a655ffad983a0"),
    (["estimate", "cycle(2)", "pc-bond", "--R", "1", "--trials", "20", "--seed", "1"],
     "9f015ccadb11c687be8e60c72d398405e50f9ef78a2f6b6af5ff6b4003a84c81"),
    (["estimate", "gamma_free()", "cheeger", "--candidates", "greedy", "--n", "20"],
     "8fc9a5354d7413de565c68142649ff064ce64e89f25f07de8c7881a3af03c23a"),
    (["estimate", "grid(2)", "cheeger", "--candidates", "boxes", "--n", "8"],
     "620e0d4f1865712ed7b6a3cc1ccefcfac8e5e0fdefa0d76e0a9cdc3a864cc268"),
    (["estimate", "gj((012)*, {1,3}, 6)", "growth", "--n", "6"],
     "51bddd55d4a719355a88fc7a77088541593c0fe19f447d3c758d0120540efee9"),
    (["verify", "eta", "--k", "2"],
     "e5295726065071a46867d49132980fd2c1147cb93ef9e383223e331b6d4f8f19"),
    (["sweep", "eta-witness", "{}", "{1}", "{2}"],
     "64f684169890ff69e7e940bf6910f0d3445570abcd77619969aa88968a485aa3"),
    # every subset of {1,2,3}: 19 pairs read from one witness table
    (["sweep", "eta-witness", *ALL_SUBSETS, "--omega", "(012)*"],
     "e0d3a12ac10f2885851651f47a4032b21d73377dab2bab2c4d6c270dec95afca"),
    (["verify", "all"],
     "6b664cb3f33729357719a909f327fb0116a7136782006bb44494bf5bbb74a57a"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_stdout_is_byte_identical(argv, digest, capsys):
    assert main(argv + ["--json", "-"]) == 0
    got = sha256(capsys.readouterr().out)
    assert got == digest, f'stdout changed; new pin:\n    ({json.dumps(argv)},\n     "{got}"),'


# the CSV writer's cases: a quoted label and an error row, list cells that
# hold commas, a curve, a null cell, steps, an empty curve and no rows (the
# header alone)
CSV_GOLDEN = [
    (["verify", "matrix-relations"],
     "7dfa53ee3beb12e22457434d80ff544ad1a2f7c8fb1c0c11d80ebab6c001e320"),
    (["sweep", "rho", "free(2)", "product(free(2), free(2))", "bad(", "--n", "8"],
     "011ae8f2d5a499c31631366764ed3ab3694806713fe8d6e15f4eb6e1c6cbc895"),
    (["sweep", "eta-witness", "{}", "{1}", "{1,2}"],
     "18c30017883393198d13ac07937191659a810ea69faa2a038d050c3db7013fca"),
    (["sweep", "eta-witness", *ALL_SUBSETS, "--omega", "2|01"],
     "cc2607dcb239a48d62915491c4be420610f1b2a481128233defcfb6cb35c5417"),
    (["estimate", "grid(2)", "pc-bond", "--R", "6", "--trials", "20", "--seed", "1"],
     "bb9599a593a8f6ae74093051e0fb2688338fed403d36429507850fedffb6855e"),
    (["estimate", "free(2)", "growth", "--n", "4"],
     "332d3f9e58d60746f3d962bc94140a0d6c04c699900255bed08636a41cd1ca83"),
    (["estimate", "gamma_free()", "cheeger", "--candidates", "greedy", "--n", "6"],
     "18e5c489ebec40cf0ece9729e2ac71e657a0d111fb4fa424c9f4db3873f634d5"),
    (["estimate", "cycle(3)", "pc-site", "--R", "4", "--trials", "5"],
     "e1927e092981f28d72ea734555b08bf10fb3e7b71ca3ac4562c9aef3724d5e46"),
    (["sweep", "mu", "--n", "4"],
     "2661946d2de977387c9aa73dc8c3e965ba8f7b19cad655581b6793aad12b18bb"),
]


@pytest.mark.parametrize("argv, digest", CSV_GOLDEN, ids=[" ".join(a) for a, _ in CSV_GOLDEN])
def test_csv_stdout_is_byte_identical(argv, digest, capsys):
    assert main(argv + ["--csv", "-"]) == 0
    got = sha256(capsys.readouterr().out)
    assert got == digest, f'CSV stdout changed; new pin:\n    ({json.dumps(argv)},\n     "{got}"),'


def test_decorated_ball_dot_is_byte_identical():
    # 11 vertices, every matrix leaf printed through describe_element
    expr = "functor((012)*, 1, matrix_h())"
    ball = bfs_ball(parse_group_expr(expr), 2)
    assert ball.size == 11
    got = sha256(ball.to_dot())
    digest = "535388ad7bd82b4fafc7bac04ad5f7170505a3064997917efbb383f378a0d083"
    assert got == digest, f'to_dot of bfs_ball({expr}, 2) changed; new digest: "{got}"'


def test_family_member_ball_dot_is_byte_identical():
    # 11 vertices, each printed by ProductGroup.describe_element: one
    # labelled part per component, the decorated levels and the tail
    expr = "gj((012)*, {1,2}, 2)"
    ball = bfs_ball(parse_group_expr(expr), 2)
    assert ball.size == 11
    got = sha256(ball.to_dot())
    digest = "59fc59cdda4b9f89319664e540d16048ff7c07fdf4da9ffa99d22c9b07a812c1"
    assert got == digest, f'to_dot of bfs_ball({expr}, 2) changed; new digest: "{got}"'
