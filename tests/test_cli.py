"""Expression language, command dispatch, exit codes, emission formats."""

import inspect
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest.mock import ANY

import pytest

from griglab import cayley, cli, estimators
from griglab.cayley import BallBudgetError
from griglab.cli import ExprError, main, parse_group_expr, to_csv
from griglab.estimators import EstimateReport
from griglab.marked import ProductGroup
from griglab.words import parse_omega


def test_parse_simple_constructors():
    assert parse_group_expr("free(2)").k == 4
    assert parse_group_expr("cycle(6)").k == 2
    assert parse_group_expr("grid(3)").k == 6
    assert parse_group_expr("gamma_free()").k == 4
    assert parse_group_expr("matrix_h()").k == 4


def test_parse_tower_constructors():
    g = parse_group_expr("grig((012)*, 3)")
    assert g.identity().depth == 3
    f = parse_group_expr("functor((012)*, 2, matrix_h())")
    assert f.identity().depth == 2
    gj = parse_group_expr("gj((012)*, {1,3}, 4)")
    assert isinstance(gj, ProductGroup)
    assert gj.gj_spec.J == (1, 3)


def test_parse_product_and_whitespace():
    g = parse_group_expr("product( grig((012)*, 2), grig((012)*, 1) )")
    assert isinstance(g, ProductGroup)
    assert len(g.factors) == 2
    with pytest.raises(ExprError):  # factors must share marking symbols
        parse_group_expr("product(grig((012)*, 2), cycle(2))")


def test_parse_omega_forms():
    a = parse_group_expr("grig((01)*, 2)")
    b = parse_group_expr("grig(01|01, 2)")
    assert (a.letter, a.base.letter) == (b.letter, b.base.letter) == (0, 1)


@pytest.mark.parametrize("form", ["(012)*", "21|0", "|012", "012"])
def test_expressions_and_omega_flag_accept_the_same_forms(form, monkeypatch):
    om = parse_omega(form)
    assert parse_group_expr(f"grig({form}, 2)").label == f"grig({om}, 2)"
    seen = []
    monkeypatch.setattr(cli, "suite_product_compat", lambda **kw: seen.append(kw) or [])
    assert main(["verify", "product-compat", "--omega", form]) == 0
    assert seen == [{"omega": om}]


def test_an_all_digit_omega_in_the_config_runs_like_the_flag(monkeypatch, tmp_path):
    conf = tmp_path / "lab.conf"
    conf.write_text("omega=012\n")
    seen = []
    monkeypatch.setattr(cli, "suite_product_compat", lambda **kw: seen.append(kw) or [])
    assert main(["verify", "product-compat", "--config", str(conf)]) == 0
    assert main(["verify", "product-compat", "--omega", "012"]) == 0
    assert seen == [{"omega": parse_omega("012")}] * 2


@pytest.mark.parametrize("form", ["(013)*", "abc"])
def test_expressions_and_omega_flag_reject_the_same_forms(form, capsys):
    with pytest.raises(ValueError):
        parse_omega(form)
    with pytest.raises(ExprError):
        parse_group_expr(f"grig({form}, 2)")
    assert main(["verify", "product-compat", "--omega", form]) == 2
    assert "cannot parse omega word" in capsys.readouterr().err


def test_parse_errors_carry_position():
    with pytest.raises(ExprError) as ei:
        parse_group_expr("free(x)")
    assert ei.value.pos == 5
    with pytest.raises(ExprError):
        parse_group_expr("free(2) junk")
    with pytest.raises(ExprError):
        parse_group_expr("mystery(3)")
    with pytest.raises(ExprError):
        parse_group_expr("grig((012)*, )")
    with pytest.raises(ExprError):
        parse_group_expr("gj((012)*, {1,], 4)")


def test_parse_constructor_value_errors_become_expr_errors():
    with pytest.raises(ExprError):
        parse_group_expr("free(9)")  # rank capped at 4
    with pytest.raises(ExprError):
        parse_group_expr("functor((012)*, 1, free(2))")  # marking not Klein


def test_verify_suites_exit_zero(capsys):
    for argv in (
        ["verify", "matrix-relations"],
        ["verify", "contraction", "--m", "1"],
        ["verify", "eta", "--k", "1"],
        ["verify", "product-compat"],
    ):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "[ok ]" in out and "FAIL" not in out


def test_verify_failure_exits_one(monkeypatch, capsys):
    monkeypatch.setattr(
        cli, "suite_eta", lambda **kw: [{"name": "forced", "ok": False, "detail": ""}]
    )
    assert main(["verify", "eta"]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, named",
    [
        (["matrix-relations", "--m", "7", "--k", "9"], "matrix-relations does not read --m, --k"),
        (["matrix-relations", "--omega", "(021)*"], "matrix-relations does not read --omega"),
        (["contraction", "--k", "2"], "contraction does not read --k"),
        (["eta", "--m", "3"], "eta does not read --m"),
        (["product-compat", "--m", "3", "--k", "2"], "product-compat does not read --m, --k"),
    ],
)
def test_verify_unread_flags_exit_two(argv, named, monkeypatch, capsys, tmp_path):
    ran = []
    for suite in ("suite_matrix_relations", "suite_contraction", "suite_eta",
                  "suite_product_compat"):
        monkeypatch.setattr(cli, suite, lambda *a, s=suite: ran.append(s) or [])
    assert main(["verify", *argv]) == 2
    assert named in capsys.readouterr().err
    # a flag set by the config is refused the same way
    flag, value = argv[1].lstrip("-"), argv[2]
    conf = tmp_path / "c.conf"
    conf.write_text(f"{flag}={value}\n")
    assert main(["verify", argv[0], "--config", str(conf)]) == 2
    assert f"does not read --{flag}" in capsys.readouterr().err
    assert ran == []


def test_verify_suites_read_their_flags_with_defaults(monkeypatch):
    # an unset flag is not passed on, so the suite's default is the only one
    assert inspect.signature(cli.suite_contraction).parameters["m"].default == 2
    assert inspect.signature(cli.suite_eta).parameters["k"].default == 1
    seen = []
    for suite in ("suite_matrix_relations", "suite_contraction", "suite_eta",
                  "suite_product_compat"):
        monkeypatch.setattr(cli, suite, lambda s=suite, **kw: seen.append((s[6:], kw)) or [])
    assert main(["verify", "all"]) == 0
    assert seen == [("matrix_relations", {}), ("contraction", {}), ("eta", {}),
                    ("product_compat", {})]
    seen.clear()
    assert main(["verify", "all", "--m", "4", "--k", "3", "--omega", "(021)*"]) == 0
    om = parse_omega("(021)*")
    assert seen == [("matrix_relations", {}), ("contraction", {"m": 4, "omega": om}),
                    ("eta", {"k": 3, "omega": om}), ("product_compat", {"omega": om})]
    seen.clear()
    assert main(["verify", "contraction", "--m", "5"]) == 0
    assert main(["verify", "eta", "--k", "0"]) == 0
    assert seen == [("contraction", {"m": 5}), ("eta", {"k": 0})]


def test_verify_eta_at_level_zero_reads_the_matrix_group(capsys):
    # F^0(H) is H: eta_0's depth-0 section is the word itself, read in H
    assert main(["verify", "eta", "--k", "0", "--json", "-"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [(c["name"], c["ok"]) for c in report["checks"]] == [
        ("eta_0 trivial one functor level deeper", True),
        ("eta_0 trivial in the level-0 plain group", True),
        ("eta_0 nontrivial in the matrix group", True),
    ]
    assert report["ok"]


@pytest.mark.parametrize("m", ["0", "-1"])
def test_verify_contraction_needs_m_at_least_one(m, capsys):
    # F^0(H) is the matrix group itself, which no plain truncation matches
    with pytest.raises(ValueError, match="m must be >= 1"):
        cli.suite_contraction(int(m))
    assert main(["verify", "contraction", "--m", m]) == 2
    assert "usage error: m must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("flag, parse", [("--json", json.loads), ("--csv", str.splitlines)])
def test_verify_to_stdout_prints_the_report_alone(flag, parse, capsys):
    assert main(["verify", "matrix-relations", flag, "-"]) == 0
    out = capsys.readouterr().out
    assert "[ok ]" not in out
    report = parse(out)
    assert report["ok"] if flag == "--json" else report[0] == "name,ok,detail"


def test_json_and_csv_both_to_stdout_exit_two(monkeypatch, tmp_path, capsys):
    ran = []
    monkeypatch.setattr(cli, "spectral_radius", lambda *a, **k: ran.append(a))
    argv = ["estimate", "free(2)", "rho", "--csv", "-"]
    assert main(argv + ["--json", "-"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "usage error: --json - and --csv -" in err
    conf = tmp_path / "c.conf"
    conf.write_text("json=-\n")
    assert main(argv + ["--config", str(conf)]) == 2
    assert ran == []


def test_verify_unknown_suite_usage_error():
    with pytest.raises(SystemExit) as ei:
        main(["verify", "bogus"])
    assert ei.value.code == 2


def test_estimate_json_and_csv(tmp_path, capsys):
    jp, cp = tmp_path / "r.json", tmp_path / "r.csv"
    rc = main(
        ["estimate", "free(2)", "rho", "--n", "8", "--json", str(jp), "--csv", str(cp)]
    )
    assert rc == 0
    blob = json.loads(jp.read_text())
    assert blob["schema"] == "griglab/estimate/1"
    assert blob["runtime_seconds"] is None
    assert blob["certified"]["direction"] == "lower"
    lines = cp.read_text().strip().splitlines()
    assert lines[0].startswith("n,")
    assert len(lines) == 1 + len(blob["series"]["n"])


def test_estimate_percolation_csv_columns(tmp_path):
    cp = tmp_path / "curve.csv"
    rc = main(
        [
            "estimate", "grid(2)", "pc-bond",
            "--R", "6", "--trials", "30", "--csv", str(cp),
        ]
    )
    assert rc == 0
    lines = cp.read_text().strip().splitlines()
    assert lines[0] == "p,theta_hat,ci_lo,ci_hi"
    assert len(lines) == 52  # default grid of 51 points


def test_estimate_byte_stable(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["estimate", "grid(2)", "pc-site", "--R", "6", "--trials", "20", "--seed", "5"]
    assert main(argv + ["--json", str(a)]) == 0
    assert main(argv + ["--json", str(b)]) == 0
    assert a.read_text() == b.read_text()


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize(
    "argv",
    [
        ["free(2)", "rho", "--n", "8"],
        ["grid(2)", "pc-site", "--R", "4", "--trials", "20"],
        ["grid(2)", "pc-bond", "--R", "4", "--trials", "20"],
        ["gamma_free()", "entropy", "--n", "4"],
        ["gamma_free()", "speed", "--n", "4"],
        ["grig((012)*, 4)", "speed", "--n", "8"],
        ["grid(2)", "mu", "--n", "4"],
        ["grid(2)", "cheeger", "--n", "3"],
        ["free(2)", "growth", "--n", "4"],
    ],
)
def test_estimate_json_strict_and_deterministic(argv, capsys):
    outs = []
    for _ in range(2):
        assert main(["estimate"] + argv + ["--json", "-"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    blob = json.loads(outs[0], parse_constant=_reject_constant)
    assert blob["runtime_seconds"] is None


def test_estimate_parse_error_exit_two(capsys):
    assert main(["estimate", "free(", "rho"]) == 2
    assert "expression error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "free(2)", "rho", "--n", "5"],
        ["estimate", "grid(2)", "pc-bond", "--R", "0"],
        ["estimate", "matrix_h()", "entropy", "--n", "600"],  # 4^600 > e^700, no chain
        ["estimate", "grid(2)", "speed", "--n", "0"],
        ["estimate", "grid(2)", "speed", "--n", "-3"],
        ["estimate", "gj((012)*, {1,3}, 5)", "pc-bond"],  # R 32 > query radius 5
        ["estimate", "gj((012)*, {1,3}, 5)", "growth"],  # radius 8 > 5
        ["estimate", "gj((012)*, {1,3}, 5)", "rho"],  # n 12 needs radius 6 > 5
        # products and functors inherit the least query radius of their parts
        ["estimate", "product(gj((012)*, {1}, 3), matrix_h())", "growth", "--n", "6"],
        ["estimate", "functor((012)*, 1, gj((012)*, {1}, 3))", "growth", "--n", "6"],
    ],
)
def test_estimate_invalid_value_exit_two(argv, capsys):
    assert main(argv) == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "gamma_free()", "entropy", "--n", "600"],  # radial: no float range
        ["estimate", "free(2)", "rho", "--n", "2000"],  # return counts past 2^1024
    ],
)
def test_estimate_past_the_ball_range_exits_zero(argv, capsys):
    assert main(argv + ["--json", "-"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["estimate"] is not None


def test_percolation_seed_outside_the_key_range_exits_two(capsys):
    argv = ["estimate", "grid(2)", "pc-bond", "--R", "3", "--trials", "5", "--seed"]
    assert main(argv + [str(2**64)]) == 2
    assert "usage error: seed must be in [0, 2^63)" in capsys.readouterr().err
    assert main(argv + [str(2**63 - 1)]) == 0


@pytest.mark.parametrize("flag", ["--json", "--csv"])
@pytest.mark.parametrize("argv", [["estimate", "free(2)", "rho", "--n", "8"],
                                  ["verify", "matrix-relations"]])
def test_unwritable_output_path_exits_two(argv, flag, tmp_path, capsys):
    # the work is done, but a report that cannot be written is a usage error
    path = tmp_path / "missing" / "r.json"
    assert main(argv + [flag, str(path)]) == 2
    err = capsys.readouterr().err
    assert "output error" in err and "Traceback" not in err
    assert not path.exists()


def test_estimate_resource_error_exit_three(monkeypatch, capsys):
    def boom(*a, **k):
        raise BallBudgetError(3, 1000)

    monkeypatch.setattr(cli, "spectral_radius", boom)
    assert main(["estimate", "free(2)", "rho"]) == 3
    assert "resource limit" in capsys.readouterr().err


def test_sweep_eta_witness_matrix(tmp_path):
    cp = tmp_path / "w.csv"
    rc = main(["sweep", "eta-witness", "{}", "{1}", "{2}", "{1,2}", "--csv", str(cp)])
    assert rc == 0
    lines = cp.read_text().strip().splitlines()
    assert lines[0] == "J,J_prime,ok,witness_i"
    assert len(lines) == 6  # five ordered proper-subset pairs
    assert all(",True," in ln or ln.endswith("True") or ",1" in ln for ln in lines[1:])


@pytest.mark.parametrize("omega", ["000", "1|2"])
def test_sweep_eta_witness_refuses_a_stabilizing_omega(omega, capsys):
    assert main(["sweep", "eta-witness", "{}", "{1}", "--omega", omega]) == 2
    assert "letter sequence must not stabilize" in capsys.readouterr().err


def test_sweep_seed_is_null_for_the_exact_eta_witness(tmp_path):
    # the seed field is the seed the rows used: null where no parameter
    # reads one, the estimator's default where none was given
    for argv, seed in (
        (["eta-witness", "{}", "{1}"], None),
        (["rho", "free(2)", "--n", "4"], None),
        (["pc-site", "grid(2)", "--R", "3", "--trials", "5", "--seed", "7"], 7),
        (["pc-site", "grid(2)", "--R", "3", "--trials", "5"], 0),
        (["speed", "grid(2)", "--n", "4"], None),
    ):
        jp = tmp_path / "s.json"
        assert main(["sweep", *argv, "--json", str(jp)]) == 0
        assert json.loads(jp.read_text())["seed"] == seed


@pytest.mark.parametrize(
    "given, named",
    [
        (["--seed", "7"], "--seed"),
        (["--n", "4", "--R", "3"], "--n, --R"),
        (["--tri", "5"], "--trials"),  # abbreviated
        (["--R", "9", "--candidates", "boxes"], "--R, --candidates"),
        (["--seed", "0"], "--seed"),  # a default value given is still given
    ],
)
def test_sweep_eta_witness_rejects_the_estimate_flags(given, named, tmp_path, capsys):
    argv = ["sweep", "eta-witness", "{}", "{1}"]
    assert main(argv + given) == 2
    assert f"does not read {named}" in capsys.readouterr().err
    conf = tmp_path / "lab.conf"
    conf.write_text("seed=7\n")
    assert main(argv + ["--config", str(conf)]) == 2
    assert "does not read --seed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["grid(2)", "pc-bond", "--R", "4", "--trials", "5", "--n", "99",
          "--candidates", "greedy"], "--n, --candidates"),
        (["free(2)", "rho", "--R", "4", "--trials", "5"], "--R, --trials"),
        (["free(2)", "entropy", "--seed", "0"], "--seed"),  # given, though the default
        (["grid(2)", "mu", "--trials", "9"], "--trials"),
        (["free(2)", "growth", "--candidates", "boxes"], "--candidates"),
        (["grid(2)", "cheeger", "--seed", "1"], "--seed"),
        (["free(2)", "speed", "--trials", "5", "--candidates", "balls"],
         "--trials, --candidates"),
        (["grid(2)", "pc-site", "--n", "4"], "--n"),
        (["grid(2)", "speed", "--seed", "0"], "--seed"),  # every speed is exact
    ],
)
def test_estimate_rejects_the_flags_its_parameter_does_not_read(argv, named, capsys):
    assert main(["estimate", *argv]) == 2
    assert f"does not read {named}" in capsys.readouterr().err
    assert main(["sweep", argv[1], argv[0], *argv[2:]]) == 2
    assert f"does not read {named}" in capsys.readouterr().err


def test_unread_flags_from_the_config_are_named(tmp_path, capsys):
    conf = tmp_path / "lab.conf"
    conf.write_text("trials=17\nseed=3\n")
    assert main(["estimate", "free(2)", "growth", "--n", "2", "--config", str(conf)]) == 2
    assert "growth does not read --trials, --seed" in capsys.readouterr().err
    # one flag from argv, two from the config; speed reads none
    argv = ["estimate", "free(2)", "speed", "--n", "2", "--R", "3", "--config", str(conf)]
    assert main(argv) == 2
    assert "speed does not read --R, --trials, --seed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["free(2)", "cheeger", "--n", "2", "--candidates", "greedy"],
        ["free(2)", "speed", "--n", "2"],
        ["grid(2)", "pc-bond", "--R", "3", "--trials", "5", "--seed", "3"],
        ["grid(2)", "pc-bond", "--R", "3", "--trials", "5", "--threads", "2"],
    ],
)
def test_estimate_accepts_the_flags_its_parameter_reads(argv, capsys):
    assert main(["estimate", *argv, "--json", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["parameter"]


def test_sweep_rejects_an_unknown_parameter(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["sweep", "nope", "free(2)"])
    assert ei.value.code == 2
    assert "invalid choice: 'nope'" in capsys.readouterr().err


def test_sweep_omega_is_read_by_eta_witness_only(tmp_path, capsys):
    argv = ["sweep", "growth", "free(2)", "--n", "2"]
    assert main(argv + ["--omega", "(021)*"]) == 2
    assert "growth does not read --omega" in capsys.readouterr().err
    conf = tmp_path / "lab.conf"
    conf.write_text("omega=(021)*\n")
    assert main(argv + ["--config", str(conf)]) == 2
    assert "growth does not read --omega" in capsys.readouterr().err
    assert main(["sweep", "eta-witness", "{}", "{1}", "--config", str(conf)]) == 0


def test_sweep_rho_quotient_bound_exceeds_free(tmp_path):
    jp = tmp_path / "s.json"
    rc = main(
        ["sweep", "rho", "free(2)", "gamma_free()", "--n", "16", "--json", str(jp)]
    )
    assert rc == 0
    rows = json.loads(jp.read_text())["rows"]
    by = {r["group"]: r for r in rows}
    assert by["gamma_free()"]["certified"] > by["free(2)"]["certified"]


@pytest.mark.parametrize("sets", [["{1}x"], ["{}", "{0}"]])  # trailing input, level 0
def test_sweep_eta_witness_rejects_bad_sets(sets, capsys):
    assert main(["sweep", "eta-witness", *sets]) == 2
    assert "expression error" in capsys.readouterr().err


def test_sweep_empty_family(capsys):
    assert main(["sweep", "rho"]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv, header",
    [
        (["rho"], "certified,estimate,group,parameter"),
        (["pc-bond", "--R", "3"], "certified,estimate,group,parameter"),
        (["eta-witness", "{1}", "{2}"], "J,J_prime,ok,witness_i"),  # no pair
        (["eta-witness"], "J,J_prime,ok,witness_i"),
    ],
)
def test_an_empty_sweep_csv_is_its_header(argv, header, capsys):
    assert main(["sweep", *argv, "--csv", "-"]) == 0
    assert capsys.readouterr().out == header + "\n"


def test_sweep_rows_carry_sorted_distinct_sets(capsys):
    assert main(["sweep", "eta-witness", "{1,1}", "{ 2 ,1,2}", "--json", "-"]) == 0
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    assert (row["J"], row["J_prime"], row["witness_i"]) == ([1], [1, 2], 2)
    # a gj member reads the same levels however its set is written
    gj = parse_group_expr("gj((012)*, {3,1,3}, 4)")
    assert (gj.gj_spec.J, gj.label) == ((1, 3), "gj((012)*, {1,3}, 4)")


@pytest.mark.parametrize(
    "sets, named",
    [
        (["{1,2}", "{2,1}", "{}"], "{1,2}"),
        (["{}", "{1}", "{1,1}"], "{1}"),
        (["{}", "{ }"], "{}"),
    ],
)
def test_sweep_refuses_a_set_given_twice(sets, named, capsys):
    assert main(["sweep", "eta-witness", *sets, "--json", "-"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"usage error: the set {named} is given twice" in err


def test_sweep_row_error_recorded(tmp_path):
    jp = tmp_path / "s.json"
    rc = main(["sweep", "growth", "free(2)", "nope(", "--n", "4", "--json", str(jp)])
    assert rc == 0
    rows = json.loads(jp.read_text())["rows"]
    assert "error" not in rows[0]
    assert "error" in rows[1]


@pytest.mark.parametrize(
    "parameter, flags, message",
    [
        ("pc-bond", ["--R", "3", "--trials", "5", "--seed", str(2**64)],
         "seed must be in [0, 2^63)"),
        ("mu", ["--n", "1"], "n_max must be >= 2"),
    ],
)
def test_sweep_refuses_a_flag_every_row_refuses(parameter, flags, message, capsys):
    # the same usage error as estimate, and no rows
    usage = f"usage error: {message}\n"
    assert main(["estimate", "grid(2)", parameter, *flags]) == 2
    assert capsys.readouterr().err.endswith(usage)
    assert main(["sweep", parameter, "grid(2)", "free(2)", *flags, "--json", "-"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.endswith(usage)


@pytest.mark.parametrize(
    "parameter, flags",
    [
        ("mu", ["--n", "1"]),
        ("rho", ["--n", "6"]),  # fine: a control
        ("rho", ["--n", "5"]),
        ("entropy", ["--n", "0"]),
        ("speed", ["--n", "0"]),
        ("growth", ["--n", "-1"]),
        ("cheeger", ["--n", "-1"]),
        ("cheeger", ["--candidates", "boxes", "--n", "0"]),
        ("pc-site", ["--trials", "0"]),
        ("pc-bond", ["--R", "0"]),
        ("pc-bond", ["--seed", "-1"]),
    ],
)
@pytest.mark.parametrize("groups", [[], ["nope("]])
def test_sweep_checks_its_flags_before_any_row(parameter, flags, groups, capsys):
    # with no group to reach, or none that parses, sweep refuses a flag
    # exactly when estimate does, with the same usage error
    rc = main(["estimate", "grid(2)", parameter, *flags, "--json", "-"])
    usage = capsys.readouterr().err
    assert main(["sweep", parameter, *groups, *flags, "--json", "-"]) == (2 if rc == 2 else 0)
    out, err = capsys.readouterr()
    if rc == 2:
        assert usage.startswith("usage error: ") and (out, err) == ("", usage)
    else:
        assert json.loads(out)["rows"] == [{"group": g, "error": ANY} for g in groups]


def test_sweep_row_past_its_faithful_radius_recorded(tmp_path):
    jp = tmp_path / "s.json"
    argv = ["sweep", "mu", "gj((012)*, {1,3}, 4)", "grid(2)", "--n", "6", "--json", str(jp)]
    assert main(argv) == 0
    rows = json.loads(jp.read_text())["rows"]
    assert rows[0]["error"] == (
        "radius 6 exceeds the query radius 4 to which gj((012)*, {1,3}, 4) is faithful"
    )
    assert "error" not in rows[1]


def test_sweep_row_over_the_ball_budget_recorded(monkeypatch, tmp_path):
    def speed(g, **kw):
        if g.label == "gamma_free()":
            raise BallBudgetError(25, 1000)
        return real(g, **kw)

    real = cli.speed
    monkeypatch.setattr(cli, "speed", speed)
    jp = tmp_path / "s.json"
    argv = ["sweep", "speed", "free(2)", "gamma_free()", "free(3)", "--n", "4"]
    assert main(argv + ["--json", str(jp)]) == 0
    rows = json.loads(jp.read_text())["rows"]
    assert [r["group"] for r in rows] == ["free(2)", "gamma_free()", "free(3)"]
    assert "error" not in rows[0] and "error" not in rows[2]
    assert rows[1]["error"] == "resource limit: ball budget 1000 reached at radius 25"


def test_sweep_speed_on_radial_groups_builds_no_ball(monkeypatch, tmp_path):
    def no_ball(*a, **k):
        raise AssertionError("ball built for a radial group")

    monkeypatch.setattr(cayley, "bfs_ball", no_ball)
    jp = tmp_path / "s.json"
    argv = ["sweep", "speed", "free(2)", "gamma_free()", "--n", "27"]
    assert main(argv + ["--json", str(jp)]) == 0
    rows = json.loads(jp.read_text())["rows"]
    assert [r["group"] for r in rows] == ["free(2)", "gamma_free()"]
    assert all("error" not in r for r in rows)


def test_config_defaults_and_flag_priority(tmp_path):
    conf = tmp_path / "lab.conf"
    conf.write_text("# defaults\ntrials = 17\nseed=9\n")
    jp = tmp_path / "r.json"
    rc = main(
        [
            "estimate", "grid(2)", "pc-bond", "--R", "5",
            "--config", str(conf), "--json", str(jp),
        ]
    )
    assert rc == 0
    blob = json.loads(jp.read_text())
    assert blob["parameters"]["trials"] == 17
    assert blob["parameters"]["seed"] == 9
    jp2 = tmp_path / "r2.json"
    rc = main(
        [
            "estimate", "grid(2)", "pc-bond", "--R", "5", "--trials", "23",
            "--config", str(conf), "--json", str(jp2),
        ]
    )
    assert rc == 0
    assert json.loads(jp2.read_text())["parameters"]["trials"] == 23
    jp3 = tmp_path / "r3.json"
    rc = main(
        [
            "estimate", "grid(2)", "pc-bond", "--R", "5", "--tri", "30",
            "--config", str(conf), "--json", str(jp3),
        ]
    )
    assert rc == 0
    blob = json.loads(jp3.read_text())
    assert blob["parameters"]["trials"] == 30  # an abbreviated flag wins too
    assert blob["parameters"]["seed"] == 9


def test_config_unknown_key_rejected(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    # a positional or the subcommand named in a config is unknown too
    for line in ("wibble=3", "command=sweep", "group=free(3)"):
        conf.write_text(line + "\n")
        assert main(["estimate", "free(2)", "rho", "--config", str(conf)]) == 2, line
        assert "unknown keys" in capsys.readouterr().err


def test_an_unreadable_config_exits_two(monkeypatch, tmp_path, capsys):
    ran = []
    monkeypatch.setattr(cli, "spectral_radius", lambda *a, **k: ran.append(a))
    conf = tmp_path / "bad.conf"
    conf.write_text("# comment\n\nn 3\n")
    missing = tmp_path / "missing.conf"
    for path, why in ((conf, f"{conf}:3: expected key=value"), (missing, "No such file")):
        assert main(["estimate", "free(2)", "rho", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("config error: ") and why in err
    assert ran == []


def test_verify_csv_emission(tmp_path):
    cp = tmp_path / "v.csv"
    assert main(["verify", "matrix-relations", "--csv", str(cp)]) == 0
    lines = cp.read_text().strip().splitlines()
    assert lines[0] == "name,ok,detail"
    assert all(",1," in ln or ln.endswith(",1") or ",1" in ln for ln in lines[1:])


def test_csv_escaping():
    blob = {
        "schema": "griglab/sweep/1",
        "rows": [{"group": 'a,"b"', "estimate": None}],
    }
    text = to_csv(blob)
    assert '"a,""b"""' in text


def test_module_entry_point():
    # the interpreter started here does not inherit pytest's pythonpath
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    proc = subprocess.run(
        [sys.executable, "-m", "griglab.cli", "--version"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("griglab ")


# ------------------------------------------------------ one parser per interpreter

# the benchmark's family-witness and grid-lattice calls, at small sizes
_OMEGA = ["--omega", "(021)*"]
_REUSED = [
    ["sweep", "eta-witness", "{}", "{1}", "{2}", "{1,2}", *_OMEGA],
    ["verify", "eta", "--k", "3", *_OMEGA],
    ["verify", "contraction", "--m", "3", *_OMEGA],
    ["estimate", "grid(2)", "pc-bond", "--R", "8", "--trials", "20"],
    ["estimate", "grid(2)", "pc-site", "--R", "8", "--trials", "20"],
    ["estimate", "grid(2)", "mu", "--n", "6"],
]


def _runs(argvs, capsys) -> list:
    """(exit code, stdout) of each argv, run in this interpreter."""
    out = []
    for argv in argvs:
        rc = main(argv + ["--json", "-"])
        out.append((rc, capsys.readouterr().out))
    return out


def test_main_builds_its_parser_once_and_a_reused_one_prints_the_same(monkeypatch, capsys):
    cli._parser.cache_clear()
    first = _runs(_REUSED, capsys)
    assert [rc for rc, _ in first] == [0] * len(_REUSED)
    assert _runs(_REUSED, capsys) == first
    assert cli._parser.cache_info()[:2] == (2 * len(_REUSED) - 1, 1)  # (hits, builds)
    monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a fresh parser per call
    assert _runs(_REUSED, capsys) == first


def test_a_config_run_leaves_the_shared_parser_at_its_defaults(tmp_path, capsys):
    conf = tmp_path / "lab.conf"
    conf.write_text("n=3\n")
    argv = ["estimate", "free(2)", "growth"]
    for extra, n_max in ((["--config", str(conf)], 3), ([], 8)):
        ((rc, out),) = _runs([argv + extra], capsys)
        assert rc == 0
        assert json.loads(out)["parameters"]["n_max"] == n_max


@pytest.mark.parametrize("bad, code", [(["--n", "abc"], 2), (["-h"], 0)])
def test_a_usage_error_or_help_between_runs_changes_nothing(bad, code, capsys):
    argv = ["estimate", "free(2)", "growth"]
    before = _runs([argv], capsys)
    with pytest.raises(SystemExit) as exc:
        main(argv + bad)
    assert exc.value.code == code
    capsys.readouterr()
    assert _runs([argv], capsys) == before


# ------------------------------------------------------ flags and their defaults

_OUTPUT = {"--json", "--csv", "--config"}
_ESTIMATE = {"--n", "--R", "--trials", "--candidates", "--seed"}
# each subcommand takes exactly the flags it reads; a new one is a deliberate change
FLAGS = {
    "verify": {"--m", "--k", "--omega"} | _OUTPUT,
    "estimate": _ESTIMATE | {"--threads"} | _OUTPUT,
    "sweep": _ESTIMATE | {"--omega"} | _OUTPUT,
}


def _readme_table(header: str) -> dict:
    """Name -> the flags it reads, from the README table under ``header``."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    rows = itertools.takewhile(lambda ln: ln.startswith("|"), lines[lines.index(header) + 2:])
    out = {}
    for row in rows:
        names, reads = row.strip("|").split("|")
        for name in re.findall(r"`([\w-]+)`", names):
            out[name] = set(re.findall(r"`(--\w+)`", reads))
    return out


def test_readme_reads_tables_match_the_cli():
    # a flag dropped from a parameter or suite cannot stay documented
    def flags(command):
        rows = cli._COMMANDS[command].items()
        return {name: {f"--{d}" for d in reads} for name, (_, _, reads) in rows}

    assert _readme_table("| parameter | reads |") == flags("sweep")
    suites = flags("verify")
    suites["all"] = set().union(*suites.values())
    assert _readme_table("| suite | reads |") == suites


def test_readme_ball_list_matches_the_ball_parameters():
    # every public function with an optional ball refuses a ball of another group
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    bullet = text[text.index("* A ball passed to "):]
    bullet = bullet[: bullet.index("must be a ball of the same group object")]
    documented = set(re.findall(r"`(\w+)`", bullet))
    takes_ball = {
        name
        for mod in (cayley, estimators)
        for name, f in vars(mod).items()
        if inspect.isfunction(f) and f.__module__ == mod.__name__
        and not name.startswith("_") and name != "ensure_ball"
        and getattr(inspect.signature(f).parameters.get("ball"), "default", 0) is None
    }
    assert documented == takes_ball == {"cogrowth", "growth", "spectral_radius", "entropy"}


def _subparsers() -> dict:
    (sub,) = (a for a in cli.build_parser()._actions if a.dest == "command")
    return sub.choices


def test_each_subcommand_has_its_pinned_flag_set():
    subs = _subparsers()
    assert set(subs) == set(FLAGS)
    for name, p in subs.items():
        flags = {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
        assert flags == FLAGS[name], name


def test_cli_defaults_are_the_signature_defaults():
    # an unset flag is not passed on, so the estimator's default is the only one
    subs = _subparsers()
    for name in ("estimate", "sweep"):
        d = {a.dest: a.default for a in subs[name]._actions}
        assert all(d[flag[2:]] is None for flag in _ESTIMATE), name
    for name in ("verify", "sweep"):
        assert {a.dest: a.default for a in subs[name]._actions}["omega"] is None


def test_help_shows_the_signature_defaults():
    subs = _subparsers()
    helps = {(name, a.dest): a.help for name, p in subs.items() for a in p._actions}
    n_default = {
        p: inspect.signature(getattr(estimators, fn)).parameters[kw].default
        for p, fn, kw in [("rho", "spectral_radius", "n_max"), ("entropy", "entropy", "n_max"),
                          ("speed", "speed", "n"), ("mu", "connective_constant", "n_max"),
                          ("cheeger", "cheeger_report", "n_max"),
                          ("growth", "growth_report", "n_max")]
    }
    shown = ", ".join(f"{p} {v}" for p, v in n_default.items())
    assert shown == "rho 12, entropy 16, speed 16, mu 10, cheeger 6, growth 8"
    assert helps["estimate", "n"] == helps["sweep", "n"] == f"series length (default: {shown})"
    assert helps["verify", "m"] == "contraction depth (default 2)"
    assert helps["verify", "k"] == "separating word index (default 1)"


@pytest.mark.parametrize(
    "group, parameter, pinned",
    [
        ("free(2)", "rho", {"n_max": 12}),
        ("free(2)", "entropy", {"n_max": 16}),
        ("grid(2)", "mu", {"n_max": 10}),
        ("free(2)", "cheeger", {"n_max": 6, "candidates": "balls"}),
        ("free(2)", "growth", {"n_max": 8}),
        ("gamma_free()", "speed", {"n": 16, "method": "radial"}),
        ("grid(2)", "pc-site", {"radius": 32, "trials": 500, "seed": 0}),
        ("grid(2)", "pc-bond", {"radius": 32, "trials": 500, "seed": 0}),
    ],
)
def test_flagless_estimate_reports_the_pinned_defaults(group, parameter, pinned, capsys):
    assert main(["estimate", group, parameter, "--json", "-"]) == 0
    params = json.loads(capsys.readouterr().out)["parameters"]
    assert {k: params.get(k) for k in pinned} == pinned


@pytest.mark.parametrize(
    "argv, name, kwargs",
    [
        (["free(2)", "rho"], "spectral_radius", {}),
        (["free(2)", "rho", "--n", "6"], "spectral_radius", {"n_max": 6}),
        (["grid(2)", "pc-site", "--R", "5", "--trials", "7", "--seed", "2"],
         "percolation", {"mode": "site", "radius": 5, "trials": 7, "seed": 2}),
        (["grid(2)", "pc-bond", "--tri", "7"], "percolation", {"mode": "bond", "trials": 7}),
        (["free(2)", "entropy", "--n", "3"], "entropy", {"n_max": 3}),
        (["free(2)", "speed", "--n", "3"], "speed", {"n": 3}),
        (["free(2)", "speed"], "speed", {}),
        (["grid(2)", "mu", "--n", "3"], "connective_constant", {"n_max": 3}),
        (["free(2)", "cheeger", "--n", "3", "--candidates", "greedy"],
         "cheeger_report", {"n_max": 3, "candidates": "greedy"}),
        (["free(2)", "growth", "--n", "0"], "growth_report", {"n_max": 0}),
    ],
)
def test_estimate_passes_exactly_the_given_flags(argv, name, kwargs, monkeypatch, capsys):
    calls = []

    def record(g, **kw):
        calls.append((g.label, kw))
        return EstimateReport(parameter=argv[1], group=g.label, estimate=None)

    monkeypatch.setattr(cli, name, record)
    assert main(["estimate", *argv]) == 0
    assert calls == [(parse_group_expr(argv[0]).label, kwargs)]
    assert set(kwargs) <= set(inspect.signature(getattr(estimators, name)).parameters)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["estimate", "free(2)", "growth", "--n", "2"], "omega"),
        (["verify", "matrix-relations"], "seed"),
        (["verify", "matrix-relations"], "threads"),
        (["sweep", "growth", "free(2)", "--n", "2"], "threads"),
        (["estimate", "grid(2)", "speed"], "samples"),
    ],
)
def test_flags_a_subcommand_does_not_read_exit_two(argv, flag, tmp_path, capsys):
    with pytest.raises(SystemExit) as ei:
        main(argv + [f"--{flag}", "1"])
    assert ei.value.code == 2
    conf = tmp_path / "lab.conf"
    conf.write_text(f"{flag}=1\n")
    assert main(argv + ["--config", str(conf)]) == 2
    assert "unknown keys" in capsys.readouterr().err


def test_n_zero_is_a_length_not_a_default(capsys):
    assert main(["estimate", "free(2)", "growth", "--json", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["parameters"]["n_max"] == 8
    assert main(["estimate", "free(2)", "growth", "--n", "0", "--json", "-"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["parameters"]["n_max"] == 0 and blob["series"]["ball_size"] == [1]
    assert main(["estimate", "free(2)", "rho", "--n", "0"]) == 2
    assert "usage error" in capsys.readouterr().err
