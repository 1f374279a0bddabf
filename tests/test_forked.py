"""Percolation trials and SAW subtrees split across forked children.

_forked_map sizes the split from os.sched_getaffinity; the tests patch that
source to force 1, 2 or 3 workers, and lower the fork floor to 0 so small
inputs split too.  os.fork is wrapped to count the children made.
"""

import os
import threading
import time

import numpy as np
import pytest

from griglab import cayley, estimators
from griglab.cayley import BallBudgetError, saw_count
from griglab.cli import main, parse_group_expr
from griglab.estimators import percolation_pstars

# (group, radius): a gj member is faithful to its query radius, 4 here
PSTAR_CASES = [("grid(2)", 6), ("gj((012)*, {1}, 4)", 4)]


def count_forks(monkeypatch):
    made = [0]
    fork = os.fork

    def counted():
        made[0] += 1
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return made


@pytest.fixture
def forks(monkeypatch):
    """Count of os.fork calls, with the fork floor lowered to 0."""
    monkeypatch.setattr(cayley, "_FORK_FLOOR", 0)
    return count_forks(monkeypatch)


def use_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("mode", ["bond", "site"])
@pytest.mark.parametrize("expr, R", PSTAR_CASES)
def test_pstars_are_the_same_bytes_on_1_2_3_workers(monkeypatch, forks, expr, R, mode):
    g = parse_group_expr(expr)
    got = []
    for n in (1, 2, 3):
        use_cpus(monkeypatch, n)
        forks[0] = 0
        got.append(percolation_pstars(g, mode, R, 20, seed=5))
        assert forks[0] == n - 1
        assert_no_children()
    assert got[0].dtype == np.float64 and got[0].shape == (20,)
    assert got[1].tobytes() == got[0].tobytes() == got[2].tobytes()


@pytest.mark.parametrize("expr", ["grid(2)", "free(2)"])
def test_saw_counts_are_the_same_on_1_2_3_workers(monkeypatch, forks, expr):
    g = parse_group_expr(expr)
    got = []
    for n in (1, 2, 3):
        use_cpus(monkeypatch, n)
        forks[0] = 0
        got.append(saw_count(g, 7).values)
        assert forks[0] == n - 1
        assert_no_children()
    assert got[0] == got[1] == got[2]
    assert got[0][:4] == [1, 4, 12, 36]


def test_work_past_the_floor_forks_and_leaves_no_child(monkeypatch):
    use_cpus(monkeypatch, 2)
    made = count_forks(monkeypatch)
    g = parse_group_expr("grid(2)")
    percolation_pstars(g, "site", 16, 1000, seed=1)  # 1000 x 545 uniforms
    saw_count(g, 12)  # at most 4 * 3^11 walks
    assert made[0] == 2
    assert_no_children()
    # a few tiny trials stay in this process
    percolation_pstars(g, "bond", 3, 5, seed=1)
    assert made[0] == 2


def test_a_failing_child_raises_here_and_is_reaped(monkeypatch, forks):
    use_cpus(monkeypatch, 2)
    parent, invade = os.getpid(), estimators._invasion_pstar

    def fails_in_child(links, sphere_start, u):
        if os.getpid() != parent:
            raise ValueError("trial failed in the child")
        return invade(links, sphere_start, u)

    monkeypatch.setattr(estimators, "_invasion_pstar", fails_in_child)
    with pytest.raises(ValueError, match="trial failed in the child") as info:
        percolation_pstars(parse_group_expr("grid(2)"), "bond", 4, 10)
    # chained from a RuntimeError that names the child and holds its traceback
    cause = info.value.__cause__
    assert isinstance(cause, RuntimeError)
    assert "forked worker" in str(cause) and "fails_in_child" in str(cause)
    assert forks[0] == 1
    assert_no_children()


def test_an_exception_that_does_not_pickle_comes_back_as_runtime_error(monkeypatch, forks):
    use_cpus(monkeypatch, 2)
    parent, invade = os.getpid(), estimators._invasion_pstar

    class Unpicklable(Exception):
        pass  # a local class: pickle cannot find it by name

    def fails_in_child(links, sphere_start, u):
        if os.getpid() != parent:
            raise Unpicklable("local failure")
        return invade(links, sphere_start, u)

    monkeypatch.setattr(estimators, "_invasion_pstar", fails_in_child)
    with pytest.raises(RuntimeError, match="Unpicklable: local failure"):
        percolation_pstars(parse_group_expr("grid(2)"), "bond", 4, 10)
    assert_no_children()


def exits_3_in_child_and_parent(monkeypatch, capsys, exc, message):
    """The CLI exits 3 with ``message`` when one trial raises ``exc`` in a
    forked child, and again when it raises it in this process."""
    use_cpus(monkeypatch, 2)
    parent, invade = os.getpid(), estimators._invasion_pstar
    argv = ["estimate", "grid(2)", "pc-bond", "--R", "4", "--trials", "10"]
    for where in ("child", "parent"):

        def fails(links, sphere_start, u):
            if (os.getpid() == parent) == (where == "parent"):
                raise exc
            return invade(links, sphere_start, u)

        monkeypatch.setattr(estimators, "_invasion_pstar", fails)
        assert main(argv) == 3, where
        assert message in capsys.readouterr().err
        assert_no_children()


def test_a_memory_error_in_a_child_exits_3_as_in_the_parent(monkeypatch, forks, capsys):
    exits_3_in_child_and_parent(monkeypatch, capsys, MemoryError, "resource limit: out of memory")


def test_a_ball_budget_error_in_a_child_exits_3_as_in_the_parent(monkeypatch, forks, capsys):
    exits_3_in_child_and_parent(
        monkeypatch, capsys, BallBudgetError(3, 10),
        "resource limit: ball budget 10 reached at radius 3",
    )


def test_a_failure_here_kills_and_reaps_the_children(monkeypatch, forks):
    use_cpus(monkeypatch, 3)
    parent = os.getpid()

    def fails_here(links, sphere_start, u):
        if os.getpid() == parent:
            raise ValueError("trial failed in the parent")
        time.sleep(20)  # a child left alive would hold the waitpid this long

    monkeypatch.setattr(estimators, "_invasion_pstar", fails_here)
    start = time.monotonic()
    with pytest.raises(ValueError, match="trial failed in the parent"):
        percolation_pstars(parse_group_expr("grid(2)"), "bond", 4, 10)
    assert time.monotonic() - start < 10
    assert forks[0] == 2
    assert_no_children()


@pytest.mark.parametrize("serial", ["thread", "no fork", "no affinity"])
def test_serial_cases_make_no_fork_and_give_the_same_values(monkeypatch, forks, serial):
    g = parse_group_expr("grid(2)")
    use_cpus(monkeypatch, 2)
    want = percolation_pstars(g, "site", 6, 12, seed=3), saw_count(g, 6).values
    assert forks[0] == 2
    forks[0] = 0
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if serial == "thread":
        thread.start()
    elif serial == "no fork":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.delattr(os, "sched_getaffinity")
    try:
        got = percolation_pstars(g, "site", 6, 12, seed=3), saw_count(g, 6).values
    finally:
        stop.set()
        if thread.is_alive():
            thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks[0] == 0
    assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1]
