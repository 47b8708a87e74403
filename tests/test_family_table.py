"""A family is one registry entry.

:data:`repro.conformance.oracles.REGISTRY` is the only family table:
the plan layer, ``run_protocol``, ``run_batch`` and the CLI all resolve
family names through it.  So registering one entry — here a clone of
STAR under a new name — makes the name work at every front door, with
no other list to extend.
"""

from dataclasses import replace

import pytest

from repro.batch import BatchPoint, run_batch
from repro.cli import main
from repro.conformance.oracles import REGISTRY, register
from repro.plan import build_plan, compile_plan, compile_schedule, plan_families
from repro.plan.cache import default_cache
from repro.postal import run_protocol
from repro.tune.model import _derive_selection

NAME = "STAR-CLONE"


@pytest.fixture
def clone():
    """STAR's entry registered under :data:`NAME` for one test; removed
    afterwards, with the in-memory plan cache and the ``auto`` memo
    cleared so no later test sees the clone."""
    register(replace(REGISTRY["STAR"], family=NAME))
    try:
        yield NAME
    finally:
        del REGISTRY[NAME]
        default_cache().clear()
        _derive_selection.cache_clear()


def _columns(plan):
    return (plan.ticks, plan.senders, plan.msgs, plan.receivers)


def test_plan_layer_accepts_the_new_entry(clone):
    assert clone in plan_families()
    star = compile_plan("STAR", 6, 2, 2)
    plan = compile_plan(clone.lower(), 6, 2, 2)
    assert plan.family == clone
    assert _columns(plan) == _columns(star)
    cached = build_plan(clone, 6, 2, 2)
    assert _columns(cached) == _columns(star)
    assert compile_schedule(clone, 6, 2, 2).events == star.to_schedule().events


@pytest.mark.parametrize("backend", ["exact", "turbo", "replay"])
def test_run_protocol_accepts_the_new_entry(clone, backend):
    star = run_protocol("STAR", n=6, m=2, lam=2, backend=backend)
    result = run_protocol(clone, n=6, m=2, lam=2, backend=backend)
    assert (result.completion_time, result.sends) == (
        star.completion_time,
        star.sends,
    )


def test_run_batch_accepts_the_new_entry(clone):
    star, other = run_batch(
        [BatchPoint("STAR", 6, 2, 2), BatchPoint(clone, 6, 2, 2)]
    )
    assert other.family == clone
    assert (other.completion, other.sends, other.digest) == (
        star.completion,
        star.sends,
        star.digest,
    )


@pytest.mark.parametrize("command", ["simulate", "gantt"])
def test_cli_accepts_the_new_entry(clone, capsys, command):
    argv = [command, "--n", "6", "--lam", "2", "--m", "2"]
    assert main([*argv, "--algorithm", "star"]) == 0
    expected = capsys.readouterr()
    assert main([*argv, "--algorithm", clone.lower()]) == 0
    assert capsys.readouterr() == expected
