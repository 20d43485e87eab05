"""Tests of the benchmark's own parts: corpus, output checks, span arithmetic.

Run from the root of a checkout with ``python3 -m pytest bench -q``.
"""

from __future__ import annotations

import json
import sys
from array import array
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from checks import answer_failures  # noqa: E402
from corpus import WARMUP_LINE, WORKLOADS, stream  # noqa: E402
from spans import Tracer, self_times  # noqa: E402

from hyphodge import HypergeometricParams, cli, closed_form, core, recursion  # noqa: E402
from hyphodge.serialize import document_to_json, params_from_dict  # noqa: E402


def _answer(line: str, engine: str) -> str:
    params = params_from_dict(json.loads(line))
    return document_to_json(cli._compute_document(params, engine, False), compact=True)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_bytes(name):
    workload = WORKLOADS[name]
    first = list(islice(stream(workload, 7), 300))
    assert first == list(islice(stream(workload, 7), 300))
    assert first != list(islice(stream(workload, 8), 300))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_instances_irreducible_and_in_bounds(name):
    workload = WORKLOADS[name]
    ranks = set()
    for line in islice(stream(workload, 3), 500):
        data = json.loads(line)
        alpha = [Fraction(a) for a in data["alpha"]]
        beta = [Fraction(b) for b in data["beta"]]
        assert len(alpha) == len(beta) in workload.ranks
        assert all(0 <= r < 1 and r.denominator <= workload.den_max for r in alpha + beta)
        assert HypergeometricParams(tuple(alpha), tuple(beta)).is_irreducible
        ranks.add(len(alpha))
    assert ranks == set(workload.ranks)


def test_distinct_workloads_never_repeat_an_instance():
    for name in ("closed-highrank", "both-midrank"):
        keys = [
            tuple(sorted(zip(d["alpha"], d["beta"])))
            for d in map(json.loads, islice(stream(WORKLOADS[name], 5), 500))
        ]
        assert len(set(keys)) == len(keys)


def test_shared_workload_reuses_a_small_pool():
    workload = WORKLOADS["both-smallrank-shared"]
    keys = {
        tuple(sorted(zip(d["alpha"], d["beta"])))
        for d in map(json.loads, islice(stream(workload, 5), 2000))
    }
    assert len(keys) <= workload.pool


def test_checker_passes_correct_answers():
    line = '{"alpha":["0","1/3"],"beta":["1/2","3/4"]}'
    assert answer_failures(line, _answer(line, "both"), "both") == []
    assert answer_failures(line, _answer(line, "closed"), "closed") == []
    assert answer_failures(WARMUP_LINE, _answer(WARMUP_LINE, "both"), "both") == []


def test_checker_fails_error_document_and_disagreeing_report():
    line = '{"alpha":["0","1/3"],"beta":["1/2","3/4"]}'
    error = json.dumps(
        {"schema_version": "1", "line": 1, "error": {"code": 2, "message": "bad"}}
    )
    doc = json.loads(_answer(line, "both"))
    doc["report"]["agree"] = False
    doc["report"]["mismatches"] = ["nearby_zero"]
    disagreeing = json.dumps(doc, separators=(",", ":"))
    assert answer_failures(line, error, "both")
    assert answer_failures(line, disagreeing, "both")
    assert answer_failures(line, "", "both") == ["no answer"]

    shifted = json.loads(_answer(line, "both"))
    shifted["report"]["shift"] = 1
    assert answer_failures(line, json.dumps(shifted), "both")
    other = '{"alpha":["0","1/3"],"beta":["1/2","2/3"]}'
    assert answer_failures(other, _answer(line, "both"), "both")


def test_self_time_subtracts_covered_child_intervals():
    # 0: root [0, 10]; 1: child [1, 4]; 2: grandchild [2, 3];
    # 3: child [3.5, 6] overlaps child 1 by 0.5; 4: child [9, 12] runs past
    # the root's end, so only [9, 10] of it is covered.
    start = array("d", [0, 1, 2, 3.5, 9])
    end = array("d", [10, 4, 3, 6, 12])
    parent = array("l", [-1, 0, 1, 0, 0])
    own = self_times(start, end, parent)
    assert list(own) == pytest.approx([10 - (3 + 2 + 1), 3 - 1, 1, 2.5, 3])


def test_tracer_nests_spans_and_restores_bindings():
    original = closed_form.profile_closed
    tracer = Tracer()
    tracer.wrap_everywhere(
        original, tracer.timed("closed_form.profile_closed", original), "hyphodge"
    )
    tracer.patch(
        core.HodgeProfile,
        "__post_init__",
        tracer.timed("core.HodgeProfile", core.HodgeProfile.__post_init__),
    )
    assert cli.profile_closed is not original
    assert recursion.profile_closed is not original
    params = HypergeometricParams((Fraction(0),), (Fraction(1, 2),))
    root = tracer.open("cli.line")
    cli.profile_closed(params)
    tracer.close(root)
    tracer.uninstall()
    assert cli.profile_closed is original and recursion.profile_closed is original
    assert core.HodgeProfile.__post_init__.__name__ == "__post_init__"
    names = [tracer.names[i] for i in tracer.name]
    assert names == ["cli.line", "closed_form.profile_closed", "core.HodgeProfile"]
    assert list(tracer.parent) == [-1, 0, 1]
    assert all(t >= 0 for t in self_times(tracer.start, tracer.end, tracer.parent))
