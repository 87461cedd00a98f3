"""Tests of the benchmark itself (not part of the library's test suite):

    python -m pytest perfbench -q
"""

import functools
import json
import random
from pathlib import Path

import pytest

import run

run.load_library()

import oracles as orc  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, star_word  # noqa: E402

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", params=list(WORKLOADS))
def workload(request):
    return WORKLOADS[request.param]().setup(11)


@functools.lru_cache(maxsize=None)
def _set_up(name):
    return WORKLOADS[name]().setup(5)


def _answers(w, queries):
    return [w.summarize(q, w.run(q))[0] for q in queries]


def test_same_seed_same_inputs(workload):
    again = WORKLOADS[workload.name]().setup(11)
    assert again.digest == workload.digest
    assert again.pool == workload.pool
    assert WORKLOADS[workload.name]().setup(12).digest != workload.digest


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    rec = run.measure(workload, 11, seconds=0, trace=trace, min_queries=3)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    emitted = {name: m["unit"] for name, m in rec["metrics"].items()}
    assert emitted == declared
    assert all(isinstance(m["value"], (int, float)) for m in rec["metrics"].values())
    assert rec["attempted"] == 3 and rec["correct"]


def test_checker_flags_a_length_off_by_one():
    w = _set_up("forms-lengths")
    q = next(q for q in w.pool if q["label"] == "random" and len(q["w"]) <= 6)
    answer, _ = w.summarize(q, w.run(q))
    assert w.check(q, answer) == []
    value, exact, lower = answer[:3]
    wrong = (value + 1, exact, lower + 1) + answer[3:]
    assert w.check(q, wrong)


def test_checker_flags_a_flipped_conjugacy_decision():
    w = _set_up("conjugacy-scans")
    for kind in ("positive", "mismatch"):
        q = next(q for q in w.pool if q["kind"] == kind)
        answer, _ = w.summarize(q, w.run(q))
        assert w.check(q, answer) == []
        assert w.check(q, (not answer[0],) + answer[1:])


def test_star_family_is_reported_as_the_known_defect():
    w = _set_up("forms-lengths")
    q = {"op": "len", "d": 2, "w": star_word(2), "bilip": False, "star": 2, "part": "lengths"}
    answer = w.summarize(q, w.run(q))[0]
    problems = w.check(q, answer)
    if problems:  # the defect is open: the "exact" length exceeds |w|
        assert w.known_defect(q, answer, problems)


# A loop word with 6 support components drawn by the forms-lengths workload
# (seed 2) on which the parent's "exact" length, 58, exceeds |w| = 52.
DEFECT_LOOP_WORD = [
    -2, -2, -2, -1, 2, 1, 2, 2, 2, 2, 2, 2, 2, 2, 1, 2, -1, -2, -2, -2, -2, -2, -2, -2, -1, -1,
    -1, -1, 2, 1, -2, 1, 1, 1, 1, 1, 1, -2, 1, 2, 1, 1, 1, -2, -1, 2, -1, -1, -1, -1, -1, -1,
]


def test_loop_word_hit_by_the_defect_is_the_known_defect():
    w = _set_up("forms-lengths")
    q = {"op": "len", "d": 2, "w": DEFECT_LOOP_WORD, "bilip": False, "part": "lengths"}
    answer = w.summarize(q, w.run(q))[0]
    problems = w.check(q, answer)
    if problems:
        assert w.known_defect(q, answer, problems)


def test_known_defect_lowers_correct_share_but_is_not_failed():
    w = _set_up("forms-lengths")
    star = next(i for i, q in enumerate(w.pool) if q["label"] == "star")
    rec = run.measure(w, 5, seconds=0, trace=False, min_queries=star + 1)
    known = [f for f in rec["failures"] if f["known_defect"]]
    assert rec["failed"] == len(rec["failures"]) - len(known) == 0 and rec["correct"]
    assert rec["known_defects"] == len(known)
    assert rec["metrics"]["correct_share"]["value"] == 1 - len(known) / rec["attempted"]


def test_too_long_exact_length_beyond_the_defect_is_a_failure():
    w = _set_up("forms-lengths")
    for label, components in (("loops", 6), ("random", 1)):
        q = next(q for q in w.pool if q["label"] == label and orc.flow_components(q["w"]) == components)
        answer, _ = w.summarize(q, w.run(q))
        assert w.check(q, answer) == []
        value, exact, lower = answer[:3]
        flow = orc.flow_total(q["w"])
        # beyond what a path through the components can cost; on a word
        # with one component, any length over |w|
        too_long = flow + 4 * (len(q["w"]) - flow) + 2 if components > 1 else len(q["w"]) + 2
        wrong = (too_long, exact, lower) + answer[3:]
        problems = w.check(q, wrong)
        assert problems and not w.known_defect(q, wrong, problems)


def test_traced_and_untraced_answers_are_identical(workload):
    queries = workload.pool[:4]
    plain = _answers(workload, queries)
    tracer = Tracer().install()
    try:
        traced = _answers(workload, queries)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.totals


def test_conjugacy_oracle_agrees_with_the_library():
    import magnuskit as mk
    from magnuskit.words import FreeWord

    S = mk.solvable_group(2, 2)
    rng = random.Random(3)
    for _ in range(60):
        u = orc.reduce_letters([rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(0, 4))])
        g = orc.reduce_letters([rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(0, 3))])
        v = orc.reduce_letters(orc.inverse(g) + u + g + rng.choice(([], [1], [-2])))
        decided = mk.solvable_conjugacy_test(S.from_word(FreeWord(2, u)), S.from_word(FreeWord(2, v)))
        assert decided.conjugate == orc.conjugate_in_z2_wreath(u, v), (u, v)


def test_lamp_function_is_the_magnus_image():
    import magnuskit as mk
    from magnuskit.words import FreeWord

    S = mk.solvable_group(2, 2)
    rng = random.Random(4)
    for _ in range(100):
        w = orc.reduce_letters([rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(0, 12))])
        form = S.from_word(FreeWord(2, w)).form
        assert orc.lamp_function(w) == ({pos: val for pos, val in form.f.values()}, form.b)
