"""Tests of the benchmark itself: seeded inputs, a live correctness gate,
the tracer, and agreement of the runner with BENCHMARK.json.

    python3 -m pytest qbench -q
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from worker import run_batch, setup  # noqa: E402

setup()


def test_inputs_depend_on_the_seed_only():
    for name in workloads.WORKLOADS:
        a, b = workloads.generate(name, 7), workloads.generate(name, 7)
        assert a == b
        assert workloads.digest(a) == workloads.digest(b)
        assert workloads.digest(a) != workloads.digest(workloads.generate(name, 8))
        assert not any("inject" in spec for spec in a)


# Tiny batches: a few good items and one known-wrong item per workload.
TINY = {
    "gradient": (
        [{"terms": [[0, 1, 1, 1, 0, 2, 1], [0, 0, 1, 1, 1, -1, 0],
                    [1, 0, 0, 0, 0, 3, -1]]},
         {"terms": [[0, 0, 2, 0, 0, 1, 0], [0, 1, 0, 1, 0, -4, 2],
                    [0, 0, 0, 2, 1, 2, 0]]}],
        # the closed gradient compared against the oracle of another element
        {"terms": [[0, 1, 1, 1, 0, 2, 1]],
         "inject": {"against": [[0, 1, 1, 1, 0, 3, 1]]}},
    ),
    "ordering": (
        [{"words": ["(2*q^1) * x0 * xm", "(-1*q^(-2)) * xp", "(3*q^0) * x3"]},
         {"words": ["(1*q^0) * xp * x3", "(4*q^1) * xm", "(-2*q^2) * x0 * xp"]}],
        # (f g) h compared against f (h g), with g and h not commuting
        {"words": ["(1*q^0) * x0", "(1*q^0) * xp", "(1*q^0) * xm"],
         "inject": "swap"},
    ),
    "waves": (
        [{"kind": "massless", "param": "k", "degree": 4},
         {"kind": "massive", "param": "3/2", "degree": 3}],
        # rest state built with m = 2 and checked against m = 3
        {"kind": "massive", "param": "2", "degree": 3, "inject": "3"},
    ),
    "matrices": (
        [{"op": "lpow", "gen": "xp", "n": 2},
         {"op": "f_of_l0", "f": [1, 2], "g": [-1, 1]},
         {"op": "identity", "name": "yang_baxter"}],
        # L_x0^2 in closed form compared against the naive third power
        {"op": "lpow", "gen": "x0", "n": 2, "inject": 3},
    ),
}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_injected_wrong_item_is_counted(name):
    good, wrong = TINY[name]
    items = good[:1] + [wrong] + good[1:]
    result = run_batch(name, items)
    assert result["passed"] == [True, False] + [True] * (len(good) - 1)
    assert result["errors"] == []
    assert len(result["item_s"]) == len(items)
    assert len(result["item_scale"]) == len(items)
    assert all(k > 0 for k in result["item_scale"])
    assert run.tally([result, result]) == (2 * len(items), 2)


def test_wrong_f_of_l0_product_is_counted():
    result = run_batch("matrices", [
        {"op": "f_of_l0", "f": [1, 2], "g": [-1, 1], "inject": [-1, -1, 3]}])
    assert result["passed"] == [False]


def test_raising_item_is_counted_and_reported():
    result = run_batch("matrices", [{"op": "identity", "name": "no-such"},
                                    {"op": "identity", "name": "char_b0"}])
    assert result["passed"] == [False, True]
    assert result["errors"][0][0] == 0
    assert "KeyError" in result["errors"][0][1]


def test_tracer_counts_layers_and_restores_entry_points():
    from qmink import algebra as al, cli, surface as sf
    original = (al.div_central, al.Element.__mul__, sf.parse_element, cli.main)
    good, _ = TINY["ordering"]
    tr = tracing.Tracer()
    before = tracing.cache_snapshot(tr.mods)
    tr.install()
    try:
        assert al.div_central is not original[0]
        result = run_batch("ordering", good, tr)
    finally:
        tr.uninstall()
    assert (al.div_central, al.Element.__mul__, sf.parse_element,
            cli.main) == original
    assert all(result["passed"])
    layers = tr.layer_metrics(before, tracing.cache_snapshot(tr.mods))
    assert layers["algebra.div_central.calls"] == 0
    assert layers["matrices.matmul.calls"] == 0
    assert layers["surface.parse.calls"] == 4 * len(good)  # 3 words + round trip
    assert layers["algebra.mul.calls"] > 0
    assert layers["algebra.mul.self_s"] > 0
    assert tr.absent == []
    names = {sid: name for _, sid, _, name, _, _ in tr.spans}
    assert len(names) == len(tr.spans)
    parents = [names[parent] for _, _, parent, name, _, _ in tr.spans
               if name == "algebra.mul" and parent]
    assert "surface.parse" in parents  # parsing a word multiplies


def test_tracer_reaches_functions_bound_as_default_arguments():
    from qmink import waves as wv
    tr = tracing.Tracer().install()
    try:
        wv.verify_massless(wv.massless_state(n_max=2))
    finally:
        tr.uninstall()
    # _graded_gradient_check takes grad_closed as a default argument
    assert tr.stats["derivatives.grad_closed"][0] == 3


def test_missing_entry_point_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracing, "ENTRY_POINTS", tracing.ENTRY_POINTS + (
        ("algebra.gone", "algebra", "no_such_function", True),
        ("algebra.gone_method", "algebra", "Element.no_such_method", True),
        ("gone_module.fn", "no_such_module", "fn", True)))
    monkeypatch.setattr(tracing, "MODULES", tracing.MODULES + ("no_such_module",))
    tr = tracing.Tracer().install()
    tr.uninstall()
    assert tr.absent == ["algebra.gone", "algebra.gone_method", "gone_module.fn"]
    layers = tr.layer_metrics({}, {})
    assert layers["algebra.gone.calls"] == 0


def test_tail_percentile_keeps_a_tenth_of_the_samples_beyond():
    value, pct = run.tail(list(range(1, 101)))
    assert value == 90 and pct == 90.0
    assert run.tail(list(range(1, 13))) == (10, 100.0 * 10 / 12)
    assert run.tail([5.0, 1.0])[0] == 1.0


def test_times_are_scaled_item_by_item():
    passes = [{"item_s": [1.0, 2.0], "item_scale": [1.0, 0.5]},
              {"item_s": [3.0, 1.0], "item_scale": [0.5, 2.0]},
              {"item_s": [2.0, 1.0], "item_scale": [2.0, 1.0]}]
    assert run.verdicts(passes) == [2.0, 3.5, 5.0]
    assert run.item_times(passes) == [1.5, 1.0]


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert spec["command"] == ["python3", "qbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        tracing.metric_names()
    assert all(m["better"] in ("higher", "lower")
               for m in spec["end_to_end"] + spec["per_layer"])
