"""Tests of the benchmark itself: python3 -m pytest bench"""
import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import run
from spans import ROOT as OP_SPAN, Tracer
from workloads import WORKLOADS, Runner, op_seed

BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"


def last_json_line(trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(Path(run.__file__)), "--workload",
                           "uncoded-mmse-64", "--seed", "7", "--seconds", "1",
                           "--trace", str(trace)],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_those_of_benchmark_json(trace, section):
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    result = last_json_line(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


@pytest.fixture(scope="module")
def traced_ops():
    """One traced op of every workload: {name: (tracer, op duration)}."""
    out = {}
    for name, wl in WORKLOADS.items():
        runner = Runner(wl)
        tracer = Tracer()
        with tracer:
            idx = tracer.begin(OP_SPAN)
            runner.run_op(op_seed(0, 1))
            tracer.end(idx)
        span = tracer.spans[idx]
        out[name] = (tracer, span.end - span.start)
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_spans_nest_and_self_times_account_for_the_op(name, traced_ops):
    tracer, op_s = traced_ops[name]
    roots = [i for i, s in enumerate(tracer.spans) if s.name == OP_SPAN]
    assert len(roots) == 1
    for s in tracer.spans:
        if s.parent >= 0:
            parent = tracer.spans[s.parent]
            assert parent.start <= s.start <= s.end <= parent.end
        else:
            assert s.name == OP_SPAN
    selfs = tracer.self_times()
    assert min(selfs) >= 0.0
    assert sum(selfs) == pytest.approx(op_s, rel=1e-9)
    rows = tracer.summary()
    assert rows[OP_SPAN]["self_s"] > 0.0
    detector = {"uncoded-mmse-64": "baselines.mmse_detect",
                "coded-joint-32": "ldpc.check_update"}.get(name, "mpd.step")
    assert rows[detector]["calls"] > 0


def test_wrappers_are_removed_after_the_traced_run():
    import chemp.harness
    import chemp.joint
    import chemp.mpd
    mods = [m for n, m in sorted(sys.modules.items()) if n == "chemp" or n.startswith("chemp.")]
    before = [dict(vars(m)) for m in mods]
    methods = {cls: dict(vars(cls)) for cls in (chemp.mpd.MpdEngine,)}
    tracer = Tracer()
    with tracer:
        assert chemp.harness.matched_filter is not before[mods.index(chemp.mpd)]["matched_filter"]
        assert chemp.joint.MpdEngine.step is not methods[chemp.mpd.MpdEngine]["step"]
    for m, snapshot in zip(mods, before):
        assert all(vars(m)[k] is v for k, v in snapshot.items())
    for cls, snapshot in methods.items():
        assert all(vars(cls)[k] is v for k, v in snapshot.items())
    for owner, attr, original, _ in tracer.targets():
        assert vars(owner)[attr] is original


def test_output_check_rejects_corrupted_counts():
    runner = Runner(WORKLOADS["uncoded-mmse-64"])
    point = runner.run_op(op_seed(0, 1))
    assert runner.check_op(point) is None
    for bad in (dict(bits=point.bits + 1), dict(errors=point.bits + 1), dict(errors=-1),
                dict(trials=point.trials - 1), dict(ber=float("nan"))):
        assert runner.check_op(dataclasses.replace(point, **bad)) is not None

    def ops_with(errors):
        p = dataclasses.replace(point, errors=errors, ber=errors / point.bits)
        return [{"point": p, "latency": 0.1, "error": None}] * 20

    typical = round(runner.workload.ber.rate * point.bits)
    assert run.output_check(runner, ops_with(typical))["ok"]
    assert not run.output_check(runner, ops_with(2 * typical))["ok"]


def test_tail_is_the_highest_percentile_with_ten_ops_beyond():
    lat = [float(i) for i in range(40)]
    value, pct = run.tail(lat)
    assert sum(x > value for x in lat) == 10
    assert pct == pytest.approx(100.0 * 29 / 39)
    assert run.tail([3.0, 1.0]) == (3.0, 100.0)
    assert run.tail([float(i) for i in range(15)]) == (7.0, 50.0)
