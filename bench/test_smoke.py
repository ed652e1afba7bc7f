"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest -q bench/test_smoke.py

Each workload runs one block, untraced and traced.  The test asserts that
every metric BENCHMARK.json names is reported and finite, that every oracle
passes, and that the oracle rejects artifacts that were tampered with.  It
makes no timing assertions.
"""
from __future__ import annotations

import json
import math

import pytest

import inputs
import oracle
import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_workload_reports_every_metric(workload, trace):
    result, about = run.run(workload, seed=7, seconds=0, trace=trace, size=inputs.SMOKE)
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert result["correct"], about["failure_examples"]
    # only the CLI's own admissions of non-convergence may count as failed
    assert set(about["failures"]) <= set(run.HONEST), about["failure_examples"]
    assert set(about["warm_failures"]) <= set(run.HONEST), about["failure_examples"]
    assert result["attempted"] == about["samples"] >= 1


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_operations(workload):
    a = inputs.Plan(workload, 3, run.ROOT, inputs.SMOKE)
    b = inputs.Plan(workload, 3, run.ROOT, inputs.SMOKE)
    a.block(1)
    b.block(0), b.block(1)
    assert a.warm == b.warm and a.blocks == b.blocks and a.networks == b.networks
    # every timed operation runs on a network of its own
    assert len({op.net for op in a.blocks[0] + a.blocks[1]}) == len(a.blocks[0]) * 2


def _tamper(path, edit):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


@pytest.mark.parametrize("kind, edit", [
    ("ne", lambda d: d["solution"].__setitem__(0, d["solution"][0] * 1.01)),
    ("pareto", lambda d: d["frontier"].pop(1)),
    ("social", lambda d: d.update(profile=[0.5 * v for v in d["profile"]],
                                  utilities=None)),
    ("repeated", lambda d: d.update(min_discount=d["min_discount"] + 1e-3)),
    ("finite", lambda d: d["pure_nash"].pop()),
])
def test_oracle_rejects_tampered_artifacts(tmp_path, kind, edit):
    cli = run.import_program()
    plan = inputs.Plan("plane" if kind == "pareto" else "solve-mix", 5, run.ROOT, inputs.SMOKE)
    runner = run.Runner(cli, plan, tmp_path)
    op = next(op for op in runner.block(0) if op.kind == kind)
    _, rc, _ = runner.call(op)
    assert rc == 0 and runner._oracle(op, rc) is None
    _tamper(runner.out / f"{kind}.json", edit)
    if kind == "social":  # keep the utilities consistent with the worse profile
        _tamper(runner.out / "social.json", lambda d: d.update(
            utilities=list(oracle.Net.from_config(plan.networks[op.net]).utilities(
                d["profile"]))))
    assert runner._oracle(op, rc) is not None
