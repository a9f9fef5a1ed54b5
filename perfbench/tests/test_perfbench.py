"""Self-tests of the benchmark: determinism, planted wrong expectations,
and every workload at smoke size under a full-sampling fail-fast oracle.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import expect
from layers import PER_LAYER, layer_metrics, patch_classes
from spans import Tracer
from workloads import WORKLOADS, job_stream, zone_shards

from conftest import BENCH, ROOT


def smoke(name: str, seed: int = 7, **kw):
    return WORKLOADS[name].run(seed, 0, size="smoke", rounds=1, **kw)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_passes_under_full_sampling_oracle(name):
    res = smoke(name)
    assert res.correct, res.breaches
    assert res.failed == 0
    assert res.oracle_checks > 0
    assert res.oracle_violations == 0
    e2e = res.end_to_end()
    assert all(value > 0 for value in e2e.values()), e2e


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_outcomes(name):
    first, second = smoke(name, seed=3), smoke(name, seed=3)
    assert first.digest.hexdigest() == second.digest.hexdigest()
    assert first.attempted == second.attempted
    assert smoke(name, seed=4).digest.hexdigest() \
        != first.digest.hexdigest()


@pytest.mark.parametrize("name", ["tenant-mix", "flow-flood"])
def test_planted_wrong_ubf_expectation_is_caught(name, monkeypatch):
    # the model now claims every connection is allowed; the program still
    # (correctly) drops cross-user ones, so the checker must fail the run
    monkeypatch.setattr(expect.Model, "ubf_verdict",
                        lambda self, *a: expect.ACCEPT)
    monkeypatch.setattr(expect.Model, "portal_allowed",
                        lambda self, *a: True)
    res = smoke(name)
    assert not res.correct
    assert res.breaches


def test_planted_wrong_tenant_expectation_is_caught(monkeypatch):
    # a model that believes foreign homes are readable: the refused reads
    # count as errors, never as a pass
    monkeypatch.setattr(expect.Model, "home_readable",
                        lambda self, actor, owner: True)
    res = smoke("tenant-mix")
    assert res.failed > 0


def test_planted_wrong_job_owner_is_caught(monkeypatch):
    submit = job_stream._Round.submit

    def lying_submit(self, arrival):
        lat = submit(self, arrival)
        first = min(self.owner)
        self.owner[first] = -1     # the checker's record, not the program's
        return lat

    monkeypatch.setattr(job_stream._Round, "submit", lying_submit)
    res = smoke("job-stream")
    assert not res.correct
    assert any("submitted by -1" in b or "uids" in b for b in res.breaches)


def test_zone_digest_mismatch_is_caught(monkeypatch):
    class SkewedReference(zone_shards.ShardedEngine):
        def run(self, *a, **kw):
            rep = super().run(*a, **kw)
            if self.n_shards == 1:
                rep.zones[0] = {**rep.zones[0], "digest": "0" * 32}
            return rep

    monkeypatch.setattr(zone_shards, "ShardedEngine", SkewedReference)
    res = smoke("zone-shards")
    assert not res.correct


def test_traced_pass_reports_every_layer_metric():
    tracer = Tracer()
    patch_classes(tracer)
    try:
        res = smoke("tenant-mix", tracer=tracer)
    finally:
        tracer.restore()
    ledger = layer_metrics(tracer, res)
    assert set(PER_LAYER) <= set(ledger)
    assert ledger["net.connect_us"] > 0
    assert ledger["kernel.procfs_ps_us"] > 0
    assert ledger["sched.candidates_calls"] == 0   # scheduler idle
    spans = tracer.spans
    assert spans and all(end >= start for _, _, start, end, _, _ in spans)
    # self time never exceeds duration, and children nest in parents
    for st in tracer.stats.values():
        assert all(s <= t for s, t in zip(st.self_, st.total))


def test_traced_zone_shards_reports_the_shard_layer():
    tracer = Tracer()
    res = smoke("zone-shards", tracer=tracer)
    assert res.correct, res.breaches
    ledger = layer_metrics(tracer, res)
    for name in ("shard.epochs", "shard.msgs_routed", "shard.busy_frac",
                 "shard.mp_speedup", "shard.barrier_wait_p95_s"):
        assert ledger[name] > 0, name
    assert 0 < res.props["barrier_wait_share_serial"] < 1


def test_tracer_restores_patched_classes():
    from repro.net.stack import HostStack
    original = HostStack.connect
    tracer = Tracer()
    patch_classes(tracer)
    assert HostStack.connect is not original
    tracer.restore()
    assert HostStack.connect is original


def _run_cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_cli_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run_cli(tmp_path, "--workload", "tenant-mix", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_matches_the_metric_sets():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    from common import END_TO_END
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]
             + spec["per_layer"]}
    assert units == {**END_TO_END, **PER_LAYER}
