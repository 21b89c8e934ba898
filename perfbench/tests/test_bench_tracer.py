"""Span arithmetic and patch/restore behaviour of the benchmark tracer."""
import types

import pytest

import layers
import run
import tracer as tracing
import workloads


def span(name, start, end, parent):
    return [name, start, end, parent, 0]


def test_self_time_of_hand_built_tree():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("a.child", 2.0, 3.0, 1),
        span("b", 5.0, 9.0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_and_overhanging_children_once():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("x", 1.0, 5.0, 0),
        span("y", 3.0, 7.0, 0),    # overlaps x: union covers [1, 7]
        span("z", 9.0, 12.0, 0),   # runs past the parent: only [9, 10] counts
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_summarize_groups_by_name():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("leaf", 1.0, 2.0, 0),
        span("leaf", 3.0, 6.0, 0),
    ]
    summary = tracing.summarize(spans)
    assert summary["leaf"]["calls"] == 2
    assert summary["leaf"]["self_s"] == pytest.approx(4.0)
    assert sorted(summary["leaf"]["durations"]) == pytest.approx([1.0, 3.0])
    assert summary["root"]["self_s"] == pytest.approx(6.0)


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert tracing.percentile(values, 50) == 50.0
    assert tracing.percentile(values, 99) == 99.0
    assert tracing.percentile([7.0], 99) == 7.0


def test_wrap_records_nesting_and_restore_puts_originals_back():
    ticks = iter(range(100))
    t = tracing.Tracer(clock=lambda: float(next(ticks)))

    class Box:
        def inner(self):
            return "inner"

        def outer(self):
            return self.inner() + "!"

    mod = types.SimpleNamespace(helper=lambda x: x * 2)
    originals = (vars(Box)["inner"], vars(Box)["outer"], vars(mod)["helper"])
    t.wrap(Box, "inner", "box.inner")
    t.wrap(Box, "outer", "box.outer")
    t.count(mod, "helper", "mod.helper")
    assert Box().outer() == "inner!"
    assert mod.helper(3) == 6
    assert [(s[0], s[3]) for s in t.spans] == [("box.outer", -1), ("box.inner", 0)]
    assert t.counts["mod.helper"] == 1
    t.restore()
    assert (vars(Box)["inner"], vars(Box)["outer"], vars(mod)["helper"]) == originals


def test_request_id_follows_the_named_argument():
    t = tracing.Tracer()
    mod = types.SimpleNamespace(run=lambda cfg, episode: None, after=lambda: None)
    t.wrap(mod, "run", "run", request_arg=1)
    t.wrap(mod, "after", "after")
    mod.run("cfg", 7)
    mod.after()
    t.restore()
    assert [s[tracing.REQUEST] for s in t.spans] == [7, 7]


def _patched_attributes():
    targets = [(owner, attr) for owner, attr, _, _ in layers.SPANS]
    targets += [(owner, attr) for owner, attr, _ in layers.COUNTS]
    return {(id(owner), attr): vars(owner)[attr] for owner, attr in targets}


def test_traced_block_restores_every_wrapped_function():
    before = _patched_attributes()
    wl = workloads.Workload("route_sp", 0)
    wl.episodes = 1  # one episode is enough to exercise every route_sp span
    with workloads.EpisodeLog() as log:
        runner = run.Runner(wl, log)
        t = tracing.Tracer()
        result, _, engines, _ = runner.block(tracer=t)
    assert result is not None and len(engines) == 1
    assert runner.failed == 0
    assert {s[tracing.NAME] for s in t.spans} >= {
        layers.ROOT, "experiment.evaluate", "experiment.run_episode",
        "simcore.engine_run", "constellation.snapshot", "baselines.decide"}
    assert _patched_attributes() == before


def test_checkpoint_with_wrong_hash_is_refused(monkeypatch):
    monkeypatch.setattr(workloads, "CHECKPOINT_SHA256", "0" * 64)
    with pytest.raises(ValueError, match="sha256"):
        workloads.Workload("eval_busy", 0)
