"""Where the traced run puts its spans and counters.

Each entry names the object a caller looks the function up on, so the
wrapper is the one actually called: ``experiment`` imports ``run_episode``,
``ppo_update`` and ``aggregate`` into its own namespace, the engine calls
methods through instances (so the class attribute is patched), and
``simcore`` calls ``semantic.packetize`` through the module.
"""
from __future__ import annotations

from leosem import agent, baselines, channel, constellation, experiment, gat, policy, \
    semantic, simcore

# (owner, attribute, span name, positional index of the request id or None)
SPANS = [
    (experiment, "train", "experiment.train", None),
    (experiment, "evaluate", "experiment.evaluate", None),
    (experiment, "run_episode", "experiment.run_episode", 1),
    (experiment, "aggregate", "metrics.aggregate", None),
    (experiment, "ppo_update", "agent.ppo_update", None),
    (simcore.Engine, "run", "simcore.engine_run", None),
    (constellation.Constellation, "snapshot", "constellation.snapshot", None),
    (channel.ChannelModel, "advance_to_slot", "channel.advance_to_slot", None),
    (agent.PolicyController, "decide", "agent.decide", None),
    (agent, "observe", "agent.observe", None),
    (policy, "act", "policy.act", None),
    (policy, "forward", "policy.forward", None),
    (policy, "backward", "policy.backward", None),
    (policy.Adam, "step", "policy.adam_step", None),
    (gat, "forward", "gat.forward", None),
    (gat, "backward", "gat.backward", None),
    (baselines.ShortestPathController, "decide", "baselines.decide", None),
    (baselines.GreedyQueueController, "decide", "baselines.decide", None),
    (baselines.RandomController, "decide", "baselines.decide", None),
    (baselines, "dijkstra_to", "baselines.dijkstra_to", None),
    (semantic, "packetize", "semantic.ops", None),
    (semantic, "relay_process", "semantic.ops", None),
    (semantic, "record_hop", "semantic.ops", None),
    (semantic, "quality", "semantic.ops", None),
    (agent.RewardTracker, "on_hop", "agent.reward_hooks", None),
    (agent.RewardTracker, "on_deliver", "agent.reward_hooks", None),
    (agent.RewardTracker, "on_drop", "agent.reward_hooks", None),
]

# Calls counted without a span: per-call cost is small and the count is
# what the flat-parameter rework has to drive down.
COUNTS = [
    (policy, "zeros_like_params", "policy.param_copies"),
    (policy.PolicyParams, "to_vector", "policy.param_copies"),
    (policy.PolicyParams, "from_vector", "policy.param_copies"),
]

ROOT = "bench.block"
SPAN_NAMES = [ROOT] + sorted({name for _, _, name, _ in SPANS})

# Spans called often enough on some workload to give per-call percentiles.
PER_CALL = [
    "constellation.snapshot", "channel.advance_to_slot", "agent.decide",
    "agent.observe", "policy.act", "policy.forward", "policy.backward",
    "gat.forward", "gat.backward", "baselines.decide", "baselines.dijkstra_to",
]

EVENT_KINDS = ["slot", "spawn", "decision", "prune", "enqueue", "enqueue_overflow",
               "service_start", "arrival", "deliver", "drop"]
DROP_CAUSES = [simcore.DROP_TTL, simcore.DROP_OVERFLOW, simcore.DROP_NO_LINK]
PRUNED = simcore.DROP_PRUNED
DELAY_PARTS = ["prop", "tx", "queue", "proc"]


def install(tracer) -> None:
    for owner, attr, name, request_arg in SPANS:
        tracer.wrap(owner, attr, name, request_arg)
    for owner, attr, name in COUNTS:
        tracer.count(owner, attr, name)


def per_layer_metrics() -> list[dict]:
    """Every per-layer metric the traced run prints, in BENCHMARK.json form."""
    out = []
    for name in SPAN_NAMES:
        out.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
        out.append({"name": f"{name}.self_s", "unit": "s", "better": "lower"})
    for name in PER_CALL:
        out.append({"name": f"{name}.us_p50", "unit": "us", "better": "lower"})
        out.append({"name": f"{name}.us_p99", "unit": "us", "better": "lower"})
    out.append({"name": "policy.param_copies", "unit": "count", "better": "lower"})
    for kind in EVENT_KINDS:
        out.append({"name": f"simcore.events.{kind}", "unit": "count",
                    "better": "higher" if kind == "deliver" else "lower"})
    out.append({"name": "simcore.decisions_per_slot", "unit": "1/slot", "better": "higher"})
    for kind in ("created", "delivered", "dropped", "pruned"):
        out.append({"name": f"simcore.chunks.{kind}", "unit": "count",
                    "better": "higher" if kind == "delivered" else "lower"})
    for cause in DROP_CAUSES:
        out.append({"name": f"simcore.drops.{cause}", "unit": "count", "better": "lower"})
    for kind in ("updates", "samples", "minibatches"):
        out.append({"name": f"agent.ppo.{kind}", "unit": "count", "better": "lower"})
    for part in DELAY_PARTS:
        out.append({"name": f"simcore.sim_delay.{part}_s_mean", "unit": "s",
                    "better": "lower"})
    out.append({"name": "trace.attributed_pct", "unit": "%", "better": "higher"})
    out.append({"name": "trace.overhead_pct", "unit": "%", "better": "lower"})
    return out
