"""One simulated episode under shortest-path routing, event by event.

Runs two semantic sessions across the small 3x3 shell and prints the
interesting trace events plus the per-hop delay breakdown of every
delivered session.
"""
from leosem.baselines import BaselineSpec
from leosem.config import tiny_config
from leosem.experiment import evaluate

cfg = tiny_config(seed=42)

events = []
bundle, records, engines = evaluate(
    cfg, None, episodes=1, baseline=BaselineSpec(kind="shortest_path"),
    trace=events.append)

interesting = ("spawn", "decision", "deliver", "drop", "prune")
print("trace highlights (first 30):")
shown = 0
for ev in events:
    if ev["ev"] in interesting and shown < 30:
        fields = {k: v for k, v in ev.items() if k not in ("ev", "t")}
        print(f"  t={ev['t']:8.3f}  {ev['ev']:<9} {fields}")
        shown += 1

print("\nper-session outcomes:")
for out in engines[0].outcomes:  # resolved sessions, in the order they ended
    if out.delivered:
        comps = [(r.queue_s, r.tx_s, r.prop_s, r.proc_s) for r in out.hop_records]
        print(f"  session {out.session_id}: {' -> '.join(map(str, out.hop_trace))}, "
              f"delay {out.end_to_end_delay_s * 1e3:.1f} ms, quality {out.quality:.3f}")
        for i, (q, tx, pr, pc) in enumerate(comps):
            print(f"      hop {i}: queue {q * 1e3:6.1f} ms, tx {tx * 1e3:6.1f} ms, "
                  f"prop {pr * 1e3:5.1f} ms, proc {pc * 1e3:4.1f} ms")
    else:
        print(f"  session {out.session_id}: dropped ({out.drop_cause}) "
              f"after {len(out.hop_trace) - 1} hops")

print(f"\nepisode metrics: delivery={bundle.delivery_rate:.2f}, "
      f"mean delay={bundle.mean_delay_s:.3f}s, mean quality={bundle.mean_quality:.3f}, "
      f"objective={bundle.objective:.4f}")
