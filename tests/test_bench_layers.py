"""Every name ``perfbench/layers.py`` patches for a traced benchmark run is
still defined on its owner, and a finished engine still gives what the
traced run reads of it.

The traced run wraps each attribute through ``vars(owner)[attr]``, so a
program change that removes or moves one breaks ``perfbench/run.py --trace
1``.  Its per-block counts (``exact_counts``) read each engine's
``counters``, its ``outcomes``, their ``drop_cause`` and every
``hop_records`` entry's ``<part>_s``.  The module is only loaded here;
nothing is patched."""
import importlib.util
import math
import pathlib
from collections import Counter

import numpy as np
import pytest

from leosem import experiment
from leosem.agent import PolicyController
from leosem.config import tiny_config
from leosem.policy import init_policy_params
from leosem.simcore import HopDelayRecord

_PATH = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"
_SPEC = importlib.util.spec_from_file_location("bench_layers", _PATH)
layers = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(layers)


def test_every_patched_name_is_defined_on_its_owner():
    patched = [(owner, attr) for owner, attr, *_ in layers.SPANS + layers.COUNTS]
    assert len(patched) == len(layers.SPANS) + len(layers.COUNTS) > 0
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr in patched if attr not in vars(owner)]
    assert not missing, f"perfbench/layers.py patches names that are gone: {missing}"


def test_finished_engine_gives_what_the_traced_run_reads():
    # A sampling policy on the tiny shell prunes at relays and loses
    # sessions to the TTL; every count is checked against the event trace.
    cfg = tiny_config(0)
    params = init_policy_params(np.random.default_rng(0), experiment.make_policy_config(cfg))
    events = []
    engine = experiment.run_episode(
        cfg, 0, PolicyController(params, rng=np.random.default_rng(1)), hooks=[],
        trace=events.append)
    kinds = Counter(e["ev"] for e in events)
    shed = sum(e["shed"] for e in events if e["ev"] == "prune")
    assert engine.counters.drop_causes[layers.PRUNED] == shed > 0
    assert len(engine.outcomes) == kinds["spawn"]
    drops = Counter(o.drop_cause for o in engine.outcomes if o.drop_cause is not None)
    assert drops == Counter(e["cause"] for e in events if e["ev"] == "drop")
    assert set(drops) <= set(layers.DROP_CAUSES) and drops and kinds["deliver"]

    assert {f"{part}_s" for part in layers.DELAY_PARTS} | {"total_s"} == \
        set(HopDelayRecord.__slots__)
    # Per session, in hop order: each service's transmission time and each
    # decision's relay processing time.
    tx_s, proc_s = {}, {}
    relay_s = cfg.simulation.relay_proc_delay_s
    for e in events:
        if e["ev"] == "service_start":
            tx_s.setdefault(e["session"], []).append(e["tx_s"])
        elif e["ev"] == "decision":
            proc_s.setdefault(e["session"], []).append(
                relay_s if e["relay"] and not e["source"] else 0.0)
    hops = 0
    for outcome in engine.outcomes:
        records = outcome.hop_records
        assert len(records) == len(outcome.hop_trace) - 1
        assert [rec.tx_s for rec in records] == pytest.approx(
            tx_s.get(outcome.session_id, []), abs=1e-9)
        assert [rec.proc_s for rec in records] == proc_s.get(outcome.session_id, [])
        for rec in records:
            hops += 1
            parts = [getattr(rec, f"{part}_s") for part in layers.DELAY_PARTS]
            assert all(math.isfinite(x) and x >= 0 for x in parts)
            assert rec.total_s == parts[0] + parts[1] + parts[2] + parts[3]
    assert hops == kinds["arrival"] > 0
    assert sum(x > 0 for xs in proc_s.values() for x in xs) > 0
