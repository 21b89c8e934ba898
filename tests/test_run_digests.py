"""``tools/run_digests.py`` on a shortened run set: every run and sweep writes its files,
the digests repeat from run to run, and the stress scene reaches every way
a session can fail."""
import importlib.util
import json
import pathlib
import re

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "run_digests.py"
_SPEC = importlib.util.spec_from_file_location("run_digests", _PATH)
run_digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(run_digests)

EVAL_FILES = {"config.yaml", "metrics.json", "run.json", "sessions.csv", "trace.jsonl"}


def test_digests_cover_every_run_and_repeat(tmp_path):
    lines = []
    for out in (tmp_path / "a", tmp_path / "b"):
        run_digests.run_all(out, train_episodes=1, eval_episodes=1, kinds=("shortest_path",))
        lines.append(run_digests.digests(out))
    assert lines[0] == lines[1]
    files = {}
    for line in lines[0]:
        match = re.fullmatch(r"(\w+)/([\w.]+) [0-9a-f]{64}", line)
        assert match, line
        files.setdefault(match[1], set()).add(match[2])
    assert files.pop("train") == EVAL_FILES | {"checkpoint.npz", "curve.csv"}
    assert files.pop("sweep_snr") == files.pop("sweep_load") == {
        "config.yaml", "run.json", "sweep.csv"}
    assert files == {f"eval_{scene}_{kind}": EVAL_FILES for scene in ("tiny", "busy", "stress")
                     for kind in ("policy", "shortest_path")}
    assert lines[0] == sorted(lines[0])
    # The engine's overflow and no-link branches run in every stress run.
    for kind in ("policy", "shortest_path"):
        with open(tmp_path / "a" / f"eval_stress_{kind}" / "trace.jsonl") as fh:
            events = [json.loads(line) for line in fh]
        seen = {e["ev"] for e in events} | {e["cause"] for e in events if e["ev"] == "drop"}
        missing = {"enqueue_overflow", "queue_overflow", "no_link", "ttl_expired",
                   "deliver"} - seen
        assert not missing, (kind, missing)
