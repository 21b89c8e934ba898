"""Paired benchmark runs: a base commit against the working tree.

    python3 tools/bench_pairs.py --label pr5 --base <parent-sha> \\
        --workload train_tiny --seeds 1 2 3 4 5 6 7 8 9 10

Exports the base commit with ``git archive`` into a temporary directory and
checks that ``perfbench/`` and ``BENCHMARK.json`` are identical in it and in
the working tree.  For each seed it then runs ``python3 perfbench/run.py
--workload W --seed S --seconds T --trace 0`` once in each tree, the side
that goes first alternating from pair to pair, and writes
``BENCH_<label>.json``: the host line, both SHAs, every run's metrics, and
per end-to-end metric each side's median and quartiles, the median and
quartiles of the per-pair change/base ratios (``paired_ratio``), the number of
pairs the working tree won (ties count for neither side), ``gain_rule_met``
and ``worse_beyond_spread``; per workload, the list of metrics worse beyond
the base's spread and ``outcomes_identical``: whether the routing outcomes
were equal in every pair.  Run it once per workload with the same label: each run
adds or replaces that workload's entry in the file.  After writing it, it prints
one line per end-to-end metric: both medians, their ratio, the paired ratios'
median and quartiles, the pairs won, ``gain_rule_met`` and
``worse_beyond_spread``.
"""
from __future__ import annotations

import argparse
import io
import json
import math
import os
import pathlib
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SHARED = ["perfbench", "BENCHMARK.json"]
# Deterministic for a seed: a pure speed change leaves them equal in every pair.
OUTCOMES = ("delivery_rate", "mean_quality", "mean_delay_s")


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export(rev: str, dest: pathlib.Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev))) as tar:
        tar.extractall(dest, filter="data")


def check_same_benchmark(base: str, base_tree: pathlib.Path) -> None:
    names = git("ls-files", "--", *SHARED).decode().split()
    if names != git("ls-tree", "-r", "--name-only", base, "--", *SHARED).decode().split() \
            or any((ROOT / n).read_bytes() != (base_tree / n).read_bytes() for n in names):
        sys.exit("error: perfbench/ or BENCHMARK.json differs between the trees")


def run_once(tree: pathlib.Path, workload: str, seed: int, seconds: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, check=True, capture_output=True, text=True).stdout.splitlines()
    result = json.loads(out[-1])
    host = next(line[len("host "):] for line in out if line.startswith("host "))
    return {"seed": seed, "host": json.loads(host), "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") \
        if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def compare(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: both sides' median and quartiles, ``paired_ratio`` (the
    median and quartiles of the per-pair change/base ratios, over the pairs
    whose base is not 0; None when there is none), the pairs the change won,
    ``gain_rule_met`` and ``worse_beyond_spread``.  For the whole set:
    ``outcomes_identical``, and ``worse_beyond_spread``, the names of the
    metrics that are.

    A tie counts for neither side.  The gain rule is met when the change wins
    at least 0.9 of the pairs and its median is better than the base's by
    more than the base's interquartile range; a metric is worse beyond the
    spread when the change's median is worse than the base's by more than
    that range.  Neither rule reads ``paired_ratio``: across seeds the base's
    range also holds the seeds' different workloads, which a ratio within
    each pair cancels.  ``outcomes_identical`` says whether each outcome metric
    among ``metrics`` was equal in every pair (None when there is none).
    """
    outcomes = [m["name"] for m in metrics if m["name"] in OUTCOMES]
    out = {"outcomes_identical": all(
        p["base"]["metrics"][name] == p["change"]["metrics"][name]
        for p in pairs for name in outcomes) if outcomes else None,
        "worse_beyond_spread": []}
    for m in metrics:
        name, sign = m["name"], (1 if m["better"] == "higher" else -1)
        base = [p["base"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        b, c = summarise(base), summarise(change)
        ratios = [y / x for x, y in zip(base, change) if x]
        wins = sum(sign * (y - x) > 0 for x, y in zip(base, change))
        gain = sign * (c["median"] - b["median"])
        spread = b["q3"] - b["q1"]
        out[name] = {"unit": m["unit"], "better": m["better"], "base": b, "change": c,
                     "paired_ratio": summarise(ratios) if ratios else None,
                     "change_wins": wins, "pairs": len(pairs),
                     "gain_rule_met": wins >= 0.9 * len(pairs) and gain > spread,
                     "worse_beyond_spread": -gain > spread}
        if out[name]["worse_beyond_spread"]:
            out["worse_beyond_spread"].append(name)
    return out


def summary_lines(workload: str, summary: dict, metrics: list[dict]) -> list[str]:
    """One line per metric of ``compare``'s summary: base and change medians,
    change/base ratio, the paired ratios' median [q1, q3], pairs won,
    ``gain_rule_met`` and ``worse_beyond_spread``."""
    lines = []
    for m in metrics:
        s = summary[m["name"]]
        base, change = s["base"]["median"], s["change"]["median"]
        ratio = change / base if base else math.nan
        r = s["paired_ratio"] or dict.fromkeys(("median", "q1", "q3"), math.nan)
        lines.append(f"{workload} {m['name']}: base {base:.6g} change {change:.6g} "
                     f"ratio {ratio:.4f} paired {r['median']:.4f} "
                     f"[{r['q1']:.4f}, {r['q3']:.4f}] wins {s['change_wins']}/{s['pairs']} "
                     f"gain_rule_met {s['gain_rule_met']} "
                     f"worse_beyond_spread {s['worse_beyond_spread']}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True)
    p.add_argument("--base", required=True, help="commit to compare the working tree with")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True, help="one pair per seed")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    dirty = bool(git("status", "--porcelain", "--untracked-files=no", "--", "src").strip())
    path = ROOT / f"BENCH_{args.label}.json"
    record = json.loads(path.read_text()) if path.exists() else {"workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        base_tree = pathlib.Path(tmp)
        export(args.base, base_tree)
        check_same_benchmark(args.base, base_tree)
        pairs = []
        for k, seed in enumerate(args.seeds):
            sides = [("base", base_tree), ("change", ROOT)]
            pair = {"first": sides[k % 2][0]}
            for side, tree in sides[k % 2:] + sides[:k % 2]:
                pair[side] = run_once(tree, args.workload, seed, bench["run_seconds"])
                rates = {k: pair[side]["metrics"][k]
                         for k in ("episodes_per_s", "decisions_per_s")}
                print(f"{args.workload} seed {seed} {side}: {rates}", flush=True)
            pairs.append(pair)
    record["host"] = pairs[0]["base"]["host"]
    record["workloads"][args.workload] = {
        "base_sha": git("rev-parse", args.base).decode().strip(),
        "change_sha": git("rev-parse", "HEAD").decode().strip(),
        "change_src_dirty": dirty, "seconds": bench["run_seconds"],
        "pairs": pairs, "summary": compare(pairs, bench["end_to_end"])}
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.name}")
    summary = record["workloads"][args.workload]["summary"]
    for line in summary_lines(args.workload, summary, bench["end_to_end"]):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
