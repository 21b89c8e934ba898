"""leosem benchmark: one seeded, closed-loop workload per run.

    python3 perfbench/run.py --workload eval_busy --seed 1 --seconds 24 --trace 0

Run from the repository root.  The workloads (``train_tiny``, ``eval_busy``,
``route_sp``) are described in ``workloads.py`` and ``README.md``.  A run
warms up, then alternates the workload's short block with the same block
run by the frozen copy of the program in ``frozen/`` (a child process on
the same CPU) until the blocks' time reaches ``--seconds``.  Rates are the
median speed ratio of the program over the frozen copy, times the frozen
copy's rate on the test host; set-up time is scaled the same way from
paired fresh-interpreter probes.  The host's speed thus cancels out.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics instead, from traced blocks interleaved with untraced ones.  Every
block is checked (chunk conservation, finite parameters after training,
PPO initial ratio, bit-identical repeats); an episode that raises or fails
a check counts as failed.
"""
from __future__ import annotations

import os

# Pin BLAS/OpenMP to one thread before numpy loads, so thread scheduling
# does not enter the numbers.  Set-up probes inherit this environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
# ``--frozen`` loads the copy of the program kept in frozen/ instead of src/:
# the fixed reference that the timed blocks are paired with.
FROZEN = "--frozen" in sys.argv[1:]
SRC = HERE / "frozen" if FROZEN else ROOT / "src"
TRACE_DIR = ROOT / ".bench_traces"

sys.path.insert(0, str(SRC))
try:
    import layers  # noqa: E402
    import tracer as tracing  # noqa: E402
    import workloads  # noqa: E402
except ModuleNotFoundError as exc:
    sys.exit(f"error: cannot import the program from {SRC}: {exc}")

SETUP_PROBES = 6
PROBE_TIMEOUT_S = 60.0
PEER_TIMEOUT_S = 30.0

# The frozen program's rates and set-up time on the 2-core test host (Xeon
# at 2.0 GHz, Python 3.11, numpy 2.4 with one BLAS thread): medians over 50
# runs of seeds 1-10.  They turn the measured ratios between the program and
# the frozen copy into host units; see README.md.
FROZEN_SCALE = {
    "train_tiny": {"episodes_per_s": 3.1, "decisions_per_s": 305.0, "setup_s": 0.32},
    "eval_busy": {"episodes_per_s": 0.92, "decisions_per_s": 1200.0, "setup_s": 0.32},
    "route_sp": {"episodes_per_s": 2.9, "decisions_per_s": 1360.0, "setup_s": 0.30},
}

UNITS = {
    "setup_s": "s",
    "episodes_per_s": "1/s",
    "decisions_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "delivery_rate": "ratio",
    "mean_quality": "score",
    "mean_delay_s": "s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set the workload up, print 'ready' and exit (set-up probe)")
    p.add_argument("--frozen", action="store_true",
                   help="run the frozen copy of the program in perfbench/frozen")
    p.add_argument("--serve", action="store_true",
                   help="run one block per 'block' line on standard input (pairing peer)")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


# ----------------------------------------------------------------------
# host and set-up

def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_info() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_sha": git_sha(),
    }


def run_py(workload: str, seed: int, *flags: str) -> list[str]:
    return [sys.executable, str(HERE / "run.py"), *flags,
            "--workload", workload, "--seed", str(seed)]


def probe_setup(workload: str, seed: int, *flags: str) -> float:
    """Seconds from starting a fresh interpreter until the workload is ready."""
    cmd = run_py(workload, seed, "--setup-only", *flags)
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate(timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


class FrozenPeer:
    """The frozen program in a child process, running one block on request.

    Only one of the two processes works at a time: the parent waits for
    each answer.
    """

    def __init__(self, workload: str, seed: int):
        self.proc = subprocess.Popen(run_py(workload, seed, "--serve", "--frozen"), cwd=ROOT,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            if self.proc.stdout.readline().strip() != "ready":
                raise RuntimeError("the frozen program did not start")
        except BaseException:
            self.close()
            raise

    def block(self) -> tuple[float, int]:
        """Seconds and decisions of one block of the frozen program."""
        self.proc.stdin.write("block\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("a block of the frozen program failed")
        answer = json.loads(line)
        return answer["s"], answer["decisions"]

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=PEER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "FrozenPeer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve(wl) -> int:
    """Peer side of a paired run: time one block per request."""
    wl.run_block()  # warm-up
    print("ready", flush=True)
    for line in sys.stdin:
        if line.strip() != "block":
            break
        t0 = time.perf_counter()
        result = wl.run_block()
        elapsed = time.perf_counter() - t0
        print(json.dumps({"s": elapsed, "decisions": result.decisions}), flush=True)
    return 0


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# blocks

class Runner:
    """Runs blocks, times them and applies the correctness checks."""

    def __init__(self, wl, log):
        self.wl = wl
        self.log = log
        self.reference: dict | None = None
        self.attempted = 0
        self.failed = 0

    def block(self, tracer=None, events: Counter | None = None,
              episodes: int | None = None):
        """One timed block; returns (result or None, seconds, engines, updates).

        With ``episodes`` it runs the longer outcome pass instead, which is
        checked like a block but is not a repeat of one.
        """
        is_block = episodes is None
        episodes = self.wl.episodes if is_block else episodes
        self.attempted += episodes
        hook = None
        if events is not None:
            def hook(ev):
                events[ev["ev"]] += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = self.wl.run_block(episodes=episodes)
            else:
                layers.install(tracer)
                root = tracer.open(layers.ROOT)
                try:
                    result = self.wl.run_block(trace=hook)
                finally:
                    tracer.close(root)
                    tracer.restore()
        except Exception:
            traceback.print_exc()
            self.failed += episodes
            self.log.take()
            return None, time.perf_counter() - t0, [], []
        elapsed = time.perf_counter() - t0
        engines, updates = self.log.take()
        fingerprint = result.fingerprint()
        n_bad, reasons = workloads.failed_episodes(
            result, fingerprint, engines, updates, self.reference if is_block else None)
        for reason in reasons:
            print(f"check failed: {reason}", file=sys.stderr)
        self.failed += n_bad
        if is_block and self.reference is None:
            self.reference = fingerprint
        return result, elapsed, engines, updates


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def fast_decile(values: list[float]) -> float:
    """10th percentile: the time of a block run between slow host phases."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[0]


def paired_speeds(times: list[float | None], work: int,
                  frozen_times: list[float], frozen_work: int) -> list[float]:
    """Per block, the frozen program's time per unit of work over the program's.

    Blocks alternate, frozen first and last: ``frozen_times`` has one entry
    more than ``times``, and block ``i`` of the program ran between frozen
    blocks ``i`` and ``i + 1``, whose mean cancels a steady drift of host
    speed.  A failed block (``None``) gives no ratio.
    """
    speeds = []
    for i, elapsed in enumerate(times):
        if elapsed is None:
            continue
        frozen = (frozen_times[i] + frozen_times[i + 1]) / 2.0
        speeds.append((frozen / frozen_work) / (elapsed / work))
    return speeds


def trimmed_mean(values: list[float]) -> float:
    """Mean without the lowest and the highest fifth of the values."""
    values = sorted(values)
    cut = len(values) // 5
    return statistics.fmean(values[cut:len(values) - cut])


def measure(runner: Runner, args) -> dict:
    """End-to-end metrics from untraced blocks paired with the frozen program's."""
    # The outcome pass doubles as warm-up.
    outcome, _, _, _ = runner.block(episodes=workloads.OUTCOME_EPISODES[args.workload])
    if outcome is None:
        raise RuntimeError("the outcome pass failed")
    times, frozen_times = [], []
    decisions = None
    # One CPU for both programs (the peer and the probes inherit it), so
    # the pairs see the same core's speed.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with FrozenPeer(args.workload, args.seed) as peer:
        elapsed, frozen_decisions = peer.block()
        frozen_times.append(elapsed)
        measured = elapsed
        while True:
            result, elapsed, _, _ = runner.block()
            measured += elapsed
            times.append(None if result is None else elapsed)
            decisions = result.decisions if result is not None else decisions
            elapsed, _ = peer.block()
            frozen_times.append(elapsed)
            measured += elapsed
            if measured >= args.seconds:
                break
    # Probes come last: a block that follows one runs measurably slower.
    probes = [probe_pair(args, first_frozen=i % 2 == 1) for i in range(SETUP_PROBES)]
    if decisions is None:
        raise RuntimeError("no block completed")
    speeds = paired_speeds(times, decisions, frozen_times, frozen_decisions)
    speed = trimmed_mean(speeds)
    # Both sides run the same episodes per block.
    episode_speed = trimmed_mean(paired_speeds(times, 1, frozen_times, 1))
    setup_ratio = statistics.median(p / f for p, f in probes)
    scale = FROZEN_SCALE[args.workload]
    ok = [t for t in times if t is not None]
    print("outcome " + json.dumps(outcome.fingerprint(), sort_keys=True))
    print(f"blocks n={len(ok)} episodes={runner.wl.episodes} decisions={decisions} "
          f"median_s={statistics.median(ok):.4f} spread={spread(ok):.4f}; frozen "
          f"decisions={frozen_decisions} median_s={statistics.median(frozen_times):.4f} "
          f"spread={spread(frozen_times):.4f}")
    print(f"speed vs frozen trimmed_mean={speed:.4f} spread={spread(speeds):.4f}; raw "
          f"decisions_per_s={decisions / statistics.median(ok):.1f} frozen="
          f"{frozen_decisions / statistics.median(frozen_times):.1f}")
    print(f"block_s program={[None if t is None else round(t, 4) for t in times]} "
          f"frozen={[round(t, 4) for t in frozen_times]}")
    print(f"setup ratio median={setup_ratio:.4f} probes_s (program, frozen)="
          f"{[(round(p, 4), round(f, 4)) for p, f in probes]}")
    values = {
        "setup_s": scale["setup_s"] * setup_ratio,
        "episodes_per_s": scale["episodes_per_s"] * episode_speed,
        "decisions_per_s": scale["decisions_per_s"] * speed,
        "peak_rss_mb": peak_rss_mib(),
        **workloads.outcome_metrics(outcome.fingerprint()),
    }
    return {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}


def probe_pair(args, first_frozen: bool) -> tuple[float, float]:
    """Set-up time of the program and of the frozen copy, probed back to back."""
    if first_frozen:
        frozen = probe_setup(args.workload, args.seed, "--frozen")
        return probe_setup(args.workload, args.seed), frozen
    program = probe_setup(args.workload, args.seed)
    return program, probe_setup(args.workload, args.seed, "--frozen")


# ----------------------------------------------------------------------
# traced run

def exact_counts(summary: dict, tracer, events: Counter, engines, updates) -> dict:
    """Per-block counts that must repeat exactly from block to block."""
    out = {f"{name}.calls": summary.get(name, {"calls": 0})["calls"]
           for name in layers.SPAN_NAMES}
    out["policy.param_copies"] = tracer.counts["policy.param_copies"]
    for kind in layers.EVENT_KINDS:
        out[f"simcore.events.{kind}"] = events[kind]
    out["simcore.decisions_per_slot"] = events["decision"] / max(events["slot"], 1)
    chunks = Counter()
    drops = Counter()
    delay = Counter()
    hops = 0
    for engine in engines:
        c = engine.counters
        chunks["created"] += c.chunks_created
        chunks["delivered"] += c.chunks_delivered
        chunks["dropped"] += c.chunks_dropped
        chunks["pruned"] += c.drop_causes[layers.PRUNED]
        for outcome in engine.outcomes:
            if outcome.drop_cause is not None:
                drops[outcome.drop_cause] += 1
            for rec in outcome.hop_records:
                hops += 1
                for part in layers.DELAY_PARTS:
                    delay[part] += getattr(rec, f"{part}_s")
    for kind in ("created", "delivered", "dropped", "pruned"):
        out[f"simcore.chunks.{kind}"] = chunks[kind]
    for cause in layers.DROP_CAUSES:
        out[f"simcore.drops.{cause}"] = drops[cause]
    for part in layers.DELAY_PARTS:
        out[f"simcore.sim_delay.{part}_s_mean"] = delay[part] / max(hops, 1)
    out["agent.ppo.updates"] = len(updates)
    out["agent.ppo.samples"] = sum(stats.n_samples for _, stats in updates)
    out["agent.ppo.minibatches"] = out["policy.adam_step.calls"]
    return out


def measure_traced(runner: Runner, args) -> dict:
    """Per-layer metrics from traced blocks, interleaved with untraced ones."""
    runner.block()  # warm-up
    plain_times, traced_times = [], []
    first_tracer = None
    n = 0
    self_s = Counter()
    durations: dict[str, list[float]] = {}
    counts = None
    root_total = root_self = 0.0
    measured = 0.0
    while True:
        result, elapsed, _, _ = runner.block()
        measured += elapsed
        if result is not None:
            plain_times.append(elapsed)
        tracer, events = tracing.Tracer(), Counter()
        result, elapsed, engines, updates = runner.block(tracer=tracer, events=events)
        measured += elapsed
        if result is not None:
            traced_times.append(elapsed)
            n += 1
            first_tracer = first_tracer or tracer
            summary = tracing.summarize(tracer.spans)
            for name, row in summary.items():
                self_s[name] += row["self_s"]
                durations.setdefault(name, []).extend(row["durations"])
            root_total += summary[layers.ROOT]["durations"][0]
            root_self += summary[layers.ROOT]["self_s"]
            block_counts = exact_counts(summary, tracer, events, engines, updates)
            if counts is None:
                counts = block_counts
            elif block_counts != counts:
                diff = {k: (counts[k], block_counts[k]) for k in counts
                        if counts[k] != block_counts[k]}
                print(f"check failed: traced counts differ between blocks: {diff}",
                      file=sys.stderr)
                runner.failed += runner.wl.episodes
        if measured >= args.seconds:
            break
    if counts is None or not plain_times:
        raise RuntimeError("no traced block completed")

    values = dict(counts)
    for name in layers.SPAN_NAMES:
        values[f"{name}.self_s"] = self_s[name] / n
    for name in layers.PER_CALL:
        d = sorted(durations.get(name, ()))
        values[f"{name}.us_p50"] = (tracing.percentile(d, 50) * 1e6
                                    if len(d) >= tracing.MIN_SAMPLES_P50 else 0.0)
        values[f"{name}.us_p99"] = (tracing.percentile(d, 99) * 1e6
                                    if len(d) >= tracing.MIN_SAMPLES_P99 else 0.0)
    values["trace.attributed_pct"] = 100.0 * (1.0 - root_self / root_total)
    decisions = runner.reference["decisions"]
    plain_rate = decisions / fast_decile(plain_times)
    traced_rate = decisions / fast_decile(traced_times)
    values["trace.overhead_pct"] = 100.0 * (plain_rate / traced_rate - 1.0)
    print(f"traced blocks n={n} decisions_per_s untraced={plain_rate:.1f} "
          f"traced={traced_rate:.1f}")

    # Every traced block repeats the same work, so the first one's spans
    # stand for all of them; one file per workload keeps the disk use flat.
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{args.workload}.jsonl"
    first_tracer.write_jsonl(path)
    print(f"spans of the first traced block written to {path.relative_to(ROOT)}")

    metrics = {}
    for m in layers.per_layer_metrics():
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return metrics


# ----------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        wl = workloads.Workload(args.workload, args.seed)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print("ready", flush=True)
        return 0
    if args.serve:
        return serve(wl)

    print("host " + json.dumps(host_info(), sort_keys=True))
    with workloads.EpisodeLog() as log:
        runner = Runner(wl, log)
        if args.trace:
            metrics = measure_traced(runner, args)
        else:
            metrics = measure(runner, args)
    print("fingerprint " + json.dumps(runner.reference, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
