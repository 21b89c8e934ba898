"""SHA-256 of every file a fixed set of traced runs writes.

    python3 tools/run_digests.py
    python3 tools/run_digests.py --base <rev>

Trains ``tiny_config(0)`` for 5 traced episodes, then evaluates that
checkpoint for 2 traced episodes on the tiny config, on a busy 10x7
config (20 flows x 5 sessions, 2 s frames) and on a lossy, crowded 3x3
stress config, under the greedy policy and under every baseline in
``BASELINE_KINDS``.  Sweeps the checkpoint over two SNR offsets on the
tiny config and two flow counts on the stress config, 2 episodes each.
Prints one ``run/file sha256`` line per file, sorted.  Every run is
seeded, so two trees whose output differs wrote different bytes
somewhere: diff the output of two checkouts to check that a refactor
leaves run files and traces byte-identical.  Run both under the same
``OPENBLAS_NUM_THREADS``: the training checkpoint's bytes, and so every
``run.json`` that hashes it, depend on the number of BLAS threads.

With ``--base REV`` it does that diff itself: it exports REV with ``git
archive`` into a temporary directory, runs that tree's ``run_digests.py`` in
a subprocess (its own ``src``, ``PYTHONPATH`` cleared, the rest of the
environment, ``OPENBLAS_NUM_THREADS`` and ``PYTHONHASHSEED`` included,
inherited), and prints each line found in only one of the two outputs,
``-`` for REV's and ``+`` for the working tree's, then their count.  It
exits 1 if any line differs.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from leosem import experiment  # noqa: E402
from leosem.baselines import BASELINE_KINDS  # noqa: E402
from leosem.config import ExperimentConfig, default_config, tiny_config  # noqa: E402


def busy_config(seed: int) -> ExperimentConfig:
    """Default 10x7 shell loaded with 20 flows x 5 sessions, 2 s frames.

    The scenario of perfbench's ``eval_busy``, defined here so that a
    change to the benchmark cannot move these digests.
    """
    cfg = default_config()
    return dataclasses.replace(cfg, seed=seed, simulation=dataclasses.replace(
        cfg.simulation, num_flows=20, sessions_per_flow=5, frame_interval_s=2.0))


def stress_config(seed: int) -> ExperimentConfig:
    """The tiny 3x3 shell under loss and load, so every drop cause occurs.

    Half the links fail each slot (a node can lose every port: ``no_link``),
    queues hold 40 chunks against 30-chunk payloads sent every 0.5 s on 4
    flows (``enqueue_overflow``, ``queue_overflow``) and sessions live 3
    hops (``ttl_expired``).
    """
    cfg = tiny_config(seed)
    return dataclasses.replace(
        cfg, channel=dataclasses.replace(cfg.channel, failure_rate=0.5),
        simulation=dataclasses.replace(cfg.simulation, q_max_packets=40, ttl_hops=3,
                                       num_flows=4, frame_interval_s=0.5))


def run_all(out: pathlib.Path, train_episodes: int = 5, eval_episodes: int = 2,
            kinds=BASELINE_KINDS) -> None:
    """Write the training run, every evaluation run and both sweeps under ``out``."""
    experiment.cmd_train(tiny_config(0), out / "train", episodes=train_episodes, trace=True)
    checkpoint = out / "train" / "checkpoint.npz"
    for scene, cfg in (("tiny", tiny_config(0)), ("busy", busy_config(0)),
                       ("stress", stress_config(0))):
        for kind in (None, *kinds):
            experiment.cmd_eval(cfg, checkpoint, out / f"eval_{scene}_{kind or 'policy'}",
                                eval_episodes, baseline_kind=kind, trace=True)
    experiment.cmd_sweep(tiny_config(0), "snr", [-5.0, 5.0], checkpoint, out / "sweep_snr",
                         eval_episodes)
    experiment.cmd_sweep(stress_config(0), "load", [1.0, 3.0], checkpoint,
                         out / "sweep_load", eval_episodes)


def digests(out: pathlib.Path) -> list[str]:
    """``run/file sha256`` for every file under ``out``, sorted by path."""
    return [f"{path.relative_to(out).as_posix()} "
            f"{hashlib.sha256(path.read_bytes()).hexdigest()}"
            for path in sorted(out.rglob("*")) if path.is_file()]


def tree_digests() -> list[str]:
    """The digest lines of this tree's run set."""
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp)
        run_all(out)
        return digests(out)


def base_digests(rev: str) -> list[str]:
    """The digest lines REV's own ``run_digests.py`` prints, in a fresh process."""
    from bench_pairs import export  # tools/ is on sys.path when run as a script
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    with tempfile.TemporaryDirectory() as tmp:
        tree = pathlib.Path(tmp)
        export(rev, tree)
        return subprocess.run([sys.executable, "tools/run_digests.py"], cwd=tree, env=env,
                              check=True, stdout=subprocess.PIPE, text=True).stdout.splitlines()


def differing_lines(base: list[str], change: list[str]) -> list[str]:
    """The lines of only one side, ``- `` for base and ``+ `` for change,
    ordered by path, a path's base line first."""
    base_set, change_set = set(base), set(change)
    base_only = [f"- {line}" for line in base if line not in change_set]
    change_only = [f"+ {line}" for line in change if line not in base_set]
    return sorted(base_only + change_only, key=lambda line: line.split()[1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", metavar="REV",
                   help="print only the lines that differ from REV's digests")
    args = p.parse_args(argv)
    lines = tree_digests()
    if args.base is None:
        for line in lines:
            print(line)
        return 0
    diff = differing_lines(base_digests(args.base), lines)
    for line in diff:
        print(line)
    print(f"{len(diff)} lines differ from {args.base}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
