"""Rebuild the fixed policy checkpoint that the ``eval_busy`` workload loads.

    python3 perfbench/make_checkpoint.py

Trains ``tiny_config(0)`` for 300 episodes with the default PPO settings,
writes ``perfbench/data/eval_busy_policy.npz`` and prints its SHA-256.
The archive is written with fixed member timestamps, so the same training
code reproduces the same bytes.  ``run.py`` pins that hash: a change to the
training code cannot silently change the ``eval_busy`` input, and a
deliberate rebuild must update ``CHECKPOINT_SHA256`` in ``workloads.py``.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import zipfile  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from leosem import policy as pol  # noqa: E402
from leosem.config import tiny_config  # noqa: E402
from leosem.experiment import make_ppo_hyper, train  # noqa: E402

CHECKPOINT = HERE / "data" / "eval_busy_policy.npz"
TRAIN_SEED = 0
TRAIN_EPISODES = 300


def deterministic_npz(raw: bytes) -> bytes:
    """Re-pack an ``.npz`` archive with fixed timestamps and member order."""
    out = io.BytesIO()
    with zipfile.ZipFile(io.BytesIO(raw)) as src, \
            zipfile.ZipFile(out, "w", zipfile.ZIP_DEFLATED) as dst:
        for name in sorted(src.namelist()):
            info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
            info.compress_type = zipfile.ZIP_DEFLATED
            dst.writestr(info, src.read(name))
    return out.getvalue()


def main() -> int:
    cfg = tiny_config(TRAIN_SEED)
    t0 = time.perf_counter()
    result = train(cfg, episodes=TRAIN_EPISODES)
    print(f"trained {TRAIN_EPISODES} episodes in {time.perf_counter() - t0:.1f} s; "
          f"delivery_rate={result.bundle.delivery_rate}")
    buf = io.BytesIO()
    pol.save_checkpoint(buf, result.params, hyper=dataclasses.asdict(make_ppo_hyper(cfg)),
                        seed=cfg.seed)
    data = deterministic_npz(buf.getvalue())
    CHECKPOINT.parent.mkdir(parents=True, exist_ok=True)
    CHECKPOINT.write_bytes(data)
    print(f"{CHECKPOINT.name} sha256={hashlib.sha256(data).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
