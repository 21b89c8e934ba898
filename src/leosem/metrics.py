"""Session records, aggregate metrics and the scalar objective.

The objective mixes normalized mean delay with the mean quality deficit:
lambda_delay * (mean_delay / delay_scale) + lambda_semantic * (1 - mean_quality),
both means taken over delivered sessions.  With no deliveries the
objective is undefined and reported as null.  Column meanings live in
docs/metrics_schema.md.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

from .simcore import DROP_NO_LINK, DROP_OVERFLOW, DROP_TTL, ActiveSession

SESSION_CSV_COLUMNS = [
    "episode", "session_id", "flow_id", "src", "dst", "spawn_s", "delivered",
    "drop_cause", "end_to_end_delay_s", "hops", "quality", "final_budget",
    "relay_count", "requant_count", "chunks_created", "decision_count", "reward",
]

DROP_CAUSES = (DROP_TTL, DROP_OVERFLOW, DROP_NO_LINK)


@dataclass
class SessionRecord:
    episode: int
    session_id: int
    flow_id: int
    src: int
    dst: int
    spawn_s: float
    delivered: bool
    drop_cause: str | None
    end_to_end_delay_s: float | None
    hops: int
    quality: float | None
    final_budget: int | None
    relay_count: int
    requant_count: int
    chunks_created: int
    decision_count: int
    reward: float

    @classmethod
    def from_session(cls, episode: int, session: ActiveSession, reward: float) -> "SessionRecord":
        """The record of a session, resolved or still in flight at the horizon."""
        return cls(
            episode=episode,
            session_id=session.session_id,
            flow_id=session.flow_id,
            src=session.src,
            dst=session.dst,
            spawn_s=session.spawn_s,
            delivered=session.delivered,
            drop_cause=session.drop_cause,
            end_to_end_delay_s=session.end_to_end_delay_s,
            hops=max(len(session.hop_trace) - 1, 0),
            quality=session.quality,
            final_budget=session.sem.budget_c,
            relay_count=session.relay_count,
            requant_count=session.sem.quant_penalties,
            chunks_created=session.chunks_created,
            decision_count=session.decision_count,
            reward=reward,
        )


@dataclass
class MetricsBundle:
    sessions: int
    delivered: int
    dropped: int
    in_flight: int
    delivery_rate: float | None
    drop_rate: float | None
    drop_causes: dict[str, int]
    mean_reward: float | None
    mean_session_return: float | None
    mean_delay_s: float | None
    mean_quality: float | None
    objective: float | None
    delay_scale_s: float
    lambda_delay: float
    lambda_semantic: float
    episodes: int = 0
    extra: dict = field(default_factory=dict)


def objective_value(mean_delay_s: float | None, mean_quality: float | None,
                    delay_scale_s: float, lambda_delay: float,
                    lambda_semantic: float) -> float | None:
    if mean_delay_s is None or mean_quality is None:
        return None
    return lambda_delay * (mean_delay_s / delay_scale_s) + lambda_semantic * (1.0 - mean_quality)


def aggregate(records: list[SessionRecord], delay_scale_s: float,
              lambda_delay: float, lambda_semantic: float,
              episodes: int = 0) -> MetricsBundle:
    delivered = [r for r in records if r.delivered]
    dropped = [r for r in records if not r.delivered and r.drop_cause is not None]
    in_flight = len(records) - len(delivered) - len(dropped)
    n = len(records)
    causes = {c: 0 for c in DROP_CAUSES}
    for r in dropped:
        causes[r.drop_cause] = causes.get(r.drop_cause, 0) + 1
    mean_delay = (sum(r.end_to_end_delay_s for r in delivered) / len(delivered)
                  if delivered else None)
    mean_quality = (sum(r.quality for r in delivered) / len(delivered)
                    if delivered else None)
    return MetricsBundle(
        sessions=n,
        delivered=len(delivered),
        dropped=len(dropped),
        in_flight=in_flight,
        delivery_rate=len(delivered) / n if n else None,
        drop_rate=len(dropped) / n if n else None,
        drop_causes=causes,
        mean_reward=sum(r.reward for r in records) / n if n else None,
        mean_session_return=sum(r.reward for r in records) / n if n else None,
        mean_delay_s=mean_delay,
        mean_quality=mean_quality,
        objective=objective_value(mean_delay, mean_quality, delay_scale_s,
                                  lambda_delay, lambda_semantic),
        delay_scale_s=delay_scale_s,
        lambda_delay=lambda_delay,
        lambda_semantic=lambda_semantic,
        episodes=episodes,
    )


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def read_sessions_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_json(path, data: dict) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_rows_csv(path, columns: list[str], rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(c)) for c in columns])
