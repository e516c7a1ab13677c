"""Per-checkpoint metric series, the substrate of every training curve."""

from dataclasses import dataclass
from typing import NamedTuple


class SeriesPoint(NamedTuple):
    checkpoint_id: str
    value: float | None  # None = undefined at this checkpoint
    skip_count: int


@dataclass(frozen=True)
class MetricSeries:
    metric_name: str
    points: tuple[SeriesPoint, ...]

    def checkpoint_ids(self) -> list[str]:
        return [p.checkpoint_id for p in self.points]


def mean_or_none(values) -> float | None:
    return sum(values) / len(values) if values else None
