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
    """The mean of values, None for none; the same bits on every Python.

    The values are added with a sequential `+=` from 0.0, since `sum`
    compensates its rounding on Python 3.12 and later.
    """
    if not values:
        return None
    total = 0.0
    for value in values:
        total += value
    return total / len(values)
