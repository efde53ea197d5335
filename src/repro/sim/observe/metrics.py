"""Sim-time metrics: counters, gauges and histograms with full time-series.

A :class:`MetricsRegistry` holds named :class:`MetricSeries`, each a list of
``(sim_time, value)`` samples of one of three kinds:

* **counter** — cumulative, non-decreasing (``counter_add`` appends the new
  running total): per-link transferred bytes, iterations simulated vs
  fast-forwarded;
* **gauge** — last-write-wins level (``gauge_set``): cluster utilization,
  per-resource queue depth, per-job frozen-prefix fraction;
* **histogram** — independent observations (``observe``): job queue latency,
  per-transfer queueing wait.

Samples record *simulated* time only — the registry never reads the wall
clock — and recording is an O(1) list append, so observed runs stay inside
the overhead budget (``docs/observability.md``).  Export is JSON
(:meth:`MetricsRegistry.as_dict`), CSV (:meth:`MetricsRegistry.to_csv`) or a
compact per-metric :meth:`MetricsRegistry.summary` — the form ``repro sim
sweep`` merges per cell.  All exports are name-sorted and deterministic.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

__all__ = ["MetricSeries", "MetricsRegistry", "COUNTER", "GAUGE", "HISTOGRAM"]

#: Metric kinds (the ``kind`` field of every series).
COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"


class MetricSeries:
    """One named metric's kind and its ``(sim_time, value)`` samples."""

    def __init__(self, name: str, kind: str):
        """Create an empty series of the given ``kind``."""
        self.name = name
        self.kind = kind
        self.samples: List[Tuple[float, float]] = []

    @property
    def last(self) -> float:
        """The most recent sample's value (0.0 for an empty series)."""
        return self.samples[-1][1] if self.samples else 0.0

    def values(self) -> List[float]:
        """The sample values, in recording order."""
        return [value for _time, value in self.samples]

    def summary(self) -> Dict[str, object]:
        """Compact plain-data statistics of the series.

        Counters report their final cumulative ``total``; gauges and
        histograms report min/mean/max over the sampled values.  Every field
        is JSON-plain and deterministic for a deterministic run.
        """
        row: Dict[str, object] = {"kind": self.kind, "num_samples": len(self.samples)}
        if not self.samples:
            return row
        values = self.values()
        if self.kind == COUNTER:
            row["total"] = values[-1]
        else:
            row["last"] = values[-1]
            row["min"] = min(values)
            row["max"] = max(values)
            row["mean"] = sum(values) / len(values)
        return row

    def as_dict(self) -> Dict[str, object]:
        """Full plain-data view: kind plus the ``[time, value]`` sample list."""
        return {"kind": self.kind,
                "samples": [[time, value] for time, value in self.samples]}


class MetricsRegistry:
    """Named sim-time metric series with JSON/CSV export.

    Metric names are flat strings; per-entity series embed the entity in the
    name (``resource.bytes.fabric``, ``job.frozen_fraction.a``) so exports
    sort deterministically without a label system.
    """

    def __init__(self) -> None:
        """Start with no series registered."""
        self._series: Dict[str, MetricSeries] = {}

    def _get(self, name: str, kind: str) -> MetricSeries:
        series = self._series.get(name)
        if series is None:
            series = MetricSeries(name, kind)
            self._series[name] = series
        elif series.kind != kind:
            raise ValueError(f"metric {name!r} is a {series.kind}, not a {kind}")
        return series

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def counter_add(self, name: str, time: float, delta: float) -> None:
        """Add ``delta`` to the counter, sampling the new running total at ``time``."""
        series = self._get(name, COUNTER)
        series.samples.append((float(time), series.last + float(delta)))

    def gauge_set(self, name: str, time: float, value: float) -> None:
        """Sample the gauge's level at ``time``."""
        self._get(name, GAUGE).samples.append((float(time), float(value)))

    def observe(self, name: str, time: float, value: float) -> None:
        """Record one histogram observation made at ``time``."""
        self._get(name, HISTOGRAM).samples.append((float(time), float(value)))

    # ------------------------------------------------------------------ #
    # Access and export
    # ------------------------------------------------------------------ #
    def names(self) -> List[str]:
        """Sorted names of every registered series."""
        return sorted(self._series)

    def get(self, name: str) -> Optional[MetricSeries]:
        """The named series, or ``None`` when it never recorded."""
        return self._series.get(name)

    def summary(self) -> Dict[str, Dict[str, object]]:
        """Name-sorted compact statistics of every series (the sweep cell form)."""
        return {name: self._series[name].summary() for name in self.names()}

    def as_dict(self) -> Dict[str, object]:
        """Full name-sorted plain-data export (kind + samples per series)."""
        return {"metrics": {name: self._series[name].as_dict() for name in self.names()}}

    def to_csv(self) -> str:
        """``metric,kind,time,value`` rows, name-sorted then sample-ordered."""
        lines = ["metric,kind,time,value"]
        for name in self.names():
            series = self._series[name]
            for time, value in series.samples:
                lines.append(f"{name},{series.kind},{time!r},{value!r}")
        return "\n".join(lines) + "\n"

    def write(self, path: str) -> None:
        """Write the registry to ``path``: CSV for ``.csv``, else full JSON."""
        if path.endswith(".csv"):
            payload = self.to_csv()
        else:
            import json

            payload = json.dumps(self.as_dict(), indent=1, sort_keys=True) + "\n"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload)
