"""Fleet-health metrics: fixed-bucket latency histograms + Prometheus.

A :class:`Histogram` over **fixed log-spaced buckets** summarizes a
latency distribution in constant space: counts are exact over the whole
uptime, merging is element-wise addition, and the shape is precisely
what Prometheus' ``histogram_quantile`` expects.  The pool's
``/metrics`` ``phases`` summaries (:meth:`Histogram.summary`) are read
off the same histograms.

:func:`render_prometheus` turns the service's ``/metrics`` JSON snapshot
into the Prometheus text exposition format (version 0.0.4), so standard
scrapers point at ``GET /metrics?format=prometheus`` unchanged.
:func:`parse_prometheus` is the strict reader the tests and the
observability CI gate use to prove the exposition actually parses.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "DEFAULT_BUCKETS_S",
    "Histogram",
    "render_prometheus",
    "parse_prometheus",
]

#: Fixed log-spaced latency bounds (seconds): 1-2.5-5 per decade from
#: 100 µs to 50 s.  Fixed — not adaptive — so histograms from any two
#: nodes, runs or versions are mergeable bucket-by-bucket.
DEFAULT_BUCKETS_S: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005,
    0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05,
    0.1, 0.25, 0.5,
    1.0, 2.5, 5.0,
    10.0, 25.0, 50.0,
)


class Histogram:
    """A cumulative-bucket latency histogram (Prometheus semantics).

    ``counts[i]`` is the number of observations ``<= bounds[i]``;
    observations beyond the last bound only land in the implicit
    ``+Inf`` bucket (``count``).  Thread-safety is the caller's
    department — the pool mutates its histograms under the pool lock,
    like every other stat.
    """

    __slots__ = ("bounds", "counts", "count", "sum_s", "max_s")

    def __init__(self, bounds: Iterable[float] = DEFAULT_BUCKETS_S) -> None:
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        if not self.bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError("bucket bounds must be strictly increasing")
        self.counts: List[int] = [0] * len(self.bounds)
        self.count = 0
        self.sum_s = 0.0
        #: the largest observation, exact (not a bucket bound).
        self.max_s = 0.0

    def observe(self, value_s: float) -> None:
        value_s = max(float(value_s), 0.0)
        self.count += 1
        self.sum_s += value_s
        if value_s > self.max_s:
            self.max_s = value_s
        index = bisect_left(self.bounds, value_s)
        for i in range(index, len(self.counts)):
            self.counts[i] += 1

    def merge(self, other: "Histogram | Dict[str, Any]") -> None:
        """Element-wise addition (same bounds required); ``max_s`` is
        the larger of the two."""
        if isinstance(other, dict):
            other = Histogram.from_dict(other)
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different "
                             "bucket bounds")
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.count += other.count
        self.sum_s += other.sum_s
        self.max_s = max(self.max_s, other.max_s)

    def quantile(self, q: float) -> float:
        """An upper-bound estimate of the ``q``-quantile (the smallest
        bucket bound covering it); ``inf`` when it falls past the last
        bound, ``0.0`` when empty."""
        if not self.count:
            return 0.0
        target = math.ceil(q * self.count)
        for bound, cumulative in zip(self.bounds, self.counts):
            if cumulative >= target:
                return bound
        return math.inf

    def summary(self) -> Dict[str, Any]:
        """The ``/metrics`` phase summary: count, total and mean, and
        p50/p95/max in milliseconds.  A percentile is its bucket's upper
        bound, capped at the exact maximum, so ``max >= p95 >= p50``."""
        if not self.count:
            return {"count": 0, "total_s": 0.0, "mean_ms": 0.0,
                    "p50_ms": 0.0, "p95_ms": 0.0, "max_ms": 0.0}
        return {
            "count": self.count,
            "total_s": round(self.sum_s, 6),
            "mean_ms": round(self.sum_s / self.count * 1000, 3),
            "p50_ms": round(min(self.quantile(0.50), self.max_s) * 1000, 3),
            "p95_ms": round(min(self.quantile(0.95), self.max_s) * 1000, 3),
            "max_ms": round(self.max_s * 1000, 3),
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "buckets": [[bound, count] for bound, count
                        in zip(self.bounds, self.counts)],
            "count": self.count,
            "sum_s": round(self.sum_s, 9),
            "max_s": round(self.max_s, 9),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Histogram":
        buckets = data.get("buckets") or []
        hist = cls([bound for bound, _count in buckets]
                   if buckets else DEFAULT_BUCKETS_S)
        for i, (_bound, count) in enumerate(buckets):
            hist.counts[i] = int(count)
        hist.count = int(data.get("count", 0))
        hist.sum_s = float(data.get("sum_s", 0.0))
        hist.max_s = float(data.get("max_s", 0.0))
        return hist

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram(count={self.count}, sum_s={self.sum_s:.6f})"


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_OK = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(*parts: str) -> str:
    """Join path components into a legal Prometheus metric name."""
    name = "_".join(_NAME_OK.sub("_", part).strip("_")
                    for part in parts if part)
    if name and name[0].isdigit():
        name = "_" + name
    return name


def _escape_label(value: Any) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"') \
        .replace("\n", "\\n")


def _fmt(value: Any) -> str:
    number = float(value)
    if number == math.inf:
        return "+Inf"
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


class _Exposition:
    def __init__(self) -> None:
        self.lines: List[str] = []
        self._typed: set = set()

    def add(self, name: str, value: Any, labels: Optional[Dict[str, Any]]
            = None, kind: str = "gauge", help_: Optional[str] = None
            ) -> None:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            if kind == "histogram" and name.endswith(suffix):
                family = name[:-len(suffix)]
        if family not in self._typed:
            self._typed.add(family)
            if help_:
                self.lines.append(f"# HELP {family} {help_}")
            self.lines.append(f"# TYPE {family} {kind}")
        label_text = ""
        if labels:
            inner = ",".join(f'{_LABEL_OK.sub("_", str(k))}='
                             f'"{_escape_label(v)}"'
                             for k, v in sorted(labels.items()))
            label_text = "{" + inner + "}"
        self.lines.append(f"{name}{label_text} {_fmt(value)}")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _add_histogram(out: _Exposition, family: str,
                   labels: Dict[str, Any], data: Dict[str, Any],
                   help_: str) -> None:
    for bound, count in data.get("buckets", []):
        out.add(f"{family}_bucket", count,
                labels={**labels, "le": _fmt(bound)},
                kind="histogram", help_=help_)
    out.add(f"{family}_bucket", data.get("count", 0),
            labels={**labels, "le": "+Inf"}, kind="histogram", help_=help_)
    out.add(f"{family}_sum", data.get("sum_s", 0.0),
            labels=labels, kind="histogram", help_=help_)
    out.add(f"{family}_count", data.get("count", 0),
            labels=labels, kind="histogram", help_=help_)


def render_prometheus(metrics: Dict[str, Any],
                      namespace: str = "repro") -> str:
    """The service ``/metrics`` snapshot as Prometheus text exposition.

    Known sections get idiomatic shapes — per-phase histograms as native
    Prometheus histograms, ``by_status``/queue depth as labeled series —
    and every other numeric leaf is flattened to
    ``<namespace>_<path_to_leaf>`` so new counters surface without
    touching this renderer.
    """
    out = _Exposition()

    histograms = metrics.get("histograms") or {}
    for phase in sorted(histograms):
        _add_histogram(out, _metric_name(namespace, "phase_seconds"),
                       {"phase": phase}, histograms[phase],
                       help_="Per-phase job latency (seconds), fixed "
                             "log-spaced buckets.")

    jobs = metrics.get("jobs") or {}
    for status, count in sorted((jobs.get("by_status") or {}).items()):
        out.add(_metric_name(namespace, "jobs_by_status"), count,
                labels={"status": status},
                help_="Completed jobs by terminal status.")

    queue = metrics.get("queue") or {}
    for state, depth in sorted(queue.items()):
        if state == "total":
            continue
        out.add(_metric_name(namespace, "queue_depth"), depth,
                labels={"state": state},
                help_="Queue rows by state.")

    counters = metrics.get("counters") or {}
    for name in sorted(counters):
        out.add(_metric_name(namespace, "counter", name, "total"),
                counters[name], kind="counter",
                help_=None)

    skip = {"histograms", "phases", "counters"}
    flat_jobs = {k: v for k, v in jobs.items() if k != "by_status"}
    flat_queue: Dict[str, Any] = {}

    def flatten(prefix: Tuple[str, ...], value: Any) -> None:
        if isinstance(value, dict):
            for key in sorted(value):
                flatten(prefix + (str(key),), value[key])
        elif isinstance(value, (int, float)) \
                and not isinstance(value, bool):
            out.add(_metric_name(namespace, *prefix), value)

    for section in sorted(metrics):
        if section in skip:
            continue
        value = metrics[section]
        if section == "jobs":
            value = flat_jobs
        elif section == "queue":
            value = flat_queue  # depths were emitted with labels above
        flatten((section,), value)
    return out.text()


_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(\{([^}]*)\})?"
    r"\s+(-?(?:[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?|\+Inf|-Inf|NaN))"
    r"(\s+-?[0-9]+)?\s*$")
_LABEL_RE = re.compile(
    r'\s*([a-zA-Z_][a-zA-Z0-9_]*)\s*=\s*"((?:[^"\\]|\\.)*)"\s*(,|$)')


def parse_prometheus(text: str
                     ) -> List[Tuple[str, Dict[str, str], float]]:
    """A strict parser for the exposition subset we emit: returns
    ``(name, labels, value)`` samples, raising :class:`ValueError` with
    the offending line on any syntax error.  Exists so the tests and the
    CI gate can assert 'a standard scraper would accept this'."""
    samples: List[Tuple[str, Dict[str, str], float]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                raise ValueError(f"line {lineno}: bad comment {line!r}")
            if parts[1] == "TYPE" and parts[3].split()[0] not in (
                    "counter", "gauge", "histogram", "summary", "untyped"):
                raise ValueError(f"line {lineno}: bad TYPE {line!r}")
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: bad sample {line!r}")
        name, _braced, label_text, value = match.group(1, 2, 3, 4)
        labels: Dict[str, str] = {}
        if label_text:
            position = 0
            while position < len(label_text):
                label_match = _LABEL_RE.match(label_text, position)
                if label_match is None:
                    raise ValueError(
                        f"line {lineno}: bad labels {label_text!r}")
                raw = label_match.group(2)
                labels[label_match.group(1)] = raw \
                    .replace("\\n", "\n").replace('\\"', '"') \
                    .replace("\\\\", "\\")
                position = label_match.end()
        if value == "+Inf":
            number = math.inf
        elif value == "-Inf":
            number = -math.inf
        elif value == "NaN":
            number = math.nan
        else:
            number = float(value)
        samples.append((name, labels, number))
    return samples
