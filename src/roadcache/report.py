"""Result rows and their CSV/JSON wire formats.

Row values are quantized at construction (hit percentage and latency to
4 decimals, megabytes to 2), so emit followed by parse reproduces the
row exactly and repeated runs compare byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from .caching import Metrics
from .errors import DataFormatError

CSV_HEADER = "scheme,capacity,speed,hit_pct,mean_latency_ms,uplink_mb,downlink_mb,seed"
_COLUMNS = CSV_HEADER.split(",")
_CASTS = (str, int, float, float, float, float, float, int)   # per column, in order

_MB = float(2**20)


@dataclass(frozen=True)
class ReportRow:
    scheme: str
    capacity: int
    speed: float
    hit_pct: float
    mean_latency_ms: float
    uplink_mb: float
    downlink_mb: float
    seed: int

    @classmethod
    def build(cls, scheme: str, capacity: int, speed: float, seed: int,
              metrics: Metrics) -> "ReportRow":
        return cls(
            scheme=scheme,
            capacity=capacity,
            speed=float(speed),
            hit_pct=round(metrics.hit_pct(), 4),
            mean_latency_ms=round(metrics.mean_latency_ms(), 4),
            uplink_mb=round(metrics.uplink_bytes / _MB, 2),
            downlink_mb=round(metrics.downlink_bytes / _MB, 2),
            seed=seed,
        )


@dataclass
class Report:
    rows: list[ReportRow] = field(default_factory=list)


def emit_report(report: Report, fmt: str = "csv") -> bytes:
    if fmt == "csv":
        lines = [CSV_HEADER]
        for r in report.rows:
            lines.append(
                f"{r.scheme},{r.capacity},{r.speed!r},{r.hit_pct!r},"
                f"{r.mean_latency_ms!r},{r.uplink_mb!r},{r.downlink_mb!r},{r.seed}"
            )
        return ("\n".join(lines) + "\n").encode()
    if fmt == "json":
        payload = {"rows": [asdict(r) for r in report.rows]}
        return (json.dumps(payload, indent=2) + "\n").encode()
    raise ValueError(f"unknown report format {fmt!r}")


def _row(values, where: str) -> ReportRow:
    """The row ``values`` maps by column name, each value cast to its column's type."""
    try:
        return ReportRow(**{name: cast(values[name]) for name, cast in zip(_COLUMNS, _CASTS)})
    except (KeyError, TypeError, ValueError) as exc:   # a missing column, a non-object row
        raise DataFormatError(f"{where}: bad report row: {exc!r}") from None


def parse_report(blob: bytes, fmt: str = "csv") -> Report:
    text = blob.decode()
    rows: list[ReportRow] = []
    if fmt == "csv":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0] != CSV_HEADER:
            raise DataFormatError(f"bad report header: {lines[0] if lines else '(empty)'}")
        for lineno, line in enumerate(lines[1:], start=2):
            parts = line.split(",")
            if len(parts) != len(_COLUMNS):
                raise DataFormatError(f"expected {len(_COLUMNS)} columns", lineno)
            rows.append(_row(dict(zip(_COLUMNS, parts)), f"line {lineno}"))
        return Report(rows)
    if fmt == "json":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"bad JSON report: {exc}") from None
        entries = payload.get("rows", [])
        if not isinstance(entries, list):
            raise DataFormatError(f"a JSON report's rows must be a list, not {entries!r}")
        return Report([_row(entry, f"rows[{index}]") for index, entry in enumerate(entries)])
    raise ValueError(f"unknown report format {fmt!r}")
