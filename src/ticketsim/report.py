"""Report rows and bit-stable emission to CSV or JSON lines.

Reals are rendered at 17 significant digits so files round-trip exactly and
diff cleanly across platforms. The resolved configuration (and any verdicts)
are embedded in the artifact: CSV carries them as leading '#' comment lines,
JSONL as typed records before the rows.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple, Optional, Union

COLUMNS = (
    "swept_value",
    "closed_form",
    "mc_mean",
    "mc_stderr",
    "z_score",
    "rel_err",
    "trials",
    "runtime_ms",
)


class ReportRow(NamedTuple):
    """One comparison row: a closed form against an independent estimate.

    ``mc_mean``/``mc_stderr`` hold the Monte Carlo estimate where one was
    run (trials > 0) and the series-oracle value otherwise. ``rel_err`` is
    a gap to the closed form: of the oracle in a ``check`` row, of the
    estimate in an ``estimate`` row. ``harness`` states which command
    writes rows of which mode, and from which table entries.
    """

    swept_value: Union[str, float, int]
    closed_form: float
    mc_mean: float
    mc_stderr: float
    z_score: float
    rel_err: float
    trials: int
    runtime_ms: float = 0.0


def make_row(swept_value, closed_form: float, mc_mean: float, mc_stderr: float, trials: int,
             rel_err: float) -> ReportRow:
    """Build a row, deriving the z-score (0 when the estimate is exact)."""
    z = (mc_mean - closed_form) / mc_stderr if mc_stderr > 0.0 else 0.0
    return ReportRow(swept_value, closed_form, mc_mean, mc_stderr, z, rel_err, trials)


def relative_gap(value: float, reference: float) -> float:
    """|value - reference| relative to the reference (absolute when it is 0)."""
    gap = abs(value - reference)
    return gap / abs(reference) if reference != 0.0 else gap


def render_real(x: float) -> str:
    return format(float(x), ".17g")


def _render_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, int):
        return str(value)
    return render_real(value)


def emit_report(
    rows,
    fmt: str,
    path,
    config: Optional[dict] = None,
    verdicts: Optional[dict] = None,
) -> None:
    """Write rows to ``path``; byte-identical output for identical inputs."""
    if not rows:
        raise ValueError("refusing to emit an empty report")
    if fmt == "csv":
        import csv
        with open(path, "w", newline="") as fh:
            if config is not None:
                fh.write(f"# config={json.dumps(config, sort_keys=True, separators=(',', ':'))}\n")
            if verdicts:
                for name in sorted(verdicts):
                    fh.write(f"# verdict {name}={str(verdicts[name]).lower()}\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(COLUMNS)
            for row in rows:
                writer.writerow([_render_cell(getattr(row, col)) for col in COLUMNS])
    elif fmt == "jsonl":
        with open(path, "w", newline="") as fh:
            if config is not None:
                fh.write(json.dumps({"type": "config", "config": config}, sort_keys=True) + "\n")
            if verdicts:
                for name in sorted(verdicts):
                    fh.write(
                        json.dumps({"type": "verdict", "name": name, "passed": verdicts[name]})
                        + "\n"
                    )
            for row in rows:
                record = {"type": "row"}
                for col in COLUMNS:
                    value = getattr(row, col)
                    record[col] = value if not isinstance(value, float) or math.isfinite(value) else str(value)
                fh.write(json.dumps(record, sort_keys=True) + "\n")
    else:
        raise ValueError(f"unknown report format: {fmt!r}")


def load_report(path) -> tuple[list[ReportRow], Optional[dict], dict]:
    """Read a JSONL report back into (rows, config, verdicts)."""
    rows: list[ReportRow] = []
    config: Optional[dict] = None
    verdicts: dict = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            kind = record.get("type")
            if kind == "config":
                config = record["config"]
            elif kind == "verdict":
                verdicts[record["name"]] = record["passed"]
            elif kind == "row":
                rows.append(
                    ReportRow(
                        swept_value=record["swept_value"],
                        closed_form=float(record["closed_form"]),
                        mc_mean=float(record["mc_mean"]),
                        mc_stderr=float(record["mc_stderr"]),
                        z_score=float(record["z_score"]),
                        rel_err=float(record["rel_err"]),
                        trials=int(record["trials"]),
                        runtime_ms=float(record["runtime_ms"]),
                    )
                )
            else:
                raise ValueError(f"{path}: unknown record type {kind!r}")
    return rows, config, verdicts
