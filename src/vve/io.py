"""CSV ingestion and deterministic JSON/CSV report emission.

All numeric output is printed with 12 significant digits, and writers are
deterministic (sorted JSON keys, no timestamps), so re-running a command
with the same inputs produces byte-identical files.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import math
from io import StringIO
from pathlib import Path

import numpy as np

from .calibration import MarketSeries
from .errors import CsvParseError, DuplicateDate, NonPositiveClose
from .sde import PathEnsemble


def fmt(value) -> str:
    """Format a number with 12 significant digits."""
    return f"{float(value):.12g}"


def _round12(obj):
    """Recursively clamp floats to 12 significant digits for JSON output."""
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_round12(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if not math.isfinite(v) else float(f"{v:.12g}")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def dumps(obj) -> str:
    """``obj`` as the reports' JSON text: 12 significant digits, sorted keys."""
    return json.dumps(_round12(obj), indent=2, sort_keys=True)


def write_json(path, obj) -> None:
    Path(path).write_text(dumps(obj) + "\n")


def write_csv(path, header, rows) -> None:
    """Write rows of already-formatted strings under a header line."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# --------------------------------------------------------------------------
# Market data ingestion
# --------------------------------------------------------------------------

def ingest_csv(path) -> MarketSeries:
    """Read a (date, close) CSV into a validated, date-sorted MarketSeries.

    Schema: UTF-8, comma-delimited, header row ``date,close``, ISO-8601
    dates, positive decimal closes.  Rows are sorted ascending by date;
    duplicate dates are rejected.  Errors, an unreadable file's among them,
    report the offending row number or the reason.
    """
    path = Path(path)
    try:
        text = path.read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8
        raise CsvParseError(f"{path}: cannot read: {exc}") from None
    rows: list[tuple[dt.date, float]] = []
    with StringIO(text, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvParseError(f"{path}: empty file") from None
        if [h.strip().lower() for h in header[:2]] != ["date", "close"]:
            raise CsvParseError(f"{path}: expected header 'date,close', got {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < 2:
                raise CsvParseError(f"{path}:{lineno}: expected 2 columns, got {len(row)}")
            try:
                date = dt.date.fromisoformat(row[0].strip())
            except ValueError as exc:
                raise CsvParseError(f"{path}:{lineno}: column 1: {exc}") from None
            try:
                close = float(row[1])
            except ValueError:
                raise CsvParseError(
                    f"{path}:{lineno}: column 2: not a number: {row[1]!r}") from None
            if not math.isfinite(close) or close <= 0:
                raise NonPositiveClose(f"{path}:{lineno}: close must be > 0, got {row[1]}")
            rows.append((date, close))
    if len(rows) < 2:
        raise CsvParseError(f"{path}: need at least 2 data rows, got {len(rows)}")
    rows.sort(key=lambda r: r[0])
    for (d1, _), (d2, _) in zip(rows, rows[1:]):
        if d1 == d2:
            raise DuplicateDate(f"{path}: duplicate date {d1.isoformat()}")
    dates, closes = zip(*rows)
    return MarketSeries(dates=tuple(dates), closes=np.array(closes))


# --------------------------------------------------------------------------
# Ensemble export
# --------------------------------------------------------------------------

def ensemble_to_csv(ensemble: PathEnsemble, path) -> None:
    """One row per path; columns are the grid times.

    Values are written as ``fmt`` writes them, and any non-finite value,
    inf included, as ``nan``.
    """
    paths = ensemble.paths
    if not np.isfinite(paths).all():
        paths = np.where(np.isfinite(paths), paths, np.nan)
    row_format = ",".join(["%.12g"] * paths.shape[1]) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(fmt(t) for t in ensemble.grid.times) + "\n")
        fh.writelines(row_format % tuple(row) for row in paths.tolist())


def ensemble_summary(ensemble: PathEnsemble) -> dict:
    """Mean path (None where every path is NaN), terminal quantiles, exploded fraction."""
    paths = ensemble.paths
    terminal = paths[:, -1]
    finite = np.isfinite(terminal)
    quantiles = {}
    if finite.any():
        qs = np.quantile(terminal[finite], [0.05, 0.25, 0.5, 0.75, 0.95])
        quantiles = dict(zip(["q05", "q25", "q50", "q75", "q95"], qs.tolist()))
    # a column in which every path has exploded has no mean: null in JSON
    has_value = ~np.isnan(paths).all(axis=0)
    mean_path = np.full(paths.shape[1], None)
    mean_path[has_value] = np.nanmean(paths[:, has_value], axis=0)
    return {
        "scheme": ensemble.scheme,
        "seed": ensemble.seed,
        "n_paths": ensemble.n_paths,
        "steps": ensemble.grid.steps,
        "horizon": ensemble.grid.horizon,
        "mean_path": mean_path,
        "terminal_quantiles": quantiles,
        "exploded_fraction": ensemble.exploded_fraction,
    }
