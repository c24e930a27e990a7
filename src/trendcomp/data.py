"""Grouped binomial dose-response data and CSV input."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["DoseGroupData", "DataFormatError", "read_counts_csv"]

REQUIRED_COLUMNS = ("dose", "n", "responders")


class DataFormatError(ValueError):
    """Malformed input data; carries the offending 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class DoseGroupData:
    """Per-group sample sizes and responder counts.

    Index 0 is the control group; indices 1..k are the dose groups in
    increasing dose order.  The group order is the dose order and is never
    re-sorted downstream.
    """

    labels: tuple[str, ...]
    n: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        labels = tuple(str(lab) for lab in self.labels)
        n = _counts(self.n, "n")
        y = _counts(self.y, "y")
        if n.ndim != 1 or y.ndim != 1:
            raise ValueError("n and y must be one-dimensional")
        if not (len(labels) == n.size == y.size):
            raise ValueError("labels, n and y must have equal length")
        if len(labels) < 2:
            raise ValueError("need at least two groups (control plus one dose)")
        repeated = sorted({lab for lab in labels if labels.count(lab) > 1})
        if repeated:
            raise ValueError(f"dose label(s) {', '.join(map(repr, repeated))} used more than once")
        if np.any(n < 1):
            raise ValueError("every group size must be >= 1")
        if np.any(y < 0) or np.any(y > n):
            raise ValueError("responder counts must satisfy 0 <= y_i <= n_i")
        n.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "y", y)

    @property
    def n_groups(self) -> int:
        return len(self.labels)

    @property
    def k(self) -> int:
        """Number of dose groups (groups minus the control)."""
        return len(self.labels) - 1


def _counts(values, name: str) -> np.ndarray:
    """``values`` as int64; anything but integers and integral floats raises.

    Booleans raise too, also one inside a list of integers, which NumPy
    would otherwise cast to 0 or 1.
    """
    a = np.asarray(values)
    integral = a.dtype.kind in "iu" or (
        a.dtype.kind == "f" and np.all(np.isfinite(a) & (a == np.trunc(a)))
    )
    boolean = any(isinstance(v, (bool, np.bool_)) for v in np.asarray(values, dtype=object).flat)
    if boolean or not integral:
        raise ValueError(f"{name} must hold integers, got {values!r}")
    return np.asarray(a, dtype=np.int64)


def read_counts_csv(path: str | Path) -> DoseGroupData:
    """Read a headered CSV with columns ``dose,n,responders``.

    Rows are taken in file order as the dose order (control first) unless an
    optional numeric ``order`` column is present, in which case rows are
    stably sorted by it; its values must be finite.  Dose labels are opaque
    strings and are never sorted lexically.  Every row must have as many
    fields as the header, and no column may be named twice.  A row whose
    fields are all blank, such as ``,,``, is skipped like an empty line.
    """
    path = Path(path)
    try:
        # utf-8-sig drops the byte-order mark of spreadsheet "CSV UTF-8" exports
        fh = path.open(newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc.strerror or exc}") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataFormatError("empty file, expected a dose,n,responders header", line=1)
        fields = [f.strip().lower() for f in header]
        # unnamed columns, such as the one a trailing comma leaves, are never read
        repeated = sorted({f for f in fields if f and fields.count(f) > 1})
        if repeated:
            raise DataFormatError(f"column(s) {', '.join(repeated)} named more than once", line=1)
        missing = [c for c in REQUIRED_COLUMNS if c not in fields]
        if missing:
            raise DataFormatError(f"missing column(s) {', '.join(missing)}", line=1)
        has_order = "order" in fields
        rows = []
        for values in reader:
            if not any(v.strip() for v in values):
                continue  # blank line, or a row of empty fields as spreadsheets write
            line = reader.line_num
            if len(values) != len(fields):
                raise DataFormatError(
                    f"row has {len(values)} fields but the header has {len(fields)}", line=line
                )
            record = dict(zip(fields, values))
            dose = record["dose"].strip()
            if not dose:
                raise DataFormatError("empty dose label", line=line)
            try:
                n_i = int(record["n"])
                y_i = int(record["responders"])
            except ValueError:
                raise DataFormatError(
                    f"non-integer n or responders in row for dose {dose!r}", line=line
                ) from None
            if n_i < 1:
                raise DataFormatError(f"group size must be >= 1, got {n_i}", line=line)
            if not 0 <= y_i <= n_i:
                raise DataFormatError(
                    f"responders must be between 0 and n, got {y_i} of {n_i}", line=line
                )
            order_val = 0.0
            if has_order:
                try:
                    order_val = float(record["order"])
                except ValueError:
                    raise DataFormatError("non-numeric order value", line=line) from None
                if not math.isfinite(order_val):
                    raise DataFormatError(
                        f"order value must be finite, got {order_val}", line=line
                    )
            rows.append((order_val, dose, n_i, y_i))
    if len(rows) < 2:
        raise DataFormatError("need at least two data rows (control plus one dose)")
    if has_order:
        rows.sort(key=lambda r: r[0])
    labels = tuple(r[1] for r in rows)
    return DoseGroupData(
        labels=labels,
        n=np.array([r[2] for r in rows], dtype=np.int64),
        y=np.array([r[3] for r in rows], dtype=np.int64),
    )
