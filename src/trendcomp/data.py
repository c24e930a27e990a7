"""Grouped binomial dose-response data and CSV input."""

from __future__ import annotations

import csv
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
    """``values`` as int64; anything but integers and integral floats raises."""
    a = np.asarray(values)
    if a.dtype.kind not in "iu" and not (
        a.dtype.kind == "f" and np.all(np.isfinite(a) & (a == np.trunc(a)))
    ):
        raise ValueError(f"{name} must hold integers, got {values!r}")
    return np.asarray(a, dtype=np.int64)


def read_counts_csv(path: str | Path) -> DoseGroupData:
    """Read a headered CSV with columns ``dose,n,responders``.

    Rows are taken in file order as the dose order (control first) unless an
    optional numeric ``order`` column is present, in which case rows are
    stably sorted by it.  Dose labels are opaque strings and are never
    sorted lexically.
    """
    path = Path(path)
    try:
        fh = path.open(newline="", encoding="utf-8")
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc.strerror or exc}") from exc
    with fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataFormatError("empty file, expected a dose,n,responders header", line=1)
        fields = [f.strip().lower() for f in reader.fieldnames]
        missing = [c for c in REQUIRED_COLUMNS if c not in fields]
        if missing:
            raise DataFormatError(f"missing column(s) {', '.join(missing)}", line=1)
        has_order = "order" in fields
        rows = []
        for record in reader:
            line = reader.line_num
            record = {(k.strip().lower() if k else k): v for k, v in record.items()}
            dose = (record.get("dose") or "").strip()
            if not dose:
                raise DataFormatError("empty dose label", line=line)
            try:
                n_i = int(str(record.get("n", "")).strip())
                y_i = int(str(record.get("responders", "")).strip())
            except (TypeError, ValueError):
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
                    order_val = float(str(record.get("order", "")).strip())
                except (TypeError, ValueError):
                    raise DataFormatError("non-numeric order value", line=line) from None
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
