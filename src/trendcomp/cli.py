"""Command-line front door: single-dataset analysis and simulation studies.

Reports go to stdout, diagnostics to stderr.  Output carries no
timestamps or hostnames, so a rerun with the same inputs is
byte-identical.  Exit codes: 0 success, 2 input that cannot be parsed,
3 input that parses but cannot be analyzed numerically.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

from .contrasts import ContrastError
from .ctp import CtpResult, closed_analysis
from .data import read_counts_csv
from .model import BoundaryCountError, NoInformationError
from .mvn import CorrelationError
from .simulate import SCHEMA_VERSION, load_study, run_study

__all__ = [
    "EXIT_OK",
    "EXIT_PARSE",
    "EXIT_NUMERIC",
    "cmd_analyze",
    "cmd_simulate",
    "main",
]

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NUMERIC = 3

_NUMERIC_ERRORS = (BoundaryCountError, NoInformationError, CorrelationError, ContrastError)

_NO_ENTRY = "..."


def _analysis_rows(result: CtpResult) -> list:
    """One mapping per dose row, in dose order; Williams only at the top dose.

    The Williams entry is the adjusted p of the family's highest-dose
    contrast row, the only one aligned with a single elementary
    hypothesis; lower rows pool several doses.
    """
    k = len(result.dose_labels)
    rows = []
    for i, dose in enumerate(result.dose_labels):
        rows.append(
            {
                "dose": dose,
                "dunnett": float(result.p_dunnett[i]),
                "williams": float(result.p_williams_rows[0]) if i == k - 1 else None,
                "ctp_pairwise": float(result.p_ctp_pairwise[i]),
                "ctp_williams": float(result.p_ctp_williams[i]),
            }
        )
    return rows


def _aligned(rows, text_columns: int, floor: int = 0) -> list:
    """``rows`` of cells as lines, each column as wide as its widest cell.

    The first ``text_columns`` columns are left-aligned; the others are
    right-aligned and at least ``floor`` wide.
    """
    widths = [max(map(len, column)) for column in zip(*rows)]
    widths[text_columns:] = [max(floor, w) for w in widths[text_columns:]]
    justify = [str.ljust] * text_columns + [str.rjust] * (len(widths) - text_columns)
    return ["  ".join(j(c, w) for j, c, w in zip(justify, cells, widths)) for cells in rows]


def _render_analysis_table(result: CtpResult) -> str:
    columns = ("dunnett", "williams", "ctp_pairwise", "ctp_williams")
    rows = [("comparison", *columns)]
    for row in _analysis_rows(result):
        ps = (_NO_ENTRY if row[c] is None else f"{row[c]:.4f}" for c in columns)
        rows.append((f"{row['dose']} - {result.control_label}", *ps))
    return "\n".join(_aligned(rows, 1, floor=12)) + "\n"


def _render_analysis_json(result: CtpResult) -> str:
    payload = {
        "control": result.control_label,
        "boundary_policy": result.boundary_policy,
        "correction_applied": [bool(b) for b in result.correction_applied],
        "rows": _analysis_rows(result),
        "williams_family": {
            "adjusted_rows": [float(p) for p in result.p_williams_rows],
            "global": float(result.p_williams_global),
        },
    }
    return json.dumps(payload, indent=2) + "\n"


def cmd_analyze(
    input_path: str, boundary_policy: str = "haldane", output_format: str = "table"
) -> str:
    """Run the closed analysis on a counts CSV and render the report."""
    result = closed_analysis(read_counts_csv(input_path), boundary_policy=boundary_policy)
    if output_format == "json":
        return _render_analysis_json(result)
    return _render_analysis_table(result)


def _render_study_table(results) -> str:
    """One header per run of scenarios with equal k, then a row per scenario.

    Every table of one k is aligned alike, over all its scenarios, even
    when runs of another k come between them.
    """
    tables = {}
    for res in results:
        sc, k = res.scenario, res.scenario.k
        if k not in tables:
            doses = range(1, k + 1)
            head = ["scenario", "n", "pi", *(f"D{i}" for i in doses), "Da", f"W{k}", "Wa"]
            tables[k] = [head + [*(f"P{i}" for i in doses), "Pa", *(f"C{i}" for i in doses), "Ca"]]
        rates = [
            *res.rate_dunnett, res.rate_dunnett_any, res.rate_williams_top, res.rate_williams_any,
            *res.rate_ctp_pairwise, res.rate_ctp_pairwise_any,
            *res.rate_ctp_williams, res.rate_ctp_williams_any,
        ]
        tables[k].append([sc.name, _join_num(sc.n), _join_num(sc.pi), *(f"{v:.3f}" for v in rates)])
    # the lines of each k's table in order: its header, then its rows
    aligned = {k: iter(_aligned(rows, 3)) for k, rows in tables.items()}
    heads = {k: next(lines) for k, lines in aligned.items()}
    lines = []
    for k, run in itertools.groupby(results, key=lambda res: res.scenario.k):
        lines += [heads[k], *(next(aligned[k]) for _ in run)]
    return "\n".join(lines) + "\n"


def _join_num(values) -> str:
    return ",".join(f"{v:g}" for v in values)


def _render_study_json(results) -> str:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "results": [res.to_dict() for res in results],
    }
    return json.dumps(payload, indent=2) + "\n"


def cmd_simulate(config_path: str, parallelism: int = 1, output_format: str = "table") -> str:
    """Run a study configuration and render the scenario rate table."""
    scenarios = load_study(config_path)
    results = run_study(scenarios, parallelism=parallelism)
    for res in results:
        print(
            f"{res.scenario.name}: {res.scenario.replicates} replicates "
            f"in {res.elapsed:.1f}s, "
            f"{res.scenario.replicates / max(res.elapsed, 1e-9):.0f} replicates/s "
            f"({res.n_boundary} boundary, "
            f"{res.n_degenerate} degenerate; maxT bounds settled by the sandwich "
            f"{res.n_sandwich}, by closed form or second-order bounds {res.n_second_order}, "
            f"integrated {res.n_integrated})",
            file=sys.stderr,
        )
    if output_format == "json":
        return _render_study_json(results)
    return _render_study_table(results)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trendcomp",
        description="Order-restricted comparisons of binomial proportions against a control.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="closed analysis of one counts CSV")
    p_an.add_argument("--input", required=True, help="CSV with dose,n,responders columns")
    p_an.add_argument("--boundary", choices=("haldane", "reject"), default="haldane")
    p_an.add_argument("--format", choices=("table", "json"), default="table")

    p_sim = sub.add_parser("simulate", help="run a scenario study configuration")
    p_sim.add_argument("--config", required=True, help="YAML/JSON study file")
    p_sim.add_argument("--parallelism", type=int, default=1)
    p_sim.add_argument("--format", choices=("table", "json"), default="table")
    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.command == "analyze":
            report = cmd_analyze(
                args.input, boundary_policy=args.boundary, output_format=args.format
            )
        else:
            if args.parallelism < 1:
                _PARSER.error("--parallelism must be >= 1")
            report = cmd_simulate(
                args.config, parallelism=args.parallelism, output_format=args.format
            )
    except _NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        # config/argument-level rejection discovered past argparse
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    sys.stdout.write(report)
    return EXIT_OK
