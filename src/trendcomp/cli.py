"""Command-line front door: single-dataset analysis and simulation studies.

Reports go to stdout, diagnostics to stderr.  Output carries no
timestamps or hostnames, so a rerun with the same inputs is
byte-identical.  Exit codes: 0 success, 2 input that cannot be parsed,
3 input that parses but cannot be analyzed numerically.
"""

from __future__ import annotations

import argparse
import json
import sys

from .contrasts import ContrastError
from .ctp import CtpResult, closed_analysis
from .data import DataFormatError, read_counts_csv
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

_PARSE_ERRORS = (DataFormatError,)
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


def _render_analysis_table(result: CtpResult) -> str:
    rows = _analysis_rows(result)
    labels = [f"{r['dose']} - {result.control_label}" for r in rows]
    label_w = max(len("comparison"), *(len(lab) for lab in labels))
    head_cols = ("dunnett", "williams", "ctp_pairwise", "ctp_williams")
    lines = ["  ".join(["comparison".ljust(label_w)] + [c.rjust(12) for c in head_cols])]
    for lab, row in zip(labels, rows):
        cells = [
            f"{row['dunnett']:.4f}",
            _NO_ENTRY if row["williams"] is None else f"{row['williams']:.4f}",
            f"{row['ctp_pairwise']:.4f}",
            f"{row['ctp_williams']:.4f}",
        ]
        lines.append("  ".join([lab.ljust(label_w)] + [c.rjust(12) for c in cells]))
    return "\n".join(lines) + "\n"


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
    lines = []
    header_k = None
    widths = None
    for res in results:
        sc = res.scenario
        k = sc.k
        if k != header_k:
            head = (
                ["scenario", "n", "pi"]
                + [f"D{i}" for i in range(1, k + 1)]
                + ["Da", f"W{k}", "Wa"]
                + [f"P{i}" for i in range(1, k + 1)]
                + ["Pa"]
                + [f"C{i}" for i in range(1, k + 1)]
                + ["Ca"]
            )
            block = [res2 for res2 in results if res2.scenario.k == k]
            widths = [
                max(
                    len(head[0]),
                    *(len(r.scenario.name) for r in block),
                ),
                max(len(head[1]), *(len(_join_num(r.scenario.n)) for r in block)),
                max(len(head[2]), *(len(_join_num(r.scenario.pi)) for r in block)),
            ] + [5] * (3 * k + 5)
            lines.append(
                "  ".join(
                    h.ljust(w) if i < 3 else h.rjust(w)
                    for i, (h, w) in enumerate(zip(head, widths))
                )
            )
            header_k = k
        rates = (
            [float(v) for v in res.rate_dunnett]
            + [res.rate_dunnett_any, res.rate_williams_top, res.rate_williams_any]
            + [float(v) for v in res.rate_ctp_pairwise]
            + [res.rate_ctp_pairwise_any]
            + [float(v) for v in res.rate_ctp_williams]
            + [res.rate_ctp_williams_any]
        )
        cells = [sc.name, _join_num(sc.n), _join_num(sc.pi)] + [f"{v:.3f}" for v in rates]
        lines.append(
            "  ".join(
                c.ljust(w) if i < 3 else c.rjust(w)
                for i, (c, w) in enumerate(zip(cells, widths))
            )
        )
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
    except _PARSE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except _NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        # config/argument-level rejection discovered past argparse
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    sys.stdout.write(report)
    return EXIT_OK
