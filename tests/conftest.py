import ast
import io
import math
import tokenize
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from scipy.integrate import quad
from scipy.special import ndtr

from trendcomp import contrasts, mvn
from trendcomp.data import DoseGroupData
from trendcomp.model import ModelFit

DATA_DIR = Path(__file__).parent / "data"
SRC_DIR = Path(__file__).parent.parent / "src" / "trendcomp"

# Every run draws the same examples, so the suite's wall time and outcome
# are the same from run to run; @example cases and max_examples stay as set.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

ACCEPTANCE_LINES = []


def widen_brackets(patch, rows=None):
    """Widens to [0, 1], which settles nothing, the second-order brackets of ``contrasts._maxt_p``.

    Only families of ``rows`` rows are widened, or every family if
    ``rows`` is None.  ``_maxt_p`` brackets families of three or more rows
    only, and a bound that the sandwich leaves open and no bracket settles
    takes its exact value: the closed form of three rows or the
    quadrature of four or more.
    """
    bracket = contrasts._bracket

    def wide(m, p_raw, pair):
        if rows is not None and m != rows:
            return bracket(m, p_raw, pair)
        return np.zeros_like(p_raw), np.ones_like(p_raw)

    patch.setattr(contrasts, "_bracket", wide)


def closed_form(t, R):
    """The exact p of one to three rows, from the pieces ``contrasts._maxt_p`` runs.

    Row r of ``t`` holds bounds of table r, whose statistics have the
    correlation ``R[r]``; the result is shaped like ``t``.
    """
    t, m, p_raw, rho, pair = mvn._pair_tails(t, R)
    return mvn._inclusion_exclusion(m, t, p_raw, rho, pair)


def bracket(t, R):
    """The second-order ``(lower, upper)`` of ``contrasts._maxt_p``, each shaped like ``t``."""
    _, m, p_raw, _, pair = mvn._pair_tails(t, R)
    return mvn._bracket(m, p_raw, pair)


def code_lines(source: str) -> int:
    """Lines of ``source`` that hold code: no blank, comment-only or docstring line."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                if isinstance(first.value.value, str):
                    docstrings.update(range(first.lineno, first.end_lineno + 1))
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
              tokenize.ENCODING, tokenize.ENDMARKER}
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in layout:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance summary")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
    # the net code lines that ROADMAP aim 2 reports, by one definition
    counts = {path.name: code_lines(path.read_text()) for path in sorted(SRC_DIR.glob("*.py"))}
    terminalreporter.section("src code lines")
    terminalreporter.write_line(", ".join(f"{name} {n}" for name, n in counts.items()))
    terminalreporter.write_line(f"total {sum(counts.values())}")


@pytest.fixture
def record():
    """Append one [PASS]/[FAIL] line to the run summary, then assert."""

    def _record(ok: bool, label: str) -> None:
        line = f"[{'PASS' if ok else 'FAIL'}] {label}"
        ACCEPTANCE_LINES.append(line)
        print(line)
        assert ok, line

    return _record


@pytest.fixture(scope="session")
def liarozole() -> DoseGroupData:
    """Four-arm psoriasis trial counts used throughout as a worked example."""
    return DoseGroupData(
        labels=("0", "50", "75", "150"),
        n=[34, 35, 36, 34],
        y=[2, 6, 4, 13],
    )


@pytest.fixture(scope="session")
def liarozole_csv() -> str:
    return str(DATA_DIR / "liarozole.csv")


@pytest.fixture(scope="session")
def prefix_fit():
    """Slices a fit to its first groups, as the closed test reads segment {0..j}."""

    def _prefix(fit: ModelFit, groups: int) -> ModelFit:
        return ModelFit(
            fit.eta[..., :groups], fit.var_eta[..., :groups], fit.correction_applied[..., :groups]
        )

    return _prefix


def normal_density(z: float) -> float:
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


@pytest.fixture(scope="session")
def three_row_quad():
    """P(max(T_1, T_2, T_3) >= t) for T ~ N(0, R) of full rank, by nested ``quad``.

    The rows are ordered by a Cholesky factor whose first pair is the one
    of largest |rho|, which leaves the innermost normal CDF least steep.
    Both integrals run over [-9, 9] sds at ``epsabs`` 1e-13.  On 48 random
    correlations, some within 1e-4 of +-1, it agreed with the closed form
    of :func:`trendcomp.mvn._inclusion_exclusion` to 7e-13 at four bounds.  Where
    all three rows lie within about 1e-4 of one another, up to sign, it
    was off by up to 1.6e-10, so it is not used there.
    """

    def tail(t: float, R) -> float:
        i, j = np.triu_indices(3, 1)
        q = int(np.argmax(np.abs(R[i, j])))
        order = [i[q], j[q], 3 - i[q] - j[q]]
        L = np.linalg.cholesky(np.asarray(R)[np.ix_(order, order)])

        def inner(z1):
            top = min((t - L[1, 0] * z1) / L[1, 1], 9.0)
            if top <= -9.0:
                return 0.0
            last = lambda z2: normal_density(z2) * ndtr(
                (t - L[2, 0] * z1 - L[2, 1] * z2) / L[2, 2]
            )
            return quad(last, -9.0, top, epsabs=1e-13, epsrel=0.0, limit=200)[0]

        outer = lambda z1: normal_density(z1) * inner(z1)
        top = min(t, 9.0)
        # where the inner limit sweeps across its integrand's mass; a pair
        # near +-1 makes that ramp narrow enough for quad to miss
        ramp = [(t - c * L[1, 1]) / L[1, 0] for c in (-6.0, 0.0, 6.0)] if L[1, 0] else []
        points = [z for z in ramp if -9.0 < z < top] or None
        return 1.0 - quad(outer, -9.0, top, epsabs=1e-13, epsrel=0.0, limit=200, points=points)[0]

    return tail
