from pathlib import Path

import pytest
from hypothesis import settings

from trendcomp.data import DoseGroupData
from trendcomp.model import ModelFit

DATA_DIR = Path(__file__).parent / "data"

# Every run draws the same examples, so the suite's wall time and outcome
# are the same from run to run; @example cases and max_examples stay as set.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance summary")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


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
