import os

import hypothesis
import pytest

hypothesis.settings.register_profile("fast", max_examples=10, deadline=None)
hypothesis.settings.register_profile("ci", max_examples=60, deadline=None,
                                    derandomize=True)
hypothesis.settings.register_profile("thorough", max_examples=400, deadline=None)
hypothesis.settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))

# Acceptance tests push one line each through this list; the terminal
# summary echoes them even when capture hides in-test prints.
_CRITERION_LINES = []


@pytest.fixture
def criterion_report():
    def report(number: int, ok: bool, detail: str) -> str:
        line = "[criterion %d] %s: %s" % (number, "PASS" if ok else "FAIL",
                                          detail)
        _CRITERION_LINES.append(line)
        print(line)
        return line
    return report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _CRITERION_LINES:
            terminalreporter.write_line(line)
