import pytest
from hypothesis import HealthCheck, settings

from support import two_type_env

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=100,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def pytest_terminal_summary(terminalreporter):
    """Print the acceptance verdicts that test_acceptance.py records.

    A line written from inside a test is captured unless pytest runs with
    ``-s``; the summary is written after capture ends, so it always shows.
    """
    verdicts = [
        value
        for outcome in ("passed", "failed")
        for report in terminalreporter.stats.get(outcome, ())
        for key, value in report.user_properties
        if key == "acceptance"
    ]
    if verdicts:
        terminalreporter.section("acceptance")
        for line in sorted(verdicts, key=lambda line: int(line.split()[1])):
            terminalreporter.write_line(line)


@pytest.fixture
def p08():
    return two_type_env()


@pytest.fixture
def p08_noiseless():
    return two_type_env(sigma=0.0)
