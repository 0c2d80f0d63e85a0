"""Fixtures shared by the test modules."""

import pytest

from obcast import discrimination
from obcast.reproduce import run_reproduce


@pytest.fixture(scope="session")
def counted_bruteforce_run():
    """The seed-42 ``prop-postinfo-bruteforce`` case run alone, once per session, with its solver work counted.

    Returns ``(report, counts)``; ``counts`` holds the lockstep steps
    (``_pretty_good`` calls), the member-steps and the exact ``_certify`` calls.
    """
    counts = {"steps": 0, "member_steps": 0, "certified": 0}
    pretty_good, certify = discrimination._pretty_good, discrimination._certify

    def counted_step(a):
        counts["steps"] += 1
        counts["member_steps"] += a.shape[0]
        return pretty_good(a)

    def counted_certify(m, p):
        counts["certified"] += 1
        return certify(m, p)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(discrimination, "_pretty_good", counted_step)
        mp.setattr(discrimination, "_certify", counted_certify)
        [report] = run_reproduce(seed=42, only="prop-postinfo-bruteforce")
    return report, counts


@pytest.fixture
def barrier_rounds(monkeypatch):
    """The row count of every ``_barrier_solve`` call, in call order: one per working-set round."""
    rows = []
    solve = discrimination._barrier_solve

    def counted(m, st):
        rows.append(len(m))
        return solve(m, st)

    monkeypatch.setattr(discrimination, "_barrier_solve", counted)
    return rows
