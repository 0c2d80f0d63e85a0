"""Fixtures shared by the test modules."""

import signal

import pytest

from obcast import discrimination, ensembles, reproduce
from obcast.reproduce import run_reproduce


@pytest.fixture(scope="session")
def counted_bruteforce_run():
    """The seed-42 ``prop-postinfo-bruteforce`` case run alone, once per session, with its solver work counted.

    Returns ``(report, counts, povms)``; ``counts`` holds the lockstep steps
    (``_pretty_good`` calls), the member-steps, the stacked ``_certify``
    calls and the exact certificates they make, and ``povms`` the ``Povm``
    objects built.  The trials run in one chunk, in this process, so the
    patches see all of the case's work.
    """
    counts = {"steps": 0, "member_steps": 0, "certify_calls": 0, "certified": 0}
    povms = [0]
    pretty_good, certify = discrimination._pretty_good, discrimination._certify
    povm_check = ensembles.Povm.__post_init__

    def counted_step(a):
        counts["steps"] += 1
        counts["member_steps"] += a.shape[0]
        return pretty_good(a)

    def counted_certify(m, p):
        counts["certify_calls"] += 1
        counts["certified"] += len(m)
        return certify(m, p)

    def counted_povm(povm):
        povms[0] += 1
        povm_check(povm)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(discrimination, "_pretty_good", counted_step)
        mp.setattr(discrimination, "_certify", counted_certify)
        mp.setattr(ensembles.Povm, "__post_init__", counted_povm)
        mp.setattr(reproduce, "_chunk_count", lambda: 1)
        [report] = run_reproduce(seed=42, only="prop-postinfo-bruteforce")
    return report, counts, povms[0]


@pytest.fixture
def deadline():
    """Fails a test that runs longer than 60 s in place of letting it hang on a child."""

    def expired(signum, frame):
        raise TimeoutError("waited more than 60 s on the brute-force case")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def one_chunk(monkeypatch):
    """The brute-force case's trials in one chunk, in this process, where patches that count its work see all of it."""
    monkeypatch.setattr(reproduce, "_chunk_count", lambda: 1)


@pytest.fixture
def barrier_rounds(monkeypatch):
    """(members, rows) of every ``_barrier_solve`` call, in call order: one per working-set round and size."""
    rows = []
    solve = discrimination._barrier_solve

    def counted(m, *args, **kwargs):
        rows.append(m.shape[:2])
        return solve(m, *args, **kwargs)

    monkeypatch.setattr(discrimination, "_barrier_solve", counted)
    return rows
