import signal

import pytest

import brute


@pytest.fixture(scope="session")
def brute_elements_10k():
    return brute.elements_upto(10_000)


@pytest.fixture(scope="session")
def brute_set_10k(brute_elements_10k):
    return set(brute_elements_10k)


@pytest.fixture
def alarm():
    """Fail the test after 10 s instead of letting it hang."""
    def expire(signum, frame):
        raise TimeoutError("still running after 10 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 10)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)
