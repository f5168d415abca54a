import signal

import pytest
from hypothesis import settings

from beurling import rational_primes

# one fixed profile for every property test: the same examples on every run,
# a bounded number of them, and no per-example deadline on a shared host
settings.register_profile("beurling", derandomize=True, max_examples=50, deadline=None)
settings.load_profile("beurling")


@pytest.fixture(scope="session")
def rp1e4():
    return rational_primes(10**4)


@pytest.fixture(scope="session")
def rp1e5():
    return rational_primes(10**5)


@pytest.fixture(scope="session")
def rp1e6():
    return rational_primes(10**6)


class Hung(Exception):
    """Raised by the `alarm` fixture; not an OSError, which the CLI reports as exit 1."""


@pytest.fixture
def alarm():
    """Fail a test that runs past 30 s instead of hanging the suite."""

    def hung(signum, frame):
        raise Hung("the test did not finish within 30 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
