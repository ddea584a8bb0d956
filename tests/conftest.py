import random
import signal
from contextlib import contextmanager

import pytest

from navstruct.fixtures import plus_hub, straight_corridor


@pytest.fixture(scope="session")
def corridor():
    """12-square straight corridor with side walls and 2 open ends."""
    return straight_corridor(12)


@pytest.fixture(scope="session")
def hub():
    """Plus-shaped hub with 4 open arm ends."""
    return plus_hub(2)


@pytest.fixture()
def rng():
    return random.Random(20260823)


@contextmanager
def _time_limit(seconds):
    def expire(_signum, _frame):
        raise TimeoutError(f"took longer than {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture()
def time_limit():
    """`with time_limit(seconds):` fails, rather than hangs, when the block
    runs longer than `seconds` (SIGALRM, main thread only)."""
    return _time_limit
