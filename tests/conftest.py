"""Fixtures every test module shares."""

import gc

import pytest


@pytest.fixture(autouse=True)
def unfreeze_collector():
    """Give the collector back what ``cli.main`` froze (see its docstring).

    Each in-process ``main`` leaves the whole heap of the test process outside
    the cyclic collector, the cyclic garbage pending at that moment included;
    unfrozen after each test, that garbage is collected, and a leaked file in a
    cycle still raises its ResourceWarning."""
    yield
    gc.unfreeze()
