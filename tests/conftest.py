import logging

import pytest


@pytest.fixture
def trace(caplog):
    """Call a function with the vscit logger at DEBUG; return its result and
    the IterationRecords it logged, in order."""

    def run(fn, *args, **kwargs):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="vscit"):
            result = fn(*args, **kwargs)
        return result, tuple(r.args[0] for r in caplog.records
                             if r.name == "vscit" and r.levelno == logging.DEBUG)

    return run
