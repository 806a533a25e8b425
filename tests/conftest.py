import logging

import pytest


@pytest.fixture(autouse=True)
def vscit_logger():
    """Undo what a test's in-process `main` did to the vscit logger: it sets the
    level under VSCIT_LOG and may add a handler, and both outlive the call."""
    logger = logging.getLogger("vscit")
    level, handlers = logger.level, logger.handlers[:]
    yield logger
    logger.setLevel(level)
    logger.handlers[:] = handlers


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
