import logging

import pytest

# Text that is not an integer in the one form vscit reads (ASCII digits after an
# optional "-", ASCII whitespace around). int() reads the first five as one.
NOT_INTEGER_TEXT = [pytest.param(text, id=name) for text, name in [
    ("0_1", "underscore"), ("+1", "plus"), ("\u0662", "arabic-indic-digit"),
    ("1\x1c", "unit-separator"), ("\u00a01", "no-break-space"), ("\u00b9", "superscript"),
    (" 0x1", "hex"), ("1.0", "decimal-point"), ("1e0", "exponent"), ("--1", "two-signs"),
    ("", "empty"),
]]


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
