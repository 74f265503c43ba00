"""Shared stdlib-logging setup for every ``python -m repro.*`` CLI.

One place defines the verbosity flags (``-v``/``--verbose``, ``-q``/
``--quiet``) and the handler/format they control, so the engine, obs,
scenarios and sensitivity CLIs behave identically: diagnostics go to a
``repro``-rooted logger on *stderr* (primary results stay on stdout, where
scripts and the CI greps read them).  Every entry point runs its ``main``
through :func:`run_cli`, so a reader that stops reading stdout (``... |
head``) ends the command quietly.

Default level is WARNING; each ``-v`` lowers it one step (INFO, then
DEBUG), each ``-q`` raises it (ERROR, then CRITICAL).  The engine's
``--heartbeat`` progress line logs at INFO on ``repro.engine`` and is
force-enabled by the CLIs that expose the flag.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from typing import IO, Callable

__all__ = [
    "add_logging_arguments",
    "configure_logging",
    "get_logger",
    "run_cli",
    "verbosity_from_args",
]

_ROOT_LOGGER = "repro"
_LEVELS = (logging.DEBUG, logging.INFO, logging.WARNING, logging.ERROR, logging.CRITICAL)
_DEFAULT_INDEX = _LEVELS.index(logging.WARNING)
_HANDLER_FLAG = "_repro_obs_handler"


def get_logger(name: str) -> logging.Logger:
    """The ``repro``-rooted logger for *name* (convenience passthrough)."""
    return logging.getLogger(name)


def add_logging_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``-v``/``-q`` verbosity flags to *parser*."""
    group = parser.add_argument_group("logging")
    group.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="more diagnostics on stderr (-v = info, -vv = debug)",
    )
    group.add_argument(
        "-q",
        "--quiet",
        action="count",
        default=0,
        help="fewer diagnostics on stderr (-q = errors only)",
    )


def verbosity_from_args(args: argparse.Namespace) -> int:
    """Net verbosity (``--verbose`` minus ``--quiet``) from parsed *args*."""
    return int(getattr(args, "verbose", 0)) - int(getattr(args, "quiet", 0))


def configure_logging(
    args: argparse.Namespace | None = None,
    *,
    verbosity: int | None = None,
    stream: IO[str] | None = None,
) -> logging.Logger:
    """Install (or retune) the shared stderr handler on the ``repro`` logger.

    Idempotent: repeated calls replace the handler this module installed
    rather than stacking duplicates, so tests and nested CLIs can call it
    freely.  Returns the configured root ``repro`` logger.
    """
    if verbosity is None:
        verbosity = verbosity_from_args(args) if args is not None else 0
    index = min(len(_LEVELS) - 1, max(0, _DEFAULT_INDEX - verbosity))
    logger = logging.getLogger(_ROOT_LOGGER)
    logger.setLevel(_LEVELS[index])
    for handler in list(logger.handlers):
        if getattr(handler, _HANDLER_FLAG, False):
            logger.removeHandler(handler)
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(logging.Formatter("[%(name)s] %(message)s"))
    setattr(handler, _HANDLER_FLAG, True)
    logger.addHandler(handler)
    # Diagnostics must not propagate into an application's root handlers too.
    logger.propagate = False
    return logger


def run_cli(main: Callable[[], int]) -> int:
    """Run a CLI's *main* and return its exit code.

    A reader that has closed the pipe (``... | head``) ends the command with
    exit code 1, as Python does on EPIPE, but without a traceback.
    """
    try:
        code = main()
        # Flush here, so a closed pipe is seen inside the try rather than in
        # the interpreter's final flush.
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull so the final flush cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code
