"""The shared entry-point wrapper of every ``python -m repro.*`` CLI.

Every entry point runs its ``main`` through :func:`run_cli`, so a reader
that stops reading stdout (``... | head``) ends the command quietly.
"""

from __future__ import annotations

import os
import sys
from typing import Callable

__all__ = ["run_cli"]


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
