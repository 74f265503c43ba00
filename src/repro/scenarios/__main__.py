"""Module entry point for ``python -m repro.scenarios``.

Dispatches to :mod:`repro.scenarios.cli`: browse the scenario library
(``list``/``describe``), run one scenario's three-machine comparison
(``run``), or drive the campaign matrix (``matrix``, with ``--resume``).
"""

from repro.obs.logging import run_cli
from repro.scenarios.cli import main

if __name__ == "__main__":
    raise SystemExit(run_cli(main))
