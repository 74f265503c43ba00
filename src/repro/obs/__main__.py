"""Module entry point: ``python -m repro.obs``."""

from repro.obs.cli import main
from repro.obs.logging import run_cli

if __name__ == "__main__":
    raise SystemExit(run_cli(main))
