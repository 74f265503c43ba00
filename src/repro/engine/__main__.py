"""Module entry point for ``python -m repro.engine``.

Dispatches to :mod:`repro.engine.cli`, which inspects a persistent
result-cache store (``inspect``: its entry and version census).
"""

from repro.engine.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
