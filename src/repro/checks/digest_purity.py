"""Digest-purity audit: every ``RunResult`` field is deliberately classified.

``result_digest`` hashes the frozen pre-energy field set; ``energy_digest``
hashes *everything else* except the explicitly excluded fast-path
observability counters.  That complement rule is what lets observation-only
fields ride along without moving pinned timing digests — and it is also a
trap: a new counter added without thought lands in the energy digest by
default, and if its value depends on how the run was simulated (cache warm
vs. cold, process partitioning) it silently forks digests between hosts.

The committed classification (``src/repro/checks/snapshots/digest_fields.json``)
is therefore hand-maintained, not generated: adding a ``RunResult`` field
forces the author to say which class it belongs to —

* ``timing`` — hashed by ``result_digest`` (the frozen pre-energy set; this
  set must never grow),
* ``energy`` — hashed by ``energy_digest`` (deterministic activity counts),
* ``excluded`` — hashed by neither, ``compare=False`` (how the run was
  simulated, not what the machine did),
* ``process-dependent`` — excluded *and* reset by the result cache before
  persisting (``RunResult.PROCESS_DEPENDENT_FIELDS``).

The rule then cross-checks the classification against the live dataclass:
membership of the digest field tuples, ``compare=`` flags and the
process-dependent reset list must all agree with the recorded class.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Iterator

from repro.checks.findings import Finding
from repro.checks.registry import Rule, register
from repro.checks.source import repo_root

__all__ = [
    "CLASSIFICATION_PATH",
    "DIGEST_PURITY",
    "VALID_CLASSES",
    "check_classification",
    "load_classification",
]

DIGEST_PURITY = "digest-purity"

CLASSIFICATION_PATH = Path(__file__).resolve().parent / "snapshots" / "digest_fields.json"

VALID_CLASSES = ("timing", "energy", "excluded", "process-dependent")


def load_classification(path: Path | None = None) -> dict[str, str] | None:
    """The committed field classification, or ``None`` when missing."""
    path = path if path is not None else CLASSIFICATION_PATH
    if not path.exists():
        return None
    data = json.loads(path.read_text(encoding="utf-8"))
    return dict(data.get("fields", {}))


def _result_anchor() -> tuple[str, int]:
    """Repo-relative path and line of the ``RunResult`` class definition."""
    metrics_path = repo_root() / "src" / "repro" / "analysis" / "metrics.py"
    try:
        text = metrics_path.read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), 1):
            if re.match(r"class RunResult\b", line):
                return "src/repro/analysis/metrics.py", lineno
    except OSError:
        pass
    return "src/repro/analysis/metrics.py", 0


def check_classification(
    classification: dict[str, str] | None = None,
) -> Iterator[Finding]:
    """Audit the classification against the live ``RunResult`` dataclass."""
    from dataclasses import fields

    from repro.analysis.digests import (
        FAST_PATH_OBSERVABILITY_FIELDS,
        TIMING_DIGEST_FIELDS,
    )
    from repro.analysis.metrics import RunResult

    if classification is None:
        classification = load_classification()
    path, line = _result_anchor()

    if classification is None:
        yield Finding(
            rule=DIGEST_PURITY,
            path=path,
            line=line,
            message=(
                "no committed digest-field classification "
                "(src/repro/checks/snapshots/digest_fields.json is missing)"
            ),
        )
        return

    declared = {spec.name: spec for spec in fields(RunResult)}

    for name, klass in sorted(classification.items()):
        if klass not in VALID_CLASSES:
            yield Finding(
                rule=DIGEST_PURITY,
                path=path,
                line=line,
                message=(
                    f"digest_fields.json classifies {name!r} as {klass!r}; "
                    f"valid classes are {', '.join(VALID_CLASSES)}"
                ),
            )
        if name not in declared:
            yield Finding(
                rule=DIGEST_PURITY,
                path=path,
                line=line,
                message=(
                    f"digest_fields.json classifies {name!r}, which is not a "
                    "RunResult field; remove the stale entry"
                ),
            )

    for name, spec in declared.items():
        klass = classification.get(name)
        if klass is None:
            yield Finding(
                rule=DIGEST_PURITY,
                path=path,
                line=line,
                message=(
                    f"new RunResult field {name!r} is not classified; add it to "
                    "src/repro/checks/snapshots/digest_fields.json as timing/"
                    "energy/excluded/process-dependent (and bump "
                    "FINGERPRINT_VERSION — the schema guard will insist)"
                ),
            )
            continue
        in_timing = name in TIMING_DIGEST_FIELDS
        in_excluded = name in FAST_PATH_OBSERVABILITY_FIELDS
        process_dependent = name in RunResult.PROCESS_DEPENDENT_FIELDS
        compares = spec.compare

        if klass == "timing":
            if not in_timing:
                yield Finding(
                    rule=DIGEST_PURITY,
                    path=path,
                    line=line,
                    message=(
                        f"{name!r} is classified 'timing' but is missing from "
                        "TIMING_DIGEST_FIELDS — the timing digest set is frozen "
                        "and must never grow; reclassify the field"
                    ),
                )
        elif in_timing:
            yield Finding(
                rule=DIGEST_PURITY,
                path=path,
                line=line,
                message=(
                    f"{name!r} is in TIMING_DIGEST_FIELDS but classified "
                    f"{klass!r}; the classes must agree"
                ),
            )

        if klass in ("excluded", "process-dependent"):
            if not in_excluded:
                yield Finding(
                    rule=DIGEST_PURITY,
                    path=path,
                    line=line,
                    message=(
                        f"{name!r} is classified {klass!r} but is hashed by the "
                        "energy digest; add it to FAST_PATH_OBSERVABILITY_FIELDS "
                        "or it will fork digests across simulation modes"
                    ),
                )
            if compares:
                yield Finding(
                    rule=DIGEST_PURITY,
                    path=path,
                    line=line,
                    message=(
                        f"{name!r} is classified {klass!r} but participates in "
                        "RunResult equality; declare it with "
                        "field(..., compare=False)"
                    ),
                )
        else:
            if in_excluded:
                yield Finding(
                    rule=DIGEST_PURITY,
                    path=path,
                    line=line,
                    message=(
                        f"{name!r} is in FAST_PATH_OBSERVABILITY_FIELDS but "
                        f"classified {klass!r}; the classes must agree"
                    ),
                )
            if not compares:
                yield Finding(
                    rule=DIGEST_PURITY,
                    path=path,
                    line=line,
                    message=(
                        f"{name!r} is compare=False but classified {klass!r}; "
                        "digest-hashed fields must participate in equality"
                    ),
                )

        if klass == "process-dependent" and not process_dependent:
            yield Finding(
                rule=DIGEST_PURITY,
                path=path,
                line=line,
                message=(
                    f"{name!r} is classified 'process-dependent' but is missing "
                    "from RunResult.PROCESS_DEPENDENT_FIELDS, so the result "
                    "cache will not canonicalise it and two stores of the "
                    "same jobs can disagree byte-for-byte"
                ),
            )
        if process_dependent and klass != "process-dependent":
            yield Finding(
                rule=DIGEST_PURITY,
                path=path,
                line=line,
                message=(
                    f"{name!r} is in RunResult.PROCESS_DEPENDENT_FIELDS but "
                    f"classified {klass!r}; the classes must agree"
                ),
            )


def _check_project(root: Path) -> Iterator[Finding]:
    yield from check_classification()


register(
    Rule(
        rule_id=DIGEST_PURITY,
        description=(
            "every RunResult field must be explicitly classified as timing/"
            "energy/excluded/process-dependent, consistent with the digest sets"
        ),
        check_project=_check_project,
    )
)
