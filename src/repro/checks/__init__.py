"""Project-invariant static analysis (``python -m repro.checks``).

Every optimisation PR in this repo is gated on bit-identical golden digests,
and persistent result stores are served across runs and interpreter
sessions.  The invariants that make that safe — no unseeded or salted randomness, a
``FINGERPRINT_VERSION`` bump on every schema change, process-dependent
counters excluded from digests, frozen/round-trippable data-plane types —
used to live in reviewers' heads.  This subsystem enforces them mechanically:

* rule framework — registry (:mod:`repro.checks.registry`), per-finding
  source locations (:mod:`repro.checks.findings`), reasoned inline
  ``# repro: allow(<rule-id>) — <reason>`` suppressions
  (:mod:`repro.checks.suppressions`) and committed snapshots under
  ``src/repro/checks/snapshots/``;
* determinism lint (:mod:`repro.checks.determinism`) — AST rules against
  global/unseeded RNGs, builtin ``hash()``, wall-clock reads and unordered
  ``set``/``glob`` iteration;
* fingerprint-schema guard (:mod:`repro.checks.schema_guard`) — the live
  ``SimulationJob``/``RunResult`` schema versus a snapshot keyed by
  ``FINGERPRINT_VERSION``;
* digest-purity audit (:mod:`repro.checks.digest_purity`) — every
  ``RunResult`` field explicitly classified into the digest partition;
* serialization contracts (:mod:`repro.checks.contracts`) — the engine's
  data-plane types verified frozen and losslessly round-trippable by
  import-and-introspect.

The CI ``checks`` job runs ``python -m repro.checks`` and fails on any
unsuppressed finding or stale snapshot.
"""

from repro.checks.findings import Finding
from repro.checks.registry import Rule, all_rules, rule_ids
from repro.checks.runner import CheckReport, run_checks
from repro.checks.schema_guard import SnapshotError

__all__ = [
    "CheckReport",
    "Finding",
    "Rule",
    "SnapshotError",
    "all_rules",
    "rule_ids",
    "run_checks",
]
