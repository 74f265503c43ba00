"""Tests for the project-invariant static analyzer (``repro.checks``).

Four rule families, each with positive (violating) and negative (clean)
fixtures; the suppression machinery; the snapshot round-trip; and the
regression the subsystem exists for — adding a ``RunResult`` field without a
``FINGERPRINT_VERSION`` bump must fail the schema guard.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.checks import run_checks
from repro.checks.cli import main as checks_main
from repro.checks.contracts import Contract, check_contracts, contract_registry
from repro.checks.determinism import (
    DET_BUILTIN_HASH,
    DET_GLOBAL_RANDOM,
    DET_UNORDERED_ITER,
    DET_UNSEEDED_RANDOM,
    DET_WALLCLOCK,
)
from repro.checks.digest_purity import check_classification, load_classification
from repro.checks.registry import all_rules
from repro.checks.schema_guard import (
    SnapshotError,
    check_schema,
    current_schema,
    load_snapshot,
    update_snapshot,
)

DET_RULES = [
    DET_BUILTIN_HASH,
    DET_GLOBAL_RANDOM,
    DET_UNORDERED_ITER,
    DET_UNSEEDED_RANDOM,
    DET_WALLCLOCK,
]


def scan(tmp_path: Path, source: str, rules: list[str] | None = None):
    """Write *source* as a module and run the (source) rules over it."""
    module = tmp_path / "fixture.py"
    module.write_text(source, encoding="utf-8")
    report = run_checks(paths=[module], rule_ids=rules or DET_RULES)
    return report


def finding_rules(report) -> list[str]:
    return [finding.rule for finding in report.findings]


# --------------------------------------------------------------------------
# determinism lint: positive fixtures
# --------------------------------------------------------------------------


def test_global_random_call_flagged(tmp_path):
    report = scan(tmp_path, "import random\nx = random.randint(0, 3)\n")
    assert finding_rules(report) == [DET_GLOBAL_RANDOM]
    assert report.findings[0].line == 2


def test_global_random_from_import_flagged(tmp_path):
    report = scan(tmp_path, "from random import shuffle\nshuffle([1, 2])\n")
    assert finding_rules(report) == [DET_GLOBAL_RANDOM]


def test_unseeded_random_flagged(tmp_path):
    report = scan(tmp_path, "import random\nrng = random.Random()\n")
    assert finding_rules(report) == [DET_UNSEEDED_RANDOM]


def test_system_random_flagged(tmp_path):
    report = scan(tmp_path, "import random\nrng = random.SystemRandom()\n")
    assert finding_rules(report) == [DET_UNSEEDED_RANDOM]


def test_builtin_hash_flagged(tmp_path):
    report = scan(tmp_path, "seed = hash('gcc')\n")
    assert finding_rules(report) == [DET_BUILTIN_HASH]


@pytest.mark.parametrize(
    "call",
    [
        "import time\nt = time.time()\n",
        "import os\nb = os.urandom(4)\n",
        "from datetime import datetime\nd = datetime.now()\n",
        "import uuid\nu = uuid.uuid4()\n",
    ],
)
def test_wallclock_flagged(tmp_path, call):
    report = scan(tmp_path, call)
    assert finding_rules(report) == [DET_WALLCLOCK]


@pytest.mark.parametrize(
    "loop",
    [
        "for x in {1, 2}:\n    pass\n",
        "names = {'a', 'b'}\nfor n in names:\n    pass\n",
        "values = [v for v in set([1, 2])]\n",
        "import glob\nfor p in glob.glob('*.json'):\n    pass\n",
        "import os\nfor p in os.listdir('.'):\n    pass\n",
        "from pathlib import Path\nfor p in Path('.').glob('*'):\n    pass\n",
    ],
)
def test_unordered_iteration_flagged(tmp_path, loop):
    report = scan(tmp_path, loop)
    assert DET_UNORDERED_ITER in finding_rules(report)


# --------------------------------------------------------------------------
# determinism lint: negative fixtures
# --------------------------------------------------------------------------


def test_seeded_random_clean(tmp_path):
    report = scan(
        tmp_path,
        "import random\nimport zlib\n"
        "rng = random.Random(7 ^ zlib.crc32(b'gcc'))\nx = rng.randint(0, 3)\n",
    )
    assert report.ok


def test_perf_counter_clean(tmp_path):
    # Duration measurement is legitimate; only absolute wall-clock is flagged.
    report = scan(tmp_path, "import time\nt = time.perf_counter()\n")
    assert report.ok


def test_sorted_iteration_clean(tmp_path):
    report = scan(
        tmp_path,
        "import glob\n"
        "for p in sorted(glob.glob('*.json')):\n    pass\n"
        "for x in sorted({1, 2}):\n    pass\n",
    )
    assert report.ok


def test_order_insensitive_consumers_clean(tmp_path):
    report = scan(
        tmp_path,
        "names = {'a', 'b'}\n"
        "total = sum(1 for _ in names)\n"
        "best = min(x for x in {3, 1})\n"
        "ordered = sorted(x + 1 for x in set([1, 2]))\n"
        "present = any(x > 1 for x in {1, 2})\n",
    )
    assert report.ok


def test_membership_test_clean(tmp_path):
    report = scan(tmp_path, "allowed = {'a', 'b'}\nok = 'a' in allowed\n")
    assert report.ok


def test_method_named_like_rng_clean(tmp_path):
    # self._rng.random() is an *instance* method, not the module-level RNG.
    report = scan(
        tmp_path,
        "class T:\n"
        "    def __init__(self, rng):\n"
        "        self._rng = rng\n"
        "    def draw(self):\n"
        "        return self._rng.random()\n",
    )
    assert report.ok


# --------------------------------------------------------------------------
# suppressions
# --------------------------------------------------------------------------


def test_suppression_same_line(tmp_path):
    report = scan(
        tmp_path,
        "seed = hash('x')  # repro: allow(det-builtin-hash) — fixture reason\n",
    )
    assert report.ok
    assert report.suppressed == 1


def test_suppression_previous_line(tmp_path):
    report = scan(
        tmp_path,
        "# repro: allow(det-builtin-hash) — fixture reason\nseed = hash('x')\n",
    )
    assert report.ok
    assert report.suppressed == 1


def test_suppression_multiple_rules(tmp_path):
    report = scan(
        tmp_path,
        "import time\n"
        "# repro: allow(det-builtin-hash, det-wallclock) — fixture reason\n"
        "seed = hash('x') + int(time.time())\n",
    )
    assert report.ok
    assert report.suppressed == 2


def test_suppression_without_reason_is_malformed(tmp_path):
    report = scan(tmp_path, "seed = hash('x')  # repro: allow(det-builtin-hash)\n")
    rules = finding_rules(report)
    assert "checks-malformed-suppression" in rules
    assert DET_BUILTIN_HASH in rules  # the malformed allow suppresses nothing


def test_suppression_unknown_rule_is_malformed(tmp_path):
    report = scan(
        tmp_path, "x = 1  # repro: allow(no-such-rule) — reason\n"
    )
    assert finding_rules(report) == ["checks-malformed-suppression"]


def test_unused_suppression_flagged(tmp_path):
    report = scan(
        tmp_path, "# repro: allow(det-builtin-hash) — stale reason\nx = 1\n"
    )
    assert finding_rules(report) == ["checks-unused-suppression"]


def test_unused_suppression_not_flagged_for_inactive_rule(tmp_path):
    # A --rule subset must not flag allows whose rule never ran.
    module = tmp_path / "fixture.py"
    module.write_text(
        "# repro: allow(det-builtin-hash) — stale reason\nx = 1\n", encoding="utf-8"
    )
    report = run_checks(paths=[module], rule_ids=[DET_WALLCLOCK])
    assert report.ok


def test_suppression_does_not_leak_to_other_lines(tmp_path):
    report = scan(
        tmp_path,
        "# repro: allow(det-builtin-hash) — fixture reason\n"
        "seed = hash('x')\n"
        "other = hash('y')\n",
    )
    assert finding_rules(report) == [DET_BUILTIN_HASH]
    assert report.findings[0].line == 3


# --------------------------------------------------------------------------
# fingerprint-schema guard
# --------------------------------------------------------------------------


def test_current_schema_sections():
    schema = current_schema()
    assert schema["fingerprint_version"] >= 5
    assert "profile" in schema["payload_keys"]
    assert "trace_seed" in schema["run_keys"]
    assert "workload" in schema["run_result_fields"]
    assert "compiled_trace_cache_hits" in schema["process_dependent_fields"]


def test_committed_snapshot_matches_live_schema():
    # The committed tree must be self-consistent: this is the CI guard.
    assert list(check_schema()) == []


def test_run_result_field_addition_without_bump_fails():
    schema = current_schema()
    mutated = dict(schema)
    mutated["run_result_fields"] = sorted(
        schema["run_result_fields"] + ["new_unclassified_counter"]
    )
    findings = list(check_schema(current=mutated))
    assert len(findings) == 1
    message = findings[0].message
    assert "without a FINGERPRINT_VERSION bump" in message
    assert "new_unclassified_counter" in message
    assert findings[0].path == "src/repro/engine/job.py"
    assert findings[0].line > 0


def test_job_field_addition_without_bump_fails():
    schema = current_schema()
    mutated = dict(schema)
    mutated["simulation_job_fields"] = sorted(
        schema["simulation_job_fields"] + ["new_knob"]
    )
    findings = list(check_schema(current=mutated))
    assert len(findings) == 1
    assert "new_knob" in findings[0].message


def test_version_bump_with_stale_snapshot_fails():
    schema = current_schema()
    mutated = dict(schema)
    mutated["fingerprint_version"] = schema["fingerprint_version"] + 1
    mutated["run_result_fields"] = sorted(
        schema["run_result_fields"] + ["new_counter"]
    )
    findings = list(check_schema(current=mutated))
    assert len(findings) == 1
    assert "--update-snapshots" in findings[0].message


def test_missing_snapshot_reported(tmp_path):
    findings = list(
        check_schema(snapshot_path=tmp_path / "never_recorded.json")
    )
    assert len(findings) == 1
    assert "no committed fingerprint-schema snapshot" in findings[0].message


def test_update_snapshot_round_trip(tmp_path):
    target = tmp_path / "snapshot.json"
    message = update_snapshot(snapshot_path=target)
    assert str(target) in message
    assert load_snapshot(target) == current_schema()
    assert list(check_schema(snapshot_path=target)) == []


def test_update_snapshot_refuses_change_without_bump(tmp_path):
    target = tmp_path / "snapshot.json"
    update_snapshot(snapshot_path=target)
    mutated = dict(current_schema())
    mutated["run_result_fields"] = sorted(
        mutated["run_result_fields"] + ["sneaky_counter"]
    )
    with pytest.raises(SnapshotError, match="bump it in src/repro/engine/job.py"):
        update_snapshot(current=mutated, snapshot_path=target)
    # The refused update must not have touched the snapshot.
    assert load_snapshot(target) == current_schema()


def test_update_snapshot_accepts_change_with_bump(tmp_path):
    target = tmp_path / "snapshot.json"
    update_snapshot(snapshot_path=target)
    mutated = dict(current_schema())
    mutated["fingerprint_version"] = mutated["fingerprint_version"] + 1
    mutated["run_result_fields"] = sorted(
        mutated["run_result_fields"] + ["declared_counter"]
    )
    update_snapshot(current=mutated, snapshot_path=target)
    assert load_snapshot(target) == mutated
    assert list(check_schema(current=mutated, snapshot_path=target)) == []


def test_schema_guard_end_to_end_via_monkeypatch(monkeypatch):
    """The registered rule (as CI runs it) fails on an unbumped field add."""
    from repro.checks import schema_guard

    mutated = dict(current_schema())
    mutated["run_result_fields"] = sorted(
        mutated["run_result_fields"] + ["new_unclassified_counter"]
    )
    monkeypatch.setattr(schema_guard, "current_schema", lambda: mutated)
    report = run_checks(rule_ids=["schema-guard"])
    assert not report.ok
    assert finding_rules(report) == ["schema-guard"]


# --------------------------------------------------------------------------
# digest-purity audit
# --------------------------------------------------------------------------


def test_committed_classification_is_clean():
    assert list(check_classification()) == []


def test_unclassified_field_flagged():
    classification = load_classification()
    del classification["fetched"]
    findings = list(check_classification(classification))
    assert len(findings) == 1
    assert "not classified" in findings[0].message
    assert "'fetched'" in findings[0].message


def test_stale_classification_entry_flagged():
    classification = load_classification()
    classification["removed_counter"] = "energy"
    findings = list(check_classification(classification))
    assert any("stale entry" in finding.message for finding in findings)


def test_invalid_class_flagged():
    classification = load_classification()
    classification["fetched"] = "mystery"
    findings = list(check_classification(classification))
    assert any("valid classes" in finding.message for finding in findings)


def test_timing_field_misclassified_as_energy_flagged():
    classification = load_classification()
    classification["loads"] = "energy"
    findings = list(check_classification(classification))
    assert any(
        "in TIMING_DIGEST_FIELDS but classified" in finding.message
        for finding in findings
    )


def test_energy_field_misclassified_as_excluded_flagged():
    # An equality-participating, digest-hashed field claimed as excluded must
    # trip both the digest-membership and the compare= cross-checks.
    classification = load_classification()
    classification["fetched"] = "excluded"
    messages = [finding.message for finding in check_classification(classification)]
    assert any("hashed by the energy digest" in message for message in messages)
    assert any("participates in RunResult equality" in message for message in messages)


def test_excluded_field_misclassified_as_energy_flagged():
    classification = load_classification()
    classification["horizon_skipped_edges"] = "energy"
    messages = [finding.message for finding in check_classification(classification)]
    assert any(
        "in FAST_PATH_OBSERVABILITY_FIELDS but classified" in message
        for message in messages
    )
    assert any("compare=False but classified" in message for message in messages)


def test_process_dependent_demotion_flagged():
    classification = load_classification()
    classification["compiled_trace_cache_hits"] = "excluded"
    messages = [finding.message for finding in check_classification(classification)]
    assert any(
        "in RunResult.PROCESS_DEPENDENT_FIELDS but classified" in message
        for message in messages
    )


# --------------------------------------------------------------------------
# serialization contracts
# --------------------------------------------------------------------------


def test_committed_contracts_hold():
    assert list(check_contracts()) == []


def test_contract_registry_covers_the_data_plane():
    names = {contract.name for contract in contract_registry()}
    for expected in (
        "repro.engine.job.SimulationJob",
        "repro.analysis.metrics.RunResult",
        "repro.workloads.characteristics.WorkloadProfile",
        "repro.scenarios.spec.ScenarioSpec",
    ):
        assert expected in names


@dataclasses.dataclass
class _MutableNoDict:
    value: int = 0


def test_unfrozen_contract_type_flagged():
    contract = Contract(
        name="tests.fixture._MutableNoDict",
        load=lambda: _MutableNoDict,
        example=_MutableNoDict,
        frozen=True,
        dict_round_trip=True,
    )
    messages = [finding.message for finding in check_contracts([contract])]
    assert any("@dataclass(frozen=True)" in message for message in messages)
    assert any("to_dict() and from_dict()" in message for message in messages)


@dataclasses.dataclass(frozen=True)
class _LossyRoundTrip:
    values: tuple = (1, 2)

    def to_dict(self):
        return {"values": list(self.values)}

    @classmethod
    def from_dict(cls, data):
        # Deliberately lossy: rebuilds a list where a tuple lived.
        return cls(values=list(data["values"]))


def test_lossy_round_trip_flagged():
    contract = Contract(
        name="tests.fixture._LossyRoundTrip",
        load=lambda: _LossyRoundTrip,
        example=_LossyRoundTrip,
        dict_round_trip=True,
        pickle_round_trip=False,
    )
    messages = [finding.message for finding in check_contracts([contract])]
    assert any("round-trip is lossy" in message for message in messages)


def test_non_dataclass_flagged():
    contract = Contract(
        name="tests.fixture.dict",
        load=lambda: dict,
        example=dict,
    )
    messages = [finding.message for finding in check_contracts([contract])]
    assert any("must be a dataclass" in message for message in messages)


# --------------------------------------------------------------------------
# runner + CLI + the committed-tree baseline
# --------------------------------------------------------------------------


def test_committed_tree_has_zero_findings():
    """The baseline CI enforces: the whole of src/repro is finding-free."""
    report = run_checks()
    assert report.ok, report.render()
    assert report.files_scanned > 90


def test_unknown_rule_id_rejected():
    with pytest.raises(KeyError, match="no-such-rule"):
        run_checks(rule_ids=["no-such-rule"])


def test_rule_registry_has_all_families():
    rules = all_rules()
    assert {
        "det-builtin-hash",
        "det-global-random",
        "det-unordered-iter",
        "det-unseeded-random",
        "det-wallclock",
        "digest-purity",
        "schema-guard",
        "serialization-contract",
    } <= set(rules)


def test_cli_clean_tree_exits_zero(capsys):
    assert checks_main([]) == 0
    assert "OK: 0 finding(s)" in capsys.readouterr().out


def test_cli_violations_exit_one(tmp_path, capsys):
    module = tmp_path / "bad.py"
    module.write_text("seed = hash('x')\n", encoding="utf-8")
    assert checks_main([str(module)]) == 1
    assert "det-builtin-hash" in capsys.readouterr().out


def test_cli_json_report(tmp_path, capsys):
    module = tmp_path / "bad.py"
    module.write_text("import time\nt = time.time()\n", encoding="utf-8")
    assert checks_main(["--json", str(module)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["findings"][0]["rule"] == DET_WALLCLOCK
    assert payload["findings"][0]["line"] == 2


def test_cli_list_rules(capsys):
    assert checks_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "schema-guard" in out
    assert "det-unordered-iter" in out


def test_cli_unknown_rule_exits_two(capsys):
    assert checks_main(["--rule", "no-such-rule"]) == 2


def test_cli_rule_subset_runs_only_selected(tmp_path, capsys):
    module = tmp_path / "bad.py"
    module.write_text("import time\nt = time.time()\nseed = hash('x')\n")
    assert checks_main(["--rule", DET_BUILTIN_HASH, str(module)]) == 1
    out = capsys.readouterr().out
    assert "det-builtin-hash" in out
    assert "det-wallclock" not in out


def test_cli_update_snapshots_refusal_exits_two(monkeypatch, capsys):
    from repro.checks import schema_guard

    mutated = dict(current_schema())
    mutated["run_result_fields"] = sorted(
        mutated["run_result_fields"] + ["sneaky_counter"]
    )
    monkeypatch.setattr(schema_guard, "current_schema", lambda: mutated)
    assert checks_main(["--update-snapshots"]) == 2
    assert "refusing to update" in capsys.readouterr().out
