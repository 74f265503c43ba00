"""Tests for the record-file container shared by traces and run ledgers.

One reader (:func:`repro.obs.records.read_records`) serves both file kinds,
so every way a file can be unreadable must raise that kind's named error —
a :class:`RecordFileError` — through the reader and through the
``python -m repro.obs`` CLI, never a misparse or a bare ``TypeError``.
Files written by earlier builds are rejected, naming both schemas: schema-3
traces, which held per-edge sync-penalty and horizon-skip events, and
schema-1 ledgers, whose records carry no work counters.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Any, Callable

import pytest

from repro.obs.cli import main as obs_main
from repro.obs.events import SCHEMA_VERSION, TraceSchemaError
from repro.obs.ledger import LEDGER_SCHEMA_VERSION, LedgerSchemaError, LedgerWriter, read_ledger
from repro.obs.recorder import JsonlSink, read_trace
from repro.obs.records import RecordFileError


@dataclass(frozen=True)
class FileKind:
    kind: str
    schema: int
    read: Callable[[Any], tuple[dict[str, Any], list[Any]]]
    write_empty: Callable[[Any, dict[str, Any]], None]
    error: type[RecordFileError]
    cli: list[str]
    #: A header line and a row exactly as the previous build wrote them.
    parent_header: str
    parent_row: str
    #: A row of a type this build does not read (a deleted one).
    unknown_row: dict[str, Any]
    unknown_name: str


KINDS = {
    "trace": FileKind(
        kind="repro-obs-trace",
        schema=SCHEMA_VERSION,
        read=read_trace,
        write_empty=lambda path, meta: JsonlSink(path, meta=meta).close(),
        error=TraceSchemaError,
        cli=["summarize"],
        parent_header=(
            '{"kind": "repro-obs-trace", "meta": {"fingerprint": '
            '"708143cdfeab6b7d6c7884682607f7ad4adc35154855a1833f77c17694402880", '
            '"job": "adv-period-2x-interval/base_adaptive/w1200", "kind": "scenario", '
            '"target": "adv-period-2x-interval", "warmup": 2000, "window": 1200}, '
            '"schema": 3}\n'
        ),
        parent_row=(
            '{"committed": 7319, "data": {"domain": "front_end", "new_ghz": 1.1, '
            '"old_ghz": 1.7391304347826086}, "time_ps": 11908078, "type": "frequency-change"}\n'
        ),
        unknown_row={"type": "horizon-skip", "time_ps": 575, "committed": 0, "data": {"edges": 4}},
        unknown_name="'horizon-skip'",
    ),
    "ledger": FileKind(
        kind="repro-obs-ledger",
        schema=LEDGER_SCHEMA_VERSION,
        read=read_ledger,
        write_empty=lambda path, meta: LedgerWriter(path, meta=meta).close(),
        error=LedgerSchemaError,
        cli=["report"],
        parent_header=(
            '{"kind": "repro-obs-ledger", "meta": {"created": "2026-10-18T06:52:16+0000", '
            '"fingerprint_version": 7, "label": "matrix"}, "schema": 1}\n'
        ),
        parent_row=(
            '{"cached": [], "duplicates": 0, "jobs": 1, "record": "batch", "simulated": ["a"]}\n'
        ),
        unknown_row={"record": "submit", "jobs": 1, "simulated": ["a"]},
        unknown_name="'submit'",
    ),
}


def _header(kind: str, schema: int, meta: Any = None) -> str:
    return json.dumps({"kind": kind, "schema": schema, "meta": {} if meta is None else meta}) + "\n"


#: Unreadable-file cases: the file's text, and what the error must name.
CASES: dict[str, Callable[[FileKind], tuple[str, str]]] = {
    "empty": lambda k: ("", "empty"),
    "foreign kind": lambda k: (_header("something-else", k.schema), f"not a {k.kind} file"),
    "other schema": lambda k: (_header(k.kind, k.schema + 1), f"schema {k.schema + 1}"),
    "torn last line": lambda k: (
        _header(k.kind, k.schema) + k.parent_row + k.parent_row[:-9],
        ":3: truncated or malformed",
    ),
    "unknown type": lambda k: (
        _header(k.kind, k.schema) + json.dumps(k.unknown_row) + "\n",
        f":2: .*{re.escape(k.unknown_name)}",
    ),
    "non-object meta": lambda k: (_header(k.kind, k.schema, meta=[1]), "meta is not a JSON object"),
    "non-object row": lambda k: (_header(k.kind, k.schema) + "[1]\n", ":2: row is not a JSON"),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("name", sorted(KINDS))
def test_unreadable_file_raises_the_named_error(name, case, tmp_path, capsys):
    spec = KINDS[name]
    text, match = CASES[case](spec)
    path = tmp_path / f"bad.{name}.jsonl"
    path.write_text(text)
    with pytest.raises(spec.error, match=match):
        spec.read(path)
    assert obs_main([*spec.cli, str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_trace_written_by_the_previous_build_is_rejected(tmp_path, capsys):
    parent = KINDS["trace"]
    path = tmp_path / "parent.trace.jsonl"
    path.write_text(parent.parent_header + parent.parent_row)
    with pytest.raises(TraceSchemaError, match="schema 3, but this build reads schema 4"):
        read_trace(path)
    assert obs_main(["summarize", str(path)]) == 1
    assert "schema 3, but this build reads schema 4" in capsys.readouterr().err
    # Only the schema number moved: this build writes the same header
    # otherwise for the same metadata.
    fresh = tmp_path / "fresh.trace.jsonl"
    parent.write_empty(fresh, json.loads(parent.parent_header)["meta"])
    assert fresh.read_text() == parent.parent_header.replace('"schema": 3', '"schema": 4')


def test_ledger_written_by_the_previous_build_is_rejected(tmp_path):
    parent = KINDS["ledger"]
    path = tmp_path / "parent.ledger.jsonl"
    path.write_text(parent.parent_header + parent.parent_row)
    with pytest.raises(LedgerSchemaError, match="schema 1, but this build reads schema 2"):
        read_ledger(path)
