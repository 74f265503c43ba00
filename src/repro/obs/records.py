"""The record-file container shared by trace files and run ledgers.

Both :mod:`repro.obs.recorder` traces and :mod:`repro.obs.ledger` ledgers
are schema-versioned JSONL::

    {"kind": "<file kind>", "meta": {...}, "schema": N}   <- header line
    {...}                                                <- one object per line

:func:`record_header` builds the header; :func:`read_records` is the one
reader.  It refuses, with the caller's :class:`RecordFileError` subclass,
a file that is empty, has a non-JSON header, is of another kind, was
written under another schema version, has a non-object ``meta``, or holds
a torn or malformed row — a versioned format must reject, not misparse.
The writers stay in their modules, since a trace is written fresh and a
ledger is appended to.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Mapping, TypeVar

__all__ = ["RecordFileError", "read_records", "record_header"]

Row = TypeVar("Row")


class RecordFileError(ValueError):
    """A record file is empty, foreign, from another schema version, or torn."""


def record_header(kind: str, schema: int, meta: Mapping[str, Any] | None = None) -> dict[str, Any]:
    """The header object of a new record file."""
    return {"kind": kind, "schema": schema, "meta": dict(meta) if meta else {}}


def read_records(
    path: str | Path,
    *,
    kind: str,
    schema: int,
    parse: Callable[[dict[str, Any]], Row],
    error: type[RecordFileError],
) -> tuple[dict[str, Any], list[Row]]:
    """Parse a *kind* record file into ``(header_meta, rows)``.

    Every row line is decoded and handed to *parse*, which turns it into an
    event or record; a ``KeyError``, ``ValueError`` or ``TypeError`` from
    *parse* is reported, like every other defect, as *error* naming the
    file and line.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        first = handle.readline()
        if not first.strip():
            raise error(f"{path} is empty; not a {kind} file")
        try:
            header = json.loads(first)
        except ValueError as cause:
            raise error(f"{path} has no JSON header line: {cause}") from cause
        if not isinstance(header, dict) or header.get("kind") != kind:
            raise error(f"{path} is not a {kind} file")
        if header.get("schema") != schema:
            raise error(
                f"{path} was written under {kind} schema {header.get('schema')!r}, "
                f"but this build reads schema {schema}; regenerate the file"
            )
        meta = header.get("meta", {})
        if not isinstance(meta, dict):
            raise error(f"{path}: header meta is not a JSON object")
        rows: list[Row] = []
        for line_number, line in enumerate(handle, start=2):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except ValueError as cause:
                raise error(
                    f"{path}:{line_number}: truncated or malformed line ({cause}); "
                    f"a writer killed mid-line leaves a torn final line — delete it"
                ) from cause
            if not isinstance(row, dict):
                raise error(f"{path}:{line_number}: row is not a JSON object")
            try:
                rows.append(parse(row))
            except KeyError as cause:
                raise error(f"{path}:{line_number}: row lacks field {cause}") from cause
            except (ValueError, TypeError) as cause:
                raise error(f"{path}:{line_number}: invalid row: {cause}") from cause
    return dict(meta), rows
