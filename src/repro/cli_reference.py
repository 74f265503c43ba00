"""``python -m repro.cli_reference`` — generate the CLI reference document.

Renders ``docs/CLI.md`` from the *live* argument parsers of every
``python -m repro.*`` entrypoint, so the reference cannot drift from the
code: ``tests/test_cli_reference.py`` (part of the tier-1 suite) regenerates
the document and fails when the committed copy is stale.

The renderer walks each parser's actions directly instead of calling
``ArgumentParser.format_help()`` — help-text layout varies across Python
versions (wrapping, usage line style), while the action inventory itself
(option strings, metavars, choices, defaults, help sentences) is identical,
which keeps the generated document byte-stable across the CI matrix.

Examples::

    python -m repro.cli_reference            # print the reference to stdout
    python -m repro.cli_reference --check    # exit 1 when docs/CLI.md is stale
    python -m repro.cli_reference --write    # rewrite docs/CLI.md in place
"""

from __future__ import annotations

import argparse
import importlib
import sys
from pathlib import Path
from typing import Sequence

__all__ = [
    "PARSER_BUILDERS",
    "build_parser",
    "default_output_path",
    "load_parsers",
    "main",
    "render_reference",
]

#: Every documented ``python -m`` entrypoint, mapped to the dotted path
#: (``module:attribute``) of its zero-argument parser builder.  New CLIs
#: must register here; the reference renders them in sorted module order.
PARSER_BUILDERS: dict[str, str] = {
    "repro.analysis.hardware_cost": "repro.analysis.hardware_cost:build_parser",
    "repro.analysis.sensitivity": "repro.analysis.sensitivity:build_parser",
    "repro.cli_reference": "repro.cli_reference:build_parser",
    "repro.engine": "repro.engine.cli:build_parser",
    "repro.obs": "repro.obs.cli:build_parser",
    "repro.scenarios": "repro.scenarios.cli:build_parser",
}

_HEADER = """\
# Command-line reference

Every `python -m repro.*` entrypoint, generated from the live argument
parsers by `python -m repro.cli_reference --write`.  **Do not edit by
hand** — `tests/test_cli_reference.py` (part of the tier-1 suite) regenerates
this document and fails when the committed copy is stale.
"""


def default_output_path() -> Path:
    """The committed location of the reference: ``<repo>/docs/CLI.md``."""
    return Path(__file__).resolve().parents[2] / "docs" / "CLI.md"


def load_parsers() -> list[argparse.ArgumentParser]:
    """Build every registered parser, in sorted entrypoint order."""
    parsers = []
    for module_name in sorted(PARSER_BUILDERS):
        target = PARSER_BUILDERS[module_name]
        module_path, _, attribute = target.partition(":")
        builder = getattr(importlib.import_module(module_path), attribute)
        parsers.append(builder())
    return parsers


def _metavar(action: argparse.Action) -> str:
    if action.metavar is not None:
        return str(action.metavar)
    if action.choices is not None:
        return "{" + ",".join(str(choice) for choice in action.choices) + "}"
    if action.option_strings:
        return action.dest.upper()
    return action.dest


def _format_args(action: argparse.Action) -> str:
    """The argument part of an invocation (``" K/N"``, ``" [X ...]"``...)."""
    metavar = _metavar(action)
    nargs = action.nargs
    if nargs == 0:
        return ""
    if nargs is None or nargs == 1:
        return f" {metavar}"
    if nargs == argparse.OPTIONAL:
        return f" [{metavar}]"
    if nargs == argparse.ZERO_OR_MORE:
        return f" [{metavar} ...]"
    if nargs == argparse.ONE_OR_MORE:
        return f" {metavar} [{metavar} ...]"
    if isinstance(nargs, int):
        return " " + " ".join([metavar] * nargs)
    return f" {metavar}"


def _invocation(action: argparse.Action) -> str:
    if not action.option_strings:
        return _format_args(action).strip()
    return ", ".join(action.option_strings) + _format_args(action)


def _describe(action: argparse.Action) -> str:
    """One bullet line for *action*: invocation, help, qualifiers."""
    parts = [f"`{_invocation(action)}`"]
    notes = []
    if type(action).__name__ == "_AppendAction":
        notes.append("repeatable")
    help_text = " ".join((action.help or "").split())
    default = action.default
    if (
        action.option_strings
        and action.nargs != 0
        and default not in (None, False, argparse.SUPPRESS)
        and "default" not in help_text.lower()
    ):
        notes.append(f"default: `{default!r}`")
    if notes:
        parts.append(f"({'; '.join(notes)})")
    if help_text:
        parts.append(f"— {help_text}")
    return "- " + " ".join(parts)


def _render_parser(parser: argparse.ArgumentParser, level: int) -> list[str]:
    lines = [f"{'#' * level} `{parser.prog}`", ""]
    if parser.description:
        lines += [" ".join(parser.description.split()), ""]

    subparser_actions = [
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    positionals = [
        action
        for action in parser._actions
        if not action.option_strings
        and not isinstance(action, argparse._SubParsersAction)
    ]
    optionals = [
        action
        for action in parser._actions
        if action.option_strings and action.dest != "help"
    ]

    if positionals:
        lines += ["**Arguments**", ""]
        lines += [_describe(action) for action in positionals]
        lines.append("")
    if optionals:
        lines += ["**Options**", ""]
        lines += [_describe(action) for action in optionals]
        lines.append("")
    for action in subparser_actions:
        names = list(action.choices)
        lines += [
            "**Subcommands:** " + ", ".join(f"`{name}`" for name in names),
            "",
        ]
        for name in names:
            lines += _render_parser(action.choices[name], level + 1)
    return lines


def render_reference() -> str:
    """The full ``docs/CLI.md`` text, rendered from the live parsers."""
    lines = [_HEADER]
    for parser in load_parsers():
        lines += _render_parser(parser, 2)
    text = "\n".join(lines)
    while "\n\n\n" in text:
        text = text.replace("\n\n\n", "\n\n")
    return text.rstrip("\n") + "\n"


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.cli_reference`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli_reference",
        description="Generate docs/CLI.md from the live argument parsers.",
    )
    parser.add_argument("--write", action="store_true", help="rewrite docs/CLI.md in place")
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 when the committed docs/CLI.md is stale",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="target file (default: <repo>/docs/CLI.md)",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    target = args.output if args.output is not None else default_output_path()
    text = render_reference()

    if args.check:
        committed = target.read_text(encoding="utf-8") if target.exists() else None
        if committed == text:
            print(f"{target} is up to date")
            return 0
        print(
            f"error: {target} is stale; regenerate it with "
            "`python -m repro.cli_reference --write`",
            file=sys.stderr,
        )
        return 1
    if args.write:
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")
        print(f"wrote {target}")
        return 0
    print(text, end="")
    return 0


if __name__ == "__main__":
    from repro.obs.logging import run_cli

    raise SystemExit(run_cli(main))
