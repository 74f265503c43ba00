"""The committed CLI reference must match the live argument parsers."""

from __future__ import annotations

from repro.cli_reference import (
    PARSER_BUILDERS,
    default_output_path,
    load_parsers,
    main,
    render_reference,
)


def test_committed_reference_is_current():
    """docs/CLI.md byte-matches a fresh render of the live parsers."""
    path = default_output_path()
    assert path.exists(), (
        "docs/CLI.md is missing; generate it with "
        "`python -m repro.cli_reference --write`"
    )
    committed = path.read_text(encoding="utf-8")
    assert committed == render_reference(), (
        "docs/CLI.md is stale; regenerate it with "
        "`python -m repro.cli_reference --write`"
    )


def test_every_registered_builder_produces_its_entrypoint_parser():
    parsers = load_parsers()
    assert len(parsers) == len(PARSER_BUILDERS)
    for module_name, parser in zip(sorted(PARSER_BUILDERS), parsers):
        assert parser.prog == f"python -m {module_name}"


def test_render_is_deterministic():
    assert render_reference() == render_reference()


def test_reference_covers_store_surface():
    """The result-store CLI surface (inspect, resume) is documented."""
    text = render_reference()
    for needle in ("`python -m repro.engine inspect`", "--resume"):
        assert needle in text


def test_check_mode_detects_stale_copy(tmp_path, capsys):
    target = tmp_path / "CLI.md"
    assert main(["--write", "--output", str(target)]) == 0
    assert main(["--check", "--output", str(target)]) == 0
    target.write_text("stale\n", encoding="utf-8")
    assert main(["--check", "--output", str(target)]) == 1
    captured = capsys.readouterr()
    assert "stale" in captured.err
