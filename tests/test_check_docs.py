"""The docs-example checker: real docs stay green, rot is caught."""

import pathlib
import sys

import pytest

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))

import check_docs  # noqa: E402


def test_repo_docs_examples_all_parse(capsys):
    # the actual CI gate: every example in the default doc set parses
    assert check_docs.main([]) == 0
    assert "all parse" in capsys.readouterr().out


def test_extracts_only_repro_invocations(tmp_path):
    page = tmp_path / "page.md"
    page.write_text(
        "```bash\n"
        "PYTHONPATH=src python -m repro bench --scale tiny > out.json\n"
        "pytest tests/                 # not a repro command\n"
        "python -m repro generate --length 10 | head\n"
        "python -m repro generate | python -m repro count - --top 3\n"
        "```\n"
        "```python\n"
        "print('python fences are ignored')\n"
        "```\n"
    )
    examples = check_docs.extract_examples(page)
    assert [e.argv for e in examples] == [
        ["bench", "--scale", "tiny"],
        ["generate", "--length", "10"],
        ["generate"],
        ["count", "-", "--top", "3"],
    ]


def test_joins_backslash_continuations(tmp_path):
    page = tmp_path / "page.md"
    page.write_text(
        "```bash\n"
        "python -m repro schedcheck --schemes cots \\\n"
        "    --schedules 5 --seed 1\n"
        "```\n"
    )
    (example,) = check_docs.extract_examples(page)
    assert example.argv == [
        "schedcheck", "--schemes", "cots", "--schedules", "5", "--seed", "1",
    ]


@pytest.mark.parametrize(
    "command",
    [
        "python -m repro bench --suite gpu",        # bad choice value
        "python -m repro frobnicate",               # unknown subcommand
        "python -m repro report --entries x",       # misspelled flag
    ],
)
def test_flags_stale_examples(tmp_path, capsys, command):
    page = tmp_path / "page.md"
    page.write_text(f"```bash\n{command}\n```\n")
    assert check_docs.main([str(page)]) == 1
    assert "stale example" in capsys.readouterr().out


def test_help_examples_count_as_valid(tmp_path):
    page = tmp_path / "page.md"
    page.write_text("```bash\npython -m repro --help\n```\n")
    assert check_docs.main([str(page)]) == 0


def test_default_files_include_the_design_notes_and_verify_recipe():
    names = {
        path.relative_to(check_docs.REPO_ROOT).as_posix()
        for path in check_docs.default_doc_files()
    }
    assert {"README.md", "DESIGN.md", "EXPERIMENTS.md",
            ".claude/skills/verify/SKILL.md"} <= names


def test_flags_a_stale_command_after_a_pipe(tmp_path, capsys):
    page = tmp_path / "page.md"
    page.write_text(
        "```bash\n"
        "python -m repro generate | python -m repro count - --algorithm x\n"
        "```\n"
    )
    assert check_docs.main([str(page)]) == 1
    assert "stale example" in capsys.readouterr().out
