#!/usr/bin/env python
"""Validate every ``python -m repro ...`` example in the documentation.

Docs rot when flags change.  This tool extracts every fenced ``bash``
code block from README.md, docs/*.md, DESIGN.md, EXPERIMENTS.md and the
verify recipe (.claude/skills/verify/SKILL.md), finds every
``python -m repro ...`` command (each one of a pipeline or ``&&``
chain), and *parses* each one against the real CLI
parser (``repro.cli._build_parser``).  Parse-only validation catches
renamed/removed subcommands, dropped flags and invalid choice values
without running anything expensive.

Plain ``json`` fences are treated as **serve wire-protocol examples**
(one NDJSON frame per line, exactly the on-the-wire format): every
line must parse as JSON, and every object carrying an ``op`` key —
i.e. every request frame — must additionally decode through
``repro.serve.protocol.decode_request``, so docs/serve.md can never
show a request the server would reject.  (Annotated pretty-printed
JSON keeps using ``jsonc`` fences, which are not checked.)

Usage::

    PYTHONPATH=src python tools/check_docs.py            # repo root
    PYTHONPATH=src python tools/check_docs.py README.md docs/foo.md

Exit code 0 when every example parses, 1 with a listing of failures
otherwise.  CI runs this as the ``docs`` job.
"""

from __future__ import annotations

import argparse
import io
import json
import pathlib
import re
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from typing import Iterator, List, NamedTuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: fenced code blocks we scan (only bash/sh/shell fences hold commands)
FENCE_RE = re.compile(
    r"^```(?:bash|sh|shell)\s*$(.*?)^```\s*$",
    re.MULTILINE | re.DOTALL,
)

#: fenced blocks holding serve wire-protocol frames (one per line)
JSON_FENCE_RE = re.compile(
    r"^```json\s*$(.*?)^```\s*$",
    re.MULTILINE | re.DOTALL,
)

#: request frames embedded in shell examples (single-quoted, as they
#: would be passed to printf/echo and piped into nc)
INLINE_FRAME_RE = re.compile(r"'(\{\"op\"[^']*\})'")

#: environment-variable prefixes and invocation wrappers to strip
ENV_ASSIGNMENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*=\S+$")


class Example(NamedTuple):
    """One ``python -m repro`` invocation found in the docs."""

    path: pathlib.Path
    line: int            # 1-based line of the command in the file
    text: str            # the logical (continuation-joined) command
    argv: List[str]      # what we hand to the parser


#: markdown pages checked besides docs/*.md
TOP_LEVEL_DOCS = (
    "README.md", "DESIGN.md", "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
)


def default_doc_files() -> List[pathlib.Path]:
    """:data:`TOP_LEVEL_DOCS` plus every markdown page under docs/."""
    files = [REPO_ROOT / name for name in TOP_LEVEL_DOCS]
    files.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return [path for path in files if path.exists()]


def _logical_lines(block: str, first_line: int) -> Iterator[tuple]:
    """Join trailing-backslash continuations; yield (line_no, text)."""
    pending = ""
    pending_start = first_line
    for offset, raw in enumerate(block.splitlines()):
        line = raw.rstrip()
        if not pending:
            pending_start = first_line + offset
        if line.endswith("\\"):
            pending += line[:-1] + " "
            continue
        yield pending_start, (pending + line).strip()
        pending = ""
    if pending:
        yield pending_start, pending.strip()


def _extract_argvs(command: str) -> List[List[str]]:
    """The ``repro`` argv of each command in a doc command line.

    Splits pipelines and chains (``generate | count -``), and strips
    leading env assignments (``PYTHONPATH=src``), comments and shell
    redirections (``> out.json``) — none of those affect what argparse
    sees.
    """
    if "#" in command:
        command = command.split("#", 1)[0].strip()
    try:
        tokens = shlex.split(command)
    except ValueError:
        return []
    argvs, segment = [], []
    for token in tokens + [";"]:
        if token not in ("|", "&", "&&", "||", ";"):
            segment.append(token)
            continue
        while segment and ENV_ASSIGNMENT_RE.match(segment[0]):
            segment = segment[1:]
        # cut at the first redirection
        for index, word in enumerate(segment):
            if word.startswith((">", "<")):
                segment = segment[:index]
                break
        if segment[:3] == ["python", "-m", "repro"]:
            argvs.append(segment[3:])
        segment = []
    return argvs


def extract_examples(path: pathlib.Path) -> List[Example]:
    """Every ``python -m repro`` example in one markdown file."""
    text = path.read_text(encoding="utf-8")
    examples: List[Example] = []
    for match in FENCE_RE.finditer(text):
        block_first_line = text.count("\n", 0, match.start(1)) + 1
        for line_no, command in _logical_lines(match.group(1), block_first_line):
            for argv in _extract_argvs(command):
                examples.append(Example(path, line_no, command, argv))
    return examples


class Frame(NamedTuple):
    """One wire-protocol frame found in a ``json`` fence."""

    path: pathlib.Path
    line: int
    text: str


def extract_frames(path: pathlib.Path) -> List[Frame]:
    """Every NDJSON frame line inside plain ``json`` fences."""
    text = path.read_text(encoding="utf-8")
    frames: List[Frame] = []
    for match in JSON_FENCE_RE.finditer(text):
        block_first_line = text.count("\n", 0, match.start(1)) + 1
        for offset, raw in enumerate(match.group(1).splitlines()):
            line = raw.strip()
            if line:
                frames.append(Frame(path, block_first_line + offset, line))
    for match in FENCE_RE.finditer(text):
        block_start = match.start(1)
        for inline in INLINE_FRAME_RE.finditer(match.group(1)):
            line_no = text.count("\n", 0, block_start + inline.start()) + 1
            frames.append(Frame(path, line_no, inline.group(1)))
    return frames


def validate_frame(frame: Frame) -> str | None:
    """Check one frame line; return an error message or None."""
    from repro.serve.protocol import WireProtocolError, decode_request

    try:
        obj = json.loads(frame.text)
    except json.JSONDecodeError as exc:
        return f"not valid JSON: {exc}"
    if isinstance(obj, dict) and "op" in obj:
        try:
            decode_request(frame.text)
        except WireProtocolError as exc:
            return f"invalid request ({exc.code}): {exc}"
    return None


def validate(example: Example, parser: argparse.ArgumentParser) -> str | None:
    """Parse one example; return an error message or None when valid."""
    sink = io.StringIO()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            parser.parse_args(example.argv)
    except SystemExit as exc:
        # --help/--version exit 0: those examples are valid by definition
        if exc.code not in (0, None):
            return sink.getvalue().strip().splitlines()[-1] if sink.getvalue() else "parse error"
    return None


def main(argv: List[str] | None = None) -> int:
    cli = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    cli.add_argument(
        "files", nargs="*", type=pathlib.Path,
        help="markdown files to check (default: README.md, DESIGN.md, "
        "EXPERIMENTS.md, the verify recipe and docs/*.md)",
    )
    args = cli.parse_args(argv)

    from repro.cli import _build_parser

    parser = _build_parser()
    files = args.files or default_doc_files()
    examples: List[Example] = []
    frames: List[Frame] = []
    for path in files:
        examples.extend(extract_examples(path))
        frames.extend(extract_frames(path))
    failures = []
    for example in examples:
        error = validate(example, parser)
        if error is not None:
            failures.append((example, error))
    for frame in frames:
        error = validate_frame(frame)
        if error is not None:
            failures.append((frame, error))
    rel = lambda p: p.relative_to(REPO_ROOT) if p.is_relative_to(REPO_ROOT) else p  # noqa: E731
    if failures:
        print(f"check_docs: {len(failures)} stale example(s):")
        for example, error in failures:
            print(f"  {rel(example.path)}:{example.line}: {example.text}")
            print(f"      {error}")
        return 1
    print(
        f"check_docs: {len(examples)} `python -m repro` example(s) and "
        f"{len(frames)} protocol frame(s) across {len(files)} file(s) "
        f"all parse"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
