"""The README's library quick start runs as written, and its command-line
docs agree with the parser."""

import argparse
import re
import shlex
from pathlib import Path

from caplearn.cli import _build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick start"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["report"].distance == 0.0


def test_command_line_section_matches_the_parser():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    fence = re.search(r"```sh\n(.*?)```", section, re.S)
    parser = _build_parser()
    lines = [line for line in fence.group(1).splitlines() if line.startswith("caplearn ")]
    assert lines
    for line in lines:  # parsing reads no file
        parser.parse_args(shlex.split(line, comments=True)[1:])
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {flag for sub in subparsers.choices.values() for flag in sub._option_string_actions}
    prose = section.replace(fence.group(0), "")
    spans = re.findall(r"`([^`]+)`", prose)
    named = {flag for span in spans for flag in re.findall(r"--[\w-]+", span)}
    assert named and named <= options, sorted(named - options)
