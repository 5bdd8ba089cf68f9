"""The README's shell recipes parse with the CLI's own argument parser, and
their frame and norm specs load, so a recipe that keeps a removed or renamed
flag or spec key fails the suite; its module table keeps two cells a row."""

import re
import shlex
from pathlib import Path

from framethresh.cli import build_parser
from framethresh.norms import NormSpec
from framethresh.transforms import load_frame_spec

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_commands():
    """Every `framethresh ...` line of the README's code blocks, with its
    backslash continuations joined and each shell variable set to 64 (a
    value every flag that takes a variable here accepts)."""
    commands = []
    for block in re.findall(r"^```\w*\n(.*?)^```", README.read_text(), re.S | re.M):
        for line in block.replace("\\\n", " ").splitlines():
            line = re.sub(r"\$(\w+|\{\w+\})", "64", line.strip())
            if line.startswith("framethresh "):
                commands.append(line)
    return commands


def test_readme_commands_parse():
    commands = _readme_commands()
    # the CLI section and the experiment recipes
    assert len(commands) >= 12, commands
    subcommands = set()
    frame_specs = 0
    for command in commands:
        args = build_parser().parse_args(shlex.split(command, comments=True)[1:])
        subcommands.add(args.subcommand)
        if getattr(args, "frame_spec", None) is not None:
            load_frame_spec(args.frame_spec)
            frame_specs += 1
        if getattr(args, "norm_spec", None) is not None:
            NormSpec.from_json(args.norm_spec)
    assert subcommands == {"thresholds", "denoise", "simulate", "diagnose", "replay"}
    assert frame_specs >= 10, frame_specs


def test_module_table_rows_have_the_header_cells():
    # an unescaped | inside a cell (say |kappa|) ends the cell there
    lines = README.read_text().splitlines()
    start = lines.index("| module | contents |")
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append(line)
    pipes = [len(re.findall(r"(?<!\\)\|", row)) for row in rows]
    assert len(rows) >= 10 and pipes == [3] * len(rows), pipes
