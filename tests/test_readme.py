"""The README's command-line section against the parser: every subcommand
and flag it names exists, and it names every one that exists."""

import argparse
import os
import re

from blowup import cli

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "README.md")
FLAG = re.compile(r"--[a-z][a-z-]*")


def readme_cli():
    """The flags of the "Common flags" sentence, and the flags named on
    each subcommand's lines of the command-line block (an indented line
    continues the one above it)."""
    with open(README) as fh:
        text = fh.read()
    section = text.split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    lines = {}
    for line in block.splitlines():
        words = line.split()
        if words[:1] == ["blowup"]:
            command = words[1]
            assert command not in lines, f"{command} listed twice"
            lines[command] = set()
        if words and lines:
            lines[command] |= set(FLAG.findall(line))
    sentence = section.split("Common flags:", 1)[1].split(".", 1)[0]
    return set(FLAG.findall(sentence)), lines


def parser_cli():
    """Each subcommand's long options, --help aside."""
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    return {name: {o for a in s._actions for o in a.option_strings
                   if o.startswith("--") and o != "--help"}
            for name, s in sub.choices.items()}


def test_subcommands_match():
    _, lines = readme_cli()
    assert sorted(lines) == sorted(parser_cli())


def test_flags_match():
    common, lines = readme_cli()
    assert common
    for name, flags in parser_cli().items():
        assert flags == common | lines[name], name
