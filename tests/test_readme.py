"""The README's command-line section against the parser: every subcommand
and flag it names exists, and it names every one that exists.  Its
documents section names every kind that `serialization` writes."""

import argparse
import ast
import os
import re

from blowup import cli

HERE = os.path.dirname(os.path.abspath(__file__))
README = os.path.join(HERE, os.pardir, "README.md")
SERIALIZATION = os.path.join(HERE, os.pardir, "src", "blowup",
                             "serialization.py")
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


def written_kinds():
    """The kinds serialization.py writes: the "kind" of each dict display,
    and each string given as the first argument to a function whose
    first parameter is `kind`."""
    with open(SERIALIZATION) as fh:
        tree = ast.parse(fh.read())
    takes_kind = {f.name for f in ast.walk(tree)
                  if isinstance(f, ast.FunctionDef) and f.args.args
                  and f.args.args[0].arg == "kind"}
    kinds = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            kinds |= {v.value for k, v in zip(node.keys, node.values)
                      if isinstance(k, ast.Constant) and k.value == "kind"
                      and isinstance(v, ast.Constant)}
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Name) and \
                node.func.id in takes_kind and node.args and \
                isinstance(node.args[0], ast.Constant):
            kinds.add(node.args[0].value)
    return kinds


def test_documents_section_names_every_written_kind():
    with open(README) as fh:
        section = fh.read().split("### Documents", 1)[1].split("\n## ", 1)[0]
    kinds = written_kinds()
    assert len(kinds) == 23
    assert not {k for k in kinds if f"`{k}`" not in section}
