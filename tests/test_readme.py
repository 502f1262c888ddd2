"""The README's examples run as printed.

The Python block under "## Library" is executed statement by statement:
a comment at the end of a line is the value of that line's expression,
and comment lines right after a statement are what it prints.  Each
`$ goeritz ...` command under "### Examples" prints, first, the lines
shown before its `...`.
"""

import ast
import contextlib
import io
import re
import shlex
import tokenize
from pathlib import Path

from goeritz.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def fenced(heading, language):
    """The first code block of the given language after `heading`."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def comments(source):
    """{line number: comment text} of every comment in `source`."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return {
        tok.start[0]: tok.string[1:].strip() for tok in tokens if tok.type == tokenize.COMMENT
    }


def test_the_library_example_gives_the_values_its_comments_show():
    source = fenced("## Library", "python")
    notes = comments(source)
    lines = source.splitlines()
    namespace, checked = {}, set()
    for statement in ast.parse(source).body:
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            if isinstance(statement, ast.Expr):
                value = eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace)
            else:
                exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
        end = statement.end_lineno
        if end in notes:
            assert isinstance(statement, ast.Expr) and repr(value) == notes[end], lines[end - 1]
            checked.add(end)
        shown = []
        while end + len(shown) < len(lines) and lines[end + len(shown)].lstrip().startswith("#"):
            checked.add(end + len(shown) + 1)
            shown.append(notes[end + len(shown) + 1])
        assert printed.getvalue().splitlines() == shown, lines[statement.lineno - 1]
    # every comment of the block was a value or a printed line, and was checked
    assert checked == notes.keys() and len(notes) == 4


def test_each_command_example_prints_its_shown_lines_first(capsys):
    block = fenced("### Examples", "sh")
    commands = block.split("$ ")[1:]
    assert len(commands) == 3
    for command in commands:
        first, *shown = command.strip().splitlines()
        program, *argv = shlex.split(first)
        assert program == "goeritz" and shown[-1].strip() == "...", first
        shown = shown[:-1]
        assert main(argv) == 0, first
        out = capsys.readouterr().out.splitlines()
        assert out[: len(shown)] == shown, first
