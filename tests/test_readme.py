"""README's examples: the command lines under "CLI" run, and the Python
blocks under "Library use" run and print the values their comments give."""

import ast
import io
import re
import shlex
import textwrap
import tokenize
from pathlib import Path

from test_cli import run

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(heading: str) -> list[str]:
    """The indented code blocks of one "## " section, dedented, in order."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}", 1)[1].split("\n## ", 1)[0]
    # a block is a run of lines indented by four spaces after a blank line
    return [textwrap.dedent(block) for block in re.findall(r"(?<=\n\n)((?: {4}.*\n)+)", section)]


def test_cli_examples_exit_0():
    lines = [line for block in _blocks("CLI") for line in block.splitlines()
             if line.startswith("codebounds ")]
    assert len(lines) == 6
    for line in lines:
        rc, out, err = run(*shlex.split(line)[1:])
        assert (rc, err) == (0, ""), line
        assert out, line


def _comments(block: str) -> dict[int, str]:
    """Line number -> the text of the comment on that line, '#' dropped."""
    return {tok.start[0]: tok.string[1:].strip()
            for tok in tokenize.generate_tokens(io.StringIO(block).readline)
            if tok.type == tokenize.COMMENT}


def _parses(text: str) -> bool:
    try:
        ast.parse(text, mode="eval")
    except SyntaxError:
        return False
    return True


def test_library_examples_give_their_annotated_values():
    # the blocks run in order in one namespace; a comment that parses as an
    # expression annotates the value of its statement (the targets of an
    # assignment, else the expression): a trailing comment up to its first
    # ':', and a comment on a line of its own, the statement above it
    namespace = {}
    checked = []
    for block in _blocks("Library use"):
        comments = _comments(block)
        for stmt in ast.parse(block).body:
            if isinstance(stmt, ast.Expr):
                value = eval(ast.unparse(stmt), namespace)
            else:
                exec(ast.unparse(stmt), namespace)
                value = eval(ast.unparse(stmt.targets[0]), namespace) if isinstance(stmt, ast.Assign) else None
            trailing = [comments[line].split(":", 1)[0]
                        for line in range(stmt.lineno, stmt.end_lineno + 1) if line in comments]
            standalone = []
            line = stmt.end_lineno + 1
            while line in comments and block.splitlines()[line - 1].lstrip().startswith("#"):
                standalone.append(comments[line])
                line += 1
            for text in trailing + standalone:
                if _parses(text):
                    assert value == eval(text, namespace), text
                    checked.append(text)
    # four trailing comments under the oracle example and one under
    # best_upper_row
    assert len(checked) == 5, checked

