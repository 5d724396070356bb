"""README's examples run as written and give the results their comments state.

The library quick tour is run statement by statement: each expression's value,
printed with ``str``, must open the comment that follows it (on its own line or
the next, after an optional ``-> ``).  The tour reads the single-value
properties of step results (``new_image``, ``remainder``, ``carry``).
"""

import ast
import shlex
from pathlib import Path

from fuzzysns import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(heading: str, language: str) -> str:
    """The first fenced ``language`` block after ``heading``."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def _comment(lines: list[str], node: ast.stmt) -> str:
    """The comment on a statement's last line, or on the line after it."""
    for line in lines[node.end_lineno - 1:node.end_lineno + 1]:
        if "#" in line:
            return line.split("#", 1)[1].strip().removeprefix("-> ")
    raise AssertionError(f"no comment after line {node.end_lineno}")


def test_quick_tour_gives_the_commented_results():
    source = _block("## Library quick tour", "python")
    lines = source.splitlines()
    namespace: dict = {}
    shown, comments, warnings = [], [], []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        call = node.value
        if isinstance(call, ast.Attribute):  # a property of a step result: keep its warnings
            result = eval(compile(ast.Expression(call.value), "README.md", "eval"), namespace)
            warnings.append(result.warnings)
            value = getattr(result, call.attr)
        else:
            value = eval(compile(ast.Expression(call), "README.md", "eval"), namespace)
        shown.append(str(value))
        comments.append(_comment(lines, node))
        assert comments[-1].startswith(shown[-1]), (node.lineno, shown[-1])
    assert shown == ["14", "(-5; 1; 6)", "{2|1}", "{1|0.4, 2|1, 3|0.6}"]
    assert "flagged in .warnings" in comments[1]
    assert warnings == [(), ("remainder for 'i' has negative lower bound -5",), ()]


def test_cli_carry_example_prints_its_commented_result(capsys):
    line = next(s for s in _block("## CLI", "sh").splitlines() if "carry --family tri" in s)
    command, comment = line.split("#", 1)
    assert shlex.split(command)[:2] == ["fuzzysns", "carry"]
    assert cli.main(shlex.split(command)[1:]) == 0
    captured = capsys.readouterr()
    assert comment.strip() == "-> (1; 2; 3)"
    assert captured.out == "(1; 2; 3)\n" and captured.err == ""
