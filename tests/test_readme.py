"""README's module table, size sentence and test count, against what they describe."""

import ast
import re
from pathlib import Path

import pytest

import cyclegas
from cyclegas.errors import CAPS

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
SOURCES = sorted((ROOT / "src" / "cyclegas").glob("*.py"))


def code_lines(source: str) -> int:
    """Non-blank lines outside docstrings and comment-only lines, as CI counts them."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        if isinstance(node, kinds) and ast.get_docstring(node, clean=False) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return sum(
        1
        for i, line in enumerate(source.splitlines(), 1)
        if line.strip() and not line.lstrip().startswith("#") and i not in docs
    )


def test_module_table_lists_every_layer_module():
    listed = re.findall(r"^\| `cyclegas\.(\w+)` \|", README, flags=re.MULTILINE)
    assert len(listed) == len(set(listed))
    assert set(listed) == {path.stem for path in SOURCES} - {"__init__", "errors"}


def test_size_sentence_matches_the_code():
    match = re.search(
        r"The package is ([\d,]+) lines of Python in `src/cyclegas`, ([\d,]+) of them code\s+"
        r"lines .*? with the (\d+) exported names and the (\d+) rows of\s+"
        r"`cyclegas\.errors\.CAPS`",
        README,
        flags=re.DOTALL,
    )
    assert match is not None
    lines, code, exported, caps = (int(group.replace(",", "")) for group in match.groups())
    sources = [path.read_text() for path in SOURCES]
    assert lines == sum(len(source.splitlines()) for source in sources)
    assert code == sum(map(code_lines, sources))
    assert exported == len(cyclegas.__all__)
    assert caps == len(CAPS)


def test_test_count_matches_the_whole_run(whole_run_count):
    if whole_run_count is None:
        pytest.skip("only a run of the whole suite counts its tests")
    match = re.search(r"\((\d[\d,]*) tests, about \d+ s on 2 vCPUs\)", README)
    assert match is not None
    assert int(match[1].replace(",", "")) == whole_run_count
