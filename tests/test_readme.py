"""README's size-cap table lists every MAX_* constant of the package with its
current value, and its python examples run as doctests."""

import doctest
import importlib
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _source_caps():
    caps = {}
    for path in sorted((ROOT / "src" / "qtwick").glob("*.py")):
        names = re.findall(r"^(MAX_[A-Z0-9_]+)\s*=", path.read_text(), re.M)
        if names:
            module = importlib.import_module(f"qtwick.{path.stem}")
            caps.update({f"{path.stem}.{name}": getattr(module, name) for name in names})
    return caps


def _readme_caps():
    text = (ROOT / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+\.MAX_\w+)` \| ([\d,]+) \|", text, re.M)
    return {name: int(value.replace(",", "")) for name, value in rows}


def test_readme_cap_table_matches_the_source():
    assert _readme_caps() == _source_caps()


def _python_blocks():
    """The ```python fenced blocks of README.md, without their fences:
    doctest.testfile would read each closing fence as expected output."""
    text = (ROOT / "README.md").read_text()
    return re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)


def test_readme_python_blocks_run_as_doctests():
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    globs: dict = {}  # one namespace, as a reader's session runs the blocks in turn
    examples = 0
    for k, block in enumerate(_python_blocks()):
        test = parser.get_doctest(block, globs, f"README.md block {k}", "README.md", 0)
        examples += len(test.examples)
        runner.run(test, clear_globs=False)
    assert examples > 0
    assert runner.summarize(verbose=False).failed == 0
