"""README's size-cap table lists every MAX_* constant of the package with its
current value."""

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
