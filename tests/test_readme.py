"""The README's library example runs as written against the current API,
and its configuration table names every dotted key with its default."""

import re
from pathlib import Path

from dsmsharp.config import _KEYS, PipelineConfig, build_config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [name for name, _ in rows] == ["original", "planefit", "graphcut"]
    original, planefit, graphcut = (float(value) for _, value in rows)
    assert planefit < original and graphcut < original


def _key_table() -> dict[str, str]:
    """key -> documented default of each row of the README's key table; a
    row `a.b/.c` with default `1 / 2` stands for `a.b` = 1 and `a.c` = 2."""
    text = README.read_text()
    table = text[text.index("| key | default | meaning |") :].split("\n\n")[0]
    rows = {}
    for first, *rest in re.findall(r"^\| `([^`]+)` \| ([^|]+) \|", table, flags=re.M):
        names = first.split("/.")
        defaults = rest[0].strip().split(" / ")
        assert len(defaults) == len(names), first
        group = names[0].rsplit(".", 1)[0]
        keys = [names[0]] + [f"{group}.{name}" for name in names[1:]]
        rows.update(zip(keys, defaults))
    return rows


def test_readme_key_table_lists_every_dotted_key_and_its_default():
    table = _key_table()
    assert sorted(table) == sorted(key for key in _KEYS if "." in key)
    documented = {key: value for key, value in table.items() if value != "unset"}
    assert build_config(None, documented) == PipelineConfig()
