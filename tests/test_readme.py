"""The README's library example runs as written against the current API,
the reference-scene numbers its text states are the ones the example prints,
and its configuration table names every dotted key with its default."""

import contextlib
import io
import re
from pathlib import Path

import pytest

from dsmsharp.config import _KEYS, PipelineConfig, build_config

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture(scope="module")
def printed() -> dict[str, str]:
    """name -> value of each row the README's library example prints."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    rows = [line.split() for line in out.getvalue().splitlines()]
    assert [name for name, _ in rows] == ["original", "planefit", "graphcut"]
    return dict(rows)


def test_readme_library_example_runs(printed):
    original, planefit, graphcut = (float(value) for value in printed.values())
    assert planefit < original and graphcut < original


def test_readme_states_the_printed_numbers(printed):
    text = " ".join(README.read_text().split())
    rows = re.findall(r"\(original ([\d.]+), planefit ([\d.]+), graphcut ([\d.]+)\)", text)
    assert rows == [(printed["original"], printed["planefit"], printed["graphcut"])]
    # "<method> [cuts boundary-5 RMSE] by about N% ([original] to X)"
    names = {"graph-cut": "graphcut", "plane fit": "planefit"}
    claims = re.findall(
        r"(graph-cut|plane fit)(?: cuts boundary-5 RMSE)? by about (\d+)% "
        r"\((?:([\d.]+) )?to ([\d.]+)\)",
        text,
    )
    assert sorted(method for method, *_ in claims) == sorted(names)
    original = float(printed["original"])
    for method, percent, before, after in claims:
        assert after == printed[names[method]], method
        assert before in ("", printed["original"]), method
        assert int(percent) == round(100 * (original - float(after)) / original), method


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
