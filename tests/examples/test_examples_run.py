"""Smoke tests: every example script runs to completion.

Examples are documentation that executes; these tests keep them
executing as the library evolves.  Each test loads the script and
calls its ``main()`` (output is captured by pytest).
"""

import pathlib
import runpy
import sys

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).parents[2] / "examples").glob("*.py")
)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(path, monkeypatch, capsys):
    if path.stem == "deployment_planner":
        monkeypatch.setattr(sys, "argv", [str(path), "1000000"])
    namespace = runpy.run_path(str(path))
    namespace["main"]()
    out = capsys.readouterr().out
    assert out.strip(), f"{path.stem} produced no output"


def test_all_examples_discovered():
    # An exact list: adding or deleting an example is a deliberate edit.
    assert [p.stem for p in EXAMPLES] == [
        "deployment_planner",
        "private_ads",
        "private_image_search",
        "private_recommendations",
        "private_text_search",
        "quickstart",
    ]
