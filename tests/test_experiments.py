"""EXPERIMENTS.md is what ``benchmarks/experiments.py`` writes: every
number in an experiment block is regenerated and compared byte for
byte, so a change that moves one also regenerates the file
(``PYTHONPATH=src python -m benchmarks.experiments``)."""

import pytest

from benchmarks.experiments import EXPERIMENTS_MD, render


def test_experiments_md_is_what_the_experiments_write():
    text = EXPERIMENTS_MD.read_text()
    assert render(text) == text


@pytest.mark.parametrize("text", [
    "<!-- experiment: no_such_experiment -->\n<!-- /experiment -->\n",
    "no blocks at all\n",
])
def test_blocks_and_experiments_must_match(text):
    with pytest.raises(ValueError, match="disagree"):
        render(text)
