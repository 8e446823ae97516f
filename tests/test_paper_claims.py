"""The paper-claims table and its runner (``benchmarks/claims.py`` +
``benchmarks/paper.py``): structure, EXPERIMENTS.md blocks, exit status.

The full table takes minutes and runs in CI's ``paper-shape`` job; the
only simulation here is the Fig 9 micro row.
"""

import dataclasses
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "benchmarks"))

import claims  # noqa: E402
import paper  # noqa: E402


def test_row_ids_are_unique():
    ids = [row.id for row in claims.CLAIMS]
    assert len(ids) == len(set(ids))


def test_blocks_and_rows_match_one_to_one():
    text = paper.EXPERIMENTS.read_text(encoding="utf-8")
    blocks = [m.group(2) for m in paper.BLOCK.finditer(text)]
    assert sorted(blocks) == sorted(row.id for row in claims.CLAIMS)
    # Every opened block is closed before the next one opens.
    assert text.count("<!-- claim:") == text.count("<!-- /claim -->")


def test_every_row_has_a_summary_and_source():
    for row in claims.CLAIMS:
        assert row.summary and row.source, row.id
        assert (row.source.startswith("Fig")
                or row.source in ("ablation", "beyond the paper")), row.id


def _fig09():
    (row,) = [row for row in claims.CLAIMS if row.id == "fig09"]
    return row


def test_green_row_exits_zero(capsys):
    assert paper.main(["--claim", "fig09"]) == 0
    out = capsys.readouterr().out
    assert "| bytes | tcp-1g |" in out
    assert "[ok] fig09:64B.write<read" in out
    assert "[FAIL]" not in out


def test_failing_predicate_exits_one(monkeypatch, capsys):
    def check(results):
        return _fig09().check(results) + [("never-holds", False, "by design")]
    broken = dataclasses.replace(_fig09(), check=check)
    monkeypatch.setattr(paper, "CLAIMS", [broken])
    assert paper.main(["--claim", "fig09"]) == 1
    assert "[FAIL] fig09:never-holds by design" in capsys.readouterr().out


def test_write_replaces_only_the_named_blocks(tmp_path):
    doc = tmp_path / "EXPERIMENTS.md"
    doc.write_text("intro\n<!-- claim:a -->\nold a\n<!-- /claim -->\n"
                   "mid\n<!-- claim:b -->\nold b\n<!-- /claim -->\nend\n")
    paper.write_blocks({"a": "| new |\n"}, doc)
    assert doc.read_text() == (
        "intro\n<!-- claim:a -->\n| new |\n<!-- /claim -->\n"
        "mid\n<!-- claim:b -->\nold b\n<!-- /claim -->\nend\n")
    with pytest.raises(SystemExit):
        paper.write_blocks({"c": "x\n"}, doc)


def test_write_needs_the_small_preset():
    with pytest.raises(SystemExit):
        paper.main(["--write", "--scale", "medium", "--claim", "fig09"])

