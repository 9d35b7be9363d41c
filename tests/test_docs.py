"""Documentation health: link integrity and runnable snippets.

Runs ``scripts/check_docs.py`` over the repo's top-level markdown — every
relative link must resolve, every ```` ```python ```` block must compile,
and interpreter-session blocks (``>>>``) must pass as doctests.  The CI
``docs`` job runs the same script, so README/FAULTS quickstarts cannot
silently rot.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
CHECKER = REPO_ROOT / "scripts" / "check_docs.py"

sys.path.insert(0, str(CHECKER.parent))
import check_docs  # noqa: E402


def test_all_root_docs_are_clean():
    """The real gate: zero dead links / broken snippets across *.md."""
    result = subprocess.run(
        [sys.executable, str(CHECKER)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0, (
        f"doc check failed:\n{result.stdout}\n{result.stderr}"
    )


@pytest.mark.parametrize("name", ["README.md", "FAULTS.md", "ARCHITECTURE.md"])
def test_key_documents_exist_and_have_content(name):
    path = REPO_ROOT / name
    assert path.is_file()
    assert len(path.read_text()) > 500


def test_checker_flags_dead_links(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text("[gone](nope.md) and [ok](#anchor) and [web](https://x.y)\n")
    problems = check_docs.check_file(doc)
    assert len(problems) == 1
    assert "nope.md" in problems[0]


def test_checker_flags_uncompilable_snippets(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text("```python\ndef broken(:\n```\n")
    problems = check_docs.check_file(doc)
    assert len(problems) == 1
    assert "does not compile" in problems[0]


def test_checker_runs_doctest_blocks(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text("```python\n>>> 2 + 2\n5\n\n```\n")
    problems = check_docs.check_file(doc)
    assert len(problems) == 1
    assert "doctest failed" in problems[0]

    doc.write_text("```python\n>>> 2 + 2\n4\n\n```\n")
    assert check_docs.check_file(doc) == []


def test_readme_quickstart_doctest_is_live():
    """README's fault-model block really is executed (it contains >>>)."""
    text = (REPO_ROOT / "README.md").read_text()
    blocks = list(check_docs.python_blocks(text))
    assert any(">>>" in source for _start, source in blocks)


def test_checker_flags_stale_paths_and_names(tmp_path):
    text = (
        "Live: `src/repro/api.py`, `benchmarks/bench_*.py`, `repro.api.run`,\n"
        "`repro.experiments.fig*` and `repro.observability.AlignmentAction`.\n"
        "Stale: `python scripts/gone_report.py`, `tests/core/gone*.py`,\n"
        "`repro.core.trace` and `repro.api.gone`.\n"
        "```bash\n"
        "python scripts/fenced_commands_are_not_checked.py\n"
        "```\n"
        "## Removed in 9.0\n"
        "| `repro.core.trace` | retired on purpose |\n"
        "## Later\n"
        "`examples/gone.py`\n"
    )
    doc = tmp_path / "README.md"
    doc.write_text(text)
    problems = check_docs.check_file(doc)
    assert [p.split(": ", 1)[1] for p in problems] == [
        "no such path `scripts/gone_report.py`",
        "no such path `tests/core/gone*.py`",
        "`repro.core.trace` does not resolve",
        "`repro.api.gone` does not resolve",
        "no such path `examples/gone.py`",
    ]
    assert problems[0].startswith("README.md:3:")

    notes = tmp_path / "NOTES.md"  # not a current-state doc: history may
    notes.write_text(text)  # name what is gone
    assert check_docs.check_file(notes) == []
