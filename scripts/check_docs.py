#!/usr/bin/env python
"""Documentation checker: intra-repo markdown links + runnable snippets.

Two classes of doc rot this catches:

* **Dead links** — every relative markdown link (``[text](FILE.md)``,
  ``[text](dir/file.py#anchor)``) in the repo's top-level docs must point
  at a file that exists.  External links (``http(s)://``, ``mailto:``)
  and pure in-page anchors (``#section``) are skipped.
* **Stale snippets** — every fenced ```` ```python ```` block is
  compiled; blocks written as interpreter sessions (containing ``>>>``)
  are additionally *executed* as doctests, so quickstart examples in
  README.md and FAULTS.md keep producing exactly the output they show.
* **CLI drift** — every ``repro <subcommand>`` a doc mentions (inline
  code or ``python -m repro ...`` invocation) must be a real subcommand
  of :func:`repro.cli.build_parser`, and — when checking the full doc
  set — every real subcommand must be documented somewhere.
* **Stale names** — in the docs that describe the current state
  (:data:`CURRENT_STATE_DOCS`), every inline-code repo path
  (``src/…``, ``tests/…``, ``benchmarks/…``, ``scripts/…``,
  ``examples/…``, ``perfbench/…``; globs allowed) must exist, and every
  inline-code dotted name under ``repro.`` must import (a module, or an
  attribute chain on one).  Sections headed "Removed …" list retired
  names on purpose and are skipped.

Exit status 0 = clean; 1 = problems (each printed one per line).
Run as ``PYTHONPATH=src python scripts/check_docs.py [files...]``;
with no arguments it checks every ``*.md`` at the repo root.
"""

from __future__ import annotations

import doctest
import importlib
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

#: ``[text](target)`` — excluding images; target split from a "#anchor".
LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")

FENCE_RE = re.compile(r"^```(\w*)\s*$")

SKIP_SCHEMES = ("http://", "https://", "mailto:", "ftp://")

#: A doc's reference to a CLI subcommand: inline code (`repro sweep ...`)
#: or a module invocation (python -m repro sweep ...).  The backtick /
#: ``-m`` anchor keeps prose like "the repro package" out of scope.
CLI_REF_RE = re.compile(r"(?:`|-m )repro\s+([a-z][a-z-]*)")

#: Docs whose repo paths and ``repro.`` names must resolve today
#: (ROADMAP, CHANGES and REPRODUCTION are history or generated output).
CURRENT_STATE_DOCS = frozenset({
    "README.md",
    "DESIGN.md",
    "ARCHITECTURE.md",
    "EXPERIMENTS.md",
    "OBSERVABILITY.md",
    "FAULTS.md",
})

INLINE_CODE_RE = re.compile(r"`([^`\n]+)`")
REPO_PATH_RE = re.compile(
    r"(?<![\w./-])((?:src|tests|benchmarks|scripts|examples|perfbench)/[\w./*-]*)"
)
MODULE_NAME_RE = re.compile(r"(?<![\w./-])(repro(?:\.(?:\w|\*)+)+)")
HEADING_RE = re.compile(r"^(#+)\s+(.*)$")


def cli_subcommands() -> set[str]:
    """The real subcommands, straight from the argparse tree."""
    from repro.cli import build_parser

    parser = build_parser()
    for action in parser._subparsers._group_actions:  # noqa: SLF001
        return set(action.choices)
    return set()


def iter_links(text: str):
    for match in LINK_RE.finditer(text):
        target = match.group(1)
        line = text.count("\n", 0, match.start()) + 1
        yield line, target


def python_blocks(text: str):
    """Yield ``(start_line, source)`` for every ```python fenced block."""
    lines = text.splitlines()
    block: list[str] | None = None
    start = 0
    for number, line in enumerate(lines, 1):
        fence = FENCE_RE.match(line.strip())
        if block is None:
            if fence and fence.group(1) == "python":
                block, start = [], number + 1
        elif fence:
            yield start, "\n".join(block) + "\n"
            block = None
        else:
            block.append(line)


def check_links(path: Path, text: str) -> list[str]:
    problems = []
    for line, target in iter_links(text):
        if target.startswith(SKIP_SCHEMES) or target.startswith("#"):
            continue
        resolved = (path.parent / target.partition("#")[0]).resolve()
        if not resolved.exists():
            problems.append(f"{path.name}:{line}: dead link -> {target}")
    return problems


def check_snippets(path: Path, text: str) -> list[str]:
    problems = []
    parser = doctest.DocTestParser()
    for start, source in python_blocks(text):
        label = f"{path.name}:{start}"
        if ">>>" in source:
            test = parser.get_doctest(source, {}, label, str(path), start)
            runner = doctest.DocTestRunner(
                optionflags=doctest.ELLIPSIS | doctest.NORMALIZE_WHITESPACE,
                verbose=False,
            )
            out: list[str] = []
            runner.run(test, out=out.append)
            if runner.failures:
                problems.append(
                    f"{label}: doctest failed "
                    f"({runner.failures}/{runner.tries} examples)"
                )
                sys.stderr.write("".join(out))
        else:
            try:
                compile(source, label, "exec")
            except SyntaxError as error:
                problems.append(f"{label}: snippet does not compile: {error}")
    return problems


def check_cli_references(
    path: Path, text: str, subcommands: set[str], seen: set[str]
) -> list[str]:
    problems = []
    for match in CLI_REF_RE.finditer(text):
        name = match.group(1)
        line = text.count("\n", 0, match.start()) + 1
        if name in subcommands:
            seen.add(name)
        else:
            problems.append(
                f"{path.name}:{line}: `repro {name}` is not a CLI "
                f"subcommand (have: {', '.join(sorted(subcommands))})"
            )
    return problems


def current_state_lines(text: str):
    """Yield ``(line_number, line)`` outside fenced blocks and outside
    sections whose heading starts with "Removed"."""
    in_fence = False
    removed_level = 0
    for number, line in enumerate(text.splitlines(), 1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        heading = HEADING_RE.match(line)
        if heading:
            level = len(heading.group(1))
            if removed_level and level <= removed_level:
                removed_level = 0
            if not removed_level and heading.group(2).startswith("Removed"):
                removed_level = level
            continue
        if not removed_level:
            yield number, line


def repo_path_exists(ref: str) -> bool:
    if "*" in ref:
        return any(REPO_ROOT.glob(ref))
    return (REPO_ROOT / ref).exists()


def repro_name_resolves(name: str) -> bool:
    """True when *name* is an importable module under ``repro`` or an
    attribute chain on one; ``*`` matches module names."""
    parts = name.split(".")
    if any("*" in part for part in parts):
        pattern = "/".join(["src", *parts])
        return any(REPO_ROOT.glob(pattern + ".py")) or any(
            REPO_ROOT.glob(pattern + "/__init__.py")
        )
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:]:
            if not hasattr(target, attr):
                return False
            target = getattr(target, attr)
        return True
    return False


def check_names(path: Path, text: str) -> list[str]:
    """Stale repo paths and ``repro.`` names in a current-state doc."""
    problems = []
    for line, content in current_state_lines(text):
        for code in INLINE_CODE_RE.findall(content):
            for ref in REPO_PATH_RE.findall(code):
                if not repo_path_exists(ref.rstrip(".")):
                    problems.append(f"{path.name}:{line}: no such path `{ref}`")
            for name in MODULE_NAME_RE.findall(code):
                if not repro_name_resolves(name.rstrip(".")):
                    problems.append(
                        f"{path.name}:{line}: `{name}` does not resolve"
                    )
    return problems


def check_file(
    path: Path,
    subcommands: set[str] | None = None,
    seen: set[str] | None = None,
) -> list[str]:
    if subcommands is None:
        subcommands = cli_subcommands()
    if seen is None:
        seen = set()
    text = path.read_text(encoding="utf-8")
    problems = (
        check_links(path, text)
        + check_snippets(path, text)
        + check_cli_references(path, text, subcommands, seen)
    )
    if path.name in CURRENT_STATE_DOCS:
        problems += check_names(path, text)
    return problems


def main(argv: list[str]) -> int:
    full_sweep = not argv
    if argv:
        paths = [Path(arg) for arg in argv]
    else:
        paths = sorted(REPO_ROOT.glob("*.md"))
    subcommands = cli_subcommands()
    seen: set[str] = set()
    problems: list[str] = []
    checked = 0
    for path in paths:
        if not path.exists():
            problems.append(f"{path}: no such file")
            continue
        checked += 1
        problems.extend(check_file(path, subcommands, seen))
    if full_sweep:
        for name in sorted(subcommands - seen):
            problems.append(
                f"CLI subcommand `repro {name}` is documented nowhere "
                "in the top-level *.md docs"
            )
    for problem in problems:
        print(problem)
    status = "FAIL" if problems else "ok"
    print(f"[check_docs] {checked} file(s), {len(problems)} problem(s): {status}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
