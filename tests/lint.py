"""Simulated-time hygiene lint (AST-based, stdlib only).

Everything in the ``repro`` package runs on a *simulated* clock with explicit
seeds, so two classes of code are bugs by construction:

* ``import random`` — the stdlib global RNG has hidden process-wide
  state; all randomness must come from ``numpy.random.default_rng``
  with an explicit seed (that is what makes the fast path bit-identical
  and every experiment reproducible);
* wall-clock reads (``time.time``, ``time.monotonic``,
  ``time.perf_counter``, ``datetime.now`` ...) inside simulated-time
  code — real time leaking into a simulation makes results machine- and
  load-dependent.

The telemetry tracer legitimately measures wall time for spans; it is
allowlisted.  Individual lines can opt out with a ``# lint:
wall-clock-ok`` comment.  ``tests/test_check.py::TestLint`` runs
:func:`lint_package` over the imported ``repro`` tree.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import repro

#: Files (by path suffix, POSIX-style) where wall-clock reads are the
#: point, not a bug.
WALL_CLOCK_ALLOWLIST: Tuple[str, ...] = (
    "telemetry/tracing.py",
    # The sweep executor times real cell execution (throughput/manifest
    # accounting); nothing inside a simulation reads these clocks.
    "runner/executor.py",
)

#: Inline escape hatch.
PRAGMA = "lint: wall-clock-ok"

_TIME_FUNCS = {"time", "monotonic", "perf_counter", "time_ns", "monotonic_ns"}
_DATETIME_FUNCS = {"now", "utcnow", "today"}

CODE_RANDOM = "CHK001"
CODE_WALL_CLOCK = "CHK002"


@dataclass(frozen=True)
class LintIssue:
    """One finding: file, line, rule code, human-readable message."""

    path: str
    line: int
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.code}] {self.message}"


def _has_pragma(source_lines: Sequence[str], lineno: int) -> bool:
    if 1 <= lineno <= len(source_lines):
        return PRAGMA in source_lines[lineno - 1]
    return False


def _wall_clock_calls(tree: ast.AST) -> List[Tuple[int, str]]:
    """(line, description) of every wall-clock read in the tree."""
    found: List[Tuple[int, str]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        target = func.value
        # time.time() / time.monotonic() / time.perf_counter() ...
        if (
            isinstance(target, ast.Name)
            and target.id == "time"
            and func.attr in _TIME_FUNCS
        ):
            found.append((node.lineno, f"time.{func.attr}()"))
        # datetime.now() / datetime.utcnow() / date.today(), optionally
        # spelled datetime.datetime.now().
        elif func.attr in _DATETIME_FUNCS:
            base: Optional[str] = None
            if isinstance(target, ast.Name):
                base = target.id
            elif isinstance(target, ast.Attribute) and isinstance(
                target.value, ast.Name
            ):
                base = f"{target.value.id}.{target.attr}"
            if base in ("datetime", "date", "datetime.datetime", "datetime.date"):
                found.append((node.lineno, f"{base}.{func.attr}()"))
    return found


def lint_source(source: str, path: str = "<string>") -> List[LintIssue]:
    """Lint one module's source text; returns the issues found."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [
            LintIssue(path, error.lineno or 1, "CHK000", f"syntax error: {error.msg}")
        ]
    lines = source.splitlines()
    issues: List[LintIssue] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    issues.append(
                        LintIssue(
                            path, node.lineno, CODE_RANDOM,
                            "bare `import random`: use numpy.random."
                            "default_rng with an explicit seed",
                        )
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                issues.append(
                    LintIssue(
                        path, node.lineno, CODE_RANDOM,
                        "`from random import ...`: use numpy.random."
                        "default_rng with an explicit seed",
                    )
                )
            elif node.module == "time" and any(
                alias.name in _TIME_FUNCS for alias in node.names
            ):
                if not _has_pragma(lines, node.lineno):
                    issues.append(
                        LintIssue(
                            path, node.lineno, CODE_WALL_CLOCK,
                            "wall-clock import from `time` in "
                            "simulated-time code",
                        )
                    )
    allowlisted = any(
        Path(path).as_posix().endswith(suffix) for suffix in WALL_CLOCK_ALLOWLIST
    )
    if not allowlisted:
        for lineno, description in _wall_clock_calls(tree):
            if _has_pragma(lines, lineno):
                continue
            issues.append(
                LintIssue(
                    path, lineno, CODE_WALL_CLOCK,
                    f"wall-clock read {description} in simulated-time code "
                    f"(add `# {PRAGMA}` only if this is truly wall time)",
                )
            )
    issues.sort(key=lambda issue: (issue.path, issue.line))
    return issues


def lint_file(path) -> List[LintIssue]:
    """Lint one file on disk."""
    p = Path(path)
    return lint_source(p.read_text(encoding="utf-8"), str(p))


def lint_package(root=None) -> List[LintIssue]:
    """Lint every ``*.py`` under ``root`` (default: the imported
    ``repro`` package).

    Paths in issues are reported relative to ``root`` so output is
    stable across machines.
    """
    base = Path(root) if root is not None else Path(repro.__file__).resolve().parent
    issues: List[LintIssue] = []
    for path in sorted(base.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        relative = path.relative_to(base).as_posix()
        issues.extend(lint_source(source, relative))
    return issues
