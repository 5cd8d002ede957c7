#!/usr/bin/env python
"""Stdlib line-coverage reporter for ``src/repro``.

The container has no ``coverage``/``pytest-cov``, so this tool implements the
minimum viable substitute: a ``sys.settrace`` tracer that records executed
line numbers for files under ``src/repro``, runs the tier-1 pytest suite (or
whatever pytest args are passed on the command line), and prints a per-file
``covered / executable / %`` table.  Executable-line denominators come from
compiling each source file and walking ``code.co_lines()`` recursively, so
the numbers line up with what CPython can actually attribute to a line.

Usage::

    make coverage                           # tier-1 suite, default args
    PYTHONPATH=src python tools/line_coverage.py -m verify   # custom args

CI gating: ``--fail-under PCT`` exits non-zero when coverage drops below
``PCT`` percent, and ``--select PREFIX`` (repeatable, repo-relative)
restricts that floor to an aggregate over matching source files — e.g.
``--select src/repro/verify --select src/repro/experiments/lockstep.py``
guards the verification layer and the lock-step engine specifically.  All
other arguments pass through to pytest.

The tracer is installed for the main thread and (via ``threading.settrace``)
any threads pytest spawns — the table measures what the test process itself
executes.

Exit status is pytest's exit status, so the target can gate CI.
"""

from __future__ import annotations

import os
import sys
import threading
from collections import defaultdict

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET_PREFIX = os.path.join(REPO_ROOT, "src", "repro") + os.sep

_executed: dict = defaultdict(set)


def _tracer(frame, event, arg):
    filename = frame.f_code.co_filename
    if not filename.startswith(TARGET_PREFIX):
        return None  # don't trace into this frame at all
    if event == "line":
        _executed[filename].add(frame.f_lineno)
    return _tracer


def _executable_lines(path: str) -> set:
    """All line numbers CPython attributes bytecode to, for *path*."""
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    lines: set = set()
    stack = [compile(source, path, "exec")]
    while stack:
        code = stack.pop()
        for _, _, lineno in code.co_lines():
            if lineno is not None:
                lines.add(lineno)
        for const in code.co_consts:
            if hasattr(const, "co_lines"):
                stack.append(const)
    return lines


def _iter_source_files():
    root = TARGET_PREFIX.rstrip(os.sep)
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _report(select=()) -> float:
    """Print the per-file table; return the gated aggregate percentage.

    With ``select`` prefixes the returned (and separately printed)
    aggregate covers only matching files; otherwise it is the grand total.
    """
    rows = []
    total_covered = 0
    total_lines = 0
    sel_covered = 0
    sel_lines = 0
    for path in _iter_source_files():
        executable = _executable_lines(path)
        covered = _executed.get(path, set()) & executable
        total_covered += len(covered)
        total_lines += len(executable)
        rel = os.path.relpath(path, REPO_ROOT)
        if any(rel.startswith(prefix) for prefix in select):
            sel_covered += len(covered)
            sel_lines += len(executable)
        pct = 100.0 * len(covered) / len(executable) if executable else 100.0
        rows.append((rel, len(covered), len(executable), pct))

    name_width = max(len(r[0]) for r in rows) if rows else 4
    print()
    print(f"{'file'.ljust(name_width)}  covered  executable      %")
    print("-" * (name_width + 30))
    for name, covered, executable, pct in rows:
        print(f"{name.ljust(name_width)}  {covered:7d}  {executable:10d}  {pct:5.1f}")
    print("-" * (name_width + 30))
    total_pct = 100.0 * total_covered / total_lines if total_lines else 100.0
    print(f"{'TOTAL'.ljust(name_width)}  {total_covered:7d}  {total_lines:10d}  {total_pct:5.1f}")
    if not select:
        return total_pct
    sel_pct = 100.0 * sel_covered / sel_lines if sel_lines else 100.0
    label = f"SELECTED ({', '.join(select)})"
    print(f"{label.ljust(name_width)}  {sel_covered:7d}  {sel_lines:10d}  {sel_pct:5.1f}")
    return sel_pct


def main(argv) -> int:
    import argparse

    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--fail-under", type=float, default=None)
    parser.add_argument("--select", action="append", default=[])
    opts, pytest_args = parser.parse_known_args(list(argv))

    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    import pytest  # imported late so the tracer doesn't slow module import

    pytest_args = pytest_args or ["-x", "-q", "--tb=no"]

    threading.settrace(_tracer)
    sys.settrace(_tracer)
    try:
        rc = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    gated_pct = _report(select=tuple(opts.select))
    if int(rc) == 0 and opts.fail_under is not None and gated_pct < opts.fail_under:
        print(
            f"\nFAIL: coverage {gated_pct:.1f}% is below the "
            f"--fail-under floor of {opts.fail_under:.1f}%"
        )
        return 2
    return int(rc)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
