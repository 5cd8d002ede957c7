"""Shared machinery for the figure/table benchmark harness.

Each ``bench_*.py`` regenerates one paper figure or table: it runs the
corresponding experiment (timed by pytest-benchmark), prints the series the
paper reports, and writes the rendered report to ``benchmarks/output/``.

By default the reduced *quick* configurations run; set ``REPRO_BENCH_FULL=1``
for paper-scale replication counts.
"""

import os
import subprocess
from pathlib import Path

import pytest

from repro.experiments.report import render_result, result_to_json

FULL_MODE = os.environ.get("REPRO_BENCH_FULL", "0") == "1"
OUTPUT_DIR = Path(__file__).parent / "output"

# The bench_perf_* modules deposit their sections here; pytest_sessionfinish
# assembles them into BENCH_perf.json at the repo root (docs/performance.md).
PERF_RESULTS = {}
PERF_JSON = Path(__file__).parent.parent / "BENCH_perf.json"

# bench_perf_service.py deposits its sections here; they land in their own
# BENCH_service.json (the fleet-scale service report, docs/service.md).
SERVICE_RESULTS = {}
SERVICE_JSON = Path(__file__).parent.parent / "BENCH_service.json"


@pytest.fixture(scope="session")
def perf_results():
    return PERF_RESULTS


@pytest.fixture(scope="session")
def service_results():
    return SERVICE_RESULTS


def _git_sha(root=Path(__file__).resolve().parent.parent):
    """The checkout's commit, or None outside a git checkout.

    The sha gets a ``-dirty`` suffix when ``src/`` or ``benchmarks/`` holds
    edits or new files the commit lacks: the numbers then came from code
    that no commit holds.
    """
    def git(*args):
        return subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True, timeout=10,
        ).stdout.strip()

    try:
        sha = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--", "src", "benchmarks")
    except (OSError, subprocess.SubprocessError):
        return None
    if not sha:
        return None
    return f"{sha}-dirty" if dirty else sha


def provenance():
    """What each freshly written section records about the run behind it."""
    import platform

    try:
        n_cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # no affinity API on this platform
        n_cpus = os.cpu_count()
    if os.environ.get("REPRO_BENCH_SMOKE", "0") == "1":
        mode = "smoke"  # CI sizes
    else:
        mode = "full" if FULL_MODE else "quick"
    return {
        "mode": mode,
        "git_sha": _git_sha(),
        "n_cpus": n_cpus,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def _is_smoke(section):
    """Whether a section holds smoke numbers: its provenance says so, or
    (sections written before provenance existed) any ``smoke_mode`` flag
    inside it is set."""
    if not isinstance(section, dict):
        return False
    if "provenance" in section:
        return section["provenance"].get("mode") == "smoke"
    return section.get("smoke_mode") is True or any(
        _is_smoke(value) for value in section.values()
    )


def merge_sections(existing, fresh):
    """Merge ``fresh`` sections over ``existing`` ones, section by section.

    A smoke section never replaces a non-smoke one: smoke sizes exist to
    check bookkeeping on CI, and their timings are not comparable.  Returns
    the merged sections and the names of the fresh sections refused.
    """
    merged = dict(existing)
    refused = []
    for name, section in fresh.items():
        if _is_smoke(section) and name in merged and not _is_smoke(merged[name]):
            refused.append(name)
            continue
        merged[name] = section
    return merged, refused


def _write_report(path, schema, results):
    import json

    # Merge into any existing report so a partial run (e.g. `make
    # bench-telemetry`) refreshes its own sections without clobbering the
    # ones it didn't measure; each section carries its own provenance.
    sections = {}
    if path.exists():
        try:
            sections = json.loads(path.read_text()).get("sections", {})
        except (json.JSONDecodeError, OSError):
            sections = {}
    stamp = provenance()
    fresh = {name: {**section, "provenance": stamp} for name, section in results.items()}
    sections, refused = merge_sections(sections, fresh)
    for name in refused:
        print(f"\n{path.name}: kept the non-smoke {name!r} section; "
              f"a {stamp['mode']} run does not replace it")
    payload = {"schema": schema, "sections": sections}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def pytest_sessionfinish(session, exitstatus):
    if PERF_RESULTS:
        _write_report(PERF_JSON, "repro-bench-perf/2", PERF_RESULTS)
    if SERVICE_RESULTS:
        _write_report(SERVICE_JSON, "repro-bench-service/2", SERVICE_RESULTS)


@pytest.fixture(scope="session")
def bench_output_dir():
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture
def run_experiment(benchmark, bench_output_dir):
    """Run one experiment module under the benchmark timer and persist its
    rendered report."""

    def _run(module, **kwargs):
        result = benchmark.pedantic(
            module.run,
            kwargs={"quick": not FULL_MODE, **kwargs},
            rounds=1,
            iterations=1,
        )
        text = render_result(result)
        (bench_output_dir / f"{result.name}.txt").write_text(text)
        (bench_output_dir / f"{result.name}.json").write_text(result_to_json(result))
        print()
        print(text)
        return result

    return _run
