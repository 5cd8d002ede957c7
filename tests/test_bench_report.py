"""The benchmark report merge rule (``benchmarks/conftest.py``).

``BENCH_perf.json`` and ``BENCH_service.json`` collect sections from
separate runs.  Each freshly written section records its own provenance,
and a smoke-size run never replaces a non-smoke section.  The recorded git
sha says whether the measured code was committed.
"""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

_CONFTEST = Path(__file__).resolve().parent.parent / "benchmarks" / "conftest.py"


@pytest.fixture(scope="module")
def report():
    spec = importlib.util.spec_from_file_location("bench_report_conftest", _CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _section(mode, value):
    return {"speedup": value, "provenance": {"mode": mode}}


class TestMergeSections:
    def test_smoke_never_replaces_non_smoke(self, report):
        for kept in ("full", "quick"):
            merged, refused = report.merge_sections(
                {"lockstep": _section(kept, 40.0)}, {"lockstep": _section("smoke", 9.0)}
            )
            assert merged["lockstep"]["speedup"] == 40.0
            assert refused == ["lockstep"]

    def test_non_smoke_and_smoke_over_smoke_replace(self, report):
        for new_mode in ("full", "quick", "smoke"):
            merged, refused = report.merge_sections(
                {"retrieval": _section("smoke", 1.0)},
                {"retrieval": _section(new_mode, 2.0)},
            )
            assert merged["retrieval"]["speedup"] == 2.0
            assert refused == []

    def test_new_and_untouched_sections(self, report):
        merged, refused = report.merge_sections(
            {"telemetry": _section("full", 1.0)}, {"retrieval": _section("smoke", 3.0)}
        )
        assert merged == {
            "telemetry": _section("full", 1.0),
            "retrieval": _section("smoke", 3.0),
        }
        assert refused == []

    def test_sections_without_provenance(self, report):
        # Older sections say smoke only through a smoke_mode flag, possibly
        # nested one level down; without one they count as non-smoke.
        legacy_smoke = {"flat_vs_loop": {"smoke_mode": True, "speedup": 129.0}}
        legacy_full = {"sweep": {"smoke_mode": False, "speedup": 49.5}}
        merged, refused = report.merge_sections(
            {"retrieval": legacy_smoke, "importance": legacy_full},
            {"retrieval": _section("full", 232.0), "importance": _section("smoke", 1.0)},
        )
        assert merged["retrieval"]["speedup"] == 232.0
        assert merged["importance"] == legacy_full
        assert refused == ["importance"]


class TestWriteReport:
    def test_sections_record_provenance_and_keep_full_numbers(
        self, report, tmp_path, monkeypatch
    ):
        path = tmp_path / "BENCH_perf.json"
        monkeypatch.delenv("REPRO_BENCH_SMOKE", raising=False)
        monkeypatch.setattr(report, "FULL_MODE", True)
        report._write_report(path, "repro-bench-perf/2", {"lockstep": {"speedup": 40.0}})
        written = json.loads(path.read_text())
        assert set(written) == {"schema", "sections"}
        stamp = written["sections"]["lockstep"]["provenance"]
        assert stamp["mode"] == "full"
        assert set(stamp) >= {"mode", "git_sha", "n_cpus"}

        monkeypatch.setenv("REPRO_BENCH_SMOKE", "1")
        report._write_report(
            path, "repro-bench-perf/2",
            {"lockstep": {"speedup": 9.0}, "retrieval": {"speedup": 3.0}},
        )
        sections = json.loads(path.read_text())["sections"]
        assert sections["lockstep"]["speedup"] == 40.0
        assert sections["lockstep"]["provenance"]["mode"] == "full"
        assert sections["retrieval"]["provenance"]["mode"] == "smoke"


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
class TestGitSha:
    @staticmethod
    def git(root, *args):
        subprocess.run(
            ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com",
             "-c", "commit.gpgsign=false", *args],
            cwd=root, check=True, capture_output=True,
        )

    def test_dirty_suffix_marks_uncommitted_code(self, report, tmp_path):
        for folder in ("src", "benchmarks", "docs"):
            (tmp_path / folder).mkdir()
            (tmp_path / folder / "a.py").write_text("x = 1\n")
        self.git(tmp_path, "init", "-q")
        self.git(tmp_path, "add", "-A")
        self.git(tmp_path, "commit", "-q", "-m", "init")
        sha = report._git_sha(tmp_path)
        assert sha and len(sha) == 40

        (tmp_path / "docs" / "a.py").write_text("x = 2\n")
        assert report._git_sha(tmp_path) == sha  # outside the measured code

        (tmp_path / "src" / "a.py").write_text("x = 2\n")
        assert report._git_sha(tmp_path) == f"{sha}-dirty"
        self.git(tmp_path, "add", "src/a.py")
        assert report._git_sha(tmp_path) == f"{sha}-dirty"  # staged, not committed
        self.git(tmp_path, "commit", "-q", "-m", "edit")
        sha = report._git_sha(tmp_path)
        assert not sha.endswith("-dirty")

        (tmp_path / "benchmarks" / "new.py").write_text("")
        assert report._git_sha(tmp_path) == f"{sha}-dirty"  # untracked file

    def test_outside_a_checkout(self, report, tmp_path, monkeypatch):
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
        assert report._git_sha(tmp_path) is None
