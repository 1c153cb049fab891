"""``scripts/bench_pairs.py``: the paired-run verdict on synthetic samples,
the working-tree copy the change side runs from, and failed runs."""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
verdict = bench_pairs.verdict

#: A steady parent: median 100, interquartile range 2 (2% of the median).
STEADY = [99.0, 100.0, 101.0, 98.0, 102.0, 100.0, 99.0, 101.0, 100.0, 100.0]
#: A noisy parent: median 100, interquartile range 50 (50% of the median).
NOISY = [50.0, 60.0, 70.0, 90.0, 100.0, 100.0, 110.0, 130.0, 140.0, 150.0]


def _scaled(values, factor):
    return [v * factor for v in values]


class TestVerdict:
    @pytest.mark.parametrize("better", ["higher", "lower"])
    def test_gain(self, better):
        factor = 3.0 if better == "higher" else 1 / 3
        assert verdict(STEADY, _scaled(STEADY, factor), better, 0.25) == "gain"

    def test_gain_needs_nine_of_ten_wins(self):
        change = _scaled(STEADY, 1.5)
        change[0] = change[1] = 1.0  # two lost pairs
        assert verdict(STEADY, change, "higher", 0.25) == "no regression"
        change[1] = 1e6  # one lost pair
        assert verdict(STEADY, change, "higher", 0.25) == "gain"

    def test_gain_needs_gap_beyond_parent_iqr(self):
        # Every pair won, but by less than the parent's own spread.
        change = [v + 0.5 for v in STEADY]
        assert verdict(STEADY, change, "higher", 0.25) == "no regression"

    def test_ties_count_for_neither(self):
        assert verdict(STEADY, list(STEADY), "higher", 0.25) == "no regression"

    @pytest.mark.parametrize("better", ["higher", "lower"])
    def test_no_regression_within_bound(self, better):
        factor = 0.8 if better == "higher" else 1.2
        assert verdict(STEADY, _scaled(STEADY, factor), better, 0.25) == "no regression"

    @pytest.mark.parametrize("better", ["higher", "lower"])
    def test_regression_beyond_bound(self, better):
        factor = 0.7 if better == "higher" else 1.3
        assert verdict(STEADY, _scaled(STEADY, factor), better, 0.25) == "REGRESSION"

    @pytest.mark.parametrize("factor", [0.7, 1.0, 1.1])
    def test_spread_wider_than_bound_is_unresolved(self, factor):
        assert verdict(NOISY, _scaled(NOISY, factor), "higher", 0.25) == "unresolved"

    def test_wide_spread_resolved_when_every_change_run_is_better(self):
        # Median 100.5, interquartile range 91: every change run beats every
        # parent run, by less than that range, so no gain but resolved.
        parent = [10.0] * 4 + [100.0] + [101.0] * 5
        assert verdict(parent, [102.0] * 10, "higher", 0.25) == "no regression"
        mirrored = [200.0 - v for v in parent]
        assert verdict(mirrored, [98.0] * 10, "lower", 0.25) == "no regression"
        assert verdict(parent, [100.5] * 10, "higher", 0.25) == "unresolved"

    def test_unequal_sides_rejected(self):
        with pytest.raises(ValueError):
            verdict(STEADY, STEADY[:5], "higher", 0.25)


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
class TestSnapshot:
    def test_copies_untracked_sources_not_ignored_caches(self, tmp_path):
        repo, dest = tmp_path / "repo", tmp_path / "change"
        (repo / "src" / "__pycache__").mkdir(parents=True)
        (repo / ".gitignore").write_text("__pycache__/\n")
        (repo / "src" / "tracked.py").write_text("A = 1\n")
        (repo / "src" / "deleted.py").write_text("B = 2\n")
        subprocess.run(["git", "init", "-q", str(repo)], check=True)
        subprocess.run(["git", "-C", str(repo), "add", "-A"], check=True)
        (repo / "src" / "deleted.py").unlink()
        (repo / "src" / "untracked.py").write_text("C = 3\n")
        (repo / "src" / "__pycache__" / "tracked.cpython-3.pyc").write_bytes(b"\0")

        bench_pairs._snapshot(repo, dest)

        copied = sorted(str(f.relative_to(dest)) for f in dest.rglob("*"))
        assert copied == [".gitignore", "src", "src/tracked.py", "src/untracked.py"]
        assert (dest / "src" / "untracked.py").read_text() == "C = 3\n"


_METRICS = [("ops_per_s", "higher", 0.25), ("p50_ms", "lower", 0.25)]
_FAIL_LINE = "  [FAIL] p90 at half load: 102.8 ms over 100 ms"


def _stub_runs(monkeypatch, failing):
    """Replace ``_run``: every run passes but the ``failing`` calls
    (numbered from 0), which raise like a not-correct run."""
    calls = []

    def run(side, workload, seed, seconds):
        calls.append((side.name, workload, seed))
        if len(calls) - 1 in failing:
            raise bench_pairs.RunFailed(f"not correct:\n{_FAIL_LINE}")
        values = {"setup_s": 0.3, "peak_rss_mb": 40.0, "ops_per_s": 100.0, "p50_ms": 10.0}
        return values, 'LEDGER {"x": 1}'

    monkeypatch.setattr(bench_pairs, "_run", run)
    return calls


class TestFailedRun:
    SIDES = {"parent": Path("parent"), "change": Path("change")}

    def test_other_pairs_still_run(self, monkeypatch, capsys):
        calls = _stub_runs(monkeypatch, failing={2})  # pair 2's first run
        clean = bench_pairs._compare("serve", self.SIDES, _METRICS, 4, 1.0, "HEAD~1")
        out = capsys.readouterr().out
        assert not clean
        # Pair 2 stops at its failed run; pairs 1, 3 and 4 run both sides.
        assert len(calls) == 7
        failed_seed = calls[2][2]
        assert f"pair 2 seed {failed_seed}: the change run failed" in out
        assert _FAIL_LINE in out
        assert "1 of 4 pairs left out" in out
        assert "3/3" in out  # wins counted over the three finished pairs
        assert "LEDGER lines identical in 3/3 pairs" in out

    def test_every_pair_failing_gives_no_table(self, monkeypatch, capsys):
        _stub_runs(monkeypatch, failing={0, 1, 2})
        clean = bench_pairs._compare("sweep", self.SIDES, _METRICS, 3, 1.0, "HEAD~1")
        out = capsys.readouterr().out
        assert not clean
        assert "3 of 3 pairs left out" in out
        assert "metric (better)" not in out

    def test_later_workloads_still_run_and_exit_is_1(self, monkeypatch, capsys):
        monkeypatch.setattr(bench_pairs, "_export", lambda ref, dest: None)
        monkeypatch.setattr(bench_pairs, "_snapshot", lambda root, dest: None)
        calls = _stub_runs(monkeypatch, failing={0})
        status = bench_pairs.main(
            ["--parent", "HEAD~1", "--workload", "all", "--pairs", "2", "--seconds", "1"]
        )
        assert status == 1
        assert [w for _, w, _ in calls].count("train") == 4
        assert "LEDGER lines identical in 2/2 pairs" in capsys.readouterr().out

    def test_clean_runs_exit_0(self, monkeypatch):
        monkeypatch.setattr(bench_pairs, "_export", lambda ref, dest: None)
        monkeypatch.setattr(bench_pairs, "_snapshot", lambda root, dest: None)
        _stub_runs(monkeypatch, failing=set())
        assert bench_pairs.main(
            ["--parent", "HEAD~1", "--workload", "sweep", "--pairs", "2", "--seconds", "1"]
        ) == 0

    def test_run_reports_the_failed_checks(self, monkeypatch, tmp_path):
        stdout = "\n".join([
            "checks:",
            "  [ok] queue drained: 0 left",
            _FAIL_LINE,
            'LEDGER {"x": 1}',
            json.dumps({"correct": False, "attempted": 40, "failed": 0, "metrics": {}}),
        ])
        monkeypatch.setattr(
            bench_pairs.subprocess,
            "run",
            lambda *a, **k: subprocess.CompletedProcess(a, 0, stdout=stdout, stderr=""),
        )
        with pytest.raises(bench_pairs.RunFailed) as failure:
            bench_pairs._run(tmp_path, "serve", 7, 1.0)
        assert _FAIL_LINE.strip() in str(failure.value)
        assert "queue drained" not in str(failure.value)
