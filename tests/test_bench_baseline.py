"""Tests for the persisted perf baseline (``repro bench``)."""

from __future__ import annotations

import json

from repro.bench.baseline import (
    _calibration_factory,
    backend_mismatch,
    check_against_baseline,
    read_baseline,
    run_baseline,
    workload_factories,
    write_baseline,
)
from repro.cli import main


class TestBaselineModule:
    def test_tiny_workloads_subset_of_full(self):
        tiny = set(workload_factories(tiny_only=True))
        full = set(workload_factories())
        assert tiny < full
        assert all(name.startswith("tiny_") for name in tiny)

    def test_run_baseline_shape(self):
        data = run_baseline(tiny_only=True, repeats=1)
        assert data["schema"] == 2
        assert data["meta"]["tiny_only"] is True
        assert data["meta"]["backend"] in ("python", "native")
        assert data["calibration"]["seconds"] > 0.0
        for entry in data["workloads"].values():
            assert entry["seconds"] > 0.0

    def test_roundtrip(self, tmp_path):
        data = run_baseline(tiny_only=True, repeats=1)
        path = tmp_path / "bench.json"
        write_baseline(data, path)
        assert read_baseline(path) == json.loads(path.read_text())

    def test_check_flags_regressions_only(self):
        committed = {"workloads": {"w": {"seconds": 0.1}}}
        ok = {"workloads": {"w": {"seconds": 0.25}}}
        slow = {"workloads": {"w": {"seconds": 0.5}}}
        unknown = {"workloads": {"new": {"seconds": 99.0}}}
        assert check_against_baseline(ok, committed) == []
        assert len(check_against_baseline(slow, committed)) == 1
        assert check_against_baseline(unknown, committed) == []

    def test_check_normalizes_by_calibration(self):
        # A uniformly 5x-slower machine (same calibration ratio) must
        # not trip the guard; a genuine 5x relative slowdown must.
        committed = {
            "calibration": {"seconds": 0.01},
            "workloads": {"w": {"seconds": 0.1}},
        }
        slower_machine = {
            "calibration": {"seconds": 0.05},
            "workloads": {"w": {"seconds": 0.5}},
        }
        real_regression = {
            "calibration": {"seconds": 0.01},
            "workloads": {"w": {"seconds": 0.5}},
        }
        assert check_against_baseline(slower_machine, committed) == []
        assert len(check_against_baseline(real_regression, committed)) == 1

    def test_probe_builds_no_dp_engine(self, monkeypatch):
        # The probe must not run the code under test: a kernel backend
        # that speeds up the DP would otherwise shrink the yardstick.
        from repro.core import dp

        calls = []
        monkeypatch.setattr(
            dp, "_engine_for", lambda *args: calls.append(args)
        )
        probe = _calibration_factory()
        probe()
        assert calls == []

    def test_backend_mismatch_is_reported(self):
        native = {"meta": {"backend": "native"}}
        python = {"meta": {"backend": "python"}}
        message = backend_mismatch(python, native)
        assert message is not None and "'native'" in message
        assert backend_mismatch(native, native) is None
        # Schema-1 baselines record no backend: not refused.
        assert backend_mismatch(python, {"schema": 1}) is None


class TestBenchCLI:
    def test_bench_tiny_writes_json(self, tmp_path, capsys):
        path = tmp_path / "BENCH_core.json"
        assert main(
            ["bench", "--tiny", "--repeats", "1", "--json", str(path)]
        ) == 0
        data = json.loads(path.read_text())
        assert set(data["workloads"]) == set(
            workload_factories(tiny_only=True)
        )

    def test_bench_check_passes_against_self(self, tmp_path, capsys):
        path = tmp_path / "BENCH_core.json"
        assert main(
            ["bench", "--tiny", "--repeats", "1", "--json", str(path)]
        ) == 0
        assert main(
            ["bench", "--tiny", "--repeats", "1", "--check", str(path)]
        ) == 0
        assert "perf guard ok" in capsys.readouterr().out

    def test_bench_check_fails_on_regression(self, tmp_path, capsys):
        path = tmp_path / "BENCH_core.json"
        baseline = {
            "schema": 1,
            "workloads": {
                name: {"seconds": 1e-9}
                for name in workload_factories(tiny_only=True)
            },
        }
        path.write_text(json.dumps(baseline))
        assert main(
            ["bench", "--tiny", "--repeats", "1", "--check", str(path)]
        ) == 1
        assert "PERF REGRESSION" in capsys.readouterr().err

    def test_bench_check_refuses_other_backend(self, tmp_path, capsys):
        from repro.core import kernels

        ran_on = kernels.resolve_backend(None)
        other = "python" if ran_on == "native" else "native"
        path = tmp_path / "BENCH_core.json"
        path.write_text(
            json.dumps({"schema": 2, "meta": {"backend": other}})
        )
        assert main(
            ["bench", "--tiny", "--repeats", "1", "--check", str(path)]
        ) == 1
        err = capsys.readouterr().err
        assert "cannot check" in err and repr(other) in err
