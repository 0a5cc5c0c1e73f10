"""CLI tests (python -m repro ...)."""

import re

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "is"])
        assert args.cls == "A" and args.threads == 2
        assert args.migrate_at is None

    def test_bad_class_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "is", "--cls", "Z"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("is", "cg", "redis"):
            assert name in out

    def test_run_with_migration(self, capsys):
        rc = main(
            ["run", "ep", "--cls", "A", "--threads", "1",
             "--scale", "0.002", "--migrate-at", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "exit code" in out
        assert "->" in out  # a migration happened

    def test_run_unknown_workload(self, capsys):
        assert main(["run", "linpack"]) == 2

    def test_layout(self, capsys):
        assert main(["layout", "is", "--cls", "A"]) == 0
        out = capsys.readouterr().out
        assert "0x40" in out
        assert "migration points" in out

    def test_layout_script(self, capsys):
        assert main(["layout", "is", "--script"]) == 0
        assert "SECTIONS" in capsys.readouterr().out

    def test_gaps(self, capsys):
        assert main(["gaps", "is", "--cls", "A", "--scale", "0.002"]) == 0
        out = capsys.readouterr().out
        assert "pre-insertion" in out and "post-insertion" in out

    def test_schedule_sustained(self, capsys):
        assert main(["schedule", "--pattern", "sustained", "--sets", "1",
                     "--jobs", "10"]) == 0
        out = capsys.readouterr().out
        assert "static-x86(2)" in out
        assert "dynamic-balanced" in out

    def test_validate_prints_check_counts_to_stderr(self, capsys, monkeypatch):
        from repro import validate
        from repro.telemetry.validation import reset_default_log

        monkeypatch.setattr(validate, "_forced", validate._forced)  # restored
        reset_default_log()
        assert main(["--validate", "serve", "redis", "--requests", "300",
                     "--horizon", "1"]) == 0
        captured = capsys.readouterr()
        assert "invariant checks" not in captured.out
        assert re.search(r"^invariant checks: .*\bserving:[1-9]", captured.err,
                         re.MULTILINE)

    def test_faults(self, capsys):
        assert main(["faults", "--jobs", "12", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "evacuate-live" in out
        assert "checkpoint-restart" in out
        assert "goodput" in out
        assert "crash" in out  # --trace prints the fault timeline

    def test_faults_permanent_arm_crash(self, capsys):
        assert main(
            ["faults", "--jobs", "12", "--crash", "arm", "--permanent"]
        ) == 0
        out = capsys.readouterr().out
        assert "fail-stop" in out

    @pytest.mark.parametrize("command", [
        ["faults"],
        ["serve", "redis", "--faults"],
        ["fleet", "--crash", "1"],
    ])
    @pytest.mark.parametrize("flag", [
        ["--crash-at", "-1"],
        ["--repair-after", "0"],
        ["--repair-after", "-5"],
    ])
    def test_invalid_crash_times_exit_2(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(command + flag)
        assert exc.value.code == 2
        assert flag[0] in capsys.readouterr().err

    # Counts, scales and detector timings: the crash-time product above
    # would pair the detector flags with ``fleet``, which has none.
    @pytest.mark.parametrize("command, flag", [
        (["schedule"], ["--sets", "0"]),
        (["schedule"], ["--sets", "-2"]),
        (["schedule"], ["--jobs", "0"]),
        (["faults"], ["--jobs", "0"]),
        (["faults", "--detector"], ["--heartbeat", "0"]),
        (["faults", "--detector"], ["--lease", "-1"]),
        (["serve", "redis", "--detector"], ["--heartbeat", "0"]),
        (["serve", "redis", "--detector"], ["--lease", "-1"]),
        (["run", "is"], ["--scale", "0"]),
        (["trace", "is"], ["--scale", "0"]),
        (["chaos"], ["--scale", "0"]),
        (["chaos", "--serving"], ["--soak", "-1"]),
    ])
    def test_invalid_counts_and_timings_exit_2(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(command + flag)
        assert exc.value.code == 2
        assert f"argument {flag[0]}: must be" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["serve", "redis", "--slo-ms", "0"],
        ["serve", "redis", "--requests", "-5"],
        ["serve", "redis", "--horizon", "-1"],
        ["serve", "redis", "--traffic", "diurnal", "--horizon", "0"],
        ["fleet", "--horizon", "-5"],
        ["fleet", "--bake", "-5"],
        ["fleet", "--slo-factor", "0"],
        ["fleet", "--regression-threshold", "-1"],
        ["fleet", "--crash", "1", "--crash-at", "inf"],
        ["serve", "redis", "--horizon", "nan", "--requests", "50"],
        ["serve", "redis", "--faults", "--horizon", "nan"],
        ["fleet", "--jobs", "100", "--horizon", "nan"],
        ["fleet", "--crash", "1", "--jobs", "100", "--horizon", "nan"],
    ])
    def test_bad_traffic_or_slo_exit_2(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""
        if dict(zip(argv, argv[1:])).get("--horizon") == "nan":
            # Names the value the user passed, not one derived from it.
            assert "horizon_s" in captured.err


class TestLint:
    def test_lint_single_workload(self, capsys):
        assert main(["lint", "is", "--scale", "0.002", "--threads", "1"]) == 0
        out = capsys.readouterr().out
        assert "== lint is.A ==" in out
        assert "0 errors" in out
        assert "lint(s)" in out  # telemetry summary line

    def test_lint_requires_target(self, capsys):
        assert main(["lint"]) == 2
        assert main(["lint", "is", "--all"]) == 2

    def test_lint_unknown_workload(self):
        assert main(["lint", "linpack"]) == 2

    def test_lint_json(self, capsys):
        import json

        assert main(["lint", "ep", "--scale", "0.002", "--threads", "1",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["subject"] == "ep.A"
        assert payload[0]["summary"]["severities"]["error"] == 0

    def test_lint_pass_filter(self, capsys):
        assert main(["lint", "ep", "--scale", "0.002", "--threads", "1",
                     "--pass", "layout"]) == 0
        assert "layout:" in capsys.readouterr().out

    def test_lint_write_baseline(self, tmp_path, capsys):
        import json

        path = tmp_path / "base.json"
        assert main(["lint", "ep", "--scale", "0.002", "--threads", "1",
                     "--write-baseline", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data == {"version": 1, "suppress": []}  # clean workload

    def test_run_with_lint_flag(self, capsys):
        assert main(["--lint", "run", "ep", "--cls", "A", "--threads", "1",
                     "--scale", "0.002"]) == 0
        assert "lint checks" in capsys.readouterr().out
