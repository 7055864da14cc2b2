"""Unit tests for the ``--trace`` flag and the ``dmra trace`` report."""

import json

import pytest

from repro.cli import main
from repro.obs import read_metrics, read_trace
from repro.obs.telemetry import NULL, get_telemetry


class TestTraceFlag:
    def test_run_writes_trace_file(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        assert main([
            "run", "--ues", "40", "--seed", "1", "--trace", str(path),
        ]) == 0
        assert f"wrote trace {path}" in capsys.readouterr().out
        trace = read_trace(path)
        assert trace.meta["command"] == "run"
        names = {span.name for span in trace.all_spans()}
        assert "match" in names
        assert "radio.build" in names
        assert trace.counters["match.accepted"] > 0

    def test_trace_env_variable_is_default(self, tmp_path, capsys,
                                           monkeypatch):
        path = tmp_path / "env.jsonl"
        monkeypatch.setenv("DMRA_TRACE", str(path))
        assert main(["run", "--ues", "40", "--seed", "1"]) == 0
        assert path.exists()
        assert read_trace(path).meta["command"] == "run"

    def test_without_flag_no_backend_installed(self, capsys, monkeypatch):
        monkeypatch.delenv("DMRA_TRACE", raising=False)
        assert main(["run", "--ues", "40", "--seed", "1"]) == 0
        assert get_telemetry() is NULL
        assert "wrote trace" not in capsys.readouterr().out

    def test_online_trace_records_event_loop(self, tmp_path, capsys):
        path = tmp_path / "online.jsonl"
        assert main([
            "online", "--rate", "1", "--horizon", "60",
            "--trace", str(path),
        ]) == 0
        trace = read_trace(path)
        names = {span.name for span in trace.all_spans()}
        assert "stream.run" in names
        assert trace.timers["stream.rematch"].count > 0

    def test_failures_trace_records_repair(self, tmp_path, capsys):
        path = tmp_path / "failures.jsonl"
        assert main([
            "failures", "--ues", "100", "--bs", "0",
            "--trace", str(path),
        ]) == 0
        trace = read_trace(path)
        names = {span.name for span in trace.all_spans()}
        assert "failures.inject" in names


class TestTraceCommand:
    @pytest.fixture()
    def trace_file(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        main(["run", "--ues", "40", "--seed", "1", "--trace", str(path)])
        capsys.readouterr()  # swallow the run's output
        return path

    def test_renders_report(self, trace_file, capsys):
        assert main(["trace", str(trace_file)]) == 0
        output = capsys.readouterr().out
        assert "command=run" in output
        assert "match" in output
        assert "match.accepted" in output

    def test_min_ms_filter(self, trace_file, capsys):
        assert main(["trace", str(trace_file), "--min-ms", "1e9"]) == 0
        output = capsys.readouterr().out
        # The per-round spans are filtered out; the match.rounds gauge
        # (similar name, different artifact) legitimately stays.
        assert "match.round " not in output

    def test_missing_file_exits_nonzero(self, tmp_path, capsys):
        code = main(["trace", str(tmp_path / "absent.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "absent.jsonl" in err

    def test_report_head_is_alias_for_bare_file(self, trace_file, capsys):
        assert main(["trace", str(trace_file)]) == 0
        bare = capsys.readouterr().out
        assert main(["trace", "report", str(trace_file)]) == 0
        assert capsys.readouterr().out == bare

    def test_report_top_ranks_by_self_time(self, trace_file, capsys):
        assert main(["trace", "report", str(trace_file), "--top", "3"]) == 0
        output = capsys.readouterr().out
        assert "self time" in output
        assert "self ms" in output
        lines = [
            line for line in output.splitlines()
            if line and not line.startswith(("top", "span", "-"))
        ]
        assert 1 <= len(lines) <= 3
        self_ms = [float(line.split()[2]) for line in lines]
        assert self_ms == sorted(self_ms, reverse=True)

    def test_report_wrong_arity_errors(self, capsys):
        assert main(["trace", "report"]) == 2
        assert "usage" in capsys.readouterr().err


class TestMetricsFlag:
    def test_run_writes_metrics_json(self, tmp_path, capsys):
        path = tmp_path / "run.metrics.json"
        assert main([
            "run", "--ues", "40", "--seed", "1", "--metrics", str(path),
        ]) == 0
        assert f"wrote metrics {path}" in capsys.readouterr().out
        doc = read_metrics(path)
        assert doc.family("dmra_total_profit").sample() > 0
        assert doc.manifest is not None
        assert doc.manifest["seeds"] == [1]
        assert doc.manifest["command"] == "run"

    def test_metrics_and_trace_share_manifest(self, tmp_path, capsys):
        trace_path = tmp_path / "run.jsonl"
        metrics_path = tmp_path / "run.metrics.json"
        assert main([
            "run", "--ues", "40", "--seed", "1",
            "--trace", str(trace_path), "--metrics", str(metrics_path),
        ]) == 0
        trace = read_trace(trace_path)
        doc = read_metrics(metrics_path)
        assert trace.meta["manifest"] == doc.manifest
        # Trace-derived matching diagnostics merge in alongside the
        # outcome-derived families.
        assert doc.has_family("dmra_match_round_proposals")

    def test_prom_suffix_writes_exposition(self, tmp_path, capsys):
        path = tmp_path / "run.prom"
        assert main([
            "run", "--ues", "40", "--seed", "1", "--metrics", str(path),
        ]) == 0
        text = path.read_text()
        assert "# TYPE dmra_total_profit gauge" in text

    def test_online_metrics(self, tmp_path, capsys):
        path = tmp_path / "online.metrics.json"
        assert main([
            "online", "--rate", "1", "--horizon", "60",
            "--metrics", str(path),
        ]) == 0
        doc = read_metrics(path)
        arrivals = doc.family("dmra_stream_arrivals_total").sample()
        assert arrivals >= 0


class TestTraceMetricsSubcommand:
    @pytest.fixture()
    def trace_file(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        main(["run", "--ues", "40", "--seed", "1", "--trace", str(path)])
        capsys.readouterr()
        return path

    def test_json_to_stdout(self, trace_file, capsys):
        assert main(["trace", "metrics", str(trace_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "dmra.metrics/1"

    def test_prom_format(self, trace_file, capsys):
        assert main([
            "trace", "metrics", str(trace_file), "--format", "prom",
        ]) == 0
        assert "# TYPE" in capsys.readouterr().out

    def test_out_file(self, trace_file, tmp_path, capsys):
        target = tmp_path / "derived.json"
        assert main([
            "trace", "metrics", str(trace_file), "--out", str(target),
        ]) == 0
        assert read_metrics(target).has_family("dmra_match_accepted_total")


class TestTraceDiffSubcommand:
    def metrics_for(self, tmp_path, name, seed="1", rho=None):
        """Run the allocator and capture its metrics document."""
        path = tmp_path / name
        argv = ["run", "--ues", "40", "--seed", seed,
                "--metrics", str(path)]
        if rho is not None:
            argv += ["--rho", rho]
        assert main(argv) == 0
        return path

    def test_same_run_diffs_clean(self, tmp_path, capsys):
        a = self.metrics_for(tmp_path, "a.json")
        b = self.metrics_for(tmp_path, "b.json")
        capsys.readouterr()
        assert main(["trace", "diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "verdict: OK" in out

    def test_injected_regression_fails(self, tmp_path, capsys):
        a = self.metrics_for(tmp_path, "a.json")
        b = tmp_path / "b.json"
        payload = json.loads(a.read_text())
        for family in payload["families"]:
            if family["name"] == "dmra_total_profit":
                family["samples"][0]["value"] *= 0.5
        b.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["trace", "diff", str(a), str(b)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSIONS" in out
        assert "dmra_total_profit" in out

    def test_mismatched_configs_gate_without_allow_flag(
        self, tmp_path, capsys
    ):
        a = self.metrics_for(tmp_path, "a.json", rho="10")
        b = self.metrics_for(tmp_path, "b.json", rho="12")
        capsys.readouterr()
        assert main(["trace", "diff", str(a), str(b)]) == 1
        assert "not comparable" in capsys.readouterr().out

    def test_allow_mismatch_reports_changes(self, tmp_path, capsys):
        a = self.metrics_for(tmp_path, "a.json", rho="10")
        b = self.metrics_for(tmp_path, "b.json", rho="12")
        capsys.readouterr()
        assert main([
            "trace", "diff", str(a), str(b), "--allow-mismatch",
        ]) == 0
        out = capsys.readouterr().out
        assert "rho" in out
        assert "verdict: OK" in out

    def test_rel_tolerance_flag(self, tmp_path, capsys):
        a = self.metrics_for(tmp_path, "a.json")
        b = tmp_path / "b.json"
        payload = json.loads(a.read_text())
        for family in payload["families"]:
            if family["name"] == "dmra_total_profit":
                family["samples"][0]["value"] *= 1.0001
        b.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["trace", "diff", str(a), str(b)]) == 1
        assert main([
            "trace", "diff", str(a), str(b), "--rel-tol", "0.01",
        ]) == 0

    def test_diff_accepts_raw_traces(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        main(["run", "--ues", "40", "--seed", "1", "--trace", str(path)])
        capsys.readouterr()
        assert main(["trace", "diff", str(path), str(path)]) == 0
        assert "verdict: OK" in capsys.readouterr().out


class TestDegenerateInputs:
    """Empty, truncated, and wrong-version files must fail cleanly:
    exit 2, an ``error:`` line on stderr, and no traceback."""

    def check(self, capsys, argv, *needles):
        code = main(argv)
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err
        for needle in needles:
            assert needle in err
        return err

    def test_empty_trace_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        self.check(capsys, ["trace", str(empty)], "empty")
        self.check(capsys, ["trace", "metrics", str(empty)], "empty.jsonl")
        self.check(
            capsys, ["trace", "diff", str(empty), str(empty)],
            "empty.jsonl",
        )

    def test_truncated_trace_file(self, tmp_path, capsys):
        whole = tmp_path / "run.jsonl"
        main(["run", "--ues", "40", "--seed", "1", "--trace", str(whole)])
        capsys.readouterr()
        truncated = tmp_path / "truncated.jsonl"
        text = whole.read_text()
        truncated.write_text(text[: len(text) // 2].rsplit("\n", 1)[0]
                             + '\n{"kind": "span", "na')
        self.check(capsys, ["trace", str(truncated)], "malformed JSON")
        self.check(
            capsys, ["trace", "metrics", str(truncated)], "malformed JSON"
        )
        self.check(
            capsys, ["trace", "diff", str(truncated), str(truncated)],
            "malformed JSON",
        )

    def test_unsupported_schema_version(self, tmp_path, capsys):
        future = tmp_path / "future.jsonl"
        future.write_text(
            '{"kind": "header", "schema": "dmra.trace/99", "meta": {}}\n'
        )
        self.check(capsys, ["trace", str(future)], "dmra.trace/99")
        self.check(
            capsys, ["trace", "metrics", str(future)], "dmra.trace/99"
        )

    def test_unsupported_metrics_schema(self, tmp_path, capsys):
        future = tmp_path / "future.json"
        future.write_text('{"schema": "dmra.metrics/99", "families": []}')
        self.check(
            capsys, ["trace", "diff", str(future), str(future)],
            "dmra.metrics/99",
        )

    def test_non_json_file(self, tmp_path, capsys):
        garbage = tmp_path / "garbage.jsonl"
        garbage.write_text("this is not a trace\n")
        self.check(capsys, ["trace", str(garbage)], "malformed JSON")
        self.check(
            capsys, ["trace", "metrics", str(garbage)], "garbage.jsonl"
        )

    def test_unknown_subcommand_word(self, tmp_path, capsys):
        err = self.check(capsys, ["trace", "frobnicate"], "frobnicate")
        assert "error:" in err

    def test_diff_wrong_arity(self, capsys):
        code = main(["trace", "diff", "only-one.json"])
        assert code == 2
        assert "error:" in capsys.readouterr().err
