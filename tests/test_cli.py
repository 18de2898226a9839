"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def test_generate_prints_stream(capsys):
    assert main(["generate", "--length", "25", "--alpha", "2.0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 25
    assert all(line.strip().lstrip("-").isdigit() for line in lines)


def test_generate_deterministic(capsys):
    main(["generate", "--length", "10", "--seed", "4"])
    first = capsys.readouterr().out
    main(["generate", "--length", "10", "--seed", "4"])
    second = capsys.readouterr().out
    assert first == second


def test_count_from_file(tmp_path, capsys):
    stream_file = tmp_path / "stream.txt"
    stream_file.write_text("\n".join(["a"] * 5 + ["b"] * 2 + ["c"]))
    code = main(
        ["count", str(stream_file), "--algorithm", "space-saving",
         "--capacity", "10", "--top", "2"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "8 elements processed" in out
    assert "a\t5" in out
    assert "b\t2" in out


@pytest.mark.parametrize(
    "algorithm",
    ["space-saving", "lossy-counting", "misra-gries",
     "sticky-sampling", "count-min", "exact"],
)
def test_count_every_algorithm(tmp_path, capsys, algorithm):
    stream_file = tmp_path / "stream.txt"
    stream_file.write_text("\n".join(["x"] * 20 + ["y"] * 5))
    code = main(
        ["count", str(stream_file), "--algorithm", algorithm, "--top", "1"]
    )
    assert code == 0
    assert "x" in capsys.readouterr().out


def test_count_with_workers_uses_mp_backend(tmp_path, capsys):
    stream_file = tmp_path / "stream.txt"
    stream_file.write_text("\n".join(["a"] * 5 + ["b"] * 2 + ["c"]))
    code = main(
        ["count", str(stream_file), "--workers", "2",
         "--capacity", "10", "--top", "2"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "8 elements processed" in out
    assert "a\t5" in out


def test_count_workers_requires_space_saving(tmp_path, capsys):
    stream_file = tmp_path / "stream.txt"
    stream_file.write_text("a\nb\n")
    code = main(
        ["count", str(stream_file), "--algorithm", "exact", "--workers", "2"]
    )
    assert code == 2
    assert "space-saving" in capsys.readouterr().err


def test_count_with_phi(tmp_path, capsys):
    stream_file = tmp_path / "stream.txt"
    stream_file.write_text("\n".join(["hot"] * 9 + ["cold"]))
    main(["count", str(stream_file), "--phi", "0.5"])
    out = capsys.readouterr().out
    assert "above 50.000% support" in out
    assert "hot\t9" in out


@pytest.mark.parametrize(
    "scheme",
    ["sequential", "shared", "shared-spin", "independent", "hybrid",
     "cots", "cots-lossy"],
)
def test_simulate_every_scheme(capsys, scheme):
    code = main(
        ["simulate", "--scheme", scheme, "--threads", "4",
         "--length", "600", "--capacity", "32"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "throughput:" in out
    assert "top-5:" in out


def test_experiment_single(capsys):
    code = main(["experiment", "fig3a", "--scale", "tiny"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Figure 3(a)" in out
    assert "PASS  Fig. 3(a)" in out and "[fig3a_no_useful_scaling]" in out
    assert "claims at scale tiny: 2 passed, 0 failed, 0 skipped" in out


def test_experiment_writes_output(tmp_path, capsys):
    code = main(
        ["experiment", "table2", "--scale", "tiny",
         "--output", str(tmp_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "SKIP  Table 2" in out and "(strict scales only)" in out
    assert "4 passed, 0 failed, 1 skipped" in out
    assert (tmp_path / "table2.txt").exists()


def test_experiment_failed_claim_exits_1(monkeypatch, capsys):
    from repro.experiments import figures
    from repro.experiments.runner import Claim

    def fig3a_impossible(result, scale):
        """Never holds."""
        return False

    monkeypatch.setattr(
        figures, "CLAIMS",
        figures.CLAIMS + [Claim("fig3a", "Fig. 3(a)", fig3a_impossible)],
    )
    assert main(["experiment", "fig3a", "--scale", "tiny"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  Fig. 3(a): Never holds.  [fig3a_impossible]" in out
    assert "2 passed, 1 failed" in out


def test_experiment_with_chart(capsys):
    code = main(
        ["experiment", "fig3b", "--scale", "tiny",
         "--chart", "threads", "speedup"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "threads: " in out
    assert "speedup: " in out


def test_experiment_unknown_id(capsys):
    code = main(["experiment", "fig99", "--scale", "tiny"])
    assert code == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_trace_prints_timeline(capsys):
    code = main(
        ["trace", "--threads", "4", "--length", "300", "--width", "40"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "timeline:" in out
    assert "core 0:" in out
    assert "utilization:" in out


def test_trace_sim_mode_exports_chrome_json(tmp_path, capsys):
    out = tmp_path / "sim.json"
    code = main(
        ["trace", "--threads", "4", "--length", "300", "--width", "40",
         "--out", str(out)]
    )
    assert code == 0
    assert f"wrote {out}" in capsys.readouterr().out
    _assert_valid_trace(out, expected_mode="sim")


def test_trace_cots_mode_prints_and_exports(tmp_path, capsys):
    out = tmp_path / "cots.json"
    code = main(
        ["trace", "--mode", "cots", "--threads", "4", "--length", "400",
         "--capacity", "32", "--out", str(out)]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "timeline" in stdout
    assert "simulated time:" in stdout
    doc = _assert_valid_trace(out, expected_mode="cots")
    assert doc["otherData"]["clock"] == "cycles"
    assert {e["name"] for e in doc["traceEvents"]} & {"delegate", "drain"}


def test_trace_mp_mode_prints_and_exports(tmp_path, capsys):
    out = tmp_path / "mp.json"
    code = main(
        ["trace", "--mode", "mp", "--workers", "2", "--length", "2000",
         "--out", str(out)]
    )
    assert code == 0
    assert "wall time:" in capsys.readouterr().out
    doc = _assert_valid_trace(out, expected_mode="mp")
    assert doc["otherData"]["clock"] == "seconds"
    names = {e["name"] for e in doc["traceEvents"]}
    assert {"dispatch", "snapshot", "merge"} <= names


def _assert_valid_trace(path, expected_mode):
    import json

    from repro.obs import validate_chrome_trace

    doc = json.loads(path.read_text())
    validate_chrome_trace(doc)
    assert doc["otherData"]["mode"] == expected_mode
    assert doc["traceEvents"]
    return doc


def _write_bench_report(path, wall):
    import json

    path.write_text(json.dumps({
        "suite": "core", "scale": "tiny",
        "results": [{"name": "entry-a", "wall_seconds": wall}],
    }))


def test_report_diff_clean_exits_zero(tmp_path, capsys):
    before, after = tmp_path / "a.json", tmp_path / "b.json"
    _write_bench_report(before, 1.0)
    _write_bench_report(after, 1.0)
    assert main(["report", "--diff", str(before), str(after)]) == 0
    assert "0 regressions" in capsys.readouterr().out


def test_report_diff_regression_exits_nonzero(tmp_path, capsys):
    before, after = tmp_path / "a.json", tmp_path / "b.json"
    _write_bench_report(before, 1.0)
    _write_bench_report(after, 2.0)          # injected 2x slowdown
    assert main(["report", "--diff", str(before), str(after)]) == 1
    assert "REGRESSION" in capsys.readouterr().out


def test_report_diff_tolerance_override(tmp_path, capsys):
    before, after = tmp_path / "a.json", tmp_path / "b.json"
    _write_bench_report(before, 1.0)
    _write_bench_report(after, 2.0)
    code = main(
        ["report", "--diff", str(before), str(after), "--tolerance", "5.0"]
    )
    assert code == 0
    capsys.readouterr()


def test_report_diff_json_output(tmp_path, capsys):
    import json

    before, after = tmp_path / "a.json", tmp_path / "b.json"
    _write_bench_report(before, 1.0)
    _write_bench_report(after, 2.0)
    code = main(
        ["report", "--diff", str(before), str(after), "--json"]
    )
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["regressions"] == 1


def test_report_diff_missing_file_exits_two(tmp_path, capsys):
    present = tmp_path / "a.json"
    _write_bench_report(present, 1.0)
    code = main(
        ["report", "--diff", str(present), str(tmp_path / "missing.json")]
    )
    assert code == 2
    assert "report:" in capsys.readouterr().err


def test_report_json_tolerates_pre_metrics_reports(tmp_path, capsys):
    import json

    path = tmp_path / "old.json"
    _write_bench_report(path, 1.0)           # entries without metrics
    assert main(["report", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["entries"] == [{"name": "entry-a", "metrics": {}}]


def test_no_command_is_an_error():
    with pytest.raises(SystemExit):
        main([])


# ----------------------------------------------------------------------
# Live telemetry flags: serve's watchdog/exposition knobs and repro top
# ----------------------------------------------------------------------
def test_serve_parser_accepts_telemetry_flags():
    from repro.cli import _build_parser

    args = _build_parser().parse_args([
        "serve", "--port", "0", "--metrics-port", "9109",
        "--watchdog-interval", "0.2", "--probe-keys", "64",
        "--fault", "flush-failure",
    ])
    assert args.metrics_port == 9109
    assert args.watchdog_interval == 0.2
    assert args.probe_keys == 64
    assert args.fault == "flush-failure"


def test_serve_parser_defaults_leave_telemetry_extras_off():
    from repro.cli import _build_parser

    args = _build_parser().parse_args(["serve", "--port", "0"])
    assert args.metrics_port is None
    assert args.fault is None
    assert args.probe_keys == 128


def test_serve_parser_rejects_unknown_fault():
    from repro.cli import _build_parser

    with pytest.raises(SystemExit):
        _build_parser().parse_args(["serve", "--fault", "power-loss"])


def test_top_parser_flags():
    from repro.cli import _build_parser

    args = _build_parser().parse_args([
        "top", "--port", "7071", "--period", "0.5", "--frames", "3",
        "--once", "--json", "--raw",
    ])
    assert args.command == "top"
    assert args.port == 7071 and args.period == 0.5 and args.frames == 3
    assert args.once and args.as_json and args.raw


def test_top_connect_failure_exits_nonzero(capsys):
    import socket

    # bind-then-close: a port with nothing listening behind it
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    code = main(["top", "--port", str(port), "--once"])
    assert code == 2
    assert "cannot connect" in capsys.readouterr().err
