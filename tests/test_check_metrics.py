"""The metric-catalogue checker: recorded names must stay documented."""

import pathlib
import sys

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))

import check_metrics  # noqa: E402


def test_repo_static_scan_is_clean(capsys):
    # the CI gate's cheap half: every call-site literal resolves
    assert check_metrics.main(["--static-only"]) == 0
    assert "all resolve" in capsys.readouterr().out


def test_static_scan_finds_known_call_sites():
    emissions = check_metrics.scan_source()
    names = {e.name for e in emissions}
    # a plain literal, a multi-line call, and an f-string template
    assert "cots.queue.depth" in names
    assert "mp.queue.occupancy" in names
    assert "mp.worker.0.items" in names       # {index} hole substituted
    kinds = {e.name: e.kind for e in emissions}
    assert kinds["cots.queue.depth"] == "histogram"
    assert all(":" in e.where for e in emissions)


def test_check_flags_unknown_names_and_kind_mismatches():
    failures = check_metrics.check([
        check_metrics.Emission("core.spacesaving.occurrences", "counter",
                               "ok.py:1"),
        check_metrics.Emission("core.spacesaving.bogus", "counter",
                               "bad.py:2"),
        check_metrics.Emission("cots.queue.depth", "counter", "bad.py:3"),
    ])
    assert len(failures) == 2
    assert "no METRIC_SPECS entry" in failures[0]
    assert "catalogued as histogram" in failures[1]


def test_main_exits_nonzero_on_drift(tmp_path, monkeypatch, capsys):
    src = tmp_path / "src" / "repro"
    src.mkdir(parents=True)
    (src / "rogue.py").write_text(
        'def f(registry, i):\n'
        '    registry.counter("core.rogue.widgets").inc(1)\n'
        '    registry.gauge(f"mp.worker.{i}.frobs").set(2)\n'
    )
    monkeypatch.setattr(check_metrics, "SRC_ROOT", src)
    assert check_metrics.main(["--static-only"]) == 1
    err = capsys.readouterr().out
    assert "core.rogue.widgets" in err
    assert "mp.worker.0.frobs" in err
    assert "rogue.py:2" in err


def test_smoke_run_names_all_resolve():
    emissions, serve_snapshot = check_metrics.smoke_run()
    assert emissions
    assert check_metrics.check(emissions) == []
    runs = {e.where for e in emissions}
    assert len(runs) == 9                     # all nine smoke layers recorded
    assert "runtime (scenario run)" in runs
    assert "runtime (scenario-fuzz run)" in runs
    assert "runtime (serve run)" in runs
    # the serve snapshot feeds the Prometheus exposition audit
    assert serve_snapshot["counters"]
    assert check_metrics.check_prometheus(serve_snapshot) == []
    assert check_metrics.check_freshness(serve_snapshot) == []


def test_freshness_audit_flags_unobserved_frames():
    def snapshot(frames, observed):
        return {"counters": {"serve.ingest.frames": frames},
                "histograms": {check_metrics.FRESHNESS: {"count": observed}}}

    assert check_metrics.check_freshness(snapshot(3, 3)) == []
    [failure] = check_metrics.check_freshness(snapshot(3, 2))
    assert "observed 2 frame(s)" in failure and "acked 3" in failure
    # a smoke that acked nothing proves nothing
    assert check_metrics.check_freshness(snapshot(0, 0))


def test_alert_rules_resolve_against_catalogue():
    assert check_metrics.check_alert_rules() == []


def test_prometheus_audit_flags_malformed_exposition():
    failures = check_metrics.check_prometheus(
        {"counters": {"serve.ingest.events": 3}, "gauges": {},
         "histograms": {}},
        text='repro_serve_ingest_events_total 3\n',
    )
    # samples without a TYPE line must be flagged
    assert any("no TYPE" in f for f in failures)
