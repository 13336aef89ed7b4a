"""Exporter tests: Chrome-trace document, JSONL sink, metrics summary.

The round-trip test is the acceptance check for the trace format: the
span forest must be reconstructible from the exported events alone
(via ``args.sid`` / ``args.parent``), because that is what downstream
tools — and the CI smoke — rely on.
"""

from __future__ import annotations

import json

from repro.obs.tracer import ObsState
from repro.obs.export import chrome_trace_doc, metrics_summary, write_trace


def _sample_state(fake_clock):
    state = ObsState(clock=fake_clock)
    with state.span("campaign", "campaign"):
        with state.span("cells:demt", "cell"):
            with state.span("dual_approximation", "algorithm"):
                with state.span("dual.probe", "kernel"):
                    pass
    state.count("dual.probes", 42)
    state.count("cells.measured", 3)
    state.observe("online.batch_size", 16)
    state.gauge("g", 2.5)
    return state


class TestChromeTraceDoc:
    def test_span_events_roundtrip(self, fake_clock):
        state = _sample_state(fake_clock)
        doc = chrome_trace_doc(state)
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(xs) == 4
        for e in xs:
            assert e["pid"] == 0
            assert e["dur"] >= 0 and e["ts"] >= 0
        # Reconstruct the forest from the events alone.
        by_sid = {e["args"]["sid"]: e for e in xs}
        parent_of = {
            e["name"]: (
                by_sid[e["args"]["parent"]]["name"]
                if e["args"]["parent"] >= 0
                else None
            )
            for e in xs
        }
        assert parent_of == {
            "campaign": None,
            "cells:demt": "campaign",
            "dual_approximation": "cells:demt",
            "dual.probe": "dual_approximation",
        }
        cats = {e["name"]: e["cat"] for e in xs}
        assert cats["campaign"] == "campaign" and cats["dual.probe"] == "kernel"

    def test_counter_events_and_metrics_block(self, fake_clock):
        doc = chrome_trace_doc(_sample_state(fake_clock))
        cs = {e["name"]: e for e in doc["traceEvents"] if e["ph"] == "C"}
        assert cs["dual.probes"]["args"]["value"] == 42
        assert cs["cells.measured"]["args"]["value"] == 3
        m = doc["metrics"]
        assert m["counters"]["dual.probes"] == 42
        assert m["gauges"]["g"] == 2.5
        assert m["histograms"]["online.batch_size"]["count"] == 1
        # Bucket keys stringified so the doc is valid JSON.
        assert "16" in m["histograms"]["online.batch_size"]["buckets"]
        assert m["hook_calls"] == state_hooks_expected()

    def test_doc_is_json_serialisable(self, fake_clock):
        doc = chrome_trace_doc(_sample_state(fake_clock))
        parsed = json.loads(json.dumps(doc))
        assert parsed["displayTimeUnit"] == "ms"


def state_hooks_expected():
    # 4 spans + 2 counts + 1 observe + 1 gauge in _sample_state.
    return 8


class TestWriteTrace:
    def test_chrome_json_file_loads(self, fake_clock, tmp_path):
        out = write_trace(_sample_state(fake_clock), tmp_path / "t.json")
        doc = json.loads(out.read_text())
        assert {e["ph"] for e in doc["traceEvents"]} == {"X", "C"}

    def test_jsonl_one_event_per_line(self, fake_clock, tmp_path):
        out = write_trace(_sample_state(fake_clock), tmp_path / "t.jsonl")
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert all("ph" in ev for ev in lines[:-1])
        assert "metrics" in lines[-1]
        assert lines[-1]["metrics"]["counters"]["dual.probes"] == 42


class TestMetricsSummary:
    def test_mentions_counters_hists_and_flame(self, fake_clock):
        text = metrics_summary(_sample_state(fake_clock))
        assert "== metrics ==" in text
        assert "dual.probes" in text and "42" in text
        assert "online.batch_size" in text and "count=1" in text
        assert "== spans (total time, by path) ==" in text
        assert "dual.probe" in text

    def test_empty_state(self, fake_clock):
        text = metrics_summary(ObsState(clock=fake_clock))
        assert "(no counters)" in text
