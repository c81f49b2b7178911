"""Tests for the span API, mode switching, exporters, and the overhead guard."""

import json
import time
from contextlib import nullcontext

import pytest

from repro.config import EnvError
from repro.obs import export as obs_export
from repro.obs import spans as obs_spans
from repro.obs.export import (
    JSONL_ENV,
    export_snapshot,
    format_report,
    jsonl_path,
    set_jsonl_path,
    write_event,
)
from repro.obs.registry import Registry, get_registry
from repro.obs.spans import (
    OBS_ENV,
    OBS_OFF,
    OBS_ON,
    OBS_TRACE,
    Span,
    obs_enabled,
    obs_mode,
    obs_mode_name,
    set_obs_mode,
    span,
    span_key,
)


@pytest.fixture(autouse=True)
def _restore_obs_state(monkeypatch):
    """Leave the process-wide mode, sink, and span registry as we found them."""
    previous_mode = obs_mode()
    monkeypatch.delenv(OBS_ENV, raising=False)
    monkeypatch.delenv(JSONL_ENV, raising=False)
    yield
    set_obs_mode(previous_mode)
    set_jsonl_path(None)
    get_registry().reset("test.")


class TestModeSwitching:
    @pytest.mark.parametrize("spelling, expected", [
        ("off", OBS_OFF), ("0", OBS_OFF), ("false", OBS_OFF), ("", OBS_OFF),
        ("on", OBS_ON), ("1", OBS_ON), ("true", OBS_ON), ("yes", OBS_ON),
        ("trace", OBS_TRACE), ("2", OBS_TRACE), ("ON", OBS_ON),
        (" trace ", OBS_TRACE),
    ])
    def test_string_spellings(self, spelling, expected):
        assert set_obs_mode(spelling) == expected
        assert obs_mode() == expected

    def test_int_modes(self):
        for mode in (OBS_OFF, OBS_ON, OBS_TRACE):
            assert set_obs_mode(mode) == mode
            assert obs_mode() == mode

    def test_unknown_modes_raise(self):
        with pytest.raises(ValueError):
            set_obs_mode("bogus")
        with pytest.raises(ValueError):
            set_obs_mode(7)

    def test_none_rereads_environment(self, monkeypatch):
        monkeypatch.setenv(OBS_ENV, "trace")
        assert set_obs_mode(None) == OBS_TRACE
        monkeypatch.delenv(OBS_ENV)
        assert set_obs_mode(None) == OBS_OFF

    def test_unknown_environment_spelling_raises(self, monkeypatch):
        set_obs_mode("on")
        monkeypatch.setenv(OBS_ENV, "tracee")
        with pytest.raises(EnvError, match=f"{OBS_ENV}.*'trace'.*'tracee'"):
            set_obs_mode(None)
        assert obs_mode() == OBS_ON  # a rejected spelling changes nothing

    def test_mode_name_and_enabled(self):
        set_obs_mode("off")
        assert obs_mode_name() == "off" and not obs_enabled()
        set_obs_mode("on")
        assert obs_mode_name() == "on" and obs_enabled()
        set_obs_mode("trace")
        assert obs_mode_name() == "trace" and obs_enabled()


class TestSpanKey:
    def test_no_tags_is_bare_name(self):
        assert span_key("engine.pairs", {}) == "engine.pairs"

    def test_tags_sorted_for_stable_keys(self):
        assert span_key("s", {"b": 1, "a": "x"}) == "s{a=x,b=1}"
        assert span_key("s", {"a": "x", "b": 1}) == span_key("s", {"b": 1, "a": "x"})


class TestSpanRecording:
    def test_disabled_span_is_shared_singleton(self):
        set_obs_mode("off")
        first = span("test.anything", measure="dtw")
        second = span("test.other")
        assert first is second is obs_spans._NULL_SPAN
        with first as entered:
            assert entered is first
        assert first.elapsed == 0.0

    def test_disabled_span_records_nothing(self):
        set_obs_mode("off")
        with span("test.disabled_span", tag="v"):
            pass
        snapshot = get_registry().snapshot()
        assert not any(name.startswith("test.disabled_span")
                       for name in snapshot["histograms"])

    def test_enabled_span_records_tagged_histogram(self):
        set_obs_mode("on")
        with span("test.enabled_span", measure="dtw", backend="numpy") as live:
            time.sleep(0.001)
        assert isinstance(live, Span)
        assert live.elapsed >= 0.001
        state = get_registry().histogram(
            "test.enabled_span{backend=numpy,measure=dtw}").state()
        assert state["count"] == 1
        assert state["sum"] == live.elapsed

    def test_span_records_even_when_body_raises(self):
        set_obs_mode("on")
        with pytest.raises(RuntimeError):
            with span("test.raising_span"):
                raise RuntimeError("boom")
        assert get_registry().histogram("test.raising_span").state()["count"] == 1

    def test_trace_mode_streams_nested_span_events(self, tmp_path):
        sink = tmp_path / "trace.jsonl"
        set_obs_mode("trace")
        set_jsonl_path(str(sink))
        with span("test.outer", layer="a"):
            with span("test.inner"):
                pass
        events = [json.loads(line) for line in sink.read_text().splitlines()]
        assert [event["name"] for event in events] == ["test.inner", "test.outer"]
        assert [event["depth"] for event in events] == [2, 1]
        inner, outer = events
        assert inner["kind"] == outer["kind"] == "span"
        assert outer["tags"] == {"layer": "a"}
        assert all(event["seconds"] >= 0 for event in events)


class TestDisabledOverhead:
    def test_disabled_span_overhead_is_negligible(self):
        # The contract is "one int compare and a constant return": a disabled
        # span must cost no more than a few hundred nanoseconds amortized.
        # Budget is relative (20x an empty nullcontext loop) with an absolute
        # 1.5us floor so a slow shared box does not flake.
        set_obs_mode("off")
        iterations = 50_000

        def timed(make_cm):
            best = float("inf")
            for _ in range(5):
                start = time.perf_counter()
                for _ in range(iterations):
                    with make_cm():
                        pass
                best = min(best, time.perf_counter() - start)
            return best / iterations

        baseline = timed(nullcontext)
        disabled = timed(lambda: span("test.overhead", measure="dtw"))
        assert disabled < max(1.5e-6, 20.0 * baseline), (
            f"disabled span costs {disabled * 1e9:.0f}ns/call "
            f"(baseline {baseline * 1e9:.0f}ns)")


class TestExport:
    def test_write_event_without_sink_returns_false(self):
        set_jsonl_path(None)
        assert jsonl_path() is None
        assert write_event("span", {"name": "x"}) is False

    def test_write_event_appends_ts_and_kind(self, tmp_path):
        sink = tmp_path / "events.jsonl"
        set_jsonl_path(str(sink))
        assert write_event("custom", {"value": 3}) is True
        assert write_event("custom", {"value": 4}) is True
        events = [json.loads(line) for line in sink.read_text().splitlines()]
        assert len(events) == 2
        assert events[0]["kind"] == "custom"
        assert events[0]["value"] == 3
        assert isinstance(events[0]["ts"], float)

    def test_env_var_configures_sink(self, monkeypatch, tmp_path):
        sink = tmp_path / "env.jsonl"
        monkeypatch.setenv(JSONL_ENV, str(sink))
        set_jsonl_path(None)  # drop any explicit path; fall back to the env
        assert jsonl_path() == str(sink)
        assert write_event("custom", {}) is True
        assert sink.exists()

    def test_export_snapshot_merges_extra_and_streams(self, tmp_path):
        registry = Registry()
        registry.counter("c").add(2)
        sink = tmp_path / "snap.jsonl"
        set_jsonl_path(str(sink))
        snap = export_snapshot(registry, workload={"size": 9})
        assert snap["counters"] == {"c": 2}
        assert snap["workload"] == {"size": 9}
        event = json.loads(sink.read_text().splitlines()[0])
        assert event["kind"] == "snapshot"
        assert event["snapshot"]["counters"] == {"c": 2}

    def test_format_report_lists_every_instrument(self):
        registry = Registry()
        registry.counter("engine.dp_cells").add(12)
        registry.gauge("pool.workers").set(2)
        registry.histogram("engine.pairs{measure=dtw}").observe(0.25)
        registry.histogram("empty.hist")
        report = format_report(registry)
        assert "engine.dp_cells" in report and "12" in report
        assert "pool.workers" in report
        assert "engine.pairs{measure=dtw}" in report and "count=1" in report
        assert "empty.hist" in report and "count=0" in report
