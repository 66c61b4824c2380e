"""Unit tests for the observability subsystem (repro.obs)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    ContentionProfile,
    PhaseSummary,
    RunSummary,
    TraceEvent,
    Tracer,
    bucket_range,
    chrome_trace_dict,
    chrome_trace_json,
    jsonl_dumps,
    log2_bucket,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.sim import MTAEngine, SMPEngine, TracerHook, isa
from repro.sim.stats import PhaseSlice, SimReport


def _report(name="run", p=2, cycles=100, issued=(30, 40), phases=(), detail=None):
    return SimReport(
        name=name,
        p=p,
        cycles=cycles,
        issued=np.array(issued, dtype=np.int64),
        clock_hz=1e6,
        op_counts={"LD": 50, "C": 20},
        detail=detail or {},
        phases=list(phases),
    )


class TestTraceEvent:
    def test_chrome_span_has_duration(self):
        e = TraceEvent(name="x", ph="X", ts=5.0, dur=3.0, pid=1, tid=2)
        d = e.to_chrome()
        assert d["dur"] == 3.0 and d["ts"] == 5.0 and d["ph"] == "X"

    def test_chrome_instant_has_scope_not_duration(self):
        d = TraceEvent(name="m", ph="i", ts=1.0).to_chrome()
        assert d["s"] == "t" and "dur" not in d

    def test_compact_roundtrip(self):
        e = TraceEvent(name="LD", ph="X", ts=7.0, dur=2.0, pid=3, tid=1, cat="op", args={"addr": 9})
        assert TraceEvent.from_compact(e.to_compact()) == e

    def test_compact_omits_defaults(self):
        d = TraceEvent(name="a", ph="i", ts=0.0).to_compact()
        assert set(d) == {"n", "ph", "ts"}


class TestTracer:
    def test_rejects_unknown_level(self):
        with pytest.raises(ConfigurationError):
            Tracer(level="verbose")

    def test_op_level_flag(self):
        assert not Tracer().op_level
        assert Tracer(level="op").op_level

    def test_span_applies_offset(self):
        t = Tracer()
        t.advance(100.0)
        t.span("a", 5.0, 8.0)
        assert t.events[-1].ts == 105.0 and t.events[-1].dur == 3.0

    def test_process_naming_idempotent(self):
        t = Tracer()
        t.name_process(0, "proc0")
        t.name_process(0, "proc0")
        assert len(t.events) == 1

    def test_record_run_emits_phase_spans_and_advances(self):
        slices = [
            PhaseSlice(name="a", start=0.0, end=60.0, issued=30),
            PhaseSlice(name="b", start=60.0, end=100.0, issued=40),
        ]
        t = Tracer()
        t.record_run(_report(phases=slices))
        spans = [e for e in t.events if e.ph == "X"]
        assert [s.name for s in spans] == ["a", "b"]
        assert t.offset == 100.0
        # a second run lands after the first
        t.record_run(_report(name="next"))
        assert t.events[-1].ts == 100.0 and t.offset == 200.0

    def test_record_run_without_slices_synthesizes_whole_run(self):
        t = Tracer()
        t.record_run(_report())
        spans = [e for e in t.events if e.ph == "X"]
        assert len(spans) == 1 and spans[0].dur == 100.0 and spans[0].name == "run"


class TestExport:
    def test_chrome_doc_shape(self):
        t = Tracer()
        t.span("a", 0.0, 4.0)
        doc = chrome_trace_dict(t.events, metadata={"k": "v"})
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"] == {"k": "v"}
        assert doc["traceEvents"][0]["name"] == "a"

    def test_chrome_json_deterministic_and_parseable(self):
        t = Tracer()
        t.span("a", 0.0, 4.0, args={"x": 2.0})
        s1 = chrome_trace_json(t.events)
        s2 = chrome_trace_json(list(t.events))
        assert s1 == s2
        assert json.loads(s1)["traceEvents"][0]["args"]["x"] == 2

    def test_integral_floats_render_as_ints(self):
        t = Tracer()
        t.span("a", 0.0, 4.0)
        assert '"ts":0' in chrome_trace_json(t.events)
        assert '"ts":0.0' not in chrome_trace_json(t.events)

    def test_jsonl_roundtrip_via_files(self, tmp_path):
        t = Tracer(level="op")
        t.name_process(0, "proc0")
        t.span("LD", 1.0, 6.0, args={"addr": 12})
        t.instant("mark", 3.0)
        p = write_jsonl(t.events, tmp_path / "t.jsonl")
        assert read_jsonl(p) == t.events

    def test_write_chrome_trace(self, tmp_path):
        t = Tracer()
        t.span("a", 0.0, 4.0)
        p = write_chrome_trace(t.events, tmp_path / "t.json")
        assert json.loads(p.read_text())["traceEvents"]

    def test_empty_jsonl(self):
        assert jsonl_dumps([]) == ""


class TestRunSummary:
    def test_from_report_single_phase(self):
        s = RunSummary.from_report(_report())
        assert s.cycles == 100.0 and s.issued == 70.0
        assert len(s.phases) == 1
        s.validate()

    def test_utilization_formula(self):
        s = RunSummary.from_report(_report())
        assert s.utilization == pytest.approx(70 / (2 * 100))

    def test_zero_cycle_run_is_fully_utilized(self):
        s = RunSummary(name="z", machine="", p=1, clock_hz=1.0, cycles=0.0, issued=0.0)
        assert s.utilization == 1.0

    def test_validate_rejects_bad_partition(self):
        s = RunSummary.from_report(_report())
        s.phases.append(PhaseSummary(name="extra", cycles=5.0, issued=0.0))
        with pytest.raises(ConfigurationError):
            s.validate()

    def test_phase_lookup(self):
        s = RunSummary.from_report(_report())
        assert s.phase("run").cycles == 100.0
        with pytest.raises(KeyError):
            s.phase("nope")

    def test_mem_ops_excludes_compute_and_barriers(self):
        ph = PhaseSummary(name="p", cycles=1.0, issued=10.0, op_counts={"LD": 3, "C": 5, "B": 1, "FA": 2})
        assert ph.mem_ops == 5

    def test_table_and_to_dict(self):
        s = RunSummary.from_report(_report())
        assert "utilization" in s.table()
        d = s.to_dict()
        assert d["phases"][0]["name"] == "run"
        assert d["utilization"] == s.utilization


class TestMachineResultSummary:
    def test_model_summary_matches_result(self):
        from repro.core import SMPMachine
        from repro.lists import random_list, rank_helman_jaja

        nxt = random_list(512, 0)
        res = SMPMachine(p=2).run(rank_helman_jaja(nxt, p=2, rng=0).steps)
        s = res.summary()
        s.validate()
        assert s.cycles == pytest.approx(res.cycles)
        # MachineResult clamps utilization at 1.0; otherwise identical
        assert min(1.0, s.utilization) == pytest.approx(res.utilization)


class TestContention:
    def test_log2_buckets(self):
        assert log2_bucket(0) == 0
        assert log2_bucket(1) == 1
        assert log2_bucket(2) == 2
        assert log2_bucket(3) == 2
        assert log2_bucket(4) == 3

    def test_bucket_ranges_cover_waits(self):
        for wait in (1, 2, 3, 7, 8, 100, 1023):
            lo, hi = bucket_range(log2_bucket(wait))
            assert lo <= wait < hi

    def test_from_report_reads_detail(self):
        r = _report(
            detail={
                "fa_sites": {10: (5, 7)},
                "fa_serialization_stalls": 7,
                "fe_wait_hist": {3: 2},
                "fe_wait_cycles": 11,
                "barrier_waits": {"b": {"episodes": 2, "wait_cycles": 6, "max_wait": 5}},
            }
        )
        prof = ContentionProfile.from_report(r)
        assert prof.fa_total_stalls == 7
        assert prof.hottest_fa_sites() == [(10, 5, 7)]
        text = prof.render()
        assert "int_fetch_add" in text and "full/empty" in text and "barriers" in text

    def test_total_stalls_default_from_sites(self):
        prof = ContentionProfile.from_report(_report(detail={"fa_sites": {1: (4, 2.5), 2: (1, 1.5)}}))
        assert prof.fa_total_stalls == 4

    def test_empty_profile_renders_placeholder(self):
        assert "no contention" in ContentionProfile().render()


class TestEngineIntegration:
    """Tracing against the real engines (tiny programs)."""

    def _mta_run(self, tracer=None):
        hooks = () if tracer is None else (TracerHook(tracer),)
        eng = MTAEngine(p=1, streams_per_proc=4, mem_latency=5, hooks=hooks)
        eng.set_counter(100, 0)

        def worker():
            yield isa.phase("work")
            for _ in range(3):
                yield isa.fetch_add(100, 1)
                yield isa.compute(2)
            yield isa.phase("tail")
            yield isa.store(200)

        eng.spawn(worker())
        return eng.run("demo")

    def test_phase_slices_partition_run(self):
        rep = self._mta_run()
        assert rep.phases
        assert sum(s.cycles for s in rep.phases) == rep.cycles
        assert rep.phases[0].start == 0 and rep.phases[-1].end == rep.cycles
        assert [s.name for s in rep.phases] == ["work", "tail"]

    def test_phase_markers_cost_nothing(self):
        with_marks = self._mta_run()
        eng = MTAEngine(p=1, streams_per_proc=4, mem_latency=5)
        eng.set_counter(100, 0)

        def worker():
            for _ in range(3):
                yield isa.fetch_add(100, 1)
                yield isa.compute(2)
            yield isa.store(200)

        eng.spawn(worker())
        plain = eng.run("demo")
        assert with_marks.cycles == plain.cycles
        assert with_marks.total_issued == plain.total_issued
        assert with_marks.op_counts == plain.op_counts

    def test_op_level_tracer_sees_operations(self):
        t = Tracer(level="op")
        rep = self._mta_run(tracer=t)
        names = {e.name for e in t.events if e.ph == "X"}
        assert "FA" in names and "S" in names
        assert t.offset == float(rep.cycles)

    def test_smp_phase_slices_partition_run(self):
        def program(proc):
            if proc == 0:
                yield isa.phase("warm")
            for j in range(8):
                yield isa.load(j * 64)
            yield isa.barrier("sync")
            if proc == 0:
                yield isa.phase("tail")
            yield isa.store(4096)

        eng = SMPEngine(p=2)
        for i in range(2):
            eng.spawn(program(i))
        rep = eng.run("smp-demo")
        assert [s.name for s in rep.phases] == ["warm", "tail"]
        assert sum(s.cycles for s in rep.phases) == pytest.approx(float(rep.cycles))

    def test_smp_contention_counters_present(self):
        def program(proc):
            for j in range(4):
                yield isa.load(j * 64 + proc * 8192)
            yield isa.barrier("sync")

        eng = SMPEngine(p=2)
        for i in range(2):
            eng.spawn(program(i))
        rep = eng.run("smp-demo")
        d = rep.detail
        assert len(d["barrier_wait_cycles"]) == 2
        assert d["barrier_episodes"] == 1
        assert len(d["l1_misses"]) == 2
