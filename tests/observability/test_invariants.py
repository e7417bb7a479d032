"""Observability must not change, or misattribute, the work it observes.

* Turning ``capture()`` on (which also builds provenance eagerly) runs
  the same searches over the same candidates and stores byte-identical
  artifacts.
* A compile runs one search per searched kernel: provenance reads its
  ranking off those searches and never searches again, not even for a
  kernel whose search failed.
* Spans nest under the stage that caused them, and the direct children
  of ``compile`` add up to no more than ``compile``.
"""

import json

import pytest

import repro.analysis.analyzer as analyzer
from repro.analysis.cache import clear_caches
from repro.apps import ALL_APPS, merge_params
from repro.ir.serialize import canonicalize_program
from repro.observability import capture
from repro.resilience.faults import FaultPlan, inject_faults
from repro.runtime.session import GpuSession
from repro.service.store import build_artifact

APPS = ("msmbuilder", "lud", "sumRows", "gaussian")


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


@pytest.fixture
def search_work(monkeypatch):
    """Count searches and freshly scored candidates, capture on or off."""
    work = {"runs": 0, "scored": 0}
    search = analyzer.search_mapping

    def counting(*args, **kwargs):
        result = search(*args, **kwargs)
        work["runs"] += 1
        if not result.cache_hit:
            work["scored"] += result.candidates_scored
        return result

    monkeypatch.setattr(analyzer, "search_mapping", counting)
    return work


def _program(name):
    """A registered app with canonical binder names, as the service
    compiles it: its CUDA is then a pure function of the program, not of
    how many builds ran before."""
    app = ALL_APPS[name]
    return canonicalize_program(app.build()), merge_params(app, {})


def _compile(program):
    program, sizes = program
    return GpuSession().compile(program, **sizes)


def _artifact_bytes(compiled) -> str:
    """The stored artifact, minus wall-clock stamps."""
    data = build_artifact("0" * 64, compiled, compile_ms=0.0).to_dict()
    data.pop("compile_ms")
    data.pop("created_at")
    for kernel in data["provenance"]["kernels"]:
        kernel["search"].pop("elapsed_ms")
    return json.dumps(data, sort_keys=True)


def _searched(compiled) -> int:
    return sum(1 for d in compiled.decisions if d.search is not None)


@pytest.mark.parametrize("name", APPS)
def test_capture_does_not_change_the_work(name, search_work):
    program = _program(name)
    plain = _artifact_bytes(_compile(program))
    plain_work = dict(search_work)

    clear_caches()
    search_work.update(runs=0, scored=0)
    with capture() as obs:
        compiled = _compile(program)
        traced = _artifact_bytes(compiled)
    counters = obs.metrics.to_dict()["counters"]

    assert traced == plain
    assert search_work == plain_work
    assert plain_work["runs"] == _searched(compiled)
    assert counters["search.runs"] == plain_work["runs"]
    assert counters["search.candidates.scored"] == plain_work["scored"]


@pytest.mark.parametrize("name", sorted(ALL_APPS))
def test_one_search_per_searched_kernel(name):
    program = _program(name)
    with capture() as obs:
        compiled = _compile(program)
    assert compiled._provenance is not None  # built eagerly under capture
    counters = obs.metrics.to_dict()["counters"]
    assert counters["search.runs"] == _searched(compiled)


def _spans(tracer):
    return [e for e in tracer.events() if e["ph"] == "X"]


def _children(parent, spans):
    """Direct children: spans inside ``parent`` on its thread that no
    other such span encloses."""
    end = parent["ts"] + parent["dur"]
    inside = [
        s for s in spans
        if s is not parent and s["tid"] == parent["tid"]
        and s["ts"] >= parent["ts"] and s["ts"] + s["dur"] <= end
    ]

    def encloses(outer, inner):
        return (
            outer is not inner and outer["ts"] <= inner["ts"]
            and inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]
        )

    return [
        s for s in inside if not any(encloses(o, s) for o in inside)
    ]


@pytest.mark.parametrize("name", APPS)
def test_compile_children_fit_inside_compile(name):
    program = _program(name)
    with capture() as obs:
        _compile(program)
    spans = _spans(obs.tracer)
    (compile_span,) = [s for s in spans if s["name"] == "compile"]
    children = _children(compile_span, spans)
    names = {s["name"] for s in children}
    assert "provenance" in names
    assert sum(s["dur"] for s in children) <= compile_span["dur"]
    # Nothing the compile caused is left outside it.
    end = compile_span["ts"] + compile_span["dur"]
    outside = [
        s["name"] for s in spans
        if s["ts"] < compile_span["ts"] or s["ts"] + s["dur"] > end
    ]
    assert outside == []


def test_session_fallback_provenance_runs_no_search():
    """A kernel whose search raised falls back without a ranking, and its
    provenance record says so instead of searching again."""
    program, sizes = _program("msmbuilder")
    with capture(provenance=False) as obs:
        with inject_faults(FaultPlan.single("search", "exception")):
            compiled = GpuSession().compile(program, **sizes)
        assert compiled.degraded
        assert compiled.decisions[0].search is None

        def runs():
            return obs.metrics.to_dict()["counters"].get("search.runs", 0)

        before = runs()
        kernel = compiled.provenance().kernels[0]
        assert runs() == before
    assert "candidate ranking unavailable" in kernel.note
    assert kernel.candidates == []
