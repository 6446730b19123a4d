"""Tests for the benchmark's own arithmetic.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import PARENT, Tracer, self_times, tail_percentile, union_length  # noqa: E402


def _span(span_id, parent, start, end, thread=1):
    return (span_id, f"s{span_id}", parent, thread, start, end, 0.0)


def test_union_counts_overlap_once():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([]) == 0


def test_self_time_with_threaded_children():
    spans = [
        _span(0, -1, 0.0, 10.0),
        # Two workers overlap on [3, 5]: covered time is 7, not 9.
        _span(1, 0, 1.0, 5.0, thread=2),
        _span(2, 0, 3.0, 8.0, thread=3),
        # A grandchild counts against its own parent only.
        _span(3, 1, 2.0, 4.0, thread=2),
        # A child running past its parent's end is clipped to the parent.
        _span(4, 0, 9.0, 12.0, thread=2),
    ]
    selfs = self_times(spans)
    assert selfs[0] == 10.0 - 8.0
    assert selfs[1] == 4.0 - 2.0
    assert selfs[2] == 5.0
    assert selfs[3] == 2.0


def test_worker_spans_take_the_submitting_span_as_parent():
    tracer = Tracer()

    def work(_):
        with tracer.span("leaf"):
            pass
        return threading.get_ident()

    with tracer.span("stage"):
        with tracer.span("layer"):
            with ThreadPoolExecutor(max_workers=2) as pool:
                list(pool.map(work, range(8)))
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s[1], []).append(s)
    layer_id = by_name["layer"][0][0]
    assert by_name["layer"][0][PARENT] == by_name["stage"][0][0]
    assert all(s[PARENT] == layer_id for s in by_name["leaf"])
    assert len(by_name["leaf"]) == 8


def test_wrap_counts_and_restores():
    module = types.SimpleNamespace(
        double=lambda x: 2 * x,
        gen=None,
    )

    def gen(n):
        yield from range(n)

    module.gen = gen
    tracer = Tracer()
    seen = []
    tracer.wrap(module, "double", "double", lambda a, k, r: seen.append(r))
    tracer.wrap(module, "gen", "gen", lambda a, k, n: tracer.count("items", n))
    assert module.double(3) == 6
    assert list(module.gen(4)) == [0, 1, 2, 3]
    assert seen == [6]
    assert tracer.counters() == {"items": 4}
    assert [s[1] for s in tracer.spans] == ["double", "gen"]
    tracer.restore()
    assert module.gen is gen


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(19) is None
    assert tail_percentile(20) == 50.0
    assert tail_percentile(999) == 95.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(9999) == 99.0
    assert tail_percentile(10_000) == 99.9


def test_digest_is_stable_and_sensitive(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for root, order in ((a, ("x.bin", "sub/y.txt")), (b, ("sub/y.txt", "x.bin"))):
        for name in order:
            path = root / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(b"payload of " + name.encode())
    assert workloads.digest(a) == workloads.digest(b)
    assert workloads.digest(a, ["sub"]) == workloads.digest(b, ["sub"])
    assert workloads.digest(a, ["sub"]) != workloads.digest(a)
    (b / "x.bin").write_bytes(b"payload of x.biN")
    assert workloads.digest(a) != workloads.digest(b)
    (b / "x.bin").rename(b / "z.bin")
    (b / "z.bin").write_bytes(b"payload of x.bin")
    assert workloads.digest(a) != workloads.digest(b)


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_counters_merge_across_threads():
    tracer = Tracer()

    def work(i):
        tracer.count("calls")
        tracer.distinct("keys", [i % 3])

    with ThreadPoolExecutor(max_workers=4) as pool:
        list(pool.map(work, range(100)))
    tracer.count("calls", 0.5)
    assert tracer.counters() == {"calls": 100.5, "keys": 3}
