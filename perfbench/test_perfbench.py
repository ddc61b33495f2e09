"""Tests of the benchmark itself, at the size of one pass per workload.

Run from the root of a checkout:  python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import latticehk  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _latticehk_modules():
    return [m for n, m in sys.modules.items()
            if n == "latticehk" or n.startswith("latticehk.")]


def _wrapped_attributes():
    """Every attribute of a latticehk module or class that is a wrapper."""
    found = []
    for mod in _latticehk_modules():
        for name, value in vars(mod).items():
            if hasattr(value, "span_name"):
                found.append(f"{mod.__name__}.{name}")
            if isinstance(value, type):
                found += [f"{mod.__name__}.{name}.{attr}"
                          for attr, v in vars(value).items()
                          if hasattr(v, "span_name")]
    return found


@pytest.fixture(scope="module")
def traced_passes():
    """One traced pass of each workload (variant 0), with its digest."""
    out = {}
    check_ids = workloads.all_check_ids()
    for name in workloads.NAMES:
        wl = workloads.make(name, 0)
        wl.setup()
        tracer = spans.Tracer()
        tracer.install()
        try:
            digest = wl.run_pass()
        finally:
            tracer.remove()
        out[name] = (digest, tracer.pass_metrics(check_ids))
    return out


def test_each_layer_is_called_on_the_workload_it_moves(traced_passes):
    for prefix, _, _, metrics, moves in spans.TRACED:
        for name in moves:
            layers = traced_passes[name][1]
            if "calls" in metrics or "builds" in metrics:
                count = layers.get(f"{prefix}.calls",
                                   layers.get(f"{prefix}.builds"))
                assert count > 0, (prefix, name)
            if "self_s" in metrics:
                assert layers[f"{prefix}.self_s"] > 0, (prefix, name)
    for name in workloads.NAMES:
        for cid in workloads.check_ids(name):
            assert traced_passes[name][1][f"checks.{cid}.wall_s"] > 0


def test_site_localization_bypasses_rational(traced_passes):
    layers = traced_passes["site-localization"][1]
    assert layers["rational.rref.calls"] == 0
    assert layers["rational.matmul.calls"] == 0


def test_traced_passes_match_the_reference(traced_passes):
    reference = worker.load_reference()
    for name, (digest, _) in traced_passes.items():
        assert digest == reference[name]["0"], name


def test_wrappers_are_removed_after_the_traced_run(traced_passes):
    assert _wrapped_attributes() == []
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = _wrapped_attributes()
        assert "latticehk.geometry.cauchy_development" in wrapped
        assert "latticehk.sites.cauchy_development" in wrapped
        assert "latticehk.rational.Mat.rref" in wrapped
    finally:
        tracer.remove()
    assert _wrapped_attributes() == []


def test_self_time_excludes_child_spans():
    tracer = spans.Tracer()
    outer = tracer._wrap("outer", lambda f: f())
    inner = tracer._wrap("inner", lambda: sum(range(20000)))
    outer(inner)
    (i_id, i_parent, _, i_start, i_end, i_self), \
        (o_id, o_parent, _, o_start, o_end, o_self) = tracer.spans
    assert i_parent == o_id and o_parent is None
    assert i_self == pytest.approx(i_end - i_start)
    assert o_self == pytest.approx((o_end - o_start) - (i_end - i_start))


def _tiny_workload():
    wl = workloads.ScenarioWorkload("demo-mix", 0)
    wl.configs = [workloads._small(["causality.cone-lightcone"], 0)]
    wl.setup()
    return wl


def test_a_tampered_report_byte_counts_as_a_failure(monkeypatch):
    wl = _tiny_workload()
    expected = wl.run_pass()
    failures = []
    worker.timed_passes(wl, 0, expected, failures)
    assert failures == []

    real = workloads.report_bytes

    def tampered(report, drop_timestamp=False):
        data = bytearray(real(report, drop_timestamp))
        data[len(data) // 2] ^= 1
        return bytes(data)

    monkeypatch.setattr(workloads, "report_bytes", tampered)
    times = worker.timed_passes(wl, 0, expected, failures)
    assert len(times) == 1 and len(failures) == 1
    assert failures[0].startswith("digest")


def test_a_raising_pass_counts_as_a_failure(monkeypatch):
    wl = _tiny_workload()

    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(workloads, "run_scenario", boom)
    failures = []
    worker.timed_passes(wl, 0, "x", failures)
    assert failures == ["RuntimeError: boom"]


def test_reference_covers_every_variant():
    reference = worker.load_reference()
    assert sorted(reference) == sorted(workloads.NAMES)
    for name in workloads.NAMES:
        assert sorted(reference[name], key=int) == \
            [str(v) for v in range(workloads.VARIANTS)]


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        pytest.skip("no BENCHMARK.json in this checkout")
    spec = json.loads(path.read_text())
    assert run.WORKLOADS == workloads.NAMES
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    names = spans.layer_metric_names(workloads.all_check_ids())
    assert len(set(names)) == len(names)
    assert [m["name"] for m in spec["per_layer"]] == names
    assert [m["unit"] for m in spec["per_layer"]] == \
        [spans.metric_unit(n) for n in names]


def test_speed_correction_scales_each_stretch_by_its_own_speed():
    probe = speed.SpeedProbe()
    nominal = speed.NOMINAL_KERNEL_S
    # nominal speed for the first second, half speed for the second one
    probe.samples = [(0.25 * i, nominal) for i in range(1, 5)] + \
        [(1 + 0.25 * i, 2 * nominal) for i in range(1, 5)]
    assert probe.nominal_seconds(0.0, 1.0) == pytest.approx(1.0)
    assert probe.nominal_seconds(1.25, 2.0) == pytest.approx(0.375)
    # an interval between two probes takes the speed of the last one
    assert probe.nominal_seconds(2.1, 2.2) == pytest.approx(0.05)


def test_speed_probe_samples_while_running_and_stops():
    probe = speed.SpeedProbe()
    probe.start()
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
    finally:
        probe.stop()
    taken = len(probe.samples)
    assert taken >= 5
    time.sleep(0.1)
    assert len(probe.samples) == taken


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(range(10)) is None
    assert run.tail_percentile(range(1, 21))[0] == 50
    assert run.tail_percentile(range(1, 41)) == (75, 30)
    assert run.tail_percentile(range(1, 101)) == (90, 90)


def test_program_is_imported_from_this_checkout():
    assert Path(latticehk.__file__).resolve().parent == \
        ROOT / "src" / "latticehk"
