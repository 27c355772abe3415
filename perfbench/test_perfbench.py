"""Checks of the benchmark itself: `python3 -m pytest perfbench -q` from the repo root."""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 20261017  # not a seed the benchmark runs were tuned on


@pytest.fixture(scope="module", params=sorted(workloads.SPECS))
def prepared(request, tmp_path_factory):
    work = tmp_path_factory.mktemp(request.param)
    return workloads.prepare(request.param, SEED, work)


def _run_cli_traced(wl):
    import mrtrack.cli

    tracer = tracing.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = mrtrack.cli.main(wl.argv)
    finally:
        tracer.uninstall()
    return code, tracer


def test_program_matches_reference_and_trace_checks_hold(prepared):
    code, tracer = _run_cli_traced(prepared)
    assert code == 0
    problem, quality = prepared.check_output(prepared.out_path)
    assert problem is None
    assert 0.5 < quality["map50"] <= 1.0 and 0.5 < quality["mean_f1"] <= 1.0
    assert tracing.reconcile(tracer, prepared.tracked_frames) == []
    assert tracing.coverage(tracer.layer_totals(), prepared.spec.name) == []
    from mrtrack import pipeline
    from mrtrack.fileio import load_run_config

    cfg = load_run_config(preset="nanodet", emit_coasted=True)
    for index, frames in enumerate(prepared.streams):
        state, outputs = pipeline.TrackerState(), {}
        for frame in frames:
            state, outputs[frame.frame_index] = pipeline.step(
                state, frame, cfg.tracker, cfg.rescore, emit_coasted=True
            )
        assert prepared.check_stream(index, outputs) is None


def test_tracks_check_counts_small_shift_and_class_flip():
    want = {0: [(0, (1.0, 2.0, 11.0, 12.0), 1, 0.8)], 1: []}
    assert workloads.diff_tracks({0: [(0, (1.0 + 1e-12, 2.0, 11.0, 12.0), 1, 0.8)], 1: []}, want) is None
    shifted = {0: [(0, (1.0 + 1e-6, 2.0, 11.0, 12.0), 1, 0.8)], 1: []}
    flipped = {0: [(0, (1.0, 2.0, 11.0, 12.0), 2, 0.8)], 1: []}
    renumbered = {0: [(5, (1.0, 2.0, 11.0, 12.0), 1, 0.8)], 1: []}
    missing_frame = {0: want[0]}
    for got in (shifted, flipped, renumbered, missing_frame):
        assert workloads.diff_tracks(got, want) is not None


def test_output_checks_count_small_shifts_on_reference_outputs(prepared):
    want = prepared.expected_output
    if prepared.spec.name == "dense-track":
        frame = next(f for f, outs in want.items() if outs)
        tid, box, cls, conf = want[frame][0]
        shifted = dict(want)
        shifted[frame] = [(tid, (box[0] + 1e-6,) + tuple(box[1:]), cls, conf)] + want[frame][1:]
        assert workloads.diff_tracks(want, want) is None
        assert workloads.diff_tracks(shifted, want) is not None
        flipped = dict(want)
        flipped[frame] = [(tid, box, cls + 1, conf)] + want[frame][1:]
        assert workloads.diff_tracks(flipped, want) is not None
    elif prepared.spec.name == "sparse-sweep":
        assert workloads.diff_rows(json.loads(json.dumps(want)), want) is None
        got = json.loads(json.dumps(want))
        got[-1]["map"] += 1e-6
        assert workloads.diff_rows(got, want) is not None
    elif prepared.spec.name == "f1max-eval":
        assert workloads.diff_report(json.loads(json.dumps(want)), want) is None
        got = json.loads(json.dumps(want))
        got["per_class"]["0"]["f1"] += 1e-6
        assert workloads.diff_report(got, want) is not None
        got = json.loads(json.dumps(want))
        got["per_class"]["0"]["tp"] -= 1
        assert workloads.diff_report(got, want) is not None


def test_shape_check_rejects_a_different_corpus():
    from mrtrack.synth import generate, profile_scenario

    spec = workloads.SPECS["f1max-eval"]
    sc = profile_scenario(spec.profile, seed=SEED, n_objects=spec.n_objects + 1,
                          frame_count=spec.frames)
    gt, emulate = generate(sc)
    with pytest.raises(ValueError, match="objects per frame"):
        workloads.check_shape(spec, gt, emulate(workloads.FULL), emulate(workloads.LOW))


def test_coverage_flags_bypassed_and_unexpected_layers():
    totals = tracing.Tracer().layer_totals()
    for span in totals:
        totals[span]["calls"] = 0 if "dense-track" in tracing.ZERO_ON.get(span, ()) else 1
    assert tracing.coverage(totals, "dense-track") == []
    totals["association.iou_matrix"]["calls"] = 0
    totals["evaluation.evaluate"]["calls"] = 3
    problems = tracing.coverage(totals, "dense-track")
    assert any("association.iou_matrix" in p for p in problems)
    assert any("evaluation.evaluate" in p for p in problems)


def test_missing_target_fails_at_install(monkeypatch):
    import mrtrack.pipeline

    monkeypatch.delattr(mrtrack.pipeline, "iou_matrix")
    tracer = tracing.Tracer()
    with pytest.raises(AttributeError):
        tracer.install()
    tracer.uninstall()


def test_benchmark_json_lists_the_per_layer_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = set(tracing.per_layer_metrics(tracing.Tracer()))
    names |= {"cli.import_s", "cli.import_scipy_s", "trace.overhead_ratio", "trace.spans"}
    assert {m["name"] for m in spec["per_layer"]} == names
    assert {w["name"] for w in spec["workloads"]} == set(workloads.SPECS)


def test_reference_f1_scan_matches_exhaustive_sweep():
    dets = {
        0: [(0, 0, 10, 10, 0, 0.9), (20, 20, 30, 30, 0, 0.6), (0, 0, 10, 10, 1, 0.6)],
        1: [(1, 1, 11, 11, 0, 0.35), (40, 40, 50, 50, 1, 0.35)],
    }
    gts = {0: [(0, 0, 10, 10, 0), (20, 21, 30, 31, 1)], 1: [(0, 0, 10, 10, 0)]}
    best = max(
        (reference.evaluate(dets, gts, round(k * 0.01, 12)) for k in range(100)),
        key=lambda r: (r["mean_f1"], r["threshold"]),
    )
    top = reference.evaluate(dets, gts, 1.0 - reference.EPSILON)
    if top["mean_f1"] >= best["mean_f1"]:
        best = top
    assert reference.f1max(dets, gts) == best
