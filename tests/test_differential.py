"""Whole-pipeline differential test: `synth`, `track` and `eval` against the
benchmark's frozen reference tracker and evaluator.

`perfbench/reference.py` is an independent implementation that repeats the
program's arithmetic operation for operation; `perfbench/workloads.py`
compares outputs with it. Both are imported by path and only read. The
reference fixes the nanodet preset and coasted emission, so the commands
run with those.
"""

import importlib.util
import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from mrtrack.cli import EXIT_OK, main
from mrtrack.fileio import save_scenario
from mrtrack.synth import profile_scenario

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    """The perfbench module ``name``, under the name its siblings import it by."""
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, _PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


reference = _load("reference")
workloads = _load("workloads")


def _run(argv):
    with redirect_stdout(io.StringIO()):
        assert main([str(a) for a in argv]) == EXIT_OK


class TestProgramMatchesReference:
    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(["cnn-like", "vit-like"]),
        st.integers(0, 2**16),
        st.integers(1, 20),
        st.integers(5, 60),
        st.integers(0, 5),
    )
    def test_synth_track_eval(self, profile, seed, n_objects, frames, P):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            save_scenario(tmp / "sc.yaml", profile_scenario(
                profile, seed=seed, n_objects=n_objects, frame_count=frames))
            corpus, tracks, report = tmp / "corpus", tmp / "tracks.jsonl", tmp / "report.json"
            _run(["synth", tmp / "sc.yaml", "--out", corpus, "--P", P])
            _run(["track", corpus / f"detections_P{P}.jsonl", "--preset", "nanodet",
                  "--P", P, "--emit-coasted", "--out", tracks])
            _run(["eval", tracks, corpus / "gt.jsonl", "--threshold", "f1max",
                  "--out", report])

            full = reference.load_detections(corpus / "detections_320x320.jsonl")
            low = reference.load_detections(corpus / "detections_192x192.jsonl")
            stream = reference.interleave(full, low, P)
            assert reference.load_detections(corpus / f"detections_P{P}.jsonl") == stream
            want = reference.track(stream)
            assert workloads.diff_tracks(workloads.read_track_file(tracks), want) is None
            dets = {f: [o[1] + (o[2], o[3]) for o in outs] for f, outs in want.items()}
            gt = reference.load_groundtruth(corpus / "gt.jsonl")
            got = json.loads(report.read_text())
            assert workloads.diff_report(got, reference.f1max(dets, gt)) is None
