"""Metamorphic relations of the tracker, at the ``run_sequence`` layer, of
the evaluator, at the ``rank_corpus`` -> ``f1_max_threshold`` ->
``evaluate`` layer, and of both through files and the CLI.

Each tracker relation maps every detection box of a native-resolution frame
stream, tracks the original and the mapped stream with the same
configuration (the nanodet preset's thresholds, rescoring on, coasted tracks
emitted), and requires the same decisions: per frame, the same track ids,
classes and confidences in the same order, and every emitted box of the
mapped run mapped back by the inverse equal to the original run's box.
Each evaluator relation maps every detection and ground-truth box of a
corpus and requires the same F1-max threshold and an equal
``MetricsReport``. None of them needs an oracle of what the code should
output.

The maps and why each is exact, for detection boxes inside the loaders'
range whose images stay far from float overflow and underflow (the
synthetic corpora's boxes lie within a few pixels of [0, 320]):

- scaling every coordinate by 2 or by 1/4: multiplying by a power of two
  is exact, the filter's means scale with the box, its position variances
  with the box's square (their noise is height-relative), its gains and
  the aspect channel not at all, and IoU is a ratio of areas;
- mirroring x, (x1, y1, x2, y2) -> (-x2, y1, -x1, y2), or y likewise:
  negation is exact and float rounding is symmetric about zero, so every
  center, velocity and corner is negated exactly and every width, height,
  variance and IoU is unchanged.

Swapping x and y is a relation for the evaluator but not for the tracker.
The evaluator reads a box only through IoU, whose widths and heights trade
places, so every area and intersection is the same product in the other
order, which float multiplication keeps exact. The tracker's aspect w / h
becomes h / w, whose filter channel has fixed rather than height-relative
noise, so the boxes differ (and on the 40-object corpus below, so do
decisions). Shifting every coordinate by +1024 px is a relation for
neither: it rounds the centers and corners differently, so the boxes move
in their last bits.

The same maps run through files and the CLI, on the boxes the files hold,
at their inference resolution (``test_relation_through_cli``).

Two relations leave the boxes alone. Permuting class ids is exact for the
tracker, which compares classes only for equality, and for each class's
row of the evaluator's report; the report's means add those rows in class
order, so they agree only within rounding. Renaming sequences is exact for
the evaluator when it keeps their sort order. An order-changing rename is
not a relation: ``rank_corpus`` ranks records of equal confidence in frame
key order, so two sequences' tied records trade ranks. The low-res streams
hold many detections at the 1 - 1e-4 confidence cap; scoring two of the
corpora below as sequences "a" and "b", then as "b" and "a", moves some
class's AP in its fourth to sixth digit on each of five pairings tried
(the full-res streams stayed exact).
"""

import io
import json
from contextlib import redirect_stdout
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrtrack.cli import main
from mrtrack.core import BBox, Detection, FramePacket, TrackerConfig, rescale_packet_to_native
from mrtrack.evaluation import GroundTruthFrame, evaluate, f1_max_threshold, rank_corpus
from mrtrack.fileio import load_track_file, save_detection_file, save_groundtruth_file
from mrtrack.pipeline import run_sequence
from mrtrack.schedule import interleave
from mrtrack.synth import generate, profile_scenario

# the nanodet preset's thresholds
TCFG = TrackerConfig(high_threshold=0.45, low_threshold=0.30)

# name -> (map, inverse)
MAPS = {
    "scale by 2": (
        lambda b: BBox(b.x1 * 2.0, b.y1 * 2.0, b.x2 * 2.0, b.y2 * 2.0),
        lambda b: BBox(b.x1 / 2.0, b.y1 / 2.0, b.x2 / 2.0, b.y2 / 2.0),
    ),
    "scale by 1/4": (
        lambda b: BBox(b.x1 / 4.0, b.y1 / 4.0, b.x2 / 4.0, b.y2 / 4.0),
        lambda b: BBox(b.x1 * 4.0, b.y1 * 4.0, b.x2 * 4.0, b.y2 * 4.0),
    ),
    "mirror x": (lambda b: BBox(-b.x2, b.y1, -b.x1, b.y2),) * 2,
    "mirror y": (lambda b: BBox(b.x1, -b.y2, b.x2, -b.y1),) * 2,
}

# (profile, seed, objects, frames), each tracked at P = 5: the determinism
# test's corpus, then benchmark-sized ones
CORPORA = [
    ("cnn-like", 5, 4, 40),
    ("cnn-like", 4242, 40, 200),
    ("vit-like", 4242, 4, 300),
    ("cnn-like", 4242, 8, 300),
]


@lru_cache(maxsize=None)
def _generated(profile, seed, n_objects, frame_count):
    """Ground truth, then the full- and low-res detection streams, each box
    at its inference resolution, as ``synth`` writes them."""
    scenario = profile_scenario(profile, seed=seed, n_objects=n_objects, frame_count=frame_count)
    gt, emulate = generate(scenario)
    return gt, emulate((320, 320)), emulate((192, 192))


@lru_cache(maxsize=None)
def _native(*spec):
    """``_generated``, with the detection streams in native-resolution pixels."""
    gt, full, low = _generated(*spec)
    return gt, *([rescale_packet_to_native(p) for p in stream] for stream in (full, low))


def _stream(profile, seed, n_objects, frame_count, P=5):
    """The interleaved detection stream at P, in native-resolution pixels."""
    _, full, low = _native(profile, seed, n_objects, frame_count)
    return interleave(full, low, P)


def _mapped(frames, f):
    return [
        FramePacket(
            p.frame_index,
            p.inference_resolution,
            p.native_resolution,
            tuple(Detection(f(d.bbox), d.class_id, d.conf) for d in p.detections),
        )
        for p in frames
    ]


def _track(frames):
    return run_sequence(frames, TCFG, emit_coasted=True)[1]


def _assert_relation(frames, want, name):
    """``want`` is ``_track(frames)``; returns the number of boxes compared."""
    f, inverse = MAPS[name]
    got = _track(_mapped(frames, f))
    assert got.keys() == want.keys()
    for t, outs in want.items():
        assert [(o.track_id, o.class_id, o.conf) for o in got[t]] == [
            (o.track_id, o.class_id, o.conf) for o in outs
        ]
        assert [inverse(o.bbox) for o in got[t]] == [o.bbox for o in outs]
    return sum(map(len, want.values()))


@lru_cache(maxsize=None)
def _corpus(spec):
    frames = _stream(*spec)
    return frames, _track(frames)


@pytest.mark.parametrize("name", sorted(MAPS))
@pytest.mark.parametrize("spec", CORPORA, ids=lambda s: "{}-{}-{}x{}".format(*s))
def test_relation_on_corpus(spec, name):
    """Each map, on ``run_sequence`` over a pinned synthetic corpus."""
    frames, want = _corpus(spec)
    assert _assert_relation(frames, want, name) > 0


@settings(max_examples=15, deadline=None)
@given(
    st.sampled_from(["cnn-like", "vit-like"]),
    st.integers(0, 2**16),
    st.integers(1, 6),
    st.integers(2, 30),
    st.integers(0, 5),
    st.sampled_from(sorted(MAPS)),
)
def test_relation_on_small_scenarios(profile, seed, n_objects, frame_count, P, name):
    """Each map, on ``run_sequence`` over small drawn scenarios at any P."""
    frames = _stream(profile, seed, n_objects, frame_count, P)
    _assert_relation(frames, _track(frames), name)


# the evaluator's maps: the tracker's, plus the x/y swap
EVAL_MAPS = {
    **{name: f for name, (f, _) in MAPS.items()},
    "swap x and y": lambda b: BBox(b.y1, b.x1, b.y2, b.x2),
}


@lru_cache(maxsize=None)
def _scored(spec, resolution, f=None):
    """The F1-max threshold and the report at it, of the corpus's detections
    at ``resolution`` against its ground truth, every box mapped by ``f``."""
    gt, full, low = _native(*spec)
    f = f or (lambda b: b)
    dets = {("s", p.frame_index): [Detection(f(d.bbox), d.class_id, d.conf)
                                   for d in p.detections]
            for p in (full if resolution == "full" else low)}
    gts = {("s", g.frame_index): [(f(box), cls) for box, cls in g.objects] for g in gt}
    ranked = rank_corpus(dets, gts)
    threshold = f1_max_threshold(ranked)
    return threshold, evaluate(ranked, threshold)


@pytest.mark.parametrize("name", sorted(EVAL_MAPS))
@pytest.mark.parametrize("resolution", ["full", "low"])
@pytest.mark.parametrize("spec", CORPORA, ids=lambda s: "{}-{}-{}x{}".format(*s))
def test_evaluator_relation_on_corpus(spec, resolution, name):
    """Each map, on the evaluator over a pinned synthetic corpus."""
    threshold, report = _scored(spec, resolution)
    assert report.map > 0.0
    assert _scored(spec, resolution, EVAL_MAPS[name]) == (threshold, report)


def _cli_run(root, spec, f):
    """Write the corpus's files as ``synth`` does, every box (ground truth
    too) mapped by ``f`` at its inference resolution, then run ``track``,
    ``eval`` and ``sweep`` on them through ``cli.main``. Returns the track
    file's records, the ``eval`` report, the ``sweep`` rows and the three
    commands' stdout."""
    gt, full, low = _generated(*spec)
    full, low = _mapped(full, f), _mapped(low, f)
    gt = [GroundTruthFrame(g.frame_index, tuple((f(b), c) for b, c in g.objects)) for g in gt]
    root.mkdir()
    paths = {name: str(root / name) for name in
             ("full.jsonl", "low.jsonl", "p5.jsonl", "gt.jsonl", "tracks.jsonl",
              "report.json", "rows.jsonl")}
    save_detection_file(paths["full.jsonl"], {"s": full})
    save_detection_file(paths["low.jsonl"], {"s": low})
    save_detection_file(paths["p5.jsonl"], {"s": interleave(full, low, 5)})
    save_groundtruth_file(paths["gt.jsonl"], {"s": gt})
    flags = ["--preset", "nanodet", "--emit-coasted"]
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        for argv in (
            ["track", paths["p5.jsonl"], *flags, "--P", "5", "--out", paths["tracks.jsonl"]],
            ["eval", paths["tracks.jsonl"], paths["gt.jsonl"], "--threshold", "f1max",
             "--out", paths["report.json"]],
            ["sweep", paths["full.jsonl"], paths["low.jsonl"], paths["gt.jsonl"], *flags,
             "--out", paths["rows.jsonl"]],
        ):
            assert main(argv) == 0
    with open(paths["report.json"], encoding="utf-8") as fh:
        report = json.load(fh)
    with open(paths["rows.jsonl"], encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    return load_track_file(paths["tracks.jsonl"])["s"], report, rows, stdout.getvalue()


@pytest.mark.parametrize("spec", [CORPORA[0], CORPORA[2]], ids=lambda s: "{}-{}-{}x{}".format(*s))
def test_relation_through_cli(spec, tmp_path):
    """Each map, through files and the CLI: ``track --P 5 --emit-coasted``,
    ``eval --threshold f1max`` of its track file and ``sweep``, on the
    determinism corpus and the vit-like benchmark corpus. The files hold
    inference-resolution boxes, which the commands rescale per axis by
    320 / 192; that product commutes with negation and with a power of two,
    and the JSON float round trip is exact, so the relation stays exact: the
    track file's boxes map back, and the report, the rows and the printed
    tables are equal."""
    tracks, report, rows, stdout = _cli_run(tmp_path / "as-is", spec, lambda b: b)
    assert report["map"] > 0.0
    for i, name in enumerate(sorted(MAPS)):
        f, inverse = MAPS[name]
        got_tracks, *got = _cli_run(tmp_path / str(i), spec, f)
        assert got_tracks.keys() == tracks.keys()
        for t, outs in tracks.items():
            assert [(o.track_id, inverse(o.bbox), o.class_id, o.conf) for o in got_tracks[t]] \
                == [(o.track_id, o.bbox, o.class_id, o.conf) for o in outs]
        assert got == [report, rows, stdout]


def _relabelled(frames, pi):
    return [
        FramePacket(
            p.frame_index,
            p.inference_resolution,
            p.native_resolution,
            tuple(Detection(d.bbox, pi[d.class_id], d.conf) for d in p.detections),
        )
        for p in frames
    ]


def _rotation(spec):
    """A cyclic permutation of the corpus's class ids, moving every one."""
    gt, full, low = _native(*spec)
    classes = sorted({d.class_id for p in (*full, *low) for d in p.detections}
                     | {c for g in gt for _, c in g.objects})
    return dict(zip(classes, classes[1:] + classes[:1]))


@pytest.mark.parametrize("spec", CORPORA, ids=lambda s: "{}-{}-{}x{}".format(*s))
def test_class_permutation_on_corpus(spec):
    """Permuting class ids, on ``run_sequence``: the same ids, boxes and
    confidences, and each class permuted. The tracker compares classes only
    for equality."""
    frames, want = _corpus(spec)
    pi = _rotation(spec)
    got = _track(_relabelled(frames, pi))
    assert got.keys() == want.keys()
    for t, outs in want.items():
        assert [(o.track_id, o.bbox, o.class_id, o.conf) for o in got[t]] == [
            (o.track_id, o.bbox, pi[o.class_id], o.conf) for o in outs
        ]


@pytest.mark.parametrize("resolution", ["full", "low"])
@pytest.mark.parametrize("spec", CORPORA, ids=lambda s: "{}-{}-{}x{}".format(*s))
def test_evaluator_class_permutation_on_corpus(spec, resolution):
    """Permuting class ids, on the evaluator at the original corpus's F1-max
    threshold: each class's row is the permuted class's, exactly. The means
    sum the rows in class order, so they agree only within rounding, and the
    F1-max threshold, which compares those means, is not checked."""
    gt, full, low = _native(*spec)
    pi = _rotation(spec)
    threshold, report = _scored(spec, resolution)
    dets = {("s", p.frame_index): [Detection(d.bbox, pi[d.class_id], d.conf)
                                   for d in p.detections]
            for p in (full if resolution == "full" else low)}
    gts = {("s", g.frame_index): [(box, pi[cls]) for box, cls in g.objects] for g in gt}
    got = evaluate(rank_corpus(dets, gts), threshold)
    assert got.per_class == {pi[c]: m for c, m in report.per_class.items()}
    for field in ("map", "mean_precision", "mean_recall", "mean_f1"):
        assert getattr(got, field) == pytest.approx(getattr(report, field), rel=1e-15)


def _two_sequences(names, resolution):
    """The F1-max threshold and the report at it of two corpora's detections
    at ``resolution``, scored as one file's two sequences ``names``."""
    dets, gts = {}, {}
    for name, spec in zip(names, (CORPORA[0], CORPORA[2])):
        gt, full, low = _native(*spec)
        for p in (full if resolution == "full" else low):
            dets[(name, p.frame_index)] = list(p.detections)
        for g in gt:
            gts[(name, g.frame_index)] = list(g.objects)
    ranked = rank_corpus(dets, gts)
    threshold = f1_max_threshold(ranked)
    return threshold, evaluate(ranked, threshold)


@pytest.mark.parametrize("resolution", ["full", "low"])
def test_order_preserving_rename(resolution):
    """Renaming sequences in the same sort order, on the evaluator: the same
    threshold and an equal report. (``run_sequence`` takes no name.)"""
    assert _two_sequences(["x", "y"], resolution) == _two_sequences(["a", "b"], resolution)
