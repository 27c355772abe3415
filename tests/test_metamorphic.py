"""Metamorphic relations of the tracker, at the ``run_sequence`` layer, and
of the evaluator, at the ``rank_corpus`` -> ``f1_max_threshold`` ->
``evaluate`` layer.

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
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrtrack.core import BBox, Detection, FramePacket, TrackerConfig, rescale_packet_to_native
from mrtrack.evaluation import evaluate, f1_max_threshold, rank_corpus
from mrtrack.pipeline import interleave, run_sequence
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
def _native(profile, seed, n_objects, frame_count):
    """Ground truth, then the full- and low-res detection streams in
    native-resolution pixels."""
    scenario = profile_scenario(profile, seed=seed, n_objects=n_objects, frame_count=frame_count)
    gt, emulate = generate(scenario)
    full, low = ([rescale_packet_to_native(p) for p in emulate(res)]
                 for res in ((320, 320), (192, 192)))
    return gt, full, low


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
