"""Metamorphic relations of the tracker, at the ``run_sequence`` layer.

Each relation maps every detection box of a native-resolution frame stream,
tracks the original and the mapped stream with the same configuration (the
nanodet preset's thresholds, rescoring on, coasted tracks emitted), and
requires the same decisions: per frame, the same track ids, classes and
confidences in the same order, and every emitted box of the mapped run
mapped back by the inverse equal to the original run's box. None of them
needs an oracle of what the tracker should output.

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

Two maps that look alike are not exact relations, and are not tested:
swapping x and y turns the aspect w / h into h / w, whose filter channel
has fixed rather than height-relative noise, so the boxes differ (and on
the 40-object corpus below, so do decisions); shifting every coordinate by
+1024 px rounds the centers and corners differently, so the boxes move in
their last bits.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrtrack.core import BBox, Detection, FramePacket, TrackerConfig, rescale_packet_to_native
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


def _stream(profile, seed, n_objects, frame_count, P=5):
    """The interleaved detection stream at P, in native-resolution pixels."""
    scenario = profile_scenario(profile, seed=seed, n_objects=n_objects, frame_count=frame_count)
    _, emulate = generate(scenario)
    stream = interleave(emulate((320, 320)), emulate((192, 192)), P)
    return [rescale_packet_to_native(p) for p in stream]


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
