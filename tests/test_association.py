from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mrtrack.association import iou_matrix, match
from mrtrack.core import BBox, Detection, iou
from mrtrack.tracks import Track

from oracles import brute_force_assignment_value


def _det(x1, y1, x2, y2, cls=0, conf=0.9):
    return Detection(BBox(x1, y1, x2, y2), cls, conf)


def _track(x1, y1, x2, y2, track_id=0):
    return Track.from_detection(track_id, _det(x1, y1, x2, y2))


def _total(matrix, result):
    return sum(matrix[i, j] for i, j in result.matches)


class TestIouMatrix:
    def test_empty_detections(self):
        tracks = [_track(0, 0, 10, 10, i) for i in range(3)]
        assert iou_matrix([], tracks).shape == (0, 3)

    def test_empty_tracks(self):
        assert iou_matrix([_det(0, 0, 10, 10)], []).shape == (1, 0)

    def test_identical_box_entry(self):
        m = iou_matrix([_det(0, 0, 10, 10)], [_track(0, 0, 10, 10)])
        assert m[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_partial_overlap_entry(self):
        m = iou_matrix([_det(0, 0, 10, 10)], [_track(5, 5, 15, 15)])
        assert m[0, 0] == pytest.approx(25 / 175, abs=1e-9)


def _track_at(cx, cy, a, h, track_id=0):
    """A track whose Kalman mean is (cx, cy, a, h); h <= 0 or a <= 0 is allowed."""
    t = _track(0, 0, 1, 1, track_id)
    t.kf_state = replace(t.kf_state, mean=(cx, cy, a, h, 0.0, 0.0, 0.0, 0.0))
    return t


# small integer grid so identical, touching and disjoint boxes are common
_coord = st.one_of(st.integers(0, 12).map(float), st.floats(-50, 50))
_extent = st.one_of(st.just(0.0), st.integers(0, 6).map(float), st.floats(0, 30))
_dets = st.lists(
    st.builds(lambda x, y, w, h: _det(x, y, x + w, y + h), _coord, _coord, _extent, _extent),
    max_size=6,
)
_track_means = st.lists(
    st.tuples(
        _coord,
        _coord,
        st.one_of(st.just(0.0), st.floats(-1, 3)),  # aspect <= 0 gives zero width
        st.one_of(st.just(0.0), st.floats(-5, 30)),  # height <= 0 gives zero area
    ),
    max_size=6,
)


class TestIouMatrixEqualsScalarIou:
    @settings(max_examples=300, deadline=None)
    @given(_dets, _track_means)
    @example([_det(0, 0, 10, 10), _det(50, 50, 60, 60)], [(5.0, 5.0, 1.0, 10.0)])
    @example([_det(0, 0, 0, 10), _det(3, 3, 3, 3)], [(0.0, 5.0, 0.0, 10.0), (3.0, 3.0, 1.0, 0.0)])
    @example([], [(5.0, 5.0, 1.0, 10.0)])
    @example([_det(0, 0, 10, 10)], [])
    def test_bit_identical_to_scalar_loop(self, dets, means):
        tracks = [_track_at(*m, track_id=i) for i, m in enumerate(means)]
        want = np.array(
            [[iou(d.bbox, t.current_box()) for t in tracks] for d in dets]
        ).reshape(len(dets), len(tracks))
        got = iou_matrix(dets, tracks)
        assert isinstance(got, np.ndarray)
        assert got.shape == want.shape
        assert np.array_equal(got, want)


class TestMatch:
    def test_single_above_gate(self):
        r = match(np.array([[0.9]]), 0.3)
        assert r.matches == ((0, 0),)
        assert r.unmatched_detections == ()
        assert r.unmatched_trackers == ()

    def test_single_below_gate(self):
        r = match(np.array([[0.2]]), 0.3)
        assert r.matches == ()
        assert r.unmatched_detections == (0,)
        assert r.unmatched_trackers == (0,)

    def test_optimal_beats_greedy(self):
        # greedy would take (0,0)=0.6 and gate out (1,1)=0.1 for total 0.6;
        # the optimum crosses over for 0.5 + 0.5 = 1.0
        m = np.array([[0.6, 0.5], [0.5, 0.1]])
        r = match(m, 0.3)
        assert r.matches == ((0, 1), (1, 0))
        assert _total(m, r) == pytest.approx(1.0)

    def test_empty_matrix(self):
        r = match(np.zeros((0, 3)), 0.3)
        assert r.unmatched_trackers == (0, 1, 2)

    def test_result_partitions_inputs(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n, m = rng.integers(0, 6, 2)
            mat = rng.random((n, m))
            r = match(mat, 0.3)
            det_seen = sorted([i for i, _ in r.matches] + list(r.unmatched_detections))
            trk_seen = sorted([j for _, j in r.matches] + list(r.unmatched_trackers))
            assert det_seen == list(range(n))
            assert trk_seen == list(range(m))

    def test_no_match_below_gate(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            mat = rng.random((4, 4))
            r = match(mat, 0.5)
            assert all(mat[i, j] >= 0.5 for i, j in r.matches)

    def test_matches_brute_force_on_seeded_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n, m = rng.integers(1, 7, 2)
            mat = rng.random((n, m))
            if rng.random() < 0.3:
                # quantized values force ties
                mat = np.round(mat * 10) / 10
            r = match(mat, 0.3)
            want = brute_force_assignment_value(mat.tolist(), 0.3)
            assert _total(mat, r) == pytest.approx(want, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(
        arrays(
            float,
            st.tuples(st.integers(1, 5), st.integers(1, 5)),
            elements=st.floats(0, 1),
        )
    )
    def test_matches_brute_force_hypothesis(self, mat):
        r = match(mat.copy(), 0.3)
        want = brute_force_assignment_value(mat.tolist(), 0.3)
        assert _total(mat, r) == pytest.approx(want, abs=1e-12)

    def test_detection_permutation_preserves_pairs_and_objective(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            mat = rng.random((5, 4))
            perm = rng.permutation(5)
            permuted = mat[perm]
            r1 = match(mat, 0.3)
            r2 = match(permuted, 0.3)
            assert _total(mat, r1) == pytest.approx(_total(permuted, r2), abs=1e-12)
            pairs1 = sorted(round(mat[i, j], 12) for i, j in r1.matches)
            pairs2 = sorted(round(permuted[i, j], 12) for i, j in r2.matches)
            assert pairs1 == pairs2
