import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mrtrack import association
from mrtrack.association import iou_matrix, match
from mrtrack.core import BBox, Detection, iou
from mrtrack.kalman import KalmanState, state_bbox, state_corners

from oracles import brute_force_assignment_value, lsap_match_oracle, subset_assignment_value


def _det(x1, y1, x2, y2, cls=0, conf=0.9):
    return Detection(BBox(x1, y1, x2, y2), cls, conf)


def _total(matrix, result):
    return sum(matrix[i, j] for i, j in result.matches)


class TestIouMatrix:
    def test_empty_detections(self):
        assert iou_matrix([], [(0.0, 0.0, 10.0, 10.0)] * 3).shape == (0, 3)

    def test_empty_tracks(self):
        assert iou_matrix([_det(0, 0, 10, 10)], []).shape == (1, 0)

    def test_identical_box_entry(self):
        m = iou_matrix([_det(0, 0, 10, 10)], [(0.0, 0.0, 10.0, 10.0)])
        assert m[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_partial_overlap_entry(self):
        m = iou_matrix([_det(0, 0, 10, 10)], [(5.0, 5.0, 15.0, 15.0)])
        assert m[0, 0] == pytest.approx(25 / 175, abs=1e-9)


def _state(cx, cy, a, h):
    """A filter state whose mean is (cx, cy, a, h); h <= 0 or a <= 0 is allowed."""
    return KalmanState._make((cx, cy, a, h) + (0.0,) * 16)


def _corners(means):
    """The track table of these means: one ``state_corners`` row each."""
    return [state_corners(_state(*m)) for m in means]


# small integer grid so identical, touching and disjoint boxes are common
_coord = st.one_of(st.integers(0, 12).map(float), st.floats(-50, 50))
_extent = st.one_of(st.just(0.0), st.integers(0, 6).map(float), st.floats(0, 30))
_det_box = st.builds(lambda x, y, w, h: _det(x, y, x + w, y + h), _coord, _coord, _extent, _extent)
_mean = st.tuples(
    _coord,
    _coord,
    st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1, 3)),  # aspect <= 0: zero width
    st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-5, 30)),  # height <= 0: zero area
)
# up to 144 pairs, so frames fall on both sides of SCALAR_MAX_CELLS (64)
_dets = st.lists(_det_box, max_size=12)
_track_means = st.lists(_mean, max_size=12)


def _diagonal(n_dets, n_tracks):
    """Overlapping, touching and disjoint pairs on a diagonal of unit steps."""
    dets = [_det(i, i, i + 4, i + 4) for i in range(n_dets)]
    means = [(j + 1.0, j + 1.0, 1.0, 4.0) for j in range(n_tracks)]
    return dets, means


class TestIouMatrixEqualsScalarIou:
    @settings(max_examples=300, deadline=None)
    @given(_dets, _track_means)
    @example([_det(0, 0, 10, 10), _det(50, 50, 60, 60)], [(5.0, 5.0, 1.0, 10.0)])
    @example([_det(0, 0, 0, 10), _det(3, 3, 3, 3)], [(0.0, 5.0, 0.0, 10.0), (3.0, 3.0, 1.0, 0.0)])
    @example([], [(5.0, 5.0, 1.0, 10.0)])
    @example([_det(0, 0, 10, 10)], [])
    # overlapping boxes whose intersection and union underflow to 0
    @example([_det(0, 0, 1e-200, 1e-200)], [(5e-201, 5e-201, 1.0, 1e-200)])
    @example(*_diagonal(8, 8))  # 64 pairs: the largest frame of the scalar path
    @example(*_diagonal(5, 13))  # 65 pairs: the smallest of the broadcast
    def test_bit_identical_to_scalar_loop(self, dets, means):
        states = [_state(*m) for m in means]
        want = np.array(
            [[iou(d.bbox, state_bbox(s)) for s in states] for d in dets]
        ).reshape(len(dets), len(states))
        got = iou_matrix(dets, [state_corners(s) for s in states])
        assert isinstance(got, np.ndarray)
        assert got.shape == want.shape
        assert np.array_equal(got, want)


class TestIouMatrixPaths:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(_det_box, min_size=1, max_size=12), st.lists(_mean, min_size=1, max_size=12))
    def test_scalar_and_broadcast_agree(self, dets, means):
        boxes = _corners(means)
        scalar = association._iou_scalar(dets, boxes)
        assert scalar.shape == (len(dets), len(boxes))
        assert np.array_equal(scalar, association._iou_broadcast(dets, boxes))

    def test_frame_size_selects_path(self, monkeypatch):
        taken = []
        for name in ("_iou_scalar", "_iou_broadcast"):
            path = getattr(association, name)
            monkeypatch.setattr(
                association, name, lambda d, t, name=name, path=path: taken.append(name) or path(d, t)
            )
        for n_dets, n_tracks in ((8, 8), (5, 13)):
            dets, means = _diagonal(n_dets, n_tracks)
            iou_matrix(dets, _corners(means))
        assert association.SCALAR_MAX_CELLS == 64
        assert taken == ["_iou_scalar", "_iou_broadcast"]


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

    def test_matches_ascend_after_a_component_solve(self):
        # rows 0 and 2 both want tracker 0, so their component is solved;
        # row 1 keeps its tracker and sits between them
        m = np.array([[0.9, 0.0, 0.0], [0.0, 0.8, 0.0], [0.7, 0.0, 0.0]])
        r = match(m, 0.3)
        assert r.matches == ((0, 0), (1, 1))
        assert r.unmatched_detections == (2,)
        assert r.unmatched_trackers == (2,)

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


TAU = 0.3


def _gated_matrix(n, m, seed, density, at_tau):
    """Continuous random n x m IoU-like matrix: a `density` share of cells lies
    in [tau, 1), the rest below tau, and `at_tau` cells sit exactly at tau.

    The at-tau cells share no row or column, so no two assignments tie
    exactly (almost surely) and the optimum is unique.
    """
    rng = np.random.default_rng(seed)
    mat = np.where(
        rng.random((n, m)) < density,
        TAU + (1.0 - TAU) * rng.random((n, m)),
        TAU * rng.random((n, m)),
    )
    k = min(n, m, at_tau)
    mat[rng.permutation(n)[:k], rng.permutation(m)[:k]] = TAU
    return mat


def _contested(mat):
    """True when two detections share their best feasible tracker."""
    feasible = mat >= TAU
    best = np.where(feasible, mat, -np.inf).argmax(axis=1)[feasible.any(axis=1)]
    return len(set(best.tolist())) < len(best)


class TestMatchEqualsLsapOracle:
    """`match` against the scipy solver it replaced, on matrices with a unique optimum."""

    @settings(max_examples=400, deadline=None)
    @given(
        st.integers(0, 10),
        st.integers(0, 10),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 0.05, 0.2, 0.5, 0.8, 1.0]),
        st.integers(0, 3),
    )
    @example(3, 0, 0, 1.0, 0)
    @example(0, 4, 0, 1.0, 0)
    @example(6, 6, 1, 0.0, 3)  # only the at-tau cells are feasible
    @example(10, 3, 2, 0.5, 2)  # more detections than trackers
    def test_equals_oracle(self, n, m, seed, density, at_tau):
        mat = _gated_matrix(n, m, seed, density, at_tau)
        assert match(mat, TAU) == lsap_match_oracle(mat, TAU)

    @pytest.mark.parametrize("size", [12, 40])
    @pytest.mark.parametrize("seed", range(5))
    def test_all_feasible_forces_augmenting_path(self, size, seed):
        mat = _gated_matrix(size, size, seed, density=1.0, at_tau=0)
        assert _contested(mat)
        assert match(mat, TAU) == lsap_match_oracle(mat, TAU)


class TestMatchTies:
    """Exactly tied optima: the total is still optimal, and the tie rule is pinned."""

    @settings(max_examples=300, deadline=None)
    @given(
        arrays(
            float,
            # up to 81 cells, so both sides of SCALAR_MAX_CELLS (64) are drawn
            st.tuples(st.integers(0, 9), st.integers(0, 9)),
            elements=st.sampled_from([0.0, 0.2, TAU, 0.5, 0.8, 1.0]),
        )
    )
    def test_total_equals_brute_force(self, mat):
        r = match(mat, TAU)
        assert all(mat[i, j] >= TAU for i, j in r.matches)
        want = subset_assignment_value(mat.tolist(), TAU)
        assert _total(mat, r) == pytest.approx(want, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        arrays(
            float,
            st.tuples(st.integers(0, 6), st.integers(0, 6)),
            elements=st.sampled_from([0.0, 0.2, TAU, 0.5, 0.8, 1.0]),
        )
    )
    def test_subset_oracle_equals_permutations(self, mat):
        want = brute_force_assignment_value(mat.tolist(), TAU)
        assert subset_assignment_value(mat.tolist(), TAU) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize(
        "mat, matches",
        [
            ([[0.8], [0.8]], ((0, 0),)),  # detections tie for one tracker
            ([[0.8, 0.8]], ((0, 0),)),  # trackers tie for one detection
            ([[0.8] * 3] * 3, ((0, 0), (1, 1), (2, 2))),  # all equal
        ],
    )
    def test_low_indices_win(self, mat, matches):
        mat = np.array(mat)
        assert match(mat, TAU).matches == matches
        assert lsap_match_oracle(mat, TAU).matches == matches


def _all_equal(n, m):
    """Every detection wants tracker 0: one contested component."""
    return np.full((n, m), 0.5)


def _eye(n, m):
    """One feasible pair per row and column: no detection is contested."""
    return np.eye(n, m) * 0.8


class TestMatchPaths:
    """``_best_scalar`` (at most 64 cells) and ``_best_numpy`` choose alike."""

    @settings(max_examples=200, deadline=None)
    @given(
        arrays(
            float,
            # up to 144 cells, so frames fall on both sides of SCALAR_MAX_CELLS
            st.tuples(st.integers(1, 12), st.integers(1, 12)),
            elements=st.sampled_from([0.0, -0.0, 0.2, TAU, 0.5, 0.8, 1.0, math.nan]),
        )
    )
    @example(_eye(8, 8))  # 64 cells: the largest frame of the list path
    @example(_eye(5, 13))  # 65 cells: the smallest of the numpy path
    @example(_all_equal(8, 8))
    @example(_all_equal(5, 13))
    def test_paths_give_equal_results(self, mat):
        assert association._best_scalar(mat, TAU) == association._best_numpy(mat, TAU)
        results = []
        for limit in (mat.size, mat.size - 1):  # the list path, then numpy's
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(association, "SCALAR_MAX_CELLS", limit)
                results.append(match(mat, TAU))
        assert results[0] == results[1]
        assert results[0] == match(mat, TAU)

    @pytest.mark.parametrize("shape", [(8, 8), (5, 13)])
    def test_contested_frames_equal_oracle(self, shape):
        mat = _gated_matrix(*shape, seed=3, density=1.0, at_tau=0)
        assert _contested(mat)
        assert match(mat, TAU) == lsap_match_oracle(mat, TAU)

    def test_frame_size_selects_path(self, monkeypatch):
        taken = []
        for name in ("_best_scalar", "_best_numpy"):
            path = getattr(association, name)
            monkeypatch.setattr(
                association, name, lambda c, t, name=name, path=path: taken.append(name) or path(c, t)
            )
        match(_eye(8, 8), TAU)
        match(_eye(5, 13), TAU)
        assert association.SCALAR_MAX_CELLS == 64
        assert taken == ["_best_scalar", "_best_numpy"]
