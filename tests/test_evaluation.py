import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mrtrack import evaluation
from mrtrack.core import BBox, Detection
from mrtrack.evaluation import (
    Ranked,
    average_precision,
    class_counts,
    evaluate,
    f1_max_threshold,
    match_frame_flags,
    rank_corpus,
)

from oracles import (
    average_precision_oracle, evaluate_oracle, f1_sweep_oracle, grid_counts_oracle,
    match_flags_oracle,
)


def _det(x, y, size=10, cls=0, conf=0.9):
    return Detection(BBox(x, y, x + size, y + size), cls, conf)


def _gt(x, y, size=10, cls=0):
    return (BBox(x, y, x + size, y + size), cls)


def _rect(x1, y1, w, h):
    return BBox(x1, y1, x1 + w, y1 + h)


# corners on a 5-px lattice with sides 5..20: the drawn pairs include equal
# IoUs with two ground-truth boxes, touching boxes (zero-width intersection)
# and IoU exactly 0.5 (10x20 over 10x10)
_RECTS = st.builds(_rect, *[st.sampled_from([0, 5, 10])] * 2,
                   *[st.sampled_from([5, 10, 15, 20])] * 2)
_CLASSES = st.sampled_from([0, 1])


def _frame_counts(dets, gts):
    """(TP, FP, FN) of one frame from its match flags."""
    flags = match_frame_flags(dets, gts)
    return sum(flags), len(flags) - sum(flags), len(gts) - sum(flags)


class TestMatchFrame:
    """One frame's greedy matching, through ``match_frame_flags``."""

    def test_clean_hit(self):
        # IoU of the 1-px shifted box is 81/119 ~ 0.68
        assert match_frame_flags([_det(1, 1)], [_gt(0, 0)]) == [True]
        assert _frame_counts([_det(1, 1)], [_gt(0, 0)]) == (1, 0, 0)

    def test_low_overlap_is_fp_and_fn(self):
        # IoU = 4/16 = 0.25
        assert _frame_counts([_det(6, 0)], [_gt(0, 0)]) == (0, 1, 1)

    def test_exactly_half_iou_is_a_miss(self):
        # [0,0,10,20] vs [0,0,10,10]: inter 100, union 200
        det = Detection(BBox(0, 0, 10, 20), 0, 0.9)
        assert _frame_counts([det], [(BBox(0, 0, 10, 10), 0)]) == (0, 1, 1)

    def test_wrong_class_is_fp(self):
        assert _frame_counts([_det(0, 0, cls=1)], [_gt(0, 0, cls=0)]) == (0, 1, 1)

    def test_greedy_confidence_order(self):
        dets = [_det(1, 1, conf=0.9), _det(2, 2, conf=0.8)]
        assert match_frame_flags(dets, [_gt(0, 0)]) == [True, False]
        # the first detection claims the box although the second overlaps it exactly
        dets = [_det(1, 1, conf=0.9), _det(0, 0, conf=0.8)]
        assert match_frame_flags(dets, [_gt(0, 0)]) == [True, False]

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.builds(Detection, _RECTS, _CLASSES, st.just(0.9)), max_size=6),
        st.lists(st.tuples(_RECTS, _CLASSES), max_size=6),
    )
    # equal IoUs (100/150) with both boxes: the first detection claims the
    # first box, so the second detection still finds its own box free
    @example([Detection(_rect(0, 0, 10, 15), 0, 0.9), Detection(_rect(0, 5, 10, 10), 0, 0.9)],
             [(_rect(0, 0, 10, 10), 0), (_rect(0, 5, 10, 10), 0)])
    # the same box in another class is no match
    @example([Detection(_rect(0, 0, 10, 10), 1, 0.9)], [(_rect(0, 0, 10, 10), 0)])
    # touching boxes: zero-width intersection, IoU 0
    @example([Detection(_rect(0, 0, 10, 10), 0, 0.9)], [(_rect(10, 0, 10, 10), 0)])
    # IoU exactly 0.5 claims nothing, so the next detection takes the box
    @example([Detection(_rect(0, 0, 10, 20), 0, 0.9), Detection(_rect(0, 0, 10, 10), 0, 0.9)],
             [(_rect(0, 0, 10, 10), 0)])
    def test_equals_scalar_oracle(self, dets, gts):
        assert match_frame_flags(dets, gts) == match_flags_oracle(dets, gts)


class TestAveragePrecision:
    def test_all_tp_full_recall(self):
        assert average_precision([True, True, True], 3) == pytest.approx(1.0)

    def test_tp_then_fp(self):
        assert average_precision([True, False], 1) == pytest.approx(1.0)

    def test_fp_then_tp(self):
        assert average_precision([False, True], 1) == pytest.approx(0.5)

    def test_no_gt(self):
        assert average_precision([False, False], 0) == 0.0
        assert average_precision([], 0) == 0.0

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.booleans(), max_size=80), st.integers(-3, 3))
    @example([], 1)
    @example([True] * 6, 0)
    @example([False] * 6, 0)
    @example([True, False, True, True], -2)
    def test_equals_numpy_oracle_exactly(self, flags, delta):
        # n_gt below (recall passes 1), at and above the TP count
        n_gt = max(sum(flags) + delta, 0)
        assert average_precision(flags, n_gt) == average_precision_oracle(flags, n_gt)

    def test_monotone_rescaling_invariance(self):
        # AP depends only on the confidence ranking, so a strictly monotone
        # confidence map leaves the whole report's AP values unchanged
        rng = np.random.default_rng(31)
        dets, gts = {}, {}
        for t in range(15):
            gts[("m", t)] = [_gt(0, 0), _gt(60, 60, cls=1)]
            frame = [
                _det(rng.uniform(-2, 2), 0, conf=float(rng.uniform(0.1, 0.99))),
                _det(60 + rng.uniform(-2, 2), 60, cls=1,
                     conf=float(rng.uniform(0.1, 0.99))),
                _det(150, 150, cls=rng.integers(0, 2),
                     conf=float(rng.uniform(0.1, 0.99))),
            ]
            dets[("m", t)] = frame
        squashed = {
            key: [Detection(d.bbox, d.class_id, d.conf**2) for d in frame]
            for key, frame in dets.items()
        }
        r1 = evaluate(rank_corpus(dets, gts), 0.0)
        r2 = evaluate(rank_corpus(squashed, gts), 0.0)
        assert r2.map == pytest.approx(r1.map, abs=1e-12)
        for cls in r1.per_class:
            assert r2.per_class[cls].ap == pytest.approx(
                r1.per_class[cls].ap, abs=1e-12
            )


class TestEvaluate:
    def test_perfect_corpus(self):
        dets = {("a", 0): [_det(0, 0), _det(50, 50, cls=1)]}
        gts = {("a", 0): [_gt(0, 0), _gt(50, 50, cls=1)]}
        report = evaluate(rank_corpus(dets, gts), 0.0)
        assert report.map == pytest.approx(1.0)
        assert report.mean_f1 == pytest.approx(1.0)
        assert report.per_class[0].tp == 1

    def test_counts_and_ratios_consistent(self):
        dets = {
            ("a", 0): [_det(0, 0, conf=0.9), _det(100, 100, conf=0.8)],
            ("a", 1): [_det(0, 0, conf=0.7)],
        }
        gts = {("a", 0): [_gt(0, 0)], ("a", 1): [_gt(0, 0), _gt(60, 60)]}
        report = evaluate(rank_corpus(dets, gts), 0.0)
        m = report.per_class[0]
        assert (m.tp, m.fp, m.fn) == (2, 1, 1)
        assert m.precision == pytest.approx(2 / 3)
        assert m.recall == pytest.approx(2 / 3)
        assert m.f1 == pytest.approx(2 / 3)

    def test_hallucinated_class_penalized(self):
        dets = {("a", 0): [_det(0, 0), _det(60, 60, cls=5)]}
        gts = {("a", 0): [_gt(0, 0)]}
        report = evaluate(rank_corpus(dets, gts), 0.0)
        assert 5 in report.per_class
        assert report.per_class[5].precision == 0.0
        assert report.map == pytest.approx(0.5)

    def test_threshold_filters_detections(self):
        dets = {("a", 0): [_det(0, 0, conf=0.4)]}
        gts = {("a", 0): [_gt(0, 0)]}
        assert evaluate(rank_corpus(dets, gts), 0.5).mean_recall == 0.0
        assert evaluate(rank_corpus(dets, gts), 0.4).mean_recall == 1.0

    def test_raising_threshold_never_raises_recall(self):
        rng = np.random.default_rng(9)
        dets = {}
        gts = {}
        for t in range(20):
            objs = []
            frame_dets = []
            for i in range(3):
                x = float(rng.uniform(0, 200))
                objs.append(_gt(x, 10 + 40 * i, size=20))
                if rng.random() < 0.8:
                    frame_dets.append(
                        _det(x + rng.uniform(-2, 2), 10 + 40 * i, 20,
                             conf=float(rng.uniform(0.2, 0.95)))
                    )
            dets[("s", t)] = frame_dets
            gts[("s", t)] = objs
        prev = None
        for thr in np.linspace(0, 0.9999, 30):
            recall = evaluate(rank_corpus(dets, gts), float(thr)).mean_recall
            if prev is not None:
                assert recall <= prev + 1e-12
            prev = recall

    def test_duplicate_detection_adds_exactly_one_fp(self):
        base = {("a", 0): [_det(1, 1, conf=0.9)]}
        dup = {("a", 0): [_det(1, 1, conf=0.9), _det(1, 1, conf=0.8)]}
        gts = {("a", 0): [_gt(0, 0)]}
        r1 = evaluate(rank_corpus(base, gts), 0.0)
        r2 = evaluate(rank_corpus(dup, gts), 0.0)
        assert r2.per_class[0].tp == r1.per_class[0].tp == 1
        assert r2.per_class[0].fp == r1.per_class[0].fp + 1


class TestF1MaxThreshold:
    def test_single_tp_returns_largest_harmless_grid_value(self):
        dets = {("a", 0): [_det(1, 1, conf=0.7)]}
        gts = {("a", 0): [_gt(0, 0)]}
        thr = f1_max_threshold(rank_corpus(dets, gts), grid_step=0.05)
        assert thr == pytest.approx(0.7)
        assert evaluate(rank_corpus(dets, gts), thr).mean_f1 == pytest.approx(1.0)

    def test_all_fp_returns_top_of_grid(self):
        dets = {("a", 0): [_det(100, 100, conf=0.6)]}
        gts = {("a", 0): [_gt(0, 0)]}
        thr = f1_max_threshold(rank_corpus(dets, gts), grid_step=0.1)
        assert thr == pytest.approx(1 - 1e-4)
        assert evaluate(rank_corpus(dets, gts), thr).mean_f1 == 0.0

    def test_empty_ground_truth_is_an_error(self):
        with pytest.raises(ValueError):
            f1_max_threshold(rank_corpus({("a", 0): [_det(0, 0)]}, {("a", 0): []}), 0.1)

    def test_step_under_the_floor_is_an_error(self):
        # the floor, 1e-4, keeps the grid to ~10^4 points
        ranked = rank_corpus({("a", 0): [_det(0, 0)]}, {("a", 0): [_gt(0, 0)]})
        with pytest.raises(ValueError, match="grid_step out of"):
            f1_max_threshold(ranked, 5e-5)
        assert f1_max_threshold(ranked, 1e-4) == pytest.approx(0.9)

    def test_matches_brute_force_on_planted_corpus(self):
        # plant: TPs at high confidence, FPs concentrated below 0.55
        rng = np.random.default_rng(13)
        dets = {}
        gts = {}
        for t in range(25):
            objs = [_gt(20 + 30 * i, 40, 20) for i in range(3)]
            frame = [
                _det(20 + 30 * i, 40, 20, conf=float(rng.uniform(0.6, 0.95)))
                for i in range(3)
            ]
            for _ in range(rng.integers(0, 3)):
                frame.append(
                    _det(float(rng.uniform(150, 280)), 150, 20,
                         conf=float(rng.uniform(0.05, 0.55)))
                )
            dets[("p", t)] = frame
            gts[("p", t)] = objs
        ranked = rank_corpus(dets, gts)
        thr = f1_max_threshold(ranked, grid_step=0.01)
        grid = [k * 0.01 for k in range(100)] + [1 - 1e-4]
        want_thr, want_f1 = f1_sweep_oracle(dets, gts, grid)
        assert thr == pytest.approx(want_thr, abs=1e-12)
        assert evaluate(ranked, thr).mean_f1 == pytest.approx(want_f1, abs=1e-12)
        # the planted FP band ends at 0.55 and real TPs start at 0.6
        assert 0.55 < thr <= 0.61


def _grid(step):
    """The documented sweep grid: multiples of ``step`` below 1 - 1e-4, then
    1 - 1e-4 itself."""
    top = 1 - 1e-4
    values = (round(k * step, 12) for k in range(int(1 / step) + 1))
    return [v for v in values if v < top] + [top]


# 10-px boxes at offsets 0, 2 (IoU 0.67 with 0), 4 (IoU 0.43) and 30 (disjoint)
_OFFSETS = st.sampled_from([0, 2, 4, 30])
# tie within and across frames, and most sit exactly on grid points (0.9999
# is the top of every grid), where the `conf >= threshold` boundary shows
_TIED_CONFS = [0.0, 0.05, 0.1, 0.3, 0.5, 0.7, 1 - 1e-4]
_KEYS = st.tuples(st.sampled_from(["a", "b"]), st.integers(0, 4))
# class 3 appears only in ground truth, class 4 only in detections; the two
# dictionaries draw their keys apart, so a frame can have detections and no
# ground truth or the reverse
_CORPORA = st.tuples(
    st.dictionaries(_KEYS, st.lists(st.builds(
        _det, _OFFSETS, _OFFSETS, cls=st.sampled_from([0, 1, 2, 4]),
        conf=st.one_of(st.sampled_from(_TIED_CONFS), st.floats(0.0, 1.0)),
    ), max_size=5), max_size=6),
    st.dictionaries(_KEYS, st.lists(st.builds(
        _gt, _OFFSETS, _OFFSETS, cls=st.sampled_from([0, 1, 2, 3]),
    ), max_size=4), max_size=6),
)


@st.composite
def _cut_cases(draw):
    """A drawn corpus and a threshold, often one of its own confidences."""
    dets, gts = draw(_CORPORA)
    confs = sorted({d.conf for frame in dets.values() for d in frame})
    return dets, gts, draw(st.sampled_from(confs + _TIED_CONFS) | st.floats(0.0, 1.0))


class TestThresholdCut:
    """A threshold on the ranked table scores what dropping the detections
    below it before matching scores."""

    @settings(max_examples=300, deadline=None)
    @given(_cut_cases())
    # class 4 has no ground truth and one detection, below the threshold: unscored
    @example(({("a", 0): [_det(0, 0, conf=0.5), _det(0, 30, cls=4, conf=0.3)]},
              {("a", 0): [_gt(0, 0)]}, 0.5))
    # the tied pair is kept whole at its own confidence; the first claims the box
    @example(({("a", 0): [_det(2, 0, conf=0.7), _det(0, 0, conf=0.7),
                          _det(0, 0, cls=1, conf=0.9)]},
              {("a", 0): [_gt(0, 0)], ("b", 1): [_gt(0, 0, cls=1)]}, 0.7))
    def test_equals_filter_then_match(self, case):
        dets, gts, threshold = case
        report = evaluate(rank_corpus(dets, gts), threshold)
        assert report == evaluate_oracle(dets, gts, threshold)


class TestSinglePassSweep:
    @settings(max_examples=200, deadline=None)
    @given(_CORPORA, st.sampled_from([0.01, 0.05, 0.1, 0.5]))
    # the class-4 detection at 0.5 counts toward the mean F1 at thresholds
    # up to 0.5 only: it halves the F1 of 1 at 0.2, so the maximum is 2/3 at 0.9
    @example(({("a", 0): [_det(0, 0, conf=0.9), _det(30, 30, conf=0.2),
                          _det(0, 30, cls=4, conf=0.5)]},
              {("a", 0): [_gt(0, 0), _gt(30, 30)]}), 0.1)
    def test_equals_exhaustive_sweep(self, corpus, step):
        dets, gts = corpus
        assume(any(gts.values()))
        ranked = rank_corpus(dets, gts)
        thr = f1_max_threshold(ranked, step)
        want = f1_sweep_oracle(dets, gts, _grid(step))
        assert (thr, evaluate(ranked, thr).mean_f1) == want

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(
            st.one_of(st.sampled_from(_TIED_CONFS), st.floats(0.0, 1.0)), st.booleans()
        ), max_size=30),
        st.sampled_from([0.01, 0.05, 0.1, 0.5]),
        st.integers(0, 3),
    )
    # 0.7 is the grid point 14 * 0.05, and a record exactly on it is kept there
    @example([(0.7, True), (0.7, False), (0.65, True)], 0.05, 0)
    def test_grid_counts_equal_searchsorted_oracle(self, records, step, n_gt):
        # one class's rows: its oracle counts where it is scored (ground
        # truth or a kept record), absent elsewhere
        records.sort(key=lambda r: -r[0])
        grid = _grid(step)
        want = [{0: (kept, tp, n_gt)} if kept or n_gt else {}
                for kept, tp in grid_counts_oracle(records, grid)]
        assert class_counts(Ranked({0: records}, {0: n_gt} if n_gt else {}), grid) == want

    def test_matches_each_frame_at_most_once(self, monkeypatch):
        # the scan ranks every frame once; no report is built
        calls = []
        original = evaluation.match_frame_flags

        def counting(dets, gts):
            calls.append(len(dets))
            return original(dets, gts)

        monkeypatch.setattr(evaluation, "match_frame_flags", counting)
        dets = {("m", t): [_det(t % 5, 0, conf=0.05 * t)] for t in range(15)}
        gts = {("m", t): [_gt(0, 0)] for t in range(3, 18)}
        f1_max_threshold(rank_corpus(dets, gts), grid_step=0.01)
        assert 0 < len(calls) <= len(set(dets) | set(gts))
