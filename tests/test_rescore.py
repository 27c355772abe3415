import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrtrack.core import DEFAULT_EPSILON, BBox, Detection, RescoreConfig
from mrtrack.rescore import rescore_update
from mrtrack.tracks import Track

from oracles import rescore_oracle_step

CFG = RescoreConfig()
EPS = DEFAULT_EPSILON
BOX = BBox(0, 0, 10, 10)

confs = st.floats(min_value=0.0, max_value=1.0 - EPS, allow_nan=False)


def _track(class_id=0, conf_agg=0.5, history=(0.5,)):
    # kf state is irrelevant to the fusion algebra
    return Track(
        track_id=0,
        kf_state=None,
        class_id=class_id,
        conf=sum(history) / len(history),
        conf_agg=conf_agg,
        recent_confs=list(history),
    )


def _det(class_id, conf):
    return Detection(BOX, class_id, conf)


class TestWorkedExamples:
    def test_same_class_union(self):
        d = rescore_update(_track(0, conf_agg=0.6), _det(0, 0.5), CFG)
        assert d.new_conf_agg == pytest.approx(0.8, abs=1e-12)
        assert not d.class_switched

    def test_same_class_zero_conf_is_identity(self):
        d = rescore_update(_track(0, conf_agg=0.37), _det(0, 0.0), CFG)
        assert d.new_conf_agg == pytest.approx(0.37, abs=1e-12)

    def test_different_class_immediate_switch(self):
        d = rescore_update(_track(0, conf_agg=0.2), _det(1, 0.5), CFG)
        assert d.class_switched
        assert d.new_class == 1
        assert d.new_conf == pytest.approx(0.5)
        assert d.new_conf_agg == pytest.approx(0.5)

    def test_different_class_margin_keeps_class(self):
        d = rescore_update(_track(0, conf_agg=0.9), _det(1, 0.5), CFG)
        assert not d.class_switched
        assert d.new_class == 0
        assert d.new_conf_agg == pytest.approx(1 - 0.1 / 0.5, abs=1e-12)

    def test_different_class_margin_then_switch(self):
        # 1 - 0.1/0.15 = 1/3 < 0.85 so the challenger wins
        d = rescore_update(_track(0, conf_agg=0.9), _det(1, 0.85), CFG)
        assert d.class_switched
        assert d.new_class == 1
        assert d.new_conf_agg == pytest.approx(0.85)

    def test_cap_at_one_minus_epsilon(self):
        d = rescore_update(_track(0, conf_agg=0.9999), _det(0, 0.9), CFG)
        assert d.new_conf_agg == pytest.approx(1 - EPS, abs=0)

    def test_conf_is_mean_of_recent(self):
        t = _track(0, conf_agg=0.5, history=(0.4, 0.6))
        d = rescore_update(t, _det(0, 0.8), CFG)
        assert d.new_conf == pytest.approx((0.4 + 0.6 + 0.8) / 3)

    def test_history_window_is_bounded(self):
        t = _track(0, conf_agg=0.5, history=(0.1, 0.2, 0.3))
        d = rescore_update(t, _det(0, 0.9), CFG)
        assert d.new_conf == pytest.approx((0.2 + 0.3 + 0.9) / 3)

    def test_rejects_unclamped_confidence(self):
        with pytest.raises(ValueError):
            rescore_update(_track(0), _det(0, 1.0), CFG)


class TestAlgebraProperties:
    @given(st.lists(confs, min_size=1, max_size=6), confs)
    def test_same_class_fold_order_independent(self, seq, start):
        def fold(values):
            agg = start
            for c in values:
                agg = min(1.0 - (1.0 - agg) * (1.0 - c), 1.0 - EPS)
            return agg

        base = fold(seq)
        for perm in itertools.islice(itertools.permutations(seq), 24):
            assert fold(list(perm)) == pytest.approx(base, abs=1e-12)

    @given(confs, confs)
    def test_same_class_monotone_non_decreasing(self, agg, c):
        d = rescore_update(_track(0, conf_agg=agg), _det(0, c), CFG)
        assert d.new_conf_agg >= agg - 1e-15

    @given(confs, confs, st.booleans())
    def test_containment(self, agg, c, same):
        d = rescore_update(_track(0, conf_agg=agg), _det(0 if same else 1, c), CFG)
        assert 0.0 <= d.new_conf_agg <= 1.0 - EPS

    @given(confs, confs)
    def test_switch_iff_agg_below_conf_at_decision_point(self, agg, c):
        d = rescore_update(_track(0, conf_agg=agg), _det(1, c), CFG)
        if agg < c:
            expect = True
        else:
            reduced = max(1.0 - (1.0 - agg) / (1.0 - c), 0.0) if c < 1 else None
            expect = reduced < c
        assert d.class_switched == expect


class TestOracleEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 3), confs), min_size=1, max_size=8
        ),
        st.integers(0, 3),
        confs,
    )
    def test_matches_interpreter(self, updates, cls0, agg0):
        track = _track(cls0, conf_agg=min(agg0, 1 - EPS), history=(agg0,))
        o_cls, o_agg, o_hist = cls0, min(agg0, 1 - EPS), [agg0]
        for det_cls, det_conf in updates:
            d = rescore_update(track, _det(det_cls, det_conf), CFG)
            track.apply_rescore(d)
            o_cls, o_conf, o_agg, o_hist, o_sw = rescore_oracle_step(
                o_cls, o_agg, o_hist, det_cls, det_conf, EPS, CFG.history_len
            )
            assert d.class_switched == o_sw
            assert track.class_id == o_cls
            assert track.conf == pytest.approx(o_conf, abs=1e-15)
            assert track.conf_agg == pytest.approx(o_agg, abs=1e-15)
            assert track.recent_confs == pytest.approx(o_hist)

    def test_random_sequences_bulk(self):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            cls0 = int(rng.integers(0, 4))
            agg0 = float(rng.random() * (1 - EPS))
            track = _track(cls0, conf_agg=agg0, history=(agg0,))
            o_cls, o_agg, o_hist = cls0, agg0, [agg0]
            for _ in range(int(rng.integers(1, 9))):
                det_cls = int(rng.integers(0, 4))
                det_conf = float(rng.random() * (1 - EPS))
                d = rescore_update(track, _det(det_cls, det_conf), CFG)
                track.apply_rescore(d)
                o_cls, o_conf, o_agg, o_hist, _ = rescore_oracle_step(
                    o_cls, o_agg, o_hist, det_cls, det_conf, EPS,
                    CFG.history_len,
                )
                assert (track.class_id, track.conf, track.conf_agg) == (
                    o_cls,
                    pytest.approx(o_conf, abs=1e-15),
                    pytest.approx(o_agg, abs=1e-15),
                )
