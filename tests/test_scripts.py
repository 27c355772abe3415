"""Smoke tests of the example scripts: each runs to exit 0 and prints its table."""

import runpy
import sys
from pathlib import Path

import pytest

from mrtrack import evaluation

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run(monkeypatch, capsys, name, *argv):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    assert exc.value.code == 0
    return capsys.readouterr().out


def test_rescore_ablation(monkeypatch, capsys):
    out = _run(monkeypatch, capsys, "rescore_ablation.py", "--frames", "40")
    assert "method                 mAP    prec  recall      F1" in out
    assert "rescored tracking" in out


def test_rescore_ablation_matches_each_report_once(monkeypatch, capsys):
    # 40 frames per report: the naive run's f1max threshold, baseline and
    # tracked reports, then only the rescored run's tracked report
    calls = []
    match = evaluation.match_frame_flags
    monkeypatch.setattr(evaluation, "match_frame_flags",
                        lambda dets, gts: calls.append(1) or match(dets, gts))
    _run(monkeypatch, capsys, "rescore_ablation.py", "--frames", "40")
    assert len(calls) == 4 * 40


def test_run_sweep_demo(monkeypatch, capsys, tmp_path):
    out = _run(monkeypatch, capsys, "run_sweep_demo.py", "--frames", "40",
               "--out", str(tmp_path / "demo"))
    assert "  P  method     mAP     precision  recall  F1      MMAC     savings" in out
    assert (tmp_path / "demo" / "sweep.jsonl").stat().st_size > 0
