"""Smoke tests of the example scripts: each runs to exit 0 and prints its table,
and rejects an out-of-range flag, or an ``--out`` no directory can be made at,
as a usage error before writing anything."""

import runpy
import sys
from pathlib import Path

import pytest

from mrtrack import evaluation

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run(monkeypatch, capsys, name, *argv, code=0):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    assert exc.value.code == code
    return capsys.readouterr()


def test_rescore_ablation(monkeypatch, capsys):
    out = _run(monkeypatch, capsys, "rescore_ablation.py", "--frames", "40").out
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
               "--out", str(tmp_path / "demo")).out
    assert "  P  method     mAP     precision  recall  F1      MMAC     savings" in out
    assert (tmp_path / "demo" / "sweep.jsonl").stat().st_size > 0


@pytest.mark.parametrize("name, flag, value", [
    ("rescore_ablation.py", "--P", "-1"),
    ("rescore_ablation.py", "--frames", "0"),
    ("rescore_ablation.py", "--seed", "-1"),
    ("rescore_ablation.py", "--preset", "bogus"),
    ("run_sweep_demo.py", "--frames", "0"),
    ("run_sweep_demo.py", "--seed", "-1"),
    ("run_sweep_demo.py", "--preset", "bogus"),
])
def test_bad_flag_is_a_usage_error(monkeypatch, capsys, tmp_path, name, flag, value):
    # run_sweep_demo.py writes under its --out, by default a directory in the cwd
    monkeypatch.chdir(tmp_path)
    err = _run(monkeypatch, capsys, name, flag, value, code=2).err
    assert "usage:" in err and f"argument {flag}:" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("out", ["taken", "taken/sub"])
def test_unusable_out_is_a_usage_error(monkeypatch, capsys, tmp_path, out):
    # --out names an existing file, or a path through one: nothing is written
    (tmp_path / "taken").write_text("kept")
    err = _run(monkeypatch, capsys, "run_sweep_demo.py", "--out", str(tmp_path / out),
               code=2).err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "Traceback" not in err
    assert f"argument --out: cannot create directory {tmp_path / out}: " in errors[0]
    assert list(tmp_path.iterdir()) == [tmp_path / "taken"]
    assert (tmp_path / "taken").read_text() == "kept"
