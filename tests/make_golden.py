"""Golden outputs: a SHA-256 digest of every output of a fixed command set.

Runs, in-process through ``mrtrack.cli.main``, the same commands on each of
four synthetic corpora (the determinism corpus and the benchmark's three
shapes): ``synth --P 5``; ``track --preset nanodet --P 5 --emit-coasted``
with and without ``--no-rescore``; ``eval`` at ``f1max`` and ``fixed:0.5``,
each with ``--out``, of both track files and of the full-res detections;
and ``sweep --preset nanodet --emit-coasted --out``. Each command's stdout,
with the corpus's temporary root replaced by ``<root>``, and every file it
writes are hashed. ``tests/test_golden.py`` compares the digests with the
committed ``tests/golden.json``.

Rewrite that file, after a change meant to alter outputs, with::

    PYTHONPATH=src python tests/make_golden.py
"""

from __future__ import annotations

import hashlib
import io
import json
import platform
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy

from mrtrack import cli
from mrtrack.fileio import save_scenario
from mrtrack.synth import profile_scenario

GOLDEN = Path(__file__).with_name("golden.json")

# corpus name -> profile_scenario arguments
CORPORA = {
    "determinism": dict(profile="cnn-like", seed=5, frame_count=40),
    "dense-track": dict(profile="cnn-like", seed=4242, n_objects=40, frame_count=200),
    "sparse-sweep": dict(profile="vit-like", seed=4242, n_objects=4, frame_count=300),
    "f1max-eval": dict(profile="cnn-like", seed=4242, n_objects=8, frame_count=300),
}


def versions() -> dict[str, str]:
    """The versions the digests depend on: synth's corpora follow numpy's
    RNG streams, and the text of every float follows Python's ``repr``."""
    return {"python": platform.python_version(), "numpy": numpy.__version__}


def _commands():
    """(argv, with ``{root}`` for the corpus's directory), in run order."""
    corpus = "{root}/corpus"
    full, low, gt = (f"{corpus}/{name}" for name in (
        "detections_320x320.jsonl", "detections_192x192.jsonl", "gt.jsonl"))
    yield ["synth", "{root}/scenario.yaml", "--out", corpus, "--P", "5"]
    tracks = {"rescored": [], "naive": ["--no-rescore"]}
    for name, flags in tracks.items():
        yield ["track", f"{corpus}/detections_P5.jsonl", "--preset", "nanodet", "--P", "5",
               "--emit-coasted", *flags, "--out", f"{{root}}/tracks_{name}.jsonl"]
    for predictions in (*(f"{{root}}/tracks_{name}.jsonl" for name in tracks), full):
        for threshold in ("f1max", "fixed:0.5"):
            out = f"{{root}}/eval_{Path(predictions).stem}_{threshold.replace(':', '')}.json"
            yield ["eval", predictions, gt, "--threshold", threshold, "--out", out]
    yield ["sweep", full, low, gt, "--preset", "nanodet", "--emit-coasted",
           "--out", "{root}/sweep.jsonl"]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def corpus_digests(name: str, root: Path) -> tuple[dict[str, str], list[str]]:
    """``"<command> | <output>"`` -> digest for one corpus, run under ``root``:
    an output is ``stdout`` or the path, under ``root``, of a file the command
    wrote. The scenario file is hashed as the output of ``save_scenario``.
    Also returns a line per command that exited non-zero, with its stderr;
    the later commands still run, so the outputs that differ are all listed."""
    save_scenario(root / "scenario.yaml", profile_scenario(**CORPORA[name]))
    digests = {"save_scenario | scenario.yaml": _sha256((root / "scenario.yaml").read_bytes())}
    seen, failures = {root / "scenario.yaml"}, []
    for template in _commands():
        argv = [arg.replace("{root}", str(root)) for arg in template]
        label = " ".join(template).replace("{root}/", "")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            stderr = err.getvalue().strip().replace(str(root), "<root>")
            failures.append(f"`{label}` exited {code}: {stderr}")
        stdout = out.getvalue().replace(str(root), "<root>")
        digests[f"{label} | stdout"] = _sha256(stdout.encode())
        # every file a command writes is new: no command overwrites another's
        for path in sorted(set(root.rglob("*")) - seen):
            if path.is_file():
                digests[f"{label} | {path.relative_to(root)}"] = _sha256(path.read_bytes())
            seen.add(path)
    return digests, failures


def main() -> int:
    golden = {**versions(), "digests": {}}
    for name in CORPORA:
        with tempfile.TemporaryDirectory() as tmp:
            golden["digests"][name], failures = corpus_digests(name, Path(tmp))
        if failures:
            sys.exit(f"{name} corpus, nothing written:\n" + "\n".join(failures))
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    count = sum(map(len, golden["digests"].values()))
    print(f"wrote {count} digests to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
