"""Golden outputs: a SHA-256 digest of every output of a fixed command set.

Runs, in-process through ``mrtrack.cli.main``, the same commands on each of
four synthetic corpora (the determinism corpus and the benchmark's three
shapes): ``synth --P 5``; ``track --preset nanodet --P 5 --emit-coasted``
with and without ``--no-rescore``; ``eval`` at ``f1max``, ``fixed:0.5`` and
``fixed:0``, each with ``--out``, of both track files and of the full-res
detections; and ``sweep --preset nanodet --emit-coasted --out``. The first
corpus also runs, once, ``attn-check``, ``eval --help`` and ``sweep --help``
(at 80 columns). Each command's stdout, with the corpus's temporary root
replaced by ``<root>``, and every file it writes are hashed.
``tests/test_golden.py`` compares the digests with the committed
``tests/golden.json``.

Rewrite that file, after a change meant to alter outputs, with::

    PYTHONPATH=src python tests/make_golden.py

To see which line of which output two trees differ in, where a digest only
says that it differs, dump the outputs themselves in each tree and compare::

    PYTHONPATH=src python tests/make_golden.py --dump DIR

makes ``DIR``, which must not exist, and writes under ``DIR/<corpus>/``
every file the commands write, at its path under the corpus's root, and
each command's stdout (root replaced) as ``stdout/<NN>_<subcommand>.txt``,
headed by the command line; then ``diff -r`` of two such directories names
the first differing line.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

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


def _commands(corpus_name: str):
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
        for threshold in ("f1max", "fixed:0.5", "fixed:0"):
            out = f"{{root}}/eval_{Path(predictions).stem}_{threshold.replace(':', '')}.json"
            yield ["eval", predictions, gt, "--threshold", threshold, "--out", out]
    yield ["sweep", full, low, gt, "--preset", "nanodet", "--emit-coasted",
           "--out", "{root}/sweep.jsonl"]
    if corpus_name == next(iter(CORPORA)):
        yield ["attn-check"]
        yield ["eval", "--help"]
        yield ["sweep", "--help"]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_corpus(name: str, root: Path):
    """Run the command set for one corpus under ``root``. Yields, per command,
    (label, exit code, stderr, stdout, paths of the files it wrote), with the
    root replaced by ``<root>`` in the texts; the scenario file comes first,
    as the output of ``save_scenario``, with no stdout. Help is formatted at
    80 columns whatever the terminal."""
    save_scenario(root / "scenario.yaml", profile_scenario(**CORPORA[name]))
    yield "save_scenario", 0, "", None, [root / "scenario.yaml"]
    seen = set(root.rglob("*"))
    for template in _commands(name):
        argv = [arg.replace("{root}", str(root)) for arg in template]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), \
                mock.patch.dict(os.environ, COLUMNS="80"):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # --help exits through argparse
                code = exc.code
        # every file a command writes is new: no command overwrites another's
        new = sorted(set(root.rglob("*")) - seen)
        seen.update(new)
        yield (
            " ".join(template).replace("{root}/", ""),
            code,
            err.getvalue().strip().replace(str(root), "<root>"),
            out.getvalue().replace(str(root), "<root>"),
            [path for path in new if path.is_file()],
        )


def corpus_digests(name: str, root: Path) -> tuple[dict[str, str], list[str]]:
    """``"<command> | <output>"`` -> digest for one corpus, run under ``root``:
    an output is ``stdout`` or the path, under ``root``, of a file the command
    wrote. Also returns a line per command that exited non-zero, with its
    stderr; the later commands still run, so the outputs that differ are all
    listed."""
    digests, failures = {}, []
    for label, code, stderr, stdout, written in run_corpus(name, root):
        if code != 0:
            failures.append(f"`{label}` exited {code}: {stderr}")
        if stdout is not None:
            digests[f"{label} | stdout"] = _sha256(stdout.encode())
        for path in written:
            digests[f"{label} | {path.relative_to(root)}"] = _sha256(path.read_bytes())
    return digests, failures


def dump(out: Path) -> None:
    """Write every corpus's outputs under ``out/<corpus>/`` (module docstring)."""
    for name in CORPORA:
        with tempfile.TemporaryDirectory() as tmp:
            root, stdouts = Path(tmp), out / name / "stdout"
            stdouts.mkdir(parents=True)
            for k, (label, code, stderr, stdout, _) in enumerate(run_corpus(name, root)):
                if stdout is not None:
                    tail = f"exited {code}: {stderr}\n" if code != 0 else ""
                    path = stdouts / f"{k:02d}_{label.split()[0]}.txt"
                    path.write_text(f"$ {label}\n{stdout}{tail}", encoding="utf-8")
            shutil.copytree(root, out / name, dirs_exist_ok=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dump", type=Path, metavar="DIR",
                        help="write the outputs under DIR, a new directory, "
                             "instead of golden.json")
    args = parser.parse_args(argv)
    if args.dump is not None:
        try:
            args.dump.mkdir(parents=True)
        except OSError as exc:  # an earlier dump there would mix with this one
            parser.error(f"--dump: cannot make a new directory {args.dump}: {exc.strerror}")
        dump(args.dump)
        print(f"wrote the outputs of {len(CORPORA)} corpora under {args.dump}")
        return 0
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
