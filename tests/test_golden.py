"""Golden outputs: every command of ``make_golden`` gives the committed bytes.

``TestDeterminism`` checks that a rerun in one tree gives the same bytes; this
pins the bytes across commits, so a change that moves one emitted box, or
reorders two output lines, fails here even where no oracle would see it. A
change meant to alter outputs rewrites ``golden.json`` with ``make_golden.py``
and says which digests changed and why.
"""

import json

import pytest

from make_golden import CORPORA, GOLDEN, corpus_digests, main, versions

_GOLDEN = json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", CORPORA)
def test_outputs_match_the_golden_digests(name, tmp_path):
    here, made_with = versions(), {key: _GOLDEN[key] for key in versions()}
    if here != made_with:
        pytest.fail(
            f"golden.json was made with Python {made_with['python']} and numpy "
            f"{made_with['numpy']}; this is Python {here['python']} and numpy "
            f"{here['numpy']}. synth's corpora follow numpy's RNG streams, so "
            "regenerate the digests with tests/make_golden.py on the parent commit"
        )
    expected, (actual, problems) = _GOLDEN["digests"][name], corpus_digests(name, tmp_path)
    for key in sorted(expected.keys() | actual.keys()):
        command, output = key.split(" | ")
        if key not in actual:
            problems.append(f"`{command}` no longer writes {output}")
        elif key not in expected:
            problems.append(f"`{command}` writes {output}, which golden.json lacks")
        elif actual[key] != expected[key]:
            problems.append(f"`{command}`: {output} differs")
    assert not problems, f"{name} corpus:\n" + "\n".join(problems)


def test_dump_refuses_an_existing_directory(tmp_path, capsys):
    # a dump into a directory that holds one would mix two trees' outputs
    with pytest.raises(SystemExit) as exc:
        main(["--dump", str(tmp_path)])
    assert exc.value.code == 2
    assert f"--dump: cannot make a new directory {tmp_path}: " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
