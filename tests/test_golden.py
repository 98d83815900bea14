"""Every pinned CLI answer in ``golden/answers.json`` still holds, with
numpy, the test oracle of the seeded generators, made unimportable.

A mismatch means an answer changed; a stored stdout text fails with a
diff.  See ``golden/regenerate.py`` for when the file may be regenerated.
"""

import argparse
import json
import sys

import pytest

from nodalcodes.cli import build_parser
from golden.regenerate import ANSWERS, answer, resolve, write_inputs

with open(ANSWERS, encoding="utf-8") as _fh:
    PINNED = json.load(_fh)


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    write_inputs(str(directory))
    return str(directory)


@pytest.mark.parametrize("entry", PINNED, ids=[" ".join(e["argv"]) for e in PINNED])
def test_pinned_answer(entry, input_dir, monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)
    want = {k: v for k, v in entry.items() if k != "argv"}
    got = answer(resolve(entry["argv"], input_dir))
    assert got.get("stdout") == want.get("stdout"), entry["argv"]
    assert got == want, entry["argv"]


def test_every_subcommand_and_code_action_has_a_pinned_answer():
    # the installed package is checked against this file, so each
    # subcommand and each code action needs a pinned call that succeeds,
    # and the file needs refusals and failed checks: exits 1, 2 and 3
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    (action,) = [a for a in sub.choices["code"]._actions if a.dest == "action"]
    ok = [e["argv"] for e in PINNED if e["exit"] == 0]
    assert set(sub.choices) <= {argv[0] for argv in ok}
    assert set(action.choices) <= {argv[1] for argv in ok if argv[0] == "code"}
    assert {1, 2, 3} <= {e["exit"] for e in PINNED}
