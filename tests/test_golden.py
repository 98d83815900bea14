"""Every pinned CLI answer in ``golden/answers.json`` still holds.

A mismatch means an answer changed; a stored stdout text fails with a
diff.  See ``golden/regenerate.py`` for when the file may be regenerated.
"""

import json

import pytest

from golden.regenerate import ANSWERS, answer, resolve, write_inputs

with open(ANSWERS, encoding="utf-8") as _fh:
    PINNED = json.load(_fh)


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    write_inputs(str(directory))
    return str(directory)


@pytest.mark.parametrize("entry", PINNED, ids=[" ".join(e["argv"]) for e in PINNED])
def test_pinned_answer(entry, input_dir):
    want = {k: v for k, v in entry.items() if k != "argv"}
    got = answer(resolve(entry["argv"], input_dir))
    assert got.get("stdout") == want.get("stdout"), entry["argv"]
    assert got == want, entry["argv"]
