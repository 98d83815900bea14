"""Import path: the package loads nothing outside the standard library.

Checks of what an import loads run in a fresh interpreter, because the
test session itself has already imported the test tools and numpy, the
oracle for the seeded generators' draws.  The numpy-blocked run replays
every pinned CLI answer of ``golden/answers.json`` in such an interpreter,
with numpy made unimportable, and compares each with its pin.
"""

import json
import os
import subprocess
import sys

import pytest

import nodalcodes
from conftest import child_env
from golden.regenerate import ANSWERS


def _python(code: str, *args: str, flags: tuple[str, ...] = ()) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *flags, "-c", code, *args], capture_output=True,
                          text=True, env=child_env(), timeout=120)


def test_package_imports_only_the_standard_library():
    proc = _python(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import nodalcodes, nodalcodes.cli, nodalcodes.seeded, nodalcodes.symmetroid\n"
        "loaded = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(loaded - set(sys.stdlib_module_names) - {'nodalcodes'}))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    """The records need no ``dataclasses``, whose import loads ``inspect``,
    ``ast``, ``dis`` and ``tokenize``.  ``-S`` skips ``site``, so no ``.pth``
    file can load any of them first; ``PYTHONPATH`` still applies."""
    heavy = ["ast", "dataclasses", "dis", "inspect", "tokenize", "typing"]
    proc = _python(
        "import sys\n"
        "import nodalcodes.cli\n"
        f"print(sorted(set({heavy!r}) & set(sys.modules)))",
        flags=("-S",),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("name", [
    "ScanResult",
    "SymmetricLinearMatrix",
    "no_quadric_certificate",
    "random_symmetric_matrix",
    "random_symmetroid_matrix",
    "scan_nodes_fp",
])
def test_scanner_name_is_the_symmetroid_object(name):
    from nodalcodes import seeded, symmetroid

    # the generators live in seeded alone; symmetroid never names them
    generator = name.startswith("random_")
    assert vars(nodalcodes)[name] is vars(seeded if generator else symmetroid)[name]
    assert (name in vars(symmetroid)) is not generator


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'nodalcodes' has no attribute 'no_such_name'"):
        nodalcodes.no_such_name
    assert not hasattr(nodalcodes, "minors_vanish_at")


def test_subcommands_run_with_numpy_blocked():
    tests = os.path.dirname(os.path.abspath(__file__))
    proc = _python(
        "import json, sys, tempfile\n"
        "sys.modules['numpy'] = None\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from golden.regenerate import ANSWERS, answer, resolve, write_inputs\n"
        "with open(ANSWERS, encoding='utf-8') as fh:\n"
        "    pinned = json.load(fh)\n"
        "with tempfile.TemporaryDirectory() as directory:\n"
        "    write_inputs(directory)\n"
        "    got = [{'argv': e['argv'], **answer(resolve(e['argv'], directory))} for e in pinned]\n"
        "print(json.dumps(got))",
        tests,
    )
    assert proc.returncode == 0, proc.stderr
    with open(ANSWERS, encoding="utf-8") as fh:
        pinned = json.load(fh)
    got = json.loads(proc.stdout)
    assert len(got) == len(pinned)
    for want, have in zip(pinned, got):
        assert have == want, want["argv"]
