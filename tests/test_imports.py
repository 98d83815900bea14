"""Import path: the package loads nothing outside the standard library,
a CLI call loads only the modules its subcommand uses, and each public name
is its defining module's object.

Checks of what an import loads run in a fresh interpreter, because the
test session itself has already imported the test tools and numpy, the
oracle for the seeded generators' draws.  Such a child reports
``sys.modules``, which also holds the modules that the package's
``__getattr__`` loads through ``importlib.import_module`` (``-X importtime``
does not log those).  Each CLI call here is a pinned call of
``golden/answers.json``, run cold through the process entry and compared
with its pin; ``test_golden.py`` replays every pin in-process.
"""

import importlib
import json
import subprocess
import sys

import pytest

import nodalcodes
from conftest import child_env
from golden.regenerate import ANSWERS, resolve, summarize, write_inputs

# what `import nodalcodes` loads: the code side and the classifier
EAGER = {"errors", "record", "bounds", "series", "codes", "classify"}
# what the node and scan handlers add; a defect from counts adds none of them
NODES = {"fields", "linalg", "forms", "nodes"}

# every public name of the package, by its defining module
PUBLIC = {
    "bounds": ["BoundReport", "DefectReport", "beauville_bound", "beauville_bound_printed", "bound_report",
               "defect", "improved_bound", "jacobian_slice_dim", "miyaoka_max_nodes", "torsion_rank"],
    "classify": ["ClassificationTable", "TableEntry", "classify_quartic_codes"],
    "codes": ["EvenSetCode", "EvenSetWord", "canonical_form", "is_isomorphic", "weight_enumerator"],
    "errors": ["DataError", "DomainError", "HomogeneityError", "InconsistencyError", "InputError",
               "NodalcodesError", "ParseError", "ResourceError"],
    "fields": ["PrimeField", "QQ", "RationalField"],
    "forms": ["HomogeneousForm", "evaluate_at", "gradient", "hessian_rank_at", "parse_form"],
    "linalg": ["ExactMatrix", "nullspace_basis"],
    "nodes": ["NodeConfiguration", "defect_from_nodes", "monomial_basis", "vanishing_dimension",
              "verify_node"],
    "seeded": ["random_symmetric_matrix", "random_symmetroid_matrix"],
    "series": ["symmetroid_hilbert_check", "symmetroid_hilbert_series"],
    "symmetroid": ["ScanResult", "SymmetricLinearMatrix", "no_quadric_certificate", "scan_nodes_fp"],
}
HOME = {name: module for module, names in PUBLIC.items() for name in names}

with open(ANSWERS, encoding="utf-8") as _fh:
    PINNED = {tuple(e["argv"]): e for e in json.load(_fh)}


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


def _submodules(loaded: list[str]) -> set[str]:
    return {name.partition(".")[2] for name in loaded if name.startswith("nodalcodes.")}


def test_package_import_loads_the_eager_modules_only():
    proc = _python("import sys\nimport nodalcodes\nprint(*sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert _submodules(proc.stdout.split()) == EAGER


# `python -m nodalcodes.cli` as a -c launcher: the first argument names the
# file that gets ``sys.modules`` at exit, after run() has left through sys.exit
_LAUNCHER = (
    "import atexit, runpy, sys\n"
    "path = sys.argv.pop(1)\n"
    "def report():\n"
    "    with open(path, 'w', encoding='utf-8') as fh:\n"
    "        fh.write(' '.join(sys.modules))\n"
    "atexit.register(report)\n"
    "runpy.run_module('nodalcodes.cli', run_name='__main__', alter_sys=True)\n"
)


@pytest.mark.parametrize("argv, extra", [
    pytest.param(["bounds", "--degree", "8", "--mu", "168"], set(), id="bounds"),
    pytest.param(["bounds", "--degree", "5", "--mu", "3"], set(), id="bounds-refused"),
    pytest.param(["frobnicate"], set(), id="usage-error"),
    pytest.param(["classify-quartic", "--mu", "10"], set(), id="classify-quartic"),
    pytest.param(["code", "canonical", "@kummer_a.json"], set(), id="code-canonical"),
    pytest.param(["hilbert-check"], set(), id="hilbert-check"),
    pytest.param(["defect", "--degree", "6", "--mu", "65", "--dim-m", "4"], set(), id="defect-counts"),
    pytest.param(["defect", "--nodes", "@nodes_b6_q_cubic.json"], NODES, id="defect-nodes"),
    pytest.param(["vanishing-dim", "--nodes", "@nodes_b4_q_random.json", "--json"], NODES,
                 id="vanishing-dim"),
    pytest.param(["verify-nodes", "--nodes", "@cayley_fail.json"], NODES, id="verify-nodes-fail"),
    pytest.param(["verify-nodes", "--nodes", "@cayley_no_surface.json", "--surface", "@surface_ok.txt"],
                 NODES, id="verify-nodes-surface"),
    pytest.param(["symmetroid-scan", "--matrix", "@x_identity_7.json"], NODES | {"symmetroid"},
                 id="scan-matrix"),
    pytest.param(["symmetroid-scan", "--seed", "1", "--prime", "101"], NODES | {"symmetroid", "seeded"},
                 id="scan-seed"),
])
def test_cli_call_loads_only_what_its_subcommand_uses(argv, extra, tmp_path):
    """A pinned call through the process entry, as a user runs it, with its
    answer; the ``cli`` module itself runs as ``__main__``.  Only a call
    that loads ``fields`` loads ``fractions``."""
    write_inputs(str(tmp_path))
    report = tmp_path / "modules.txt"
    proc = subprocess.run([sys.executable, "-c", _LAUNCHER, str(report),
                           *resolve(argv, str(tmp_path))],
                          capture_output=True, text=True, env=child_env(), timeout=120)
    want = {k: v for k, v in PINNED[tuple(argv)].items() if k != "argv"}
    assert summarize(proc.returncode, proc.stdout, proc.stderr) == want
    loaded = report.read_text(encoding="utf-8").split()
    assert _submodules(loaded) == EAGER | extra
    if "fields" not in extra:
        assert not {"fractions", "decimal"} & set(loaded)


@pytest.mark.parametrize("name", sorted(HOME))
def test_public_name_is_the_defining_modules_object(name):
    module = importlib.import_module(f"nodalcodes.{HOME[name]}")
    assert getattr(nodalcodes, name) is vars(module)[name]
    assert name in dir(nodalcodes)
    # the generators live in seeded alone; symmetroid never names them
    if HOME[name] in ("seeded", "symmetroid"):
        from nodalcodes import symmetroid
        assert (name in vars(symmetroid)) is (HOME[name] == "symmetroid")


def test_star_import_binds_every_public_name():
    # a fresh interpreter, so the deferred names load through __all__; a
    # name is printed only if it is its defining module's object
    proc = _python(
        "import sys\n"
        "bound = {}\n"
        "exec('from nodalcodes import *', bound)\n"
        "del bound['__builtins__']\n"
        "print(*sorted(name for name, obj in bound.items()\n"
        "              if vars(sys.modules[obj.__module__]).get(name) is obj))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == sorted(HOME)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'nodalcodes' has no attribute 'no_such_name'"):
        nodalcodes.no_such_name
    assert not hasattr(nodalcodes, "minors_vanish_at")
