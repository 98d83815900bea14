"""Import path: the package loads nothing outside the standard library,
and a CLI call loads only the modules its subcommand uses.

Checks of what an import loads run in a fresh interpreter, because the
test session itself has already imported the test tools and numpy, the
oracle for the seeded generators' draws.  The numpy-blocked run replays
every pinned CLI answer of ``golden/answers.json`` in such an interpreter,
with numpy made unimportable, and compares each with its pin.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import nodalcodes
from conftest import child_env
from golden.regenerate import ANSWERS, resolve, write_inputs

# what `import nodalcodes` loads: the code side and the classifier
EAGER = {"errors", "record", "bounds", "series", "codes", "classify"}
# what the node, defect and scan handlers add
NODES = {"fields", "linalg", "forms", "nodes"}

# every public name of the package, by its defining module
PUBLIC = {
    "bounds": ["BoundReport", "beauville_bound", "beauville_bound_printed", "bound_report",
               "improved_bound", "jacobian_slice_dim", "miyaoka_max_nodes", "torsion_rank"],
    "classify": ["ClassificationTable", "TableEntry", "classify_quartic_codes"],
    "codes": ["EvenSetCode", "EvenSetWord", "canonical_form", "is_isomorphic", "weight_enumerator"],
    "errors": ["DataError", "DomainError", "HomogeneityError", "InconsistencyError", "InputError",
               "NodalcodesError", "ParseError", "ResourceError"],
    "fields": ["PrimeField", "QQ", "RationalField"],
    "forms": ["HomogeneousForm", "evaluate_at", "gradient", "hessian_rank_at", "parse_form"],
    "linalg": ["ExactMatrix", "nullspace_basis"],
    "nodes": ["DefectReport", "NodeConfiguration", "defect", "defect_from_nodes", "monomial_basis",
              "vanishing_dimension", "verify_node"],
    "seeded": ["random_symmetric_matrix", "random_symmetroid_matrix"],
    "series": ["symmetroid_hilbert_check", "symmetroid_hilbert_series"],
    "symmetroid": ["ScanResult", "SymmetricLinearMatrix", "no_quadric_certificate", "scan_nodes_fp"],
}
HOME = {name: module for module, names in PUBLIC.items() for name in names}
DEFERRED = sorted(name for name, module in HOME.items() if module not in EAGER)


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


def _imported(stderr: str) -> set[str]:
    """Every module that ``-X importtime`` reports imported."""
    return {line.rpartition("|")[2].strip() for line in stderr.splitlines()
            if line.startswith("import time:")}


def _submodules(imported: set[str]) -> set[str]:
    return {name.partition(".")[2] for name in imported if name.startswith("nodalcodes.")}


def test_package_import_loads_the_eager_modules_only():
    proc = _python("import nodalcodes", flags=("-X", "importtime"))
    assert proc.returncode == 0, proc.stderr
    assert _submodules(_imported(proc.stderr)) == EAGER


@pytest.mark.parametrize("argv, extra", [
    pytest.param(["bounds", "--degree", "8", "--mu", "168"], set(), id="bounds"),
    pytest.param(["bounds", "--degree", "5", "--mu", "3"], set(), id="bounds-refused"),
    pytest.param(["frobnicate"], set(), id="usage-error"),
    pytest.param(["classify-quartic", "--mu", "10"], set(), id="classify-quartic"),
    pytest.param(["code", "canonical", "@kummer_a.json"], set(), id="code-canonical"),
    pytest.param(["hilbert-check"], set(), id="hilbert-check"),
    pytest.param(["defect", "--degree", "6", "--mu", "65", "--dim-m", "4"], NODES, id="defect-counts"),
    pytest.param(["defect", "--nodes", "@nodes_b6_q_cubic.json"], NODES, id="defect-nodes"),
    pytest.param(["vanishing-dim", "--nodes", "@nodes_b4_q_random.json"], NODES, id="vanishing-dim"),
    pytest.param(["verify-nodes", "--nodes", "@cayley_no_surface.json", "--surface", "@surface_ok.txt"],
                 NODES, id="verify-nodes-surface"),
    pytest.param(["symmetroid-scan", "--matrix", "@x_identity_7.json"], NODES | {"symmetroid"},
                 id="scan-matrix"),
    pytest.param(["symmetroid-scan", "--seed", "1", "--prime", "13"], NODES | {"symmetroid", "seeded"},
                 id="scan-seed"),
])
def test_cli_call_loads_only_what_its_subcommand_uses(argv, extra, tmp_path):
    """The process entry, as a user runs it; the ``cli`` module itself runs
    as ``__main__``.  Only a call that loads ``fields`` loads ``fractions``."""
    write_inputs(str(tmp_path))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "nodalcodes.cli",
                           *resolve(argv, str(tmp_path))],
                          capture_output=True, text=True, env=child_env(), timeout=120)
    assert proc.returncode in (0, 1, 2), proc.stderr
    imported = _imported(proc.stderr)
    assert _submodules(imported) == EAGER | extra
    if "fields" not in extra:
        assert not {"fractions", "decimal"} & imported


@pytest.mark.parametrize("name", sorted(HOME))
def test_public_name_is_the_defining_modules_object(name):
    module = importlib.import_module(f"nodalcodes.{HOME[name]}")
    assert getattr(nodalcodes, name) is vars(module)[name]
    assert name in dir(nodalcodes)
    # the generators live in seeded alone; symmetroid never names them
    if HOME[name] in ("seeded", "symmetroid"):
        from nodalcodes import symmetroid
        assert (name in vars(symmetroid)) is (HOME[name] == "symmetroid")


def test_deferred_names_import_in_a_fresh_interpreter():
    # the test above checks each object; this checks `from` on a cold package
    proc = _python(f"from nodalcodes import {', '.join(DEFERRED)}")
    assert proc.returncode == 0, proc.stderr


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
