"""What each command executes, and the package's public names.

``cohomology``, ``extensions``, ``generators`` and ``sequences`` are lazy
modules: registered in ``sys.modules`` when the package is imported,
executed on first attribute access.  Which of them a command executes is
observed in a fresh interpreter, since this one has already run them all.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import trialg

SRC = Path(trialg.__file__).resolve().parents[1]
LAZY = ("cohomology", "extensions", "generators", "sequences")
MODULES = ("algebra", "algfile", "cli", "fields", "linalg") + LAZY

# Runs each command through trialg.cli.main in turn; after each, records its
# exit code, which lazy modules have been executed, and whether
# ``dataclasses`` (with the inspect, ast and dis it imports) has been
# loaded.  A lazy module that has not been executed is not a
# types.ModuleType; anything that reads its attributes, vars() included,
# would execute it.
PROBE = """
import json, sys, types
import trialg.cli

def executed():
    return sorted(n for n in {lazy} if type(sys.modules["trialg." + n]) is types.ModuleType)

report = {{"registered": sorted(n for n in sys.modules if n.startswith("trialg.")),
          "steps": [["import", None, executed(), "dataclasses" in sys.modules]]}}
for argv in json.loads(sys.argv[1]):
    rc = trialg.cli.main(argv)
    report["steps"].append([argv[0] + ":" + argv[-1].rsplit("/", 1)[-1], rc, executed(),
                            "dataclasses" in sys.modules])
sys.stdout.flush()
sys.stderr.write("\\n" + json.dumps(report) + "\\n")
""".format(lazy=repr(LAZY))


def probe(*argvs):
    path = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stderr.strip().splitlines()[-1])


DIM2 = {"field": "Q", "dim": 2, "products": [{"op": "vdash", "i": 0, "j": 0, "value": ["0", "1"]}]}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_validate_and_invariants_execute_no_lazy_module(tmp_path):
    valid = write(tmp_path, "dim2.json", DIM2)
    invalid = write(tmp_path, "bad.json", {
        "field": "Q", "dim": 2, "products": [{"op": "vdash", "i": 0, "j": 1, "value": ["1", "0"]}]})
    malformed = write(tmp_path, "dup.json", {
        "field": "Q", "dim": 1, "products": [{"op": "vdash", "i": 0, "j": 0, "value": ["1"]}] * 2})
    report = probe(["validate", valid], ["invariants", valid], ["validate", malformed],
                   ["invariants", malformed], ["validate", invalid], ["invariants", invalid],
                   ["h2", valid])
    # The benchmark's tracer looks every module up right after this import.
    assert report["registered"] == sorted(f"trialg.{m}" for m in MODULES)
    # No step loads dataclasses: the package's records are plain classes.
    assert report["steps"] == [
        ["import", None, [], False],
        ["validate:dim2.json", 0, [], False],
        ["invariants:dim2.json", 0, [], False],
        ["validate:dup.json", 2, [], False],
        ["invariants:dup.json", 2, [], False],
        ["validate:bad.json", 1, [], False],
        ["invariants:bad.json", 1, [], False],
        ["h2:dim2.json", 0, ["cohomology"], False],
    ]


def test_commands_execute_the_modules_they_use(tmp_path):
    valid = write(tmp_path, "dim2.json", DIM2)
    report = probe(["zstar", valid], ["verify", "--z", "e2", valid])
    assert report["steps"][1:] == [
        ["zstar:dim2.json", 0, ["cohomology", "extensions"], False],
        ["verify:dim2.json", 0, ["cohomology", "extensions", "sequences"], False],
    ]


# Every name trialg exports, by the module that defines it.
PUBLIC = {
    "algebra": [
        "AxiomReport", "AxiomViolation", "DASHV", "IDENTITIES", "InvalidAlgebraError",
        "MalformedAlgebraError", "NotAnIdealError", "OPS", "PERP",
        "QuotientAlgebra", "TriAlgebra", "VDASH", "change_basis", "check_dim_bounds",
        "dimension_bound_table", "hom_to_field", "identity_str", "is_ideal",
        "product_subspace", "quotient_algebra",
    ],
    "algfile": ["AlgebraFileError", "emit", "load", "parse", "save"],
    "cohomology": [
        "CochainTriple", "CohomologyResult", "NotACocycleError", "NotASectionError",
        "b2_space", "cocycle_defects", "h2", "section_cocycle", "z2_space",
    ],
    "extensions": [
        "CentralExtension", "CoverResult", "StemImageReport", "build_central_extension",
        "cover", "cover_fingerprint", "extension_algebra", "is_unicentral",
        "stem_center_image_check", "z_star",
    ],
    "fields": ["GF", "QQ", "FieldMismatchError", "PrimeField", "RationalField", "parse_field"],
    "generators": [
        "abelian", "cover_abelian", "dim2_single_product", "random_extension", "unital_dim1",
    ],
    "linalg": [
        "ContainmentError", "Matrix", "Subspace", "inverse", "kernel", "rank", "rref",
        "solve_right",
    ],
    "sequences": [
        "NotCentralIdealError", "delta_map", "inf1", "inf2", "res", "stallings_check", "tra",
        "tra_image_check", "unicentrality_criteria", "verify_five_term", "verify_inf_delta",
    ],
}


def test_public_names_are_unchanged():
    listed = dir(trialg)
    for module_name, names in PUBLIC.items():
        module = importlib.import_module(f"trialg.{module_name}")
        assert getattr(trialg, module_name) is module
        assert module_name in listed
        for name in names:
            namespace = {}
            exec(f"from trialg import {name} as value", namespace)
            assert namespace["value"] is getattr(module, name), name
            assert name in listed, name
    star = {}
    exec("from trialg import *", star)
    assert {n for names in PUBLIC.values() for n in names} <= set(star)
    assert trialg.__version__ == "0.1.0"


def test_module_all_lists_hold_the_package_exports():
    """``from trialg.<module> import *`` gives every name the package
    exports from that module."""
    missing = [f"{module_name}.{name}" for module_name, names in trialg._EXPORTS.items()
               for name in names if name not in importlib.import_module(f"trialg.{module_name}").__all__]
    assert not missing, missing


def test_exceptions_keep_their_public_homes():
    import trialg.generators
    import trialg.sequences

    assert trialg.sequences.NotCentralIdealError is trialg.NotCentralIdealError
    assert issubclass(trialg.generators.NoCocyclesError, ValueError)
    assert trialg.sequences.verify_five_term is trialg.verify_five_term


ROOT = Path(__file__).resolve().parents[1]

# Functions and methods that neither the package nor the benchmark calls
# and README.md does not name, each with the reason it stays.
KEEP = {
    "_check_value": "argparse hook: cli._Parser quotes a bad choice through fields._echo",
    "cover_fingerprint": "ROADMAP item 7: criterion 7's pre-filter until an isomorphism certificate replaces it",
    "stem_center_image_check": "the paper's center-image criterion, run by the acceptance suite",
    **dict.fromkeys(("inf1", "res", "tra", "inf2", "delta_map"), "one accessor API of the five sequence maps"),
    # Test-only, but linalg.py keeps its size: without these two the module
    # compiles into a heap that leaves h2's peak RSS 0.3 MB higher.
    "matvec": "linalg.py's size holds peak_rss_mb (CHANGES.md)",
    "coordinates": "linalg.py's size holds peak_rss_mb (CHANGES.md)",
    "column": "linalg.py's size holds peak_rss_mb (CHANGES.md)",
}


def _bound(function) -> set:
    """The names ``function`` binds: its parameters and assignment targets."""
    args = function.args
    names = {a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg] if a}
    return names | {node.id for node in ast.walk(function)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}


def _owner(node: ast.Attribute) -> str | None:
    """The last name of what ``node`` reads from: ``m`` in ``m.f`` and ``a.m.f``."""
    value = node.value
    return value.id if isinstance(value, ast.Name) else value.attr if isinstance(value, ast.Attribute) else None


class _Uses:
    """What trees read as code: bare names that no enclosing function binds
    (a local variable calls nothing), imported names, ``(owner, name)`` of
    attribute reads and of attribute calls, and the names of data
    attributes: assigned on an object or in a class body (NamedTuple fields
    included)."""

    def __init__(self, trees):
        self.names, self.imported, self.data, self.reads, self.calls = set(), set(), set(), set(), set()
        for tree in trees:
            self._scan(tree, frozenset())

    def _scan(self, node, bound):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            bound = bound | _bound(node)
        if isinstance(node, ast.ImportFrom):
            self.imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ClassDef):
            for stmt in node.body:
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
                self.data |= {t.id for t in targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            self.calls.add((_owner(node.func), node.func.attr))
        elif isinstance(node, ast.Attribute):
            if isinstance(node.ctx, ast.Store):
                self.data.add(node.attr)
            else:
                self.reads.add((_owner(node), node.attr))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in bound:
            self.names.add(node.id)
        for child in ast.iter_child_nodes(node):
            self._scan(child, bound)


def _readme_name(span: str) -> str | None:
    """The function a README code span names: the span is that name, a
    dotted name ending in it, or a call of either."""
    try:
        node = ast.parse(span, mode="eval").body
    except SyntaxError:
        return None
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def test_every_function_has_a_caller_or_a_reason():
    """Each function or method of ``src/trialg`` (dunders aside) is used as
    code in the package or in ``perfbench/``, named by a code span of
    README.md, or listed in KEEP: helpers only the tests call live in the
    tests.

    A function is used through a bare name that no enclosing function
    binds, an import of its name or ``<module>.name``.  A method of class
    C is used through ``C.name``, which counts for C alone, or an attribute
    of any other receiver; when the name is also a data attribute, only a
    call ``x.name(...)`` counts there, though a property is read, not
    called.  Methods that share a name on receivers the source does not
    type (``Matrix.is_zero``, ``Subspace.is_zero``) still pass for each
    other."""
    package = sorted((ROOT / "src" / "trialg").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in package}
    uses = _Uses([*trees.values(), *(ast.parse(p.read_text()) for p in (ROOT / "perfbench").glob("*.py"))])
    classes = {node.name for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    qualifiers = classes | {path.stem for path in package}

    def used(function, cls, module) -> bool:
        name = function.name
        if cls is None:
            return name in uses.names or name in uses.imported or (module, name) in uses.reads
        if (cls, name) in uses.reads:
            return True
        prop = any(getattr(d, "id", None) in ("property", "cached_property") for d in function.decorator_list)
        pool = uses.calls if name in uses.data and not prop else uses.reads
        return any(attr == name and owner not in qualifiers for owner, attr in pool)

    readme = {_readme_name(span) for span in re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text())}
    uncalled = []
    for path, tree in trees.items():
        methods = {id(item): node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                   for item in node.body}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))
                    and not used(node, methods.get(id(node)), path.stem)
                    and node.name not in readme and node.name not in KEEP):
                uncalled.append(f"{path.name}:{node.lineno} {node.name}")
    assert not uncalled, uncalled


def test_compare_trees_commands_stand_in_the_ci_step():
    """Each CI command that ``tests/compare_trees.py`` runs is still in the
    console-script step of the CI workflow, once its ``$RUNNER_TEMP/``
    paths are read as files of the working directory."""
    import compare_trees

    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    step = workflow.split("- name: Console script", 1)[1].split("- name:", 1)[0]
    step = re.sub(r'"\$RUNNER_TEMP/([^"]*)"', r"\1", step).replace("$RUNNER_TEMP/", "")
    step = step.replace("$nines", compare_trees.NINES).replace("$long", compare_trees.LONG)
    missing = [cmd for cmd in compare_trees.CI_COMMANDS if cmd not in step]
    missing += [args for args in compare_trees.CI_INPUT_ERRORS if f'"{args}"' not in step]
    assert not missing, missing
