"""Rules about the package as a whole: its public names, each used by a
command, a suite or the benchmark, no runtime check that `python -O`
would strip, text read in one place, above the maths, and benchmark
records at the repository root that name what they measured."""

import ast
import inspect
import json
from pathlib import Path

import torusbv
from torusbv.laurent import SparseStore

SRC = Path(torusbv.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"

# Change this list only on purpose: every name here is public surface.
PUBLIC_NAMES = [
    "CE1Cochain",
    "DensityRepSpec",
    "FiniteSl2Module",
    "GlMatrixElement",
    "LaurentPoly",
    "ParseError",
    "PolyVector",
    "RankMismatchError",
    "bv_delta",
    "bv_delta_divergence",
    "cartan_subalgebra",
    "ce_differential_check",
    "check_irreducible",
    "extract_finite_sl2_submodule",
    "format_polyvector",
    "gerstenhaber_bracket",
    "identify_with_density_model",
    "is_cocycle_on_window",
    "parse_laurent",
    "parse_polyvector",
    "restrict_from_projective",
    "rho_apply",
    "root_grading",
    "shift_isomorphism_check",
    "solve_forced_action",
    "verify_lie_action",
    "verify_lie_embedding",
    "wedge",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(torusbv.__all__) == PUBLIC_NAMES
    assert [name for name in PUBLIC_NAMES if not hasattr(torusbv, name)] == []


# public methods that only the tests call, kept on purpose:
# `FiniteSl2Module.unchecked` builds the chains that the checked
# constructor rejects (reducible chains, permuted weights, non-int entries)
TEST_ONLY_METHODS = ["FiniteSl2Module.unchecked"]


def names_read_by_the_program_and_the_benchmark():
    """Every name read, as a name or an attribute, in a module of the
    package other than `__init__` or in the benchmark (whose own tests do
    not count)."""
    files = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    files += [p for p in BENCH.glob("*.py") if p.name != "test_bench.py"]
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def public_methods():
    """`Class.method` for each public method, classmethod and staticmethod
    that a public class defines or inherits from a class of the package."""
    found = set()
    for name in torusbv.__all__:
        cls = getattr(torusbv, name)
        if not inspect.isclass(cls):
            continue
        for base in cls.__mro__:
            if not base.__module__.startswith("torusbv."):
                continue
            for attr, value in vars(base).items():
                if not attr.startswith("_") and (
                    inspect.isfunction(value) or isinstance(value, (classmethod, staticmethod))
                ):
                    found.add(f"{name}.{attr}")
    return sorted(found)


def test_every_public_name_is_used_by_the_program_or_the_benchmark():
    """A public name that only its definition and the tests use is surface
    that nothing holds up."""
    used = names_read_by_the_program_and_the_benchmark()
    assert [name for name in torusbv.__all__ if name not in used] == []


def test_every_public_method_is_used_by_the_program_or_the_benchmark():
    """The same rule for the methods and classmethods of the public
    classes, with the one decided exception."""
    used = names_read_by_the_program_and_the_benchmark()
    methods = public_methods()
    assert "LaurentPoly.monomial" in methods and "PolyVector.zero" in methods
    unused = [m for m in methods if m.rpartition(".")[2] not in used]
    assert unused == TEST_ONLY_METHODS


def test_library_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_both_stores_share_one_constructor_and_one_subtraction():
    """`SparseStore` holds the one validating constructor and `__sub__`;
    a second copy in a subclass would not come back unseen."""
    for name in ("__init__", "__sub__"):
        assert name in vars(SparseStore)
        assert name not in vars(torusbv.LaurentPoly) and name not in vars(torusbv.PolyVector)


# `parsing` holds the whole text grammar: polyvectors, coefficients and
# the fields of a cocycle spec
REGEX_MODULES = ["parsing.py"]


def test_only_the_text_modules_import_re():
    """The arithmetic layer takes numbers only, so a second copy of the
    grammar (in `laurent`, say) shows up as an `import re`."""
    found = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module] if node.level == 0 else []
            else:
                continue
            if "re" in names:
                found.add(path.name)
    assert sorted(found) == REGEX_MODULES


# the maths, and the text and shell layers above it
MATH_MODULES = ["bvalgebra", "cocycle", "densityrep", "floermodel", "laurent", "liealg", "matrix"]
SHELL_MODULES = {"cli", "parsing", "suites"}


def module_level_imports(path):
    """Each module named by an import statement at the top level of `path`,
    as the dotted names it could mean (`from . import cli` gives `cli`)."""
    names = set()
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names.add(base)
            names.update(f"{base}.{alias.name}".lstrip(".") for alias in node.names)
    return names


def test_no_math_module_imports_the_text_or_shell_layers():
    """Text, suites and the CLI sit above the maths, so a math module that
    imports one at module level would be a cycle in the making; the one
    call-time link is `SparseStore.__str__`, which formats through
    `parsing`."""
    assert sorted(p.stem for p in SRC.glob("*.py")) == sorted(
        ["__init__", *MATH_MODULES, *SHELL_MODULES]
    )
    found = [
        f"{name}.py imports {imported}"
        for name in MATH_MODULES
        for imported in sorted(module_level_imports(SRC / f"{name}.py"))
        if SHELL_MODULES & set(imported.split("."))
    ]
    assert found == []


RECORD_KEYS = {"name", "claim", "commits", "command", "machine", "method", "python"}


def test_every_benchmark_record_names_its_run_and_claim():
    """Each root `BENCH_*.json` parses, is named after its file, and says
    which commits it compared, how and where; a claimed gain names a
    workload and an end-to-end metric that `BENCHMARK.json` declares."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in declared["workloads"]}
    metrics = {m["name"] for m in declared["end_to_end"]}
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        record = json.loads(path.read_text())
        assert isinstance(record, dict), path.name
        assert RECORD_KEYS <= record.keys(), (path.name, sorted(RECORD_KEYS - record.keys()))
        assert record["name"] == path.stem.removeprefix("BENCH_"), path.name
        assert isinstance(record["commits"], dict), path.name
        assert {"parent", "change"} <= record["commits"].keys(), path.name
        claim = record["claim"]
        if isinstance(claim, dict):
            assert claim.get("workload") in workloads, (path.name, claim)
            assert claim.get("metric") in metrics, (path.name, claim)
