"""The engines share only the data model: package imports read with ``ast``."""

import ast
import importlib.util
import json
import random
import sys
from pathlib import Path

import hyphodge
from conftest import random_irreducible
from hyphodge.core import LocalHodgeTable
from hyphodge.recursion import _profile_of_pairs

PACKAGE = Path(hyphodge.__file__).resolve().parent
BENCH_RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def package_imports(module: str) -> dict[str, set[str]]:
    """Names imported from each sibling module, keyed by that module."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    out: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.setdefault(node.module, set()).update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hyphodge"):
            raise AssertionError(f"{module} imports {node.module} absolutely")
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("hyphodge") for a in node.names), module
    return out


def test_convolution_uses_only_the_data_model():
    assert set(package_imports("convolution")) == {"core"}


def test_closed_engine_never_reaches_the_recursive_engine():
    for module in ("closed_form", "combinatorics"):
        assert not set(package_imports(module)) & {"convolution", "recursion"}, module


def test_closed_engine_reads_only_the_data_model():
    assert set(package_imports("closed_form")) == {"core"}


def test_serialize_reads_only_the_data_model():
    # The report record is plain data: serializing it needs no engine.
    assert set(package_imports("serialize")) == {"core"}
    assert hyphodge.core.EngineReport is hyphodge.recursion.EngineReport is hyphodge.EngineReport


PRODUCT = ("cli", "core", "closed_form", "convolution", "recursion", "serialize")


def test_package_import_graph():
    # Product code and reference code are apart: the engines share only the
    # data model, which holds the check, and no product module reads the
    # reference counts of ``combinatorics``.
    graph = {module: set(package_imports(module)) for module in (*PRODUCT, "__init__")}
    assert graph["core"] == set()
    for module in ("closed_form", "convolution", "serialize"):
        assert graph[module] == {"core"}, module
    assert graph["recursion"] == {"core", "convolution", "closed_form"}
    assert graph["cli"] == {"core", "closed_form", "recursion", "serialize"}
    assert not graph["__init__"] & {"combinatorics", "convolution"}
    for module in PRODUCT:
        assert "combinatorics" not in graph[module], module


def test_recursive_engine_takes_only_the_comparison_from_the_closed_engine():
    imports = package_imports("recursion")
    assert imports.get("closed_form") == {"profile_closed"}
    assert "combinatorics" not in imports
    assert "count_identities_hold" not in imports.get("core", set())


def users_of(module: str, names: set[str]) -> set[tuple[str | None, str]]:
    """``(top-level definition, name)`` for each use of ``names`` in ``module``
    outside its import lines."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    users = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            continue
        for inner in ast.walk(node):
            if isinstance(inner, ast.Name) and inner.id in names:
                users.add((getattr(node, "name", None), inner.id))
    return users


def test_only_the_comparison_reaches_the_closed_engine_and_the_identities():
    # The engine code of ``recursion`` reads the data model and the rows; the
    # closed engine is used by the cross-engine run at its bottom only, and
    # the identity check by the comparison in ``core`` only.
    borrowed = {"profile_closed", "count_identities_hold"}
    assert users_of("recursion", borrowed) == {("verify_cross_engine", "profile_closed")}
    assert users_of("core", borrowed) == {("compare_profiles", "count_identities_hold")}


def test_check_in_core_and_reference_helpers_in_combinatorics():
    from hyphodge import combinatorics, core, serialize

    for name in ("compare_profiles", "count_identities_hold"):
        assert getattr(hyphodge, name) is getattr(core, name)
        assert getattr(core, name).__module__ == "hyphodge.core"
    for name in ("conjugate_table", "kept_totals", "class_totals"):
        assert getattr(combinatorics, name).__module__ == "hyphodge.combinatorics"
        assert not hasattr(core, name), name
    assert not hasattr(serialize, "report_to_dict")
    # The package exports the product; reference names live in their modules.
    for name in ("nonseparated_count", "dualize_table", "class_totals", "zero_row",
                 "convolve_nearby_zero", "ConvolutionContext"):
        assert not hasattr(hyphodge, name), name


def test_identity_check_cannot_borrow_the_closed_sweep():
    # The index identities count pair by pair; reading them by bisection, or
    # from the closed engine, would check the closed formula against itself.
    holder = sys.modules[hyphodge.count_identities_hold.__module__]
    tree = ast.parse(Path(holder.__file__).read_text(encoding="utf-8"))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules.add(node.module or "")
            if node.module is None:
                modules.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            modules.update(a.name for a in node.names)
    assert not modules & {"bisect", "closed_form"}, modules


def test_recursive_engine_reads_rows_not_table_transforms():
    imports = package_imports("recursion")
    assert not imports.get("convolution", set()) & {
        "convolve_nearby_zero",
        "convolve_nearby_infinity",
        "convolve_degrees",
        "twist_degrees",
        "convolve_vanishing_finite",
        "ConvolutionContext",
    }
    assert "table_shift" not in imports.get("core", set())


def test_recursive_engine_stays_on_integers():
    # Residues are numerators over one common denominator until the three
    # returned tables are built; no fractional part is ever taken.
    assert "frac" not in package_imports("recursion")["core"]


def test_recursive_profile_builds_only_its_own_three_tables(monkeypatch):
    # Every link of the chain works on integer classes; the only tables are
    # the returned profile's nearby tables and its vanishing table.
    builds = []
    validate = LocalHodgeTable.__post_init__

    def counted(table):
        builds.append(table.point)
        validate(table)

    monkeypatch.setattr(LocalHodgeTable, "__post_init__", counted)
    rng = random.Random(20261018)
    for n in (2, 3, 5, 9):
        den, alpha, beta = random_irreducible(rng, n, 8).numerators
        builds.clear()
        _profile_of_pairs.__wrapped__(den, tuple(sorted(zip(alpha, beta))))
        assert len(builds) == 3, (n, builds)


BATCH_LINES = [
    # A closed line of rank 12 with repeated classes, a both line of rank 5.
    ('{"alpha":["1/7","1/7","3/8","5/6","0","0","2/9","11/12","1/7","3/8","7/10","4/5"],'
     '"beta":["1/2","2/3","2/3","5/12","1/4","1/4","3/5","1/11","9/11","1/2","6/7","1/3"]}',
     "closed"),
    ('{"alpha":["0","1/3","1/3","-1/8","5/2"],"beta":["1/4","2/5","2/5","5/6","1/6"]}', "both"),
]


def count_fractions(monkeypatch) -> dict[str, int]:
    """Counts of ``Fraction.__new__`` and ``Fraction.__hash__`` calls from
    here on, as the test's ``monkeypatch`` installs the counters."""
    from fractions import Fraction

    counts = {"__new__": 0, "__hash__": 0}
    new, hash_ = Fraction.__new__, Fraction.__hash__

    def counted_new(cls, *args, **kwargs):
        counts["__new__"] += 1
        return new(cls, *args, **kwargs)

    def counted_hash(self):
        counts["__hash__"] += 1
        return hash_(self)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
    monkeypatch.setattr(Fraction, "__hash__", counted_hash)
    Fraction(1, 2), hash(Fraction(1, 3))  # the counters themselves work
    assert counts == {"__new__": 2, "__hash__": 1}
    counts.update({"__new__": 0, "__hash__": 0})
    return counts


def test_batch_path_builds_and_hashes_no_fraction(monkeypatch):
    # Past the parse memo, every residue on a batch line is an int numerator:
    # nothing between ``json.loads`` and the answer's text builds or hashes a
    # Fraction.  The warm-up fills the memo, the only place one is built.
    from hyphodge.cli import _compute_text
    from hyphodge.serialize import params_from_dict

    def answer(line: str, engine: str, normalize: bool) -> str:
        params = params_from_dict(json.loads(line))
        params.require_irreducible()
        return _compute_text(params, engine, normalize)

    cases = [(line, engine, normalize) for line, engine in BATCH_LINES for normalize in (False, True)]
    warm = [answer(*case) for case in cases]
    counts = count_fractions(monkeypatch)
    assert [answer(*case) for case in cases] == warm
    assert counts == {"__new__": 0, "__hash__": 0}


def test_document_read_builds_and_hashes_no_fraction(monkeypatch):
    # Exponents and table residues of a document go through the same memo
    # as batch lines, so past a warm-up reading one builds no Fraction.
    from hyphodge.cli import _compute_text
    from hyphodge.serialize import ENGINES, params_from_dict, parse_document

    line = '{"alpha":["0","1/3","-1/8","5/2"],"beta":["1/4","2/5","5/6","1/6"]}'
    params = params_from_dict(json.loads(line))
    docs = [json.loads(_compute_text(params, engine, False)) for engine in ENGINES]
    assert [doc["engine"] for doc in docs] == ["closed", "recursive", "both"]
    for doc in docs:
        parse_document(doc)
    counts = count_fractions(monkeypatch)
    for doc in docs:
        parse_document(doc)
    assert counts == {"__new__": 0, "__hash__": 0}


def test_one_reader_of_texts():
    # Every exponent and residue text is read by ``core.parse_residue``.
    for module in ("cli", "serialize"):
        assert "parse_rational" not in package_imports(module)["core"], module
    assert not hasattr(hyphodge, "format_rational")
    assert not hasattr(hyphodge.core, "format_rational")


def test_closed_line_formats_no_exponent(monkeypatch):
    # The parser hands each exponent's text to the document, so past a
    # warm-up only a residue that is no exponent is formatted: on a closed
    # line, the special exponent's class at 1.  Both bindings of
    # ``format_residue`` are counted: serialize formats the table classes,
    # core the exponents of a params that carries no texts.
    from hyphodge import core, serialize
    from hyphodge.cli import _compute_text
    from hyphodge.serialize import params_from_dict

    line, engine = BATCH_LINES[0]

    def answer(normalize: bool) -> str:
        params = params_from_dict(json.loads(line))
        return _compute_text(params, engine, normalize)

    warm = [answer(normalize) for normalize in (False, True)]
    calls = []
    for module in (core, serialize):

        def counted(r, den, real=module.format_residue):
            calls.append(r)
            return real(r, den)

        monkeypatch.setattr(module, "format_residue", counted)
    for normalize, expected in zip((False, True), warm):
        calls.clear()
        assert answer(normalize) == expected
        assert len(calls) <= 1, calls


def bounded_caches() -> set[str]:
    """``module.function`` of every ``lru_cache`` in the package.

    Fails on ``functools.cache`` and on an ``lru_cache`` whose ``maxsize`` is
    not a positive integer literal: an unbounded memo would let memory grow
    across batch lines.
    """
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        calls = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                assert "cache" not in {a.name for a in node.names}, path.name
            elif isinstance(node, ast.Attribute) and node.attr == "cache":
                assert not (isinstance(node.value, ast.Name) and node.value.id == "functools")
            elif isinstance(node, ast.Call) and _names_lru_cache(node.func):
                calls.add(node.func)
                sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
                assert len(sizes) == 1, f"{path.name}:{node.lineno} needs one maxsize"
                (size,) = sizes
                assert (
                    isinstance(size, ast.Constant) and type(size.value) is int and size.value > 0
                ), f"{path.name}:{node.lineno} maxsize is not a positive integer"
        for node in ast.walk(tree):
            if _names_lru_cache(node):
                assert node in calls, f"{path.name}:{node.lineno} lru_cache without maxsize"
            if isinstance(node, ast.FunctionDef):
                if any(isinstance(d, ast.Call) and d.func in calls for d in node.decorator_list):
                    found.add(f"{path.stem}.{node.name}")
    return found


def _names_lru_cache(node: ast.AST) -> bool:
    return (isinstance(node, ast.Name) and node.id == "lru_cache") or (
        isinstance(node, ast.Attribute) and node.attr == "lru_cache"
    )


def test_every_cache_is_bounded():
    # Exactly these: a lost cache and a new one both show here.
    assert bounded_caches() == {"core._residue", "recursion._profile_of_pairs"}


def test_no_check_vanishes_under_optimize():
    # ``python -O`` strips ``assert`` statements; every check in the package
    # raises explicitly instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def package_bindings() -> dict[tuple[str, str], object]:
    """Every module attribute of the loaded package, and the three hooks
    ``install_tracing`` patches on classes."""
    out = {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "hyphodge" or name.startswith("hyphodge.")
        for attr, value in vars(module).items()
    }
    for cls in (hyphodge.LocalHodgeTable, hyphodge.HypergeometricParams, hyphodge.HodgeProfile):
        out[(cls.__name__, "__post_init__")] = vars(cls)["__post_init__"]
    return out


def test_benchmark_trace_resolves_its_names_and_uninstalls():
    # ``bench/run.py --trace 1`` looks the spanned functions up by fixed name
    # in their modules; a deleted or moved name fails here first.
    saved_path = sys.path[:]
    spec = importlib.util.spec_from_file_location("hyphodge_bench_run", BENCH_RUN)
    run = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(run)
    finally:
        sys.path[:] = saved_path
    tracer = run.Tracer()
    before = package_bindings()
    run.install_tracing(tracer)
    try:
        during = package_bindings()
        wrapped = {key for key, value in before.items() if during[key] is not value}
        assert ("hyphodge.combinatorics", "nonseparated_count") in wrapped
        assert ("hyphodge.convolution", "convolve_nearby_zero") in wrapped
        assert ("HodgeProfile", "__post_init__") in wrapped
    finally:
        tracer.uninstall()
    after = package_bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
