"""The engines share only the data model: package imports read with ``ast``."""

import argparse
import ast
import importlib.util
import inspect
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import hyphodge
from conftest import random_irreducible
from hyphodge.cli import _memo
from hyphodge.closed_form import profile_closed
from hyphodge.core import HypergeometricParams, LocalHodgeTable
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


PRODUCT = ("cli", "core", "closed_form", "recursion", "serialize")


def test_package_import_graph():
    # Product code and reference code are apart: the engines share only the
    # data model, which holds the check, and no product module reads either
    # reference module, ``combinatorics`` or ``convolution``.
    graph = {module: set(package_imports(module)) for module in (*PRODUCT, "__init__")}
    assert graph["core"] == set()
    for module in ("closed_form", "serialize"):
        assert graph[module] == {"core"}, module
    assert graph["recursion"] == {"core", "closed_form"}
    assert graph["cli"] == {"core", "closed_form", "recursion", "serialize"}
    for module in (*PRODUCT, "__init__"):
        assert not graph[module] & {"combinatorics", "convolution"}, module


def test_recursive_engine_takes_only_the_comparison_from_the_closed_engine():
    imports = package_imports("recursion")
    assert imports.get("closed_form") == {"profile_closed"}
    assert "combinatorics" not in imports
    assert "fibre_mismatches" not in imports.get("core", set())


def test_recursive_engine_imports_nothing_from_convolution():
    # The engine steps each class, and carries degrees and the vanishing
    # entry, with its own arithmetic: neither the rows nor the table-level
    # transforms, nor the table shift of the data model.
    imports = package_imports("recursion")
    assert "convolution" not in imports
    assert "table_shift" not in imports["core"]


HEAVY_MODULES = ("dataclasses", "inspect", "fractions", "decimal")
"""Standard modules the command line never needs: slow to import, and
``Fraction`` is only the library's boundary."""

FIRST_ANSWERS = """\
import json, sys
from hyphodge import cli
cli.main(["batch"])
print(json.dumps(sorted(set(sys.modules))), file=sys.stderr)
from hyphodge.closed_form import special_exponent
from hyphodge.core import parse_rational
params = cli.params_from_dict({"alpha": ["1/3"], "beta": ["1/2"]})
built = [params.alpha[0], params.beta[0], special_exponent(params), parse_rational("2/4")]
print(json.dumps([type(value).__module__ for value in built]), file=sys.stderr)
"""
"""A child that answers its batch lines, names the modules then loaded, and
then builds a ``Fraction`` through each library view."""


def test_command_line_loads_no_reference_module():
    # A fresh interpreter that imports the command line and answers one
    # batch line per engine, each a miss of the parse memo, as every compute
    # and batch run does, leaves both reference modules and the heavy
    # standard modules unloaded.  The library's ``Fraction`` views load
    # ``fractions`` when they are read.
    lines = [
        {"alpha": ["0", "1/3"], "beta": ["1/2", "3/4"], "engine": "closed"},
        {"alpha": ["1/5", "-2/5"], "beta": ["1/7", "002/7"], "engine": "recursive"},
        {"alpha": ["\u22121/9", "4/9"], "beta": ["5/11", "6/11"], "engine": "both"},
    ]
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    child = subprocess.run(
        [sys.executable, "-S", "-c", FIRST_ANSWERS],
        input="".join(json.dumps(line) + "\n" for line in lines),
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    answers = [json.loads(answer) for answer in child.stdout.splitlines()]
    assert [answer["engine"] for answer in answers] == ["closed", "recursive", "both"]
    assert answers[2]["report"]["agree"], answers[2]
    loaded, built = map(json.loads, child.stderr.splitlines())
    assert "hyphodge.cli" in loaded
    assert not {"hyphodge.convolution", "hyphodge.combinatorics"} & set(loaded)
    assert not set(HEAVY_MODULES) & set(loaded)
    assert built == ["fractions"] * 4


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
    # The engine code of ``recursion`` reads only the data model; the closed
    # engine is used by the cross-engine run at its bottom only.  The fibre
    # law is spelled once, in ``core``: the comparison reads it there and
    # ``verify`` reads it from there, and no other module sums a table.
    borrowed = {"profile_closed", "fibre_mismatches"}
    assert users_of("recursion", borrowed) == {("verify_cross_engine", "profile_closed")}
    assert users_of("core", borrowed) == {("compare_profiles", "fibre_mismatches")}
    laws = {"fibre_mismatches", "hodge_numbers"}
    assert users_of("cli", laws) == {("_instance_failures", "fibre_mismatches")}


def test_check_in_core_and_reference_helpers_in_combinatorics():
    from hyphodge import combinatorics, core, serialize

    for name in ("compare_profiles", "fibre_mismatches"):
        assert getattr(hyphodge, name) is getattr(core, name)
        assert getattr(core, name).__module__ == "hyphodge.core"
    # The count identity is a reference check: criterion 02 runs it.
    assert not hasattr(hyphodge, "count_identities_hold")
    assert not hasattr(core, "count_identities_hold")
    for name in ("conjugate_table", "kept_totals", "class_totals"):
        assert getattr(combinatorics, name).__module__ == "hyphodge.combinatorics"
        assert not hasattr(core, name), name
    assert not hasattr(serialize, "report_to_dict")
    # The package exports the product; reference names live in their modules.
    for name in ("nonseparated_count", "dualize_table", "class_totals", "zero_row",
                 "convolve_nearby_zero", "ConvolutionContext"):
        assert not hasattr(hyphodge, name), name


def test_the_check_reads_only_the_profiles():
    # The report's every flag is read from the two profiles: neither the
    # comparison nor the fibre law takes or reads the instance.
    signature = inspect.signature(hyphodge.compare_profiles)
    assert list(signature.parameters) == ["closed", "recursive"]
    tree = ast.parse((PACKAGE / "core.py").read_text(encoding="utf-8"))
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("compare_profiles", "fibre_mismatches"):
        read = {n.id for n in ast.walk(defs[name]) if isinstance(n, ast.Name)}
        read |= {a.arg for a in ast.walk(defs[name]) if isinstance(a, ast.arg)}
        assert not read & {"params", "HypergeometricParams"}, name


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
        _profile_of_pairs(den, tuple(sorted(zip(alpha, beta))))
        assert len(builds) == 3, (n, builds)


def test_engine_tables_arrive_reduced(monkeypatch):
    # Each engine divides its classes down to their least denominator, so
    # the constructor's check finds nothing left to reduce.
    shared = []
    validate = LocalHodgeTable.__post_init__

    def recorded(table):
        residues = [r for r, _lv, _p in table.int_entries] + [r for r, _lv in table.int_unknown]
        shared.append(gcd(table.den, *residues))
        validate(table)

    monkeypatch.setattr(LocalHodgeTable, "__post_init__", recorded)
    sixths = [Fraction(k, 6) for k in (1, 3, 2, 2)]
    transvection = HypergeometricParams(sixths[:2], sixths[2:])
    assert transvection.special_drop == 0
    rng = random.Random(20261019)
    instances = [transvection]
    instances += [random_irreducible(rng, rng.randint(1, 9), 24) for _ in range(200)]
    for params in instances:
        den, alpha, beta = params.numerators
        shared.clear()
        profiles = (
            profile_closed(params),
            _profile_of_pairs(den, tuple(sorted(zip(alpha, beta)))),
        )
        assert shared == [1] * 6, (params, shared)
        if params is transvection:
            # Special drop 0: the vanishing entry's residue is 0, over 1.
            assert [p.vanishing_finite.den for p in profiles] == [1, 1]


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
    for case in cases:
        remembered(*case)
    hits = _memo.cache_info().hits
    counts = count_fractions(monkeypatch)
    assert [answer(*case) for case in cases] == warm
    assert counts == {"__new__": 0, "__hash__": 0}
    # A memo hit writes only the line's params around the kept parts.
    assert [remembered(*case) for case in cases] == warm
    assert counts == {"__new__": 0, "__hash__": 0}
    assert _memo.cache_info().hits == hits + len(cases)


def remembered(line: str, engine: str, normalize: bool) -> str:
    """The batch stream's answer to ``line``, through the memo."""
    from hyphodge.cli import _batch_answer

    return _batch_answer(line, argparse.Namespace(engine=engine, normalize=normalize))


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
    for normalize in (False, True):
        remembered(line, engine, normalize)
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
    # A memo hit formats nothing: the kept parts hold every table class.
    hits = _memo.cache_info().hits
    for normalize, expected in zip((False, True), warm):
        calls.clear()
        assert remembered(line, engine, normalize) == expected
        assert calls == []
    assert _memo.cache_info().hits == hits + 2


def bounded_caches() -> set[str]:
    """``module.function`` of every ``lru_cache`` in the package.

    Fails on ``functools.cache`` and on an ``lru_cache`` whose ``maxsize`` is
    not a positive integer literal: an unbounded memo would let memory grow
    across batch lines.
    """
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
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
    assert bounded_caches() == {"core._residue", "cli._memo"}


def test_no_check_vanishes_under_optimize():
    # ``python -O`` strips ``assert`` statements; every check in the package
    # raises explicitly instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def test_every_import_is_read():
    # No linter is a dependency: every name a package module imports is read
    # in that module.  ``__init__`` imports names to re-export them, and a
    # ``__future__`` import switches on behaviour, so neither is scanned.
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) == "__future__":
                    continue
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in read:
                        unread.append(f"{path.name}:{node.lineno} {name}")
    assert not unread, unread


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
    # The tracer imports the reference modules it spans, which no product
    # module loads; load them first so that ``before`` holds their bindings.
    import hyphodge.combinatorics
    import hyphodge.convolution

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
