import json
import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest

from hyphodge import (
    HypergeometricParams,
    SingularPoint,
    profile_closed,
    profile_recursive,
    verify_cross_engine,
)
from hyphodge.cli import _compute, _compute_text
from hyphodge.core import frac, parse_rational
from hyphodge.serialize import (
    ENGINES,
    build_compute_document,
    compute_document_text,
    document_to_json,
    emit_document,
    parse_document,
    params_from_dict,
    profile_from_dict,
    profile_to_dict,
    table_from_dict,
    table_to_dict,
    tsv_lines,
)
from conftest import disjoint_pool_instance, random_irreducible, residue_grid

F = Fraction

PARAMS = HypergeometricParams((F(0), F(1, 2)), (F(1, 4), F(3, 4)))


def make_document(params, engine="both"):
    profiles = {}
    if engine in ("closed", "both"):
        profiles["closed"] = profile_closed(params)
    if engine in ("recursive", "both"):
        profiles["recursive"] = profile_recursive(params)
    report = verify_cross_engine(params) if engine == "both" else None
    return build_compute_document(params, engine, profiles, report, 0)


class TestRoundTrips:
    def test_table(self):
        prof = profile_recursive(PARAMS)
        for table in (prof.nearby_zero, prof.nearby_infinity, *prof.vanishing_finite):
            assert table_from_dict(table_to_dict(table)) == table

    def test_table_with_unknown_slots(self):
        from hyphodge.combinatorics import conjugate_table
        from hyphodge.convolution import ConvolutionContext, convolve_nearby_infinity

        table = convolve_nearby_infinity(
            conjugate_table(profile_closed(PARAMS).nearby_infinity),
            ConvolutionContext(F(1, 3)),
        )
        assert table.unknown
        assert table_from_dict(table_to_dict(table)) == table

    def test_profile(self):
        for prof in (profile_closed(PARAMS), profile_recursive(PARAMS)):
            assert profile_from_dict(profile_to_dict(prof)) == prof

    def test_document_parse_emit_identity(self, rng):
        for _ in range(15):
            params = random_irreducible(rng, rng.randint(1, 3), 6)
            doc = make_document(params)
            assert emit_document(parse_document(doc)) == doc

    def test_document_json_round_trip(self):
        doc = make_document(PARAMS)
        text = document_to_json(doc)
        recovered = json.loads(text)
        assert recovered == doc
        assert emit_document(parse_document(recovered)) == doc
        assert document_to_json(emit_document(parse_document(recovered))) == text
        assert recovered["profiles"]["closed"]["nearby_finite"] == []

    @pytest.mark.parametrize("text", ["finite:3", "finite:0", "pole", "x2", ""])
    def test_point_rejects_unknown_names(self, text):
        with pytest.raises(ValueError):
            SingularPoint(text)

    def test_profile_rejects_nearby_finite_tables(self):
        data = profile_to_dict(profile_closed(PARAMS))
        data["nearby_finite"] = [table_to_dict(profile_closed(PARAMS).nearby_zero)]
        with pytest.raises(ValueError):
            profile_from_dict(data)


def closed_table(doc):
    return doc["profiles"]["closed"]["nearby_zero"]


def closed_entry(doc):
    return closed_table(doc)["entries"][0]


def recursive_profile(doc):
    return doc["profiles"]["recursive"]


# Each mutation writes a value schema v1 never emits for the named field;
# all of these used to be coerced without a word.
NEVER_EMITTED = [
    (lambda d: closed_entry(d).update(level=0.9), "level"),
    (lambda d: closed_entry(d).update(level=True), "level"),
    (lambda d: closed_entry(d).update(p="2"), "p"),
    (lambda d: closed_entry(d).update(mult=1.0), "mult"),
    (lambda d: closed_entry(d).update(residue=0), "residue"),
    (lambda d: recursive_profile(d).update(rank="2"), "rank"),
    (lambda d: d.update(normalization=True), "normalization"),
    (lambda d: d["report"].update(agree="false"), "agree"),
    (lambda d: d["report"].update(identities_ok=1), "identities_ok"),
    (lambda d: d["report"]["tables"].update(hodge="true"), "tables[hodge]"),
    (lambda d: d["report"].update(shift=0.0), "shift"),
    (lambda d: d["report"].update(mismatches="hodge"), "mismatches"),
    (lambda d: recursive_profile(d).update(hodge={"2": 2.0}), "hodge[2]"),
    (lambda d: recursive_profile(d).update(hodge={" 2": 2}), "hodge key"),
    (lambda d: recursive_profile(d).update(hodge={"+2": 2}), "hodge key"),
    (lambda d: recursive_profile(d).update(degrees={"1_0": -2}), "degrees key"),
    (lambda d: recursive_profile(d).update(degrees={"-0": -2}), "degrees key"),
    (lambda d: recursive_profile(d).update(degrees={"2": False}), "degrees[2]"),
    (lambda d: d["params"].update(alpha=[0, "1/2"]), "params.alpha"),
    (lambda d: d["report"]["params"].update(beta=["1/4", 1]), "report.params.beta"),
    (lambda d: d.update(command=7), "command"),
    (lambda d: d.update(engine=5), "engine"),
    (lambda d: d.update(engine="bogus"), "engine"),
    (lambda d: recursive_profile(d).update(note=5), "note"),
    (lambda d: d["report"].update(error=5), "error"),
    (lambda d: closed_table(d).pop("unknown"), "unknown"),
    (lambda d: recursive_profile(d).update(hodge=[2]), "hodge"),
    (lambda d: recursive_profile(d).update(degrees="1"), "degrees"),
    (lambda d: d["report"].update(agree=False), "agree contradicts"),
    (lambda d: d["report"].update(mismatches=["hodge"]), "mismatches contradict"),
    (lambda d: d.update(profiles=5), "document.profiles must have type dict"),
    (lambda d: d["report"].update(tables=5), "report.tables must have type dict"),
    (lambda d: closed_table(d).update(entries=5), "entries must have type list"),
    (
        lambda d: recursive_profile(d).update(vanishing_finite=5),
        "vanishing_finite must have type list",
    ),
    (lambda d: d.pop("command"), "document.command is missing"),
    (lambda d: d["profiles"].pop("recursive"), "document.profiles.recursive"),
    (lambda d: d.update(engine="closed"), "document.profiles key 'recursive'"),
    (
        lambda d: (d.update(engine="closed"), d["profiles"].pop("recursive")),
        "document.report must be None",
    ),
    (
        lambda d: closed_table(d)["entries"][1].update(residue="2/4"),
        "entries[1].residue",
    ),
    (lambda d: closed_entry(d).update(extra=1), "key 'extra' is unexpected"),
    (
        lambda d: closed_table(d).update(point="one"),
        "nearby_zero must be the nearby table at zero",
    ),
    (
        lambda d: recursive_profile(d)["nearby_infinity"].update(kind="vanishing"),
        "nearby_infinity must be the nearby table at infinity",
    ),
    (
        lambda d: recursive_profile(d).update(vanishing_finite=[]),
        "vanishing_finite must hold one table",
    ),
    # Without an error, a report flags exactly the four compared invariants.
    (lambda d: d["report"].update(tables={}), "document.report.tables.nearby_zero"),
    (lambda d: d["report"]["tables"].pop("hodge"), "document.report.tables.hodge"),
]


SWEEP_VALUES = [5, "x", True, None, 1.0, [], {}, "2/4", -1, "1/3"]


def strict(doc):
    """JSON text of ``doc``, where a bool never equals an int, nor a float an int."""
    return json.dumps(doc, sort_keys=True)


def one_field_changes(doc):
    """Copies of ``doc`` that each differ from it at one place: a value
    replaced by one of ``SWEEP_VALUES``, a key deleted, an extra key added
    to an object, or a list of two or more items reversed."""

    def walk(node, path):
        yield path, node
        if type(node) is dict:
            for key, value in node.items():
                yield from walk(value, (*path, key))
        elif type(node) is list:
            for i, value in enumerate(node):
                yield from walk(value, (*path, i))

    def edited(path, edit):
        root = {"doc": json.loads(json.dumps(doc))}
        holder, key = root, "doc"
        for step in path:
            holder, key = holder[key], step
        edit(holder, key)
        return root["doc"]

    for path, node in walk(doc, ()):
        for value in SWEEP_VALUES:
            yield edited(path, lambda holder, key: holder.__setitem__(key, value))
        if path and type(path[-1]) is str:
            yield edited(path, lambda holder, key: holder.pop(key))
        if type(node) is dict:
            yield edited(path, lambda holder, key: holder[key].update(extra=1))
        if type(node) is list and len(node) > 1:
            yield edited(path, lambda holder, key: holder[key].reverse())


class TestStrictParsing:
    @pytest.mark.parametrize(
        "mutate, field", NEVER_EMITTED, ids=[field for _, field in NEVER_EMITTED]
    )
    def test_rejects_what_schema_v1_never_emits(self, mutate, field):
        doc = make_document(PARAMS)
        mutate(doc)
        with pytest.raises(ValueError, match=re.escape(field)):
            parse_document(doc)

    def test_every_one_field_change_is_rejected_or_round_trips(self):
        built = accepted = 0
        for alpha, beta in (("0,1/3", "1/2,2/3"), ("0,0,1/4", "1/2,1/2,3/4")):
            exponents = {"alpha": alpha.split(","), "beta": beta.split(",")}
            params = params_from_dict(exponents)
            for engine in ("closed", "recursive", "both"):
                for doc in one_field_changes(make_document(params, engine)):
                    built += 1
                    try:
                        parsed = parse_document(doc)
                    except ValueError:
                        continue
                    accepted += 1
                    assert strict(emit_document(parsed)) == strict(doc), doc
        # A few changes still make a valid document (a note of "x", a table
        # flag deleted while agree stays true); nearly all must be refused.
        assert built > 5000 and 0 < accepted < built // 10

    @pytest.mark.parametrize("text", ["5/4", "-3/4"])
    def test_residue_outside_the_unit_interval_names_its_field(self, text):
        # A residue is read mod 1 and written reduced, so the unreduced
        # text is refused at its own field.
        doc = make_document(PARAMS)
        table = doc["profiles"]["closed"]["nearby_infinity"]
        assert table["entries"][0]["residue"] == "1/4"
        table["entries"][0]["residue"] = text
        field = "document.profiles.closed.nearby_infinity.entries[0].residue"
        with pytest.raises(ValueError, match=re.escape(f"{field} must be '1/4', got '{text}'")):
            parse_document(doc)
        # The table alone is refused too; it is not read mod 1 without a word.
        with pytest.raises(ValueError, match=re.escape("t.entries[0].residue must be '1/4'")):
            table_from_dict(table, "t")

    def test_accepts_a_null_shift(self):
        doc = make_document(PARAMS)
        doc["report"]["shift"] = None
        assert parse_document(doc)["report"].shift is None


class TestJsonHygiene:
    def test_no_floating_point_tokens(self, rng):
        float_token = re.compile(r"\d+\.\d+|[eE][+-]\d")
        for _ in range(10):
            params = random_irreducible(rng, rng.randint(1, 4), 8)
            text = document_to_json(make_document(params))
            assert not float_token.search(text), text

    def test_rationals_are_strings(self):
        doc = make_document(PARAMS)
        entry = doc["profiles"]["closed"]["nearby_zero"]["entries"][0]
        assert isinstance(entry["residue"], str)

    def test_params_rejects_floats(self):
        with pytest.raises(ValueError):
            params_from_dict({"alpha": [0.5], "beta": ["1/2"]})


def seeded_cases():
    """Batch lines as objects, each with the ``Fraction`` exponents it
    stands for: every residue of the denominator-64 grid, the accepted
    spellings of a residue, JSON integers, and a text too long to memoize."""
    grid = [str(r) for r in residue_grid(64)]
    # Eight distinct residues, four against four, make an irreducible line;
    # the last line overlaps the one before it to reach the grid's end.
    starts = [*range(0, len(grid) - 8, 8), len(grid) - 8]
    lines = [{"alpha": grid[i : i + 4], "beta": grid[i + 4 : i + 8]} for i in starts]
    for text in ["2/4", "-1/8", "5/2", "\u22121/3", " 1/2 ", "+3/4", "0/5", "6/3"]:
        lines.append({"alpha": [text, "1/7"], "beta": ["2/7", "3/7"]})
    lines.append({"alpha": [0, 3, -2], "beta": ["1/3", "1/2", "2/3"]})
    lines.append({"alpha": [" " * 40 + "1/3", "1/3"], "beta": ["1/5", "3/5"]})

    def value(v):
        return F(v) if type(v) is int else parse_rational(v)

    return [(line, [[value(v) for v in line[k]] for k in ("alpha", "beta")]) for line in lines]


@pytest.mark.parametrize("engine", ["closed", "both"])
def test_seeded_texts_match_formatted_ones(engine):
    # The batch parser hands each exponent's text to the document; a params
    # built from ``Fraction``s formats its own.  The bytes must not differ.
    cases = seeded_cases()
    covered = {frac(v) for _line, exponents in cases for values in exponents for v in values}
    assert covered >= set(residue_grid(64))
    for line, (alpha, beta) in cases:
        seeded = params_from_dict(json.loads(json.dumps(line)))
        formatted = HypergeometricParams(alpha, beta)
        assert "texts" in vars(seeded) and "texts" not in vars(formatted)
        assert seeded == formatted
        ours = _compute_text(seeded, engine, False)
        theirs = _compute_text(formatted, engine, False)
        assert ours == theirs, line


def compact(doc):
    return json.dumps(doc, separators=(",", ":"))


class TestWriter:
    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_text_is_the_compact_dump_of_its_view(self, engine, normalize):
        rng = random.Random(f"writer:{engine}:{normalize}")
        for _ in range(12):
            params = disjoint_pool_instance(rng, rng.randint(1, 6), 12)
            answer = _compute(params, engine, normalize)
            text = compute_document_text(params, engine, *answer)
            assert text == compact(build_compute_document(params, engine, *answer))
            assert text == compact(json.loads(text))

    def test_library_texts_are_escaped_as_json_dumps_escapes_them(self):
        # Texts given with ``texts=`` are written as given, so the writer
        # must escape them: a quote, a backslash, a control character and
        # characters outside ASCII.
        texts = {0: 'a"b', 1: "c\\d", 2: "e\x01f\n", 3: "\u00e9\u22121/4\U0001d54f"}
        params = HypergeometricParams((0, 1), (2, 3), den=4, texts=texts)
        assert params.texts is texts
        profiles, report, shift = _compute(params, "both", False)
        profiles = {name: replace(p, note='tab\there "\u00fc"') for name, p in profiles.items()}
        report = replace(report, error="\\ \u2603 \x7f")
        text = compute_document_text(params, "both", profiles, report, shift)
        assert text.isascii()
        assert text == compact(build_compute_document(params, "both", profiles, report, shift))
        assert text == compact(json.loads(text))
        doc = json.loads(text)
        assert doc["params"] == {"alpha": ['a"b', "c\\d"], "beta": ["e\x01f\n", texts[3]]}
        assert doc["report"]["params"] == doc["params"]
        assert doc["report"]["error"] == report.error
        assert doc["profiles"]["closed"]["note"] == 'tab\there "\u00fc"'
        for literal in (r'"a\"b"', r'"c\\d"', r'"e\u0001f\n"', r'"\u00e9\u22121/4\ud835\udd4f"'):
            assert literal in text, literal
        residues = {e["residue"] for e in doc["profiles"]["closed"]["nearby_zero"]["entries"]}
        assert residues == {'a"b', "c\\d"}


class TestTsv:
    def test_shape(self):
        prof = profile_closed(PARAMS)
        lines = tsv_lines(PARAMS, {"closed": prof}, 0)
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "point\tresidue\tlevel\tp\tmult"
        rows = [l for l in lines if not l.startswith("#")][1:]
        expected_rows = sum(
            len(t.entries)
            for t in (prof.nearby_zero, prof.nearby_infinity, *prof.vanishing_finite)
        )
        assert len(rows) == expected_rows
        for row in rows:
            fields = row.split("\t")
            assert len(fields) == 5
            assert fields[0] in ("zero", "one", "infinity")
