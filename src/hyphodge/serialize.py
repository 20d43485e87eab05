"""Lossless JSON documents and the flat TSV projection.

Rationals are serialized as ``a/b`` strings, never as floats; Hodge indices,
levels and multiplicities are plain integers.  ``parse_document`` accepts a
document only if every object has exactly the keys schema v1 writes, every
leaf has exactly its JSON type, ``emit_document`` of the parsed view gives
back the input, and each profile holds the classes of the document's params;
else :class:`ValueError` names the first field that differs, such as
``document.profiles.closed.nearby_zero.entries[0].residue``.

One writer spells the compute document: :func:`compute_document_parts`
writes it as compact JSON text, byte for byte what
``json.dumps(doc, separators=(",", ":"))`` writes, with the keys as
literals, integers through f-strings and every other string through
``json.encoder.encode_basestring_ascii``.  It hands the text over cut
where the params go, as the params text and the parts around it, and
:func:`compute_document_text` joins them.  The batch stream writes that
text, and keeps the parts of recent instances to answer the same instance
again in any order of its pairs.  The dict builders
(:func:`build_compute_document`, :func:`emit_document`,
:func:`profile_to_dict`, :func:`table_to_dict`, :func:`params_to_dict`) and
the TSV projection (:func:`tsv_lines`) read the writer's text back with
``json.loads``, so they spell no key of their own.
A table equal to the same slot's table of the profile written just before
it is written once and its text reused, so a ``both`` document whose
engines agree formats the recursive profile's tables not at all.
A profile's ``vanishing_finite`` lists its one table, its ``hodge`` is the
one :class:`~hyphodge.core.HodgeProfile` derives, and a ``both`` report
compares the document's own two profiles: it repeats the document's params
text, and its ``error`` is always ``null``.

Residues go out as they are stored, integer numerators over a denominator.
Exponents of batch lines, of ``compute --alpha/--beta`` and of documents,
and a document's table residues, come in through the memo of
:func:`~hyphodge.core.parse_residue`, each as its reduced residue and its
text; :func:`~hyphodge.core.common_numerators` puts them on their lcm, and
exponent texts go into :attr:`~hyphodge.core.HypergeometricParams.texts`,
where the document finds them.  Only a table residue that is no exponent
is formatted, by :func:`~hyphodge.core.format_residue`.  So past a memo
hit, no batch line or :func:`parse_document` builds or hashes a
``Fraction``, and a batch line formats no exponent over its denominator.
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Collection, Iterable, Mapping
from json.encoder import encode_basestring_ascii as _quote
from math import lcm

from .core import (
    COMPARED,
    EngineReport,
    HodgeProfile,
    HypergeometricParams,
    LocalHodgeTable,
    SingularPoint,
    TableKind,
    common_numerators,
    format_residue,
    parse_residue,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any

SCHEMA_VERSION = "1"
ENGINE_PROFILES = {
    "closed": ("closed",),
    "recursive": ("recursive",),
    "both": ("closed", "recursive"),
}
"""The profiles a document of each engine holds; only ``both`` has a report."""
ENGINES = tuple(ENGINE_PROFILES)
_BOOLS = {True: "true", False: "false"}
_LITERALS = {member: _quote(member.value) for member in (*SingularPoint, *TableKind)}
"""Each point and table kind as the JSON string the writer puts down for it."""


class _Texts(dict):
    """Residue texts keyed by numerator over ``den``, each made on first use.

    A document shares one map over its instance's denominator, seeded with
    the exponent texts the instance carries
    (:attr:`~hyphodge.core.HypergeometricParams.texts`), so only a table
    class that is not an exponent is formatted here, and once.  Each text is
    kept as its JSON string literal.
    """

    def __init__(self, den: int, seed: Mapping[int, str]) -> None:
        super().__init__({r: _quote(text) for r, text in seed.items()})
        self.den = den

    def __missing__(self, r: int) -> str:
        text = self[r] = _quote(format_residue(r, self.den))
        return text


def _texts_over(texts: _Texts, den: int) -> tuple[_Texts, int]:
    """``texts``, or a new map if it is not over a multiple of ``den``, and
    the factor taking a numerator over ``den`` to its key."""
    scale, rest = divmod(texts.den, den)
    if rest:
        return _Texts(den, {}), 1
    return texts, scale


def _table_text(table: LocalHodgeTable, texts: _Texts) -> str:
    texts, scale = _texts_over(texts, table.den)
    entries = ",".join([
        f'{{"residue":{texts[r * scale]},"level":{lv},"p":{p},"mult":{m}}}'
        for (r, lv, p), m in sorted(table.int_entries.items())
    ])
    unknown = ",".join([
        f'{{"residue":{texts[r * scale]},"level":{lv}}}'
        for r, lv in sorted(table.int_unknown)
    ])
    return (
        f'{{"point":{_LITERALS[table.point]},"kind":{_LITERALS[table.kind]},'
        f'"entries":[{entries}],"unknown":[{unknown}]}}'
    )


def table_to_dict(table: LocalHodgeTable) -> dict[str, Any]:
    return json.loads(_table_text(table, _Texts(table.den, {})))


def _leaf(value: Any, kind: type, name: str, convert: Any = None) -> Any:
    """``value``, through ``convert`` if given, if its JSON type is exactly
    ``kind`` (a bool is never an int); else :class:`ValueError` naming ``name``."""
    if type(value) is not kind:
        raise ValueError(f"{name} must have type {kind.__name__}, got {value!r}")
    return value if convert is None else _built(name, convert, value)


def _fields(value: Any, name: str, keys: Collection[str]) -> Any:
    """``value`` if it is an object with exactly ``keys``; else :class:`ValueError`."""
    for key in _leaf(value, dict, name):
        if key not in keys:
            raise ValueError(f"{name} key {key!r} is unexpected")
    if len(value) != len(keys):
        missing = next(key for key in keys if key not in value)
        raise ValueError(f"{name}.{missing} is missing")
    return value


def _built(name: str, make: Any, *args: Any, **kwargs: Any) -> Any:
    """``make(*args, **kwargs)``, its :class:`ValueError` prefixed by ``name``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def _rows(table: Any, name: str, field: str, keys: list[str]) -> list[tuple[Any, ...]]:
    """The rows in ``table[field]``: each its residue's ``(m, d, text)``
    (:func:`~hyphodge.core.parse_residue`), then its ``keys``.  A residue
    must be written as :func:`table_to_dict` writes it."""
    rows = []
    for i, row in enumerate(_leaf(table[field], list, f"{name}.{field}")):
        at = f"{name}.{field}[{i}]"
        _fields(row, at, ["residue", *keys])
        residue = _leaf(row["residue"], str, f"{at}.residue", parse_residue)
        if residue[2] != row["residue"]:
            raise ValueError(f"{at}.residue must be {residue[2]!r}, got {row['residue']!r}")
        rows.append((residue, *(_leaf(row[k], int, f"{at}.{k}") for k in keys)))
    return rows


def table_from_dict(data: Any, name: str = "table") -> LocalHodgeTable:
    """The table in ``data``, at whatever point it names."""
    _fields(data, name, ["point", "kind", "entries", "unknown"])
    point = _leaf(data["point"], str, f"{name}.point", SingularPoint)
    kind = _leaf(data["kind"], str, f"{name}.kind", TableKind)
    rows = _rows(data, name, "entries", ["level", "p", "mult"])
    slots = _rows(data, name, "unknown", ["level"])
    den, nums = common_numerators([row[0] for row in rows + slots])
    entries = {(r, lv, p): m for r, (_res, lv, p, m) in zip(nums, rows)}
    unknown = frozenset((r, lv) for r, (_res, lv) in zip(nums[len(rows) :], slots))
    return _built(name, LocalHodgeTable, point, kind, entries, unknown, den=den)


def _int_map_text(mapping: Mapping[int, int]) -> str:
    """An int-keyed map as a JSON object, its keys the ints' decimal strings."""
    return "{" + ",".join([f'"{p}":{v}' for p, v in sorted(mapping.items())]) + "}"


def _int_map_from_dict(data: Any, name: str) -> dict[int, int]:
    """Inverse of :func:`_int_map_text`, up to the spelling of the keys."""
    return {
        _leaf(key, str, f"{name} key", int): _leaf(value, int, f"{name}[{key}]")
        for key, value in _leaf(data, dict, name).items()
    }


Written = tuple[HodgeProfile, list[str]]
"""A profile already written, and the texts of its three tables and its ``hodge``."""


def _slot_texts(
    profile: HodgeProfile, texts: _Texts, before: Written | None = None
) -> list[str]:
    """The texts of the profile's three tables, in slot order, then its ``hodge``.

    A table equal to the same slot's table of the profile ``before`` reuses
    that text, and so does ``hodge`` when ``nearby_zero`` is equal, as it is
    derived from it.  The tables themselves are compared, so the text is
    right whatever a report says of them.
    """
    tables = profile.tables
    if before is None:
        return [*[_table_text(t, texts) for t in tables], _int_map_text(profile.hodge)]
    written, written_texts = before
    same = [table == old for table, old in zip(tables, written.tables)]
    out = [
        text if reuse else _table_text(table, texts)
        for table, reuse, text in zip(tables, same, written_texts)
    ]
    out.append(written_texts[3] if same[0] else _int_map_text(profile.hodge))
    return out


def _profile_text(profile: HodgeProfile, slots: list[str]) -> str:
    """The profile, ``slots`` being what :func:`_slot_texts` gives for it."""
    nearby_zero, nearby_infinity, vanishing, hodge = slots
    degrees = "null" if profile.degrees is None else _int_map_text(profile.degrees)
    return (
        f'{{"rank":{profile.rank},'
        f'"nearby_zero":{nearby_zero},"nearby_infinity":{nearby_infinity},'
        f'"nearby_finite":[],"vanishing_finite":[{vanishing}],'
        f'"hodge":{hodge},"degrees":{degrees},'
        f'"note":{_quote(profile.note)}}}'
    )


def profile_to_dict(profile: HodgeProfile) -> dict[str, Any]:
    den = lcm(*[t.den for t in profile.tables])
    return json.loads(_profile_text(profile, _slot_texts(profile, _Texts(den, {}))))


def profile_from_dict(data: Any, name: str = "profile") -> HodgeProfile:
    """The profile in ``data``: ``nearby_finite`` empty, ``vanishing_finite`` one
    table, ``hodge`` its own; :class:`~hyphodge.core.HodgeProfile` checks each slot."""
    slots = "nearby_zero nearby_infinity nearby_finite vanishing_finite"
    _fields(data, name, ["rank", *slots.split(), "hodge", "degrees", "note"])
    if _leaf(data["nearby_finite"], list, f"{name}.nearby_finite"):
        raise ValueError(f"{name}.nearby_finite must be empty in schema v1")
    vanishing = _leaf(data["vanishing_finite"], list, f"{name}.vanishing_finite")
    if len(vanishing) != 1:
        raise ValueError(f"{name}.vanishing_finite must hold one table")
    degrees = data["degrees"]
    profile = _built(
        name,
        HodgeProfile,
        _leaf(data["rank"], int, f"{name}.rank"),
        table_from_dict(data["nearby_zero"], f"{name}.nearby_zero"),
        table_from_dict(data["nearby_infinity"], f"{name}.nearby_infinity"),
        table_from_dict(vanishing[0], f"{name}.vanishing_finite[0]"),
        None if degrees is None else _int_map_from_dict(degrees, f"{name}.degrees"),
        _leaf(data["note"], str, f"{name}.note"),
    )
    if _int_map_from_dict(data["hodge"], f"{name}.hodge") != profile.hodge:
        raise ValueError(f"{name}.hodge contradicts its nearby_zero")
    return profile


def _params_text(alpha: Iterable[str], beta: Iterable[str]) -> str:
    """The params as compact JSON text, from each exponent's string literal."""
    return f'{{"alpha":[{",".join(alpha)}],"beta":[{",".join(beta)}]}}'


def _exponent_texts(params: HypergeometricParams) -> _Texts:
    """A fresh map over ``params.den``, seeded with the exponent texts."""
    return _Texts(params.den, params.texts)


def _instance_params_text(params: HypergeometricParams, texts: _Texts) -> str:
    """The params text of ``params``, ``texts`` holding each exponent's
    literal by its numerator."""
    literal = texts.__getitem__
    alpha, beta = params.alpha_numerators, params.beta_numerators
    return _params_text(map(literal, alpha), map(literal, beta))


def params_to_dict(params: HypergeometricParams) -> dict[str, Any]:
    return json.loads(_instance_params_text(params, _exponent_texts(params)))


Residues = list[tuple[int, int, str]]
"""Exponents as :func:`exponents_from_dict` reads them: each its residue
``(m, d, text)`` (:func:`~hyphodge.core.parse_residue`), alpha's then beta's."""


def _integer(value: Any) -> tuple[int, int, str]:
    if isinstance(value, int) and not isinstance(value, bool):
        return 0, 1, "0"
    raise ValueError(f"exponents must be 'a/b' strings, got {value!r}")


def _residues(data: Mapping[str, Any], key: str) -> Residues:
    """The exponents under ``key``, each its residue ``(m, d, text)``."""
    if key not in data:
        raise ValueError(f"missing key {key!r}")
    values = data[key]
    if not isinstance(values, list):
        raise ValueError(f"{key} must be a list of exponents, got {values!r}")
    return [parse_residue(v) if isinstance(v, str) else _integer(v) for v in values]


def exponents_from_dict(data: Any) -> tuple[Residues, int]:
    """The exponents in a ``{"alpha": [...], "beta": [...]}`` JSON object,
    and how many of them are alpha's.

    Anything else (a line that is not an object, a missing key, exponents
    that are not a list of ``a/b`` strings or integers) raises
    :class:`ValueError` naming the problem.  The two lists' lengths are the
    instance's to check (:func:`params_from_residues`).
    """
    if type(data) is not dict and not isinstance(data, Mapping):
        raise ValueError("line must be a JSON object")
    residues = _residues(data, "alpha")
    n = len(residues)
    residues += _residues(data, "beta")
    return residues, n


def params_from_residues(
    residues: Residues, n: int, den: int, nums: list[int]
) -> HypergeometricParams:
    """The instance of exponents :func:`exponents_from_dict` read, its first
    ``n`` alpha's, on ``den, nums = common_numerators(residues)``.

    Each m/d is reduced, so ``den`` is the instance's least common
    denominator; each exponent's text goes to
    :attr:`~hyphodge.core.HypergeometricParams.texts`.
    """
    texts = {r: residue[2] for r, residue in zip(nums, residues)}
    return HypergeometricParams(nums[:n], nums[n:], den=den, texts=texts)


def params_from_dict(data: Any) -> HypergeometricParams:
    """The instance in a ``{"alpha": [...], "beta": [...]}`` JSON object:
    :func:`exponents_from_dict`, then :func:`params_from_residues`."""
    residues, n = exponents_from_dict(data)
    return params_from_residues(residues, n, *common_numerators(residues))


def params_text_from_residues(residues: Residues, n: int) -> str:
    """The params text of exponents :func:`exponents_from_dict` read, as a
    compute document writes them, with no instance built: each exponent is
    its residue's own text."""
    literals = [_quote(text) for _m, _d, text in residues]
    return _params_text(literals[:n], literals[n:])


def _report_rest(report: EngineReport) -> str:
    """The report's text after its ``params``, which repeat the document's."""
    tables = ",".join([f"{_quote(k)}:{_BOOLS[v]}" for k, v in report.table_equal.items()])
    shift = "null" if report.shift is None else report.shift
    return (
        f',"agree":{_BOOLS[report.agree]},"shift":{shift},"tables":{{{tables}}},'
        f'"identities_ok":{_BOOLS[report.identities_ok]},'
        f'"mismatches":[{",".join(map(_quote, report.mismatches))}],"error":null}}'
    )


def report_from_dict(data: Any, name: str = "report") -> EngineReport:
    """The report in ``data``: its ``tables`` flag exactly the compared
    invariants (:data:`~hyphodge.core.COMPARED`), and its ``agree`` and
    ``mismatches`` must be what :class:`EngineReport` derives from them.
    Its ``params`` and ``error`` are its document's to check: the report
    re-emits with the document's params and a null error."""
    keys = "params agree shift tables identities_ok mismatches error"
    _fields(data, name, keys.split())
    shift = data["shift"]
    tables = _fields(data["tables"], f"{name}.tables", COMPARED)
    report = EngineReport(
        None if shift is None else _leaf(shift, int, f"{name}.shift"),
        {k: _leaf(tables[k], bool, f"{name}.tables[{k}]") for k in COMPARED},
        _leaf(data["identities_ok"], bool, f"{name}.identities_ok"),
    )
    agree, mismatches = data["agree"], data["mismatches"]
    if agree is not report.agree:
        raise ValueError(f"{name}.agree contradicts tables, got {agree!r}")
    if mismatches != list(report.mismatches):
        raise ValueError(f"{name}.mismatches contradict tables, got {mismatches!r}")
    return report


_HEAD = f'{{"schema_version":{_quote(SCHEMA_VERSION)},"command":"compute","params":'
"""A compute document's text up to its params."""


def compute_document_parts(
    params: HypergeometricParams,
    engine: str,
    profiles: Mapping[str, HodgeProfile],
    report: EngineReport | None,
    normalization: int,
) -> tuple[str, tuple[str, ...]]:
    """The compute document as compact JSON text, cut where it writes its
    params: the params text, and the parts it goes between.

    ``text.join(parts)`` is the document, byte for byte what
    ``json.dumps(doc, separators=(",", ":"))`` writes for the document
    :func:`build_compute_document` returns.  The params go in once, or
    twice under ``both``, whose report repeats them.  The parts read the
    params only for their exponents' texts, keyed by numerator, and write
    each table in sorted order.  So for profiles and a report that do not
    depend on the order of the pairs, as the engines' do not, the parts are
    the same for every order, and only the params text differs.
    """
    texts = _exponent_texts(params)
    written = []
    before = None
    for name, profile in profiles.items():
        slots = _slot_texts(profile, texts, before)
        before = profile, slots
        written.append(f"{_quote(name)}:{_profile_text(profile, slots)}")
    named = ",".join(written)
    middle = f',"engine":{_quote(engine)},"profiles":{{{named}}},"report":'
    end = f',"normalization":{normalization}}}'
    if report is None:
        parts = _HEAD, f"{middle}null{end}"
    else:
        parts = _HEAD, f'{middle}{{"params":', f"{_report_rest(report)}{end}"
    return _instance_params_text(params, texts), parts


def compute_document_text(
    params: HypergeometricParams,
    engine: str,
    profiles: Mapping[str, HodgeProfile],
    report: EngineReport | None,
    normalization: int,
) -> str:
    """The compute document as compact JSON text: the parts of
    :func:`compute_document_parts` joined around their params text."""
    text, parts = compute_document_parts(params, engine, profiles, report, normalization)
    return text.join(parts)


def build_compute_document(
    params: HypergeometricParams,
    engine: str,
    profiles: Mapping[str, HodgeProfile],
    report: EngineReport | None,
    normalization: int,
) -> dict[str, Any]:
    text = compute_document_text(params, engine, profiles, report, normalization)
    return json.loads(text)


def parse_document(data: Any) -> dict[str, Any]:
    """Typed view of a compute document; inverse of :func:`emit_document`."""
    keys = "schema_version command params engine profiles report normalization"
    _fields(data, "document", keys.split())
    engine = _leaf(data["engine"], str, "document.engine")
    if engine not in ENGINE_PROFILES:
        raise ValueError(f"document.engine must be one of {ENGINES}, got {engine!r}")
    names = ENGINE_PROFILES[engine]
    profiles = _fields(data["profiles"], "document.profiles", names)
    params = _leaf(data["params"], dict, "document.params", params_from_dict)
    parsed = {
        "schema_version": SCHEMA_VERSION,
        "command": "compute",
        "params": params,
        "engine": engine,
        "profiles": {
            n: profile_from_dict(profiles[n], f"document.profiles.{n}") for n in names
        },
        "report": report_from_dict(data["report"], "document.report")
        if engine == "both"
        else None,
        "normalization": _leaf(data["normalization"], int, "document.normalization"),
    }
    _same(emit_document(parsed), data, "document")
    # Each class of the params, as ``(residue over params.den, level, mult)``:
    # an exponent of multiplicity k at level k - 1, and the special drop at 1.
    _den, alpha, beta = params.numerators
    held = {
        "nearby_zero": sorted((a, k - 1, 1) for a, k in Counter(alpha).items()),
        "nearby_infinity": sorted((b, k - 1, 1) for b, k in Counter(beta).items()),
        "vanishing_finite": [(params.special_drop, 0, 1)],
    }
    for n, profile in parsed["profiles"].items():
        for slot, classes in held.items():
            table = getattr(profile, slot)
            scale, rest = divmod(params.den, table.den)
            found = [(r * scale, lv, m) for (r, lv, _p), m in table.int_entries.items()]
            if rest or sorted(found) != classes:
                name = f"document.profiles.{n}.{slot}"
                raise ValueError(f"{name} does not hold the classes of document.params")
    return parsed


def _same(emitted: Any, given: Any, name: str) -> None:
    """Raise :class:`ValueError` at the first place ``given`` is not ``emitted``."""
    if type(given) is not type(emitted):
        raise ValueError(f"{name} must be {emitted!r}, got {given!r}")
    if type(given) is dict:
        _fields(given, name, emitted)
        for key, value in emitted.items():
            _same(value, given[key], f"{name}.{key}")
    elif type(given) is list:
        if len(given) != len(emitted):
            raise ValueError(f"{name} must hold {len(emitted)} items, got {len(given)}")
        for i, (e, g) in enumerate(zip(emitted, given)):
            _same(e, g, f"{name}[{i}]")
    elif given != emitted:
        raise ValueError(f"{name} must be {emitted!r}, got {given!r}")


def emit_document(parsed: Mapping[str, Any]) -> dict[str, Any]:
    """Re-serialize the typed view produced by :func:`parse_document`."""
    return build_compute_document(
        parsed["params"],
        parsed["engine"],
        parsed["profiles"],
        parsed["report"],
        parsed["normalization"],
    )


def document_to_json(doc: Mapping[str, Any], compact: bool = False) -> str:
    # Every document is a tree its caller built fresh, so the encoder's
    # walk for reference cycles would find none.
    if compact:
        return json.dumps(doc, separators=(",", ":"), check_circular=False)
    return json.dumps(doc, indent=2, check_circular=False)


def tsv_lines(
    params: HypergeometricParams,
    profiles: Mapping[str, HodgeProfile],
    normalization: int,
) -> list[str]:
    """Flat projection, one row per table entry, spreadsheet-friendly: read
    back from the writer's text of the exponents and of each profile."""
    texts = _exponent_texts(params)
    exponents = json.loads(_instance_params_text(params, texts))
    lines = [
        "# alpha " + ",".join(exponents["alpha"]),
        "# beta " + ",".join(exponents["beta"]),
        f"# normalization {normalization}",
    ]
    for name, profile in profiles.items():
        doc = json.loads(_profile_text(profile, _slot_texts(profile, texts)))
        lines.append(f"# engine {name}")
        for key in ("hodge", "degrees"):
            if doc[key] is not None:
                pairs = " ".join([f"{p}:{v}" for p, v in doc[key].items()])
                lines.append(f"# {key} {pairs}")
        lines.append("point\tresidue\tlevel\tp\tmult")
        tables = (doc["nearby_zero"], doc["nearby_infinity"], *doc["vanishing_finite"])
        for table in tables:
            for e in table["entries"]:
                lines.append("\t".join([table["point"], *map(str, e.values())]))
    return lines
