"""Lossless JSON documents and the flat TSV projection.

Rationals are serialized as ``a/b`` strings, never as floats; Hodge indices,
levels and multiplicities are plain integers.  ``parse_document`` accepts a
document only if every object has exactly the keys schema v1 writes, every
leaf has exactly its JSON type, and ``emit_document`` of the parsed view
gives back the input; else :class:`ValueError` names the first field that
differs, such as ``document.profiles.closed.nearby_zero.entries[0].residue``.

One writer spells the compute document: :func:`compute_document_text`
writes it as compact JSON text, byte for byte what
``json.dumps(doc, separators=(",", ":"))`` writes, with the keys as
literals, integers through f-strings and every other string through
``json.encoder.encode_basestring_ascii``.  The batch stream writes that
text.  The dict builders (:func:`build_compute_document`,
:func:`emit_document`, :func:`profile_to_dict`, :func:`table_to_dict`,
:func:`params_to_dict`) are its parsed view, the ``json.loads`` of the
writer's text, so they spell no key of their own.

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
from json.encoder import encode_basestring_ascii as _quote
from math import lcm
from typing import Any, Callable, Collection, Mapping

from .core import (
    AT_ONE,
    COMPARED,
    INFINITY,
    ZERO,
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
    kept as ``write`` gives it: the writer keeps JSON string literals, the
    TSV projection the bare texts.
    """

    def __init__(
        self, den: int, seed: Mapping[int, str], write: Callable[[str], str] = _quote
    ) -> None:
        super().__init__({r: write(text) for r, text in seed.items()})
        self.den = den
        self.write = write

    def __missing__(self, r: int) -> str:
        text = self[r] = self.write(format_residue(r, self.den))
        return text


def _texts_over(texts: _Texts, den: int) -> tuple[_Texts, int]:
    """``texts``, or a new map of its kind if it is not over a multiple of
    ``den``, and the factor taking a numerator over ``den`` to its key."""
    scale, rest = divmod(texts.den, den)
    if rest:
        return _Texts(den, {}, texts.write), 1
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


def _profile_text(profile: HodgeProfile, texts: _Texts) -> str:
    vanishing = ",".join([_table_text(t, texts) for t in profile.vanishing_finite])
    degrees = "null" if profile.degrees is None else _int_map_text(profile.degrees)
    return (
        f'{{"rank":{profile.rank},'
        f'"nearby_zero":{_table_text(profile.nearby_zero, texts)},'
        f'"nearby_infinity":{_table_text(profile.nearby_infinity, texts)},'
        f'"nearby_finite":[],"vanishing_finite":[{vanishing}],'
        f'"hodge":{_int_map_text(profile.hodge)},"degrees":{degrees},'
        f'"note":{_quote(profile.note)}}}'
    )


def profile_to_dict(profile: HodgeProfile) -> dict[str, Any]:
    den = lcm(*[t.den for t in profile.tables])
    return json.loads(_profile_text(profile, _Texts(den, {})))


def profile_from_dict(data: Any, name: str = "profile") -> HodgeProfile:
    """The profile in ``data``, each of its three tables in its own slot."""
    slots = "nearby_zero nearby_infinity nearby_finite vanishing_finite"
    _fields(data, name, ["rank", *slots.split(), "hodge", "degrees", "note"])
    if _leaf(data["nearby_finite"], list, f"{name}.nearby_finite"):
        raise ValueError(f"{name}.nearby_finite must be empty in schema v1")
    vanishing = _leaf(data["vanishing_finite"], list, f"{name}.vanishing_finite")
    if len(vanishing) != 1:
        raise ValueError(f"{name}.vanishing_finite must hold one table")
    tables = []
    for field, value, point, kind in (
        ("nearby_zero", data["nearby_zero"], ZERO, TableKind.NEARBY),
        ("nearby_infinity", data["nearby_infinity"], INFINITY, TableKind.NEARBY),
        ("vanishing_finite[0]", vanishing[0], AT_ONE, TableKind.VANISHING),
    ):
        tables.append(table_from_dict(value, f"{name}.{field}"))
        if (tables[-1].point, tables[-1].kind) != (point, kind):
            raise ValueError(
                f"{name}.{field} must be the {kind.value} table at {point.value}"
            )
    degrees = data["degrees"]
    return _built(
        name,
        HodgeProfile,
        _leaf(data["rank"], int, f"{name}.rank"),
        *tables[:2],
        tables[2:],
        _int_map_from_dict(data["hodge"], f"{name}.hodge"),
        None if degrees is None else _int_map_from_dict(degrees, f"{name}.degrees"),
        _leaf(data["note"], str, f"{name}.note"),
    )


def _params_text(params: HypergeometricParams, texts: _Texts) -> str:
    """The exponents, ``texts`` holding each one's literal by its numerator."""
    alpha = ",".join(map(texts.__getitem__, params.alpha_numerators))
    beta = ",".join(map(texts.__getitem__, params.beta_numerators))
    return f'{{"alpha":[{alpha}],"beta":[{beta}]}}'


def _exponent_texts(params: HypergeometricParams) -> _Texts:
    """A fresh map over ``params.den``, seeded with the exponent texts."""
    return _Texts(params.den, params.texts)


def params_to_dict(params: HypergeometricParams) -> dict[str, Any]:
    return json.loads(_params_text(params, _exponent_texts(params)))


def params_from_dict(data: Any) -> HypergeometricParams:
    """The instance in a ``{"alpha": [...], "beta": [...]}`` JSON object.

    Anything else (a line that is not an object, a missing key, exponents
    that are not a list of ``a/b`` strings or integers) raises
    :class:`ValueError` naming the problem.
    """
    if not isinstance(data, Mapping):
        raise ValueError("line must be a JSON object")

    def integer(value: Any) -> tuple[int, int, str]:
        if isinstance(value, int) and not isinstance(value, bool):
            return 0, 1, "0"
        raise ValueError(f"exponents must be 'a/b' strings, got {value!r}")

    def many(key: str) -> list[tuple[int, int, str]]:
        """The exponents under ``key``, each its residue ``(m, d, text)``."""
        if key not in data:
            raise ValueError(f"missing key {key!r}")
        values = data[key]
        if not isinstance(values, list):
            raise ValueError(f"{key} must be a list of exponents, got {values!r}")
        return [parse_residue(v) if isinstance(v, str) else integer(v) for v in values]

    residues = many("alpha")
    n = len(residues)
    residues += many("beta")
    # Each m/d is reduced, so the lcm of the denominators is the instance's
    # least common denominator.
    den, nums = common_numerators(residues)
    texts = {r: residue[2] for r, residue in zip(nums, residues)}
    return HypergeometricParams(nums[:n], nums[n:], den=den, texts=texts)


def _report_text(report: EngineReport, texts: _Texts) -> str:
    """The report; ``texts`` is the exponent map of ``report.params``."""
    tables = ",".join([f"{_quote(k)}:{_BOOLS[v]}" for k, v in report.table_equal.items()])
    shift = "null" if report.shift is None else report.shift
    error = "null" if report.error is None else _quote(report.error)
    return (
        f'{{"params":{_params_text(report.params, texts)},'
        f'"agree":{_BOOLS[report.agree]},"shift":{shift},"tables":{{{tables}}},'
        f'"identities_ok":{_BOOLS[report.identities_ok]},'
        f'"mismatches":[{",".join(map(_quote, report.mismatches))}],"error":{error}}}'
    )


def report_from_dict(
    data: Any, params: HypergeometricParams, name: str = "report"
) -> EngineReport:
    """The report in ``data`` on ``params``, its document's instance; its
    ``agree`` and ``mismatches`` must be what :class:`EngineReport` derives,
    and without an ``error`` its ``tables`` flag exactly the compared
    invariants (:data:`~hyphodge.core.COMPARED`)."""
    keys = "params agree shift tables identities_ok mismatches error"
    _fields(data, name, keys.split())
    shift, error = data["shift"], data["error"]
    tables = _leaf(data["tables"], dict, f"{name}.tables")
    if error is None:
        _fields(tables, f"{name}.tables", COMPARED)
    report = EngineReport(
        params,
        None if shift is None else _leaf(shift, int, f"{name}.shift"),
        {k: _leaf(v, bool, f"{name}.tables[{k}]") for k, v in tables.items()},
        _leaf(data["identities_ok"], bool, f"{name}.identities_ok"),
        None if error is None else _leaf(error, str, f"{name}.error"),
    )
    agree, mismatches = data["agree"], data["mismatches"]
    if agree is not report.agree:
        raise ValueError(f"{name}.agree contradicts tables and error, got {agree!r}")
    if mismatches != list(report.mismatches):
        raise ValueError(f"{name}.mismatches contradict tables, got {mismatches!r}")
    return report


def compute_document_text(
    params: HypergeometricParams,
    engine: str,
    profiles: Mapping[str, HodgeProfile],
    report: EngineReport | None,
    normalization: int,
) -> str:
    """The compute document as compact JSON text: byte for byte what
    ``json.dumps(doc, separators=(",", ":"))`` writes for the document
    :func:`build_compute_document` returns."""
    texts = _exponent_texts(params)
    named = ",".join(
        [f"{_quote(name)}:{_profile_text(p, texts)}" for name, p in profiles.items()]
    )
    report_text = "null"
    if report is not None:
        own = texts if report.params is params else _exponent_texts(report.params)
        report_text = _report_text(report, own)
    return (
        f'{{"schema_version":{_quote(SCHEMA_VERSION)},"command":"compute",'
        f'"params":{_params_text(params, texts)},"engine":{_quote(engine)},'
        f'"profiles":{{{named}}},"report":{report_text},"normalization":{normalization}}}'
    )


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
        "report": report_from_dict(data["report"], params, "document.report")
        if engine == "both"
        else None,
        "normalization": _leaf(data["normalization"], int, "document.normalization"),
    }
    _same(emit_document(parsed), data, "document")
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
    """Flat projection: one row per table entry, spreadsheet-friendly."""
    texts = _Texts(params.den, params.texts, str)
    lines = [
        "# alpha " + ",".join([texts[a] for a in params.alpha_numerators]),
        "# beta " + ",".join([texts[b] for b in params.beta_numerators]),
        f"# normalization {normalization}",
    ]
    for name, profile in profiles.items():
        lines.append(f"# engine {name}")
        lines.append(
            "# hodge " + " ".join(f"{p}:{v}" for p, v in sorted(profile.hodge.items()))
        )
        if profile.degrees is not None:
            lines.append(
                "# degrees "
                + " ".join(f"{p}:{v}" for p, v in sorted(profile.degrees.items()))
            )
        lines.append("point\tresidue\tlevel\tp\tmult")
        for table in profile.tables:
            label = table.point.value
            table_texts, scale = _texts_over(texts, table.den)
            for (r, lv, p), m in sorted(table.int_entries.items()):
                lines.append(f"{label}\t{table_texts[r * scale]}\t{lv}\t{p}\t{m}")
    return lines
