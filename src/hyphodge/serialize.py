"""Lossless JSON documents and the flat TSV projection.

Rationals are serialized as ``a/b`` strings, never as floats; Hodge indices,
levels and multiplicities are plain integers.  ``parse_document`` inverts
``emit`` exactly on compute-style documents and accepts only the JSON types
schema v1 emits: a value of another type raises :class:`ValueError` naming
its field.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Mapping

from .core import (
    EngineReport,
    HodgeProfile,
    HypergeometricParams,
    LocalHodgeTable,
    SingularPoint,
    TableKind,
    format_rational,
    parse_rational,
)

SCHEMA_VERSION = "1"
ENGINES = ("closed", "recursive", "both")


def table_to_dict(table: LocalHodgeTable) -> dict[str, Any]:
    return {
        "point": table.point.value,
        "kind": table.kind.value,
        "entries": [
            {
                "residue": format_rational(r),
                "level": lv,
                "p": p,
                "mult": m,
            }
            for (r, lv, p), m in table.sorted_items()
        ],
        "unknown": [
            {"residue": format_rational(r), "level": lv}
            for r, lv in sorted(table.unknown)
        ],
    }


def _int(value: Any, name: str) -> int:
    """``value`` if it is a JSON integer (not a bool); else :class:`ValueError`."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _flag(value: Any, name: str) -> bool:
    """``value`` if it is a JSON ``true`` or ``false``; else :class:`ValueError`."""
    if type(value) is not bool:
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return value


def _text(value: Any, name: str) -> str:
    """``value`` if it is a JSON string; else :class:`ValueError`."""
    if type(value) is not str:
        raise ValueError(f"{name} must be a string, got {value!r}")
    return value


def _choice(value: Any, name: str, allowed: tuple[str, ...]) -> str:
    """``value`` if it is one of the strings ``allowed``; else :class:`ValueError`."""
    if type(value) is not str or value not in allowed:
        raise ValueError(f"{name} must be one of {', '.join(allowed)}, got {value!r}")
    return value


def _list(value: Any, name: str) -> list[Any]:
    """``value`` if it is a JSON array; else :class:`ValueError`."""
    if type(value) is not list:
        raise ValueError(f"{name} must be a list, got {value!r}")
    return value


def _texts(value: Any, name: str) -> tuple[str, ...]:
    if type(value) is not list or any(type(v) is not str for v in value):
        raise ValueError(f"{name} must be a list of strings, got {value!r}")
    return tuple(value)


def _residue(value: Any) -> Fraction:
    return parse_rational(_text(value, "residue"))


def table_from_dict(data: Mapping[str, Any]) -> LocalHodgeTable:
    return LocalHodgeTable(
        SingularPoint(data["point"]),
        TableKind(data["kind"]),
        {
            (
                _residue(e["residue"]),
                _int(e["level"], "level"),
                _int(e["p"], "p"),
            ): _int(e["mult"], "mult")
            for e in data["entries"]
        },
        frozenset(
            (_residue(u["residue"]), _int(u["level"], "level"))
            for u in _list(data.get("unknown"), "unknown")
        ),
    )


def _int_map_to_dict(mapping: Mapping[int, int]) -> dict[str, int]:
    return {str(p): v for p, v in sorted(mapping.items())}


def _int_map_from_dict(data: Any, name: str) -> dict[int, int]:
    """Inverse of :func:`_int_map_to_dict`: keys must be written as it writes them."""
    if type(data) is not dict:
        raise ValueError(f"{name} must be an object, got {data!r}")
    out = {}
    for key, value in data.items():
        try:
            p = int(key)
        except (TypeError, ValueError):
            p = None
        if p is None or str(p) != key:
            raise ValueError(f"{name} key must be a decimal integer, got {key!r}")
        out[p] = _int(value, f"{name}[{key}]")
    return out


def profile_to_dict(profile: HodgeProfile) -> dict[str, Any]:
    return {
        "rank": profile.rank,
        "nearby_zero": table_to_dict(profile.nearby_zero),
        "nearby_infinity": table_to_dict(profile.nearby_infinity),
        "nearby_finite": [],
        "vanishing_finite": [table_to_dict(t) for t in profile.vanishing_finite],
        "hodge": _int_map_to_dict(profile.hodge),
        "degrees": None
        if profile.degrees is None
        else _int_map_to_dict(profile.degrees),
        "note": profile.note,
    }


def profile_from_dict(data: Mapping[str, Any]) -> HodgeProfile:
    if data["nearby_finite"] != []:
        raise ValueError("nearby_finite must be empty in schema v1")
    return HodgeProfile(
        rank=_int(data["rank"], "rank"),
        nearby_zero=table_from_dict(data["nearby_zero"]),
        nearby_infinity=table_from_dict(data["nearby_infinity"]),
        vanishing_finite=tuple(
            table_from_dict(t) for t in data["vanishing_finite"]
        ),
        hodge=_int_map_from_dict(data["hodge"], "hodge"),
        degrees=None
        if data.get("degrees") is None
        else _int_map_from_dict(data["degrees"], "degrees"),
        note=_text(data.get("note", ""), "note"),
    )


def params_to_dict(params: HypergeometricParams) -> dict[str, Any]:
    return {
        "alpha": [format_rational(a) for a in params.alpha],
        "beta": [format_rational(b) for b in params.beta],
    }


def params_from_dict(data: Any) -> HypergeometricParams:
    """The instance in a ``{"alpha": [...], "beta": [...]}`` JSON object.

    Anything else (a line that is not an object, a missing key, exponents
    that are not a list of ``a/b`` strings or integers) raises
    :class:`ValueError` naming the problem.
    """
    if not isinstance(data, Mapping):
        raise ValueError("line must be a JSON object")

    def one(value: Any) -> Fraction:
        if isinstance(value, str):
            return parse_rational(value)
        if isinstance(value, int) and not isinstance(value, bool):
            return Fraction(value)
        raise ValueError(f"exponents must be 'a/b' strings, got {value!r}")

    def many(key: str) -> tuple[Fraction, ...]:
        if key not in data:
            raise ValueError(f"missing key {key!r}")
        values = data[key]
        if not isinstance(values, list):
            raise ValueError(f"{key} must be a list of exponents, got {values!r}")
        return tuple(one(v) for v in values)

    return HypergeometricParams(many("alpha"), many("beta"))


def report_to_dict(report: EngineReport) -> dict[str, Any]:
    return {
        "params": params_to_dict(report.params),
        "agree": report.agree,
        "shift": report.shift,
        "tables": dict(report.table_equal),
        "identities_ok": report.identities_ok,
        "mismatches": list(report.mismatches),
        "error": report.error,
    }


def _document_params(data: Any, name: str) -> HypergeometricParams:
    """The instance in a document, where every exponent is an ``a/b`` string."""
    params = params_from_dict(data)
    for key in ("alpha", "beta"):
        _texts(data[key], f"{name}.{key}")
    return params


def report_from_dict(data: Mapping[str, Any]) -> EngineReport:
    """The report in ``data``; ``agree`` and ``mismatches`` must be what
    ``tables`` and ``error`` imply, as the cross-engine comparison writes them."""
    table_equal = {k: _flag(v, f"tables[{k}]") for k, v in data["tables"].items()}
    error = None if data.get("error") is None else _text(data["error"], "error")
    agree = _flag(data["agree"], "agree")
    if agree != (error is None and all(table_equal.values())):
        raise ValueError(f"agree contradicts tables and error, got {agree!r}")
    mismatches = _texts(data["mismatches"], "mismatches")
    if mismatches != tuple(k for k, ok in table_equal.items() if not ok):
        raise ValueError(f"mismatches contradict tables, got {list(mismatches)!r}")
    return EngineReport(
        params=_document_params(data["params"], "report.params"),
        agree=agree,
        shift=None if data["shift"] is None else _int(data["shift"], "shift"),
        table_equal=table_equal,
        identities_ok=_flag(data["identities_ok"], "identities_ok"),
        mismatches=mismatches,
        error=error,
    )


def build_compute_document(
    params: HypergeometricParams,
    engine: str,
    profiles: Mapping[str, HodgeProfile],
    report: EngineReport | None,
    normalization: int,
) -> dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "compute",
        "params": params_to_dict(params),
        "engine": engine,
        "profiles": {name: profile_to_dict(p) for name, p in profiles.items()},
        "report": None if report is None else report_to_dict(report),
        "normalization": normalization,
    }


def parse_document(data: Mapping[str, Any]) -> dict[str, Any]:
    """Typed view of a compute document; inverse of the emitters above."""
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ValueError("unsupported schema version")
    return {
        "schema_version": data["schema_version"],
        "command": _choice(data["command"], "command", ("compute",)),
        "params": _document_params(data["params"], "params"),
        "engine": _choice(data["engine"], "engine", ENGINES),
        "profiles": {
            name: profile_from_dict(p) for name, p in data["profiles"].items()
        },
        "report": None
        if data.get("report") is None
        else report_from_dict(data["report"]),
        "normalization": _int(data["normalization"], "normalization"),
    }


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
    lines = [
        "# alpha " + ",".join(format_rational(a) for a in params.alpha),
        "# beta " + ",".join(format_rational(b) for b in params.beta),
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
        for table in (
            profile.nearby_zero,
            profile.nearby_infinity,
            *profile.vanishing_finite,
        ):
            label = table.point.value
            for (r, lv, p), m in table.sorted_items():
                lines.append(f"{label}\t{format_rational(r)}\t{lv}\t{p}\t{m}")
    return lines
