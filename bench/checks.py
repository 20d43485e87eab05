"""Per-line output checks, run after the timed loop on the stored answers.

Needs ``hyphodge`` importable (the benchmark puts the checkout's ``src`` on
``sys.path``): the round trip is checked with the program's own
``parse_document`` / ``emit_document``.
"""

from __future__ import annotations

import json

from hyphodge.serialize import (
    emit_document,
    params_from_dict,
    params_to_dict,
    parse_document,
)


def answer_failures(sent: str, answer: str, engine: str) -> list[str]:
    """Reasons the answer to line ``sent`` is wrong; empty when it passes.

    A line fails when it gets no answer or an error document, when its
    document does not survive ``emit_document(parse_document(doc)) == doc``,
    when it does not echo the exponents sent or the engine asked for, and,
    under ``both``, when the cross-engine report is not an exact agreement
    (``agree``, ``shift == 0``, ``identities_ok``).
    """
    if not answer:
        return ["no answer"]
    try:
        doc = json.loads(answer)
    except json.JSONDecodeError as exc:
        return [f"answer is not JSON: {exc}"]
    if not isinstance(doc, dict):
        return ["answer is not a JSON object"]
    if "error" in doc:
        return [f"error document: {doc['error']}"]
    try:
        parsed = parse_document(doc)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"document does not parse: {exc!r}"]
    reasons = []
    if emit_document(parsed) != doc:
        reasons.append("emit_document(parse_document(doc)) != doc")
    if doc["params"] != params_to_dict(params_from_dict(json.loads(sent))):
        reasons.append("params do not echo the line sent")
    if doc["engine"] != engine:
        reasons.append(f"engine {doc['engine']!r}, expected {engine!r}")
    if engine == "both":
        report = doc["report"] or {}
        if report.get("agree") is not True:
            reasons.append(f"engines disagree on {report.get('mismatches')}")
        if report.get("shift") != 0:
            reasons.append(f"grading shift {report.get('shift')}, expected 0")
        if report.get("identities_ok") is not True:
            reasons.append("index identity failed")
    return reasons
