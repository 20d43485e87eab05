"""Command-line front end: compute profiles, verify identities, batch mode.

Exit codes: 0 ok, 1 verification failure, 2 parse error, 3 reducible input,
4 internal engine inconsistency, 141 output pipe closed by the reader (128 +
SIGPIPE, what a shell reports for other tools there).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from .closed_form import profile_closed
from .core import (
    EngineReport,
    HodgeProfile,
    HypergeometricParams,
    InternalEngineError,
    NoValidPeel,
    ReducibleInput,
    UnknownData,
    common_numerators,
    compare_profiles,
    fibre_mismatches,
    profile_min_p,
)
from .recursion import profile_recursive
from .serialize import (
    ENGINE_PROFILES,
    ENGINES,
    SCHEMA_VERSION,
    build_compute_document,
    compute_document_parts,
    compute_document_text,
    document_to_json,
    exponents_from_dict,
    params_from_dict,
    params_from_residues,
    params_text_from_residues,
    params_to_dict,
    tsv_lines,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    import random
    from collections.abc import Callable, Sequence
    from fractions import Fraction
    from typing import Any

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_REDUCIBLE = 3
EXIT_INTERNAL = 4
EXIT_BROKEN_PIPE = 141

ENGINE_ERRORS = (InternalEngineError, NoValidPeel, UnknownData)
"""Failures of the engines themselves, never of the input: exit code 4."""


def _exponent_texts(text: str, option: str) -> list[str]:
    """The comma-separated exponent texts of ``option``; no field may be empty.

    The argument's bytes (``os.fsencode`` undoes the locale's decoding of
    argv) are read as UTF-8; a caller's ``str`` the locale cannot encode is
    taken as it is.
    """
    try:
        text = os.fsencode(text).decode("utf-8")
    except UnicodeEncodeError:
        pass
    except UnicodeDecodeError:
        raise ValueError(f"{option}: argument is not UTF-8") from None
    fields = text.split(",")
    for i, part in enumerate(fields, 1):
        if not part.strip():
            raise ValueError(f"{option}: exponent {i} of {len(fields)} is empty")
    return fields


def _compute(
    params: HypergeometricParams, engine: str, normalize: bool
) -> tuple[dict[str, HodgeProfile], EngineReport | None, int]:
    """Profiles of the chosen engines, their comparison, and the shift.

    Each profile is computed once; the report compares the unshifted
    profiles and normalization shifts them only afterwards.
    """
    profiles: dict[str, HodgeProfile] = {}
    if "closed" in ENGINE_PROFILES[engine]:
        profiles["closed"] = profile_closed(params)
    if "recursive" in ENGINE_PROFILES[engine]:
        profiles["recursive"] = profile_recursive(params)
    report = None
    if engine == "both":
        report = compare_profiles(profiles["closed"], profiles["recursive"])
    shift = 0
    if normalize:
        shift = -min(profile_min_p(p) for p in profiles.values())
        profiles = {name: p.shifted(shift) for name, p in profiles.items()}
    return profiles, report, shift


def _compute_document(
    params: HypergeometricParams, engine: str, normalize: bool
) -> dict[str, Any]:
    return build_compute_document(params, engine, *_compute(params, engine, normalize))


def _compute_text(params: HypergeometricParams, engine: str, normalize: bool) -> str:
    """The compute document as the batch stream writes it: compact JSON text."""
    return compute_document_text(params, engine, *_compute(params, engine, normalize))


def _answer(request: Callable[..., str], *args: Any) -> tuple[int, str]:
    """Code 0 and the text of ``request(*args)``, or its error's code and message.

    The one rule from exception to code, shared by ``compute`` and each
    ``batch`` line, over the whole request: parse, engines and writer.
    """
    try:
        return EXIT_OK, request(*args)
    except ReducibleInput as exc:
        return EXIT_REDUCIBLE, str(exc)
    except ENGINE_ERRORS as exc:
        return EXIT_INTERNAL, str(exc)
    except (ValueError, KeyError, TypeError) as exc:
        return EXIT_PARSE, str(exc)


def _compute_answer(args: argparse.Namespace) -> str:
    params = params_from_dict({
        "alpha": _exponent_texts(args.alpha, "--alpha"),
        "beta": _exponent_texts(args.beta, "--beta"),
    })
    params.require_irreducible()
    if args.format == "tsv":
        profiles, _report, shift = _compute(params, args.engine, args.normalize)
        return "\n".join(tsv_lines(params, profiles, shift))
    return document_to_json(_compute_document(params, args.engine, args.normalize))


def _run_compute(args: argparse.Namespace) -> int:
    code, text = _answer(_compute_answer, args)
    if code:
        prefix = "internal error" if code == EXIT_INTERNAL else "error"
        print(f"{prefix}: {text}", file=sys.stderr)
    else:
        print(text)
    return code


def _residue_grid(den_max: int) -> list[Fraction]:
    """All reduced rationals in [0, 1) with denominator at most ``den_max``, sorted."""
    from fractions import Fraction
    out = {Fraction(0)}
    for d in range(1, den_max + 1):
        for num in range(1, d):
            out.add(Fraction(num, d))
    return sorted(out)


def _iter_exhaustive(n_max: int, den_max: int):
    import itertools
    grid = _residue_grid(den_max)
    for n in range(1, n_max + 1):
        for alpha in itertools.product(grid, repeat=n):
            for beta in itertools.product(grid, repeat=n):
                if set(alpha) & set(beta):
                    continue
                yield HypergeometricParams(alpha, beta)


def _iter_sampled(n_max: int, den_max: int, sample: int, seed: int):
    """Irreducible instances drawn without rejection, with the shared ``rng``.

    The shuffled residue grid is cut into disjoint alpha and beta pools and
    each exponent is drawn from its own pool, repeats allowed; the grid needs
    at least two residues.
    """
    import random
    grid = _residue_grid(den_max)
    rng = random.Random(seed)
    for _ in range(sample):
        n = rng.randint(1, n_max)
        rng.shuffle(grid)
        cut = rng.randint(1, len(grid) - 1)
        alpha = tuple(rng.choice(grid[:cut]) for _ in range(n))
        beta = tuple(rng.choice(grid[cut:]) for _ in range(n))
        yield HypergeometricParams(alpha, beta), rng


def _instance_failures(params: HypergeometricParams, rng: random.Random | None) -> list[str]:
    reasons = []
    closed, recursive = profile_closed(params), profile_recursive(params)
    report = compare_profiles(closed, recursive)
    if not report.agree:
        reasons.append(f"engines disagree on {', '.join(report.mismatches)}")
    if report.shift != 0:
        reasons.append(f"grading shift {report.shift}, expected 0")
    for engine, profile in (("closed", closed), ("recursive", recursive)):
        failed = f"fibre law failed on the {engine} profile at p="
        reasons += (f"{failed}{p}" for p in fibre_mismatches(profile))
    if rng is not None and params.n > 1:
        order = list(range(params.n))
        rng.shuffle(order)
        if profile_closed(params.permuted(order)) != closed:
            reasons.append("closed profile is order-sensitive")
    return reasons


def _run_verify(args: argparse.Namespace) -> int:
    if args.n_max < 1 or args.den_max < 1 or (args.sample is not None and args.sample < 1):
        print("error: bounds must be positive", file=sys.stderr)
        return EXIT_PARSE
    if args.sample is not None and args.den_max < 2:
        print("error: --sample needs --den-max of at least 2", file=sys.stderr)
        return EXIT_PARSE
    failures: list[dict[str, Any]] = []
    count = 0
    if args.sample is None:
        instances = ((p, None) for p in _iter_exhaustive(args.n_max, args.den_max))
    else:
        instances = _iter_sampled(args.n_max, args.den_max, args.sample, args.seed)
    for params, rng in instances:
        count += 1
        reasons = _instance_failures(params, rng)
        if reasons:
            failures.append(
                {"params": params_to_dict(params), "reasons": reasons}
            )
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "bounds": {
            "n_max": args.n_max,
            "den_max": args.den_max,
            "sample": args.sample,
            "seed": args.seed,
        },
        "instances": count,
        "failures": failures,
    }
    print(document_to_json(doc))
    return EXIT_VERIFY_FAILED if failures else EXIT_OK


def _error_text(line: int, code: int, message: str) -> str:
    """The inline error document for input line ``line``, as compact JSON text."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "line": line,
        "error": {"code": code, "message": message},
    }
    return document_to_json(doc, compact=True)


_MEMO_RANK_MAX = 64
_MEMO_DEN_BITS_MAX = 128
"""The largest instance the batch memo keeps: its rank, and the bits of its
denominator, which bound its texts.  Larger instances skip the memo, so its
bytes stay bounded whatever the input."""


@lru_cache(maxsize=64)
def _memo(key: tuple[Any, ...]) -> list[str]:
    """The slot for the compute document of ``key``'s instance, kept as
    :func:`~hyphodge.serialize.compute_document_parts` cuts it; empty until
    a line of the instance has been answered."""
    return []


def _batch_answer(line: str, args: argparse.Namespace) -> str:
    """The answer to one batch line, through the memo of recent instances.

    An instance's document is fixed by its factors, whatever their order,
    except for the params text it echoes: the main theorem makes every
    invariant a function of the factors, the recursive engine reads them
    sorted and the closed one reads sorted exponents.  So the memo keys an
    instance by ``(den, sorted pairs, engine, normalize)``, read off the
    line's residues.  A hit builds no instance: it writes the params from
    the residues' own texts and joins the kept parts around them.  A miss
    builds the instance from the same residues and runs the engines and the
    writer on it.  One guard admits a line to the memo: lists of equal
    nonzero length (``zip`` would cut a longer one to a kept key's prefix),
    within the memo's bounds, a known engine, and no exponent shared.  Any
    other line is built, checked, and refused or computed as without the
    memo, and makes no slot.  A line whose engines fail leaves its slot
    empty, so the instance is computed again next time.
    """
    try:
        data = json.loads(line)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    residues, n = exponents_from_dict(data)
    den, nums = common_numerators(residues)
    alpha, beta = nums[:n], nums[n:]
    engine = data.get("engine", args.engine)
    kept = None
    if (
        0 < n == len(beta) <= _MEMO_RANK_MAX
        and den.bit_length() <= _MEMO_DEN_BITS_MAX
        and engine in ENGINES
        and set(alpha).isdisjoint(beta)
    ):
        kept = _memo((den, tuple(sorted(zip(alpha, beta))), engine, args.normalize))
        if kept:
            return params_text_from_residues(residues, n).join(kept)
    params = params_from_residues(residues, n, den, nums)
    if kept is None:
        params.require_irreducible()
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}")
        return _compute_text(params, engine, args.normalize)
    # The guard found alpha and beta disjoint: the engines' check reads that
    # instead of building the set again.
    params.__dict__["is_irreducible"] = True
    text, parts = compute_document_parts(
        params, engine, *_compute(params, engine, args.normalize)
    )
    kept.extend(parts)
    return text.join(parts)


def _run_batch(args: argparse.Namespace) -> int:
    # JSON text is UTF-8 (RFC 8259 section 8.1) whatever the locale.  A
    # stand-in ``sys.stdin`` without ``buffer`` hands out decoded lines.
    for i, line in enumerate(getattr(sys.stdin, "buffer", sys.stdin)):
        try:
            line = (line.decode("utf-8") if isinstance(line, bytes) else line).strip()
        except UnicodeDecodeError as exc:
            code, text = EXIT_PARSE, f"line is not UTF-8: {exc}"
        else:
            if not line:
                continue
            code, text = _answer(_batch_answer, line, args)
        if code:
            text = _error_text(i + 1, code, text)
        # One write per answer: under ``python -u`` print would send the
        # newline as a second write, so a reader could get half an answer.
        sys.stdout.write(text + "\n")
        sys.stdout.flush()
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyphodge",
        description="Exact local Hodge data of irreducible hypergeometric connections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="compute one profile")
    compute.add_argument("--alpha", required=True, help="comma-separated a/b exponents")
    compute.add_argument("--beta", required=True, help="comma-separated a/b exponents")
    compute.add_argument("--engine", choices=ENGINES, default="both")
    compute.add_argument(
        "--normalize", action="store_true", help="shift so the lowest index is 0"
    )
    compute.add_argument("--format", choices=("json", "tsv"), default="json")
    compute.set_defaults(func=_run_compute)

    verify = sub.add_parser("verify", help="run the verification sweeps")
    verify.add_argument("--n-max", type=int, default=2)
    verify.add_argument("--den-max", type=int, default=4)
    verify.add_argument("--sample", type=int, default=None)
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(func=_run_verify)

    batch = sub.add_parser("batch", help="JSON-lines on stdin, one document per line")
    batch.add_argument("--engine", choices=ENGINES, default="both")
    batch.add_argument("--normalize", action="store_true")
    batch.set_defaults(func=_run_batch)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # What is still buffered goes to devnull: the flush at exit cannot raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
