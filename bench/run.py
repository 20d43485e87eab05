"""Benchmark of the ``hyphodge batch`` pipe, end to end and layer by layer.

Run from the root of a checkout::

    python3 bench/run.py --workload both-midrank --seed 1 --seconds 15 --trace 0

The last line of standard output is the result: ``{"correct", "attempted",
"failed", "metrics"}``.  The line before it is the run record (seed, corpus
and output hashes, sample counts, scales, interpreter, ``nproc``, git sha);
the same record, with the first failure reasons, goes to ``.bench_out/``.

Inputs.  A run sends the first ``seconds * lines_per_s`` lines of the
workload's seeded stream (``corpus.py``), where ``lines_per_s`` is the
workload's rate at the seed commit; so a run lasts about ``--seconds`` there,
and parent and change answer exactly the same lines.  A loop still running at
``RUN_CAP * --seconds`` stops early and says so on stderr.

``--trace 0`` measures the real CLI path: ``python -u -m hyphodge.cli batch``
children fed by one closed-loop client, which sends line i+1 only after it
has read the document for line i.  ``SETUP_SPAWNS`` children answer the
warm-up line; ``setup_s`` is the median spawn-to-answer time.  The last one
then answers the run's lines: ``lines_per_s``, ``line_p50_ms`` and
``line_p90_ms`` come from the round trips, and ``cpu_ms_per_line`` and
``peak_rss_mb`` from the child's own ``os.wait4`` rusage (its CPU less the
median CPU of a child that only answered the warm-up line).  Lines that fail
a check (``checks.py``) count in ``failed``, out of ``attempted`` lines sent;
the failed share is not a metric of its own because at a correct commit it
is 0, on which no relative bound can be set.

Reference scaling.  On a shared box this CPU's speed swings by up to 2x
within seconds (a fixed pure-Python loop measured 6.6 ms or 12.8 ms per pass
depending on load elsewhere), which no run length averages out.  So the
client and its children are pinned to one CPU, a fixed reference chunk is
timed on it between lines (outside every round trip, about a tenth of the
measured time), and every reported time is multiplied by the nominal chunk
time over the chunk times measured within a second of it.  Times therefore
read as at a fixed reference speed; the unscaled totals and the scales are
kept in the run record.

``--trace 1`` drives ``hyphodge.cli.main(["batch", ...])`` in this process
over the same lines, with spans and counters installed around the public
functions of each module (``spans.py``), and reports the per-layer metrics
per answered line.  The lines are then replayed through an untraced child to
give ``trace.overhead_ratio`` and to check that tracing changed no output
byte.  The pipe is single threaded and has no queue of its own, so no layer
has a waiting-time metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from bisect import bisect_left, bisect_right
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import accumulate, islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(Path(__file__).resolve().parent))

from corpus import WARMUP_LINE, WORKLOADS, Workload, stream  # noqa: E402
from spans import Tracer, self_times  # noqa: E402

SETUP_SPAWNS = 11
"""Children started per timed run; ``setup_s`` is the median of their set-ups."""

RUN_CAP = 3
"""A loop still running after this many times ``--seconds`` stops early."""

CHILD_GRACE_S = 60
"""A child still running this long after its loop's cap is killed."""

REFERENCE_SHARE = 0.1
"""Reference-chunk time kept at this share of the measured line time."""

NOMINAL_CHUNK_S = 1.2e-3
"""Reference-chunk time that timings are scaled to (its typical time on a
2-core 2.1 GHz x86-64 box under Python 3.11)."""


def reference_chunk() -> int:
    """A fixed slice of pure-Python work like the program's own.

    Exact rational arithmetic, tuple keys and dict updates, as in the
    engines' table code.
    """
    total = Fraction(0)
    table: dict[tuple[Fraction, int], int] = {}
    for i in range(1, 200):
        r = Fraction(i % 89, i % 97 + 2)
        total += r
        key = (r - r.numerator // r.denominator, i % 5)
        table[key] = table.get(key, 0) + 1
    return len(table) + total.denominator


class Reference:
    """Speed of this CPU, sampled with ``reference_chunk`` between lines.

    ``keep_up(busy_s)`` runs chunks until their total time is ``share`` of
    ``busy_s``, so samples spread over a loop in proportion to its time.
    A scale is the nominal chunk time over the mean measured one: a time
    multiplied by it reads as it would at the reference speed.
    """

    MIN_SAMPLES = 20
    WINDOW_S = 1.0

    def __init__(self, share: float) -> None:
        self.share = share
        self.stamps: list[float] = []
        self.times: list[float] = []
        self.spent = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        reference_chunk()
        took = time.perf_counter() - start
        self.stamps.append(start)
        self.times.append(took)
        self.spent += took

    def keep_up(self, busy_s: float) -> None:
        while self.spent < self.share * busy_s:
            self.sample()

    def scale(self) -> float:
        """Scale from every chunk of the run."""
        while len(self.times) < self.MIN_SAMPLES:
            self.sample()
        return NOMINAL_CHUNK_S / statistics.fmean(self.times)

    def scaled(self, timings: list[tuple[float, float]]) -> list[float]:
        """Scale each ``(start, seconds)`` timing by the chunks near it.

        Uses the chunks within ``WINDOW_S`` of the timing's start, so a
        change of machine speed during a run is tracked; falls back to the
        whole run's scale where fewer than ``MIN_SAMPLES`` chunks are near.
        """
        overall = self.scale()
        prefix = [0.0, *accumulate(self.times)]
        out = []
        for start, took in timings:
            lo = bisect_left(self.stamps, start - self.WINDOW_S)
            hi = bisect_right(self.stamps, start + self.WINDOW_S)
            if hi - lo < self.MIN_SAMPLES:
                out.append(took * overall)
            else:
                out.append(took * NOMINAL_CHUNK_S * (hi - lo) / (prefix[hi] - prefix[lo]))
        return out


def child_env() -> dict[str, str]:
    """The environment without ``PYTHON*`` settings, then pinned.

    Hash seed fixed, bytecode written (the default), and the checkout's own
    ``src`` first on the path so the working tree is measured, not an
    installed copy.  Output buffering is switched off by ``-u`` on the
    command line, not by the environment.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC)
    return env


class Child:
    """One ``hyphodge batch`` process on pipes, asked one line at a time.

    Construction returns after the child has answered the warm-up line;
    ``setup_s`` is the time from spawn to that answer.
    """

    def __init__(self, engine: str, stderr, budget_s: float) -> None:
        self.started = start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "hyphodge.cli", "batch", "--engine", engine],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=stderr,
            env=child_env(),
            cwd=ROOT,
        )
        self._watchdog = threading.Timer(budget_s, self.proc.kill)
        self._watchdog.daemon = True
        self._watchdog.start()
        self.warmup_answer = self.ask(WARMUP_LINE)
        self.setup_s = time.perf_counter() - start

    def ask(self, line: str) -> str:
        """Send one line and read one document; ``""`` if none comes back."""
        try:
            self.proc.stdin.write(line.encode() + b"\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            return ""
        return self.proc.stdout.readline().decode().rstrip("\n")

    def finish(self) -> resource.struct_rusage:
        """Close the child's input, wait for it, and return its own rusage."""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        self.proc.stdout.read()
        self.proc.stdout.close()
        _pid, status, usage = os.wait4(self.proc.pid, 0)
        self._watchdog.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return usage


def cpu_s(usage: resource.struct_rusage) -> float:
    return usage.ru_utime + usage.ru_stime


def sha256_lines(lines: list[str]) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode() + b"\n")
    return digest.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def check_all(
    sent: list[str], answers: list[str], engine: str, expected: list[str] | None = None
) -> tuple[int, list[str]]:
    """Failed-line count and the first few reasons.

    A line without an answer fails; with ``expected``, so does an answer
    that differs from the expected one.
    """
    from checks import answer_failures

    failed, reasons = 0, []
    for i, line in enumerate(sent):
        answer = answers[i] if i < len(answers) else ""
        why = answer_failures(line, answer, engine)
        if expected is not None and answer != expected[i]:
            why.append("differs from the untraced replay")
        if why:
            failed += 1
            if len(reasons) < 10:
                reasons.append(f"line {i}: {'; '.join(why)}: {line[:200]}")
    return failed, reasons


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_lines(child: Child, lines: list[str], ref: Reference, cap_s: float):
    """Closed loop: send each line once the previous answer is in.

    Returns the answers and each answered line's ``(start, seconds)`` round
    trip.  Reference chunks run between lines, never inside a round trip.
    The loop stops early once ``cap_s`` of wall time has passed, or when an
    answer is missing.
    """
    answers, timings = [], []
    busy = 0.0
    stop = time.perf_counter() + cap_s
    for line in lines:
        asked = time.perf_counter()
        answer = child.ask(line)
        done = time.perf_counter()
        answers.append(answer)
        if not answer:
            break
        timings.append((asked, done - asked))
        busy += done - asked
        ref.keep_up(busy)
        if done > stop:
            print(f"warning: stopped after {len(answers)} of {len(lines)} lines "
                  f"at the {cap_s:.0f} s cap", file=sys.stderr)
            break
    return answers, timings


def run_timed(workload: Workload, lines: list[str], seconds: float, stderr) -> tuple[dict, dict]:
    budget = RUN_CAP * seconds + CHILD_GRACE_S
    setup_ref = Reference(share=1.0)
    setups, setup_cpus, warm = [], [], []
    for i in range(SETUP_SPAWNS):
        child = Child(workload.engine, stderr, budget)
        setups.append((child.started, child.setup_s))
        warm.append(child.warmup_answer)
        setup_ref.keep_up(sum(took for _start, took in setups))
        if i < SETUP_SPAWNS - 1:
            setup_cpus.append(cpu_s(child.finish()))

    ref = Reference(share=REFERENCE_SHARE)
    answers, timings = run_lines(child, lines, ref, RUN_CAP * seconds)
    usage = child.finish()
    sent = lines[: len(answers)]
    failed, reasons = check_all(
        [WARMUP_LINE] * len(warm) + sent, warm + answers, workload.engine
    )
    answered = len(timings)
    line_s = ref.scaled(timings)
    scale = ref.scale()
    cpu_ms = (cpu_s(usage) - statistics.median(setup_cpus)) * 1000 * scale
    metrics = {
        "lines_per_s": metric(answered / sum(line_s), "1/s"),
        "line_p50_ms": metric(statistics.median(line_s) * 1000, "ms"),
        "line_p90_ms": metric(statistics.quantiles(line_s, n=10)[8] * 1000, "ms"),
        "cpu_ms_per_line": metric(cpu_ms / answered, "ms"),
        "peak_rss_mb": metric(usage.ru_maxrss / 1024, "MB"),
        "setup_s": metric(statistics.median(setup_ref.scaled(setups)), "s"),
    }
    record = {
        "line_samples": answered,
        "setup_samples": len(setups),
        "scale": scale,
        "setup_scale": setup_ref.scale(),
        "reference_samples": len(ref.times),
        "raw_loop_s": sum(took for _start, took in timings),
        "raw_setup_s": statistics.median(took for _start, took in setups),
        "child_exit": child.proc.returncode,
        "corpus_lines": len(sent),
        "corpus_sha256": sha256_lines(sent),
        "output_sha256": sha256_lines(answers),
        "failure_reasons": reasons,
    }
    if answered < 100:
        print(f"warning: only {answered} lines answered; p90 rests on "
              "fewer than ten samples beyond it", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": len(warm) + len(sent),
        "failed": failed,
        "metrics": metrics,
    }
    return result, record


class TracedStdin:
    """Stands in for ``sys.stdin`` of the in-process batch loop.

    Hands out the warm-up line (line 0) and then the run's lines, each inside
    a root ``cli.line`` span that stays open until the loop asks for the next
    line, so the span covers parse, compute and print.  Reference chunks run
    between lines, outside every span.
    """

    def __init__(self, tracer, lines: list[str], ref: Reference, cap_s: float) -> None:
        self.tracer = tracer
        self.lines = iter([WARMUP_LINE, *lines])
        self.ref = ref
        self.cap_s = cap_s
        self.stop = float("inf")
        self.sent: list[str] = []
        self.busy_s = 0.0
        self._open: int | None = None

    def __iter__(self):
        return self

    def finish(self) -> None:
        if self._open is not None:
            self.tracer.close(self._open)
            if self.tracer.line > 0:
                self.busy_s += self.tracer.end[self._open] - self.tracer.start[self._open]
            self._open = None

    def __next__(self) -> str:
        self.finish()
        self.ref.keep_up(self.busy_s)
        now = time.perf_counter()
        if self.tracer.line == 0:
            self.stop = now + self.cap_s
        if now > self.stop:
            raise StopIteration
        line = next(self.lines)
        self.sent.append(line)
        self.tracer.line += 1
        if self.tracer.line == 1:
            self.tracer.counts.clear()  # count answered lines only, like spans
        self._open = self.tracer.open("cli.line")
        return line + "\n"


class Capture:
    """Stands in for ``sys.stdout``: keeps what the batch loop prints."""

    def __init__(self) -> None:
        self.parts: list[str] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    def lines(self) -> list[str]:
        return "".join(self.parts).split("\n")[:-1]


def install_tracing(tracer) -> None:
    """Spans and counters at every binding site of each layer's entry points."""
    from hyphodge import (
        closed_form,
        combinatorics,
        convolution,
        core,
        recursion,
        serialize,
    )

    def entries(table) -> int:
        return len(table.entries)

    def final_entries(profile) -> int:
        return entries(profile.nearby_zero) + entries(profile.nearby_infinity)

    spanned = [
        (serialize, "params_from_dict", None),
        (serialize, "build_compute_document", None),
        (serialize, "document_to_json", None),
        (closed_form, "profile_closed", None),
        (combinatorics, "nonseparated_count", None),
        (combinatorics, "check_count_identity", None),
        (recursion, "profile_recursive", final_entries),
        (recursion, "verify_cross_engine", None),
        (convolution, "convolve_nearby_zero", entries),
        (convolution, "convolve_nearby_infinity", entries),
        (convolution, "convolve_vanishing_finite", None),
        (convolution, "convolve_degrees", None),
        (convolution, "twist_degrees", None),
    ]
    for module, name, size in spanned:
        fn = getattr(module, name)
        span = f"{module.__name__.rsplit('.', 1)[1]}.{name}"
        tracer.wrap_everywhere(fn, tracer.timed(span, fn, size), "hyphodge")
    for fn, name in ((core.frac, "core.frac"), (recursion.choose_peel, "recursion.choose_peel")):
        tracer.wrap_everywhere(fn, tracer.counted(name, fn), "hyphodge")
    for cls in (core.LocalHodgeTable, core.HypergeometricParams, core.HodgeProfile):
        name = f"core.{cls.__name__}"
        tracer.patch(cls, "__post_init__", tracer.timed(name, cls.__post_init__))


def layer_metrics(
    tracer, lines: int, out_bytes: int, overhead: float, scale: float
) -> tuple[dict, dict]:
    """Per-layer metrics per answered line, and each layer's share of self time.

    Times are multiplied by ``scale``, the traced loop's reference scale.

    Which end-to-end metric each should move, and on which workload:

    - ``serialize.*``: ``lines_per_s`` and ``line_p50_ms`` on
      both-smallrank-shared;
    - ``closed_form.self_ms_per_line``, ``combinatorics.*``: ``lines_per_s``,
      ``line_p50_ms`` and ``cpu_ms_per_line`` on closed-highrank;
      ``closed_form.calls_per_line``: ``lines_per_s`` on both-smallrank-shared;
    - ``recursion.self_ms_per_line``, ``recursion.peel_steps_per_line``,
      ``convolution.*``: ``line_p90_ms``, ``lines_per_s`` and (for the
      useful-entry ratio) ``peak_rss_mb`` on both-midrank;
      ``recursion.calls_per_line``: ``lines_per_s`` on both-smallrank-shared;
    - ``core.*``: ``cpu_ms_per_line`` on both-midrank and closed-highrank;
    - ``cli.self_ms_per_line`` is the rest of each line (JSON decoding,
      dispatch, printing); ``trace.overhead_ratio`` moves nothing and says
      how far the traced shares can be trusted.
    """
    own = self_times(tracer.start, tracer.end, tracer.parent)
    self_by_id = [0.0] * len(tracer.names)
    calls_by_id = [0] * len(tracer.names)
    for i, name_id in enumerate(tracer.name):
        if tracer.line_of[i] > 0:
            self_by_id[name_id] += own[i]
            calls_by_id[name_id] += 1
    self_s = Counter(dict(zip(tracer.names, self_by_id)))
    calls = Counter(dict(zip(tracer.names, calls_by_id)))
    by_layer: Counter[str] = Counter()
    for name, own_s in self_s.items():
        by_layer[name.split(".")[0]] += own_s
    total = sum(by_layer.values())
    shares = {layer: own_s / total for layer, own_s in sorted(by_layer.items())}

    def ms(*names: str) -> dict:
        return metric(sum(self_s[n] for n in names) * 1000 * scale / lines, "ms")

    def per_line(count: float) -> dict:
        return metric(count / lines, "count")

    convolution = (
        "convolution.convolve_nearby_zero",
        "convolution.convolve_nearby_infinity",
        "convolution.convolve_vanishing_finite",
        "convolution.convolve_degrees",
        "convolution.twist_degrees",
    )
    validate = ("core.LocalHodgeTable", "core.HypergeometricParams", "core.HodgeProfile")
    counts = tracer.counts
    produced = (
        counts["convolution.convolve_nearby_zero.size"]
        + counts["convolution.convolve_nearby_infinity.size"]
    )
    # Entries in the final recursive tables over entries produced by every
    # convolve_nearby_* output.  Memo hits answer a line without producing
    # any entries, so where lines repeat the ratio can exceed 1.
    useful = counts["recursion.profile_recursive.size"]
    metrics = {
        "cli.self_ms_per_line": ms("cli.line"),
        "serialize.parse_ms_per_line": ms("serialize.params_from_dict"),
        "serialize.emit_ms_per_line": ms(
            "serialize.build_compute_document", "serialize.document_to_json"
        ),
        "serialize.bytes_per_line": metric(out_bytes / lines, "B"),
        "closed_form.self_ms_per_line": ms("closed_form.profile_closed"),
        "closed_form.calls_per_line": per_line(calls["closed_form.profile_closed"]),
        "combinatorics.self_ms_per_line": ms(
            "combinatorics.nonseparated_count", "combinatorics.check_count_identity"
        ),
        "combinatorics.nonseparated_calls_per_line": per_line(
            calls["combinatorics.nonseparated_count"]
        ),
        "recursion.self_ms_per_line": ms(
            "recursion.profile_recursive", "recursion.verify_cross_engine"
        ),
        "recursion.calls_per_line": per_line(calls["recursion.profile_recursive"]),
        "recursion.peel_steps_per_line": per_line(counts["recursion.choose_peel"]),
        "convolution.self_ms_per_line": ms(*convolution),
        "convolution.calls_per_line": per_line(sum(calls[n] for n in convolution)),
        "convolution.useful_entry_ratio": metric(
            useful / produced if produced else 0.0, "ratio"
        ),
        "core.table_builds_per_line": per_line(calls["core.LocalHodgeTable"]),
        "core.validate_ms_per_line": ms(*validate),
        "core.frac_calls_per_line": per_line(counts["core.frac"]),
        "trace.overhead_ratio": metric(overhead, "ratio"),
    }
    return metrics, shares


def run_traced(
    workload: Workload, lines: list[str], seconds: float, stderr, spans_path: Path
) -> tuple[dict, dict]:
    import hyphodge.cli

    tracer = Tracer()
    traced_ref = Reference(share=REFERENCE_SHARE)
    feeder = TracedStdin(tracer, lines, traced_ref, RUN_CAP * seconds)
    capture = Capture()
    install_tracing(tracer)
    saved_stdin = sys.stdin
    sys.stdin = feeder
    raised = None
    try:
        with redirect_stdout(capture):
            hyphodge.cli.main(["batch", "--engine", workload.engine])
    except Exception as exc:  # reported as failed lines, like a crashed child
        raised = repr(exc)
    finally:
        sys.stdin = saved_stdin
        feeder.finish()
        tracer.uninstall()
    traced = capture.lines()
    sent = feeder.sent[1:]

    child = Child(workload.engine, stderr, RUN_CAP * seconds + CHILD_GRACE_S)
    ref = Reference(share=REFERENCE_SHARE)
    replayed, timings = run_lines(child, sent, ref, RUN_CAP * seconds)
    child.finish()

    failed, reasons = check_all(
        feeder.sent, traced, workload.engine, [child.warmup_answer, *replayed]
    )
    if raised:
        reasons.insert(0, f"batch raised {raised}")
    traced_scale = traced_ref.scale()
    traced_s = feeder.busy_s * traced_scale
    untraced_s = sum(ref.scaled(timings))
    out_bytes = sum(len(line) + 1 for line in traced[1:])
    metrics, shares = layer_metrics(
        tracer, len(sent), out_bytes, traced_s / untraced_s, traced_scale
    )
    tracer.write(spans_path)
    record = {
        "line_samples": len(sent),
        "spans": len(tracer.start),
        "traced_s": traced_s,
        "untraced_s": untraced_s,
        "self_time_share": shares,
        "corpus_sha256": sha256_lines(sent),
        "output_sha256": sha256_lines(traced[1:]),
        "failure_reasons": reasons,
    }
    result = {
        "correct": failed == 0,
        "attempted": len(feeder.sent),
        "failed": failed,
        "metrics": metrics,
    }
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "hyphodge" / "__init__.py").is_file():
        print(f"error: no hyphodge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    workload = WORKLOADS[args.workload]
    lines = list(islice(stream(workload, args.seed), workload.lines_for(args.seconds)))
    OUT.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{tag}.stderr", "w") as stderr:
        if args.trace:
            result, record = run_traced(
                workload, lines, args.seconds, stderr, OUT / f"{tag}.spans.tsv.gz"
            )
        else:
            result, record = run_timed(workload, lines, args.seconds, stderr)
    record = {
        "workload": workload.name,
        "engine": workload.engine,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "git_sha": git_sha(),
        **record,
        "result": result,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    for reason in record["failure_reasons"]:
        print(f"failed: {reason}", file=sys.stderr)
    record.pop("failure_reasons")
    record.pop("result")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
