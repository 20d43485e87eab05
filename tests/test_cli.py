import argparse
import hashlib
import io
import json
import os
import random
import select
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyphodge
from hyphodge import InternalEngineError, NoValidPeel, UnknownData
from hyphodge.cli import _batch_answer, _compute, _memo, main
from hyphodge.serialize import compute_document_text, params_from_dict, params_to_dict
from conftest import disjoint_pool_instance, raised_at_infinity, residue_grid

SRC = str(Path(hyphodge.__file__).resolve().parent.parent)
ENGINE_ERRORS = [InternalEngineError, NoValidPeel, UnknownData]


def cli_env():
    """The environment of a child ``python -m hyphodge.cli`` process."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def fail_on_rank(monkeypatch, rank, error):
    """Make the recursive engine raise ``error`` on inputs of one rank."""
    from hyphodge import cli

    real = cli.profile_recursive

    def engine(params):
        if params.n == rank:
            raise error("injected engine failure")
        return real(params)

    monkeypatch.setattr(cli, "profile_recursive", engine)


def run_cli(argv, stdin_text=None, monkeypatch=None):
    out = io.StringIO()
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    with redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


class TestCompute:
    def test_closed_engine_json(self):
        code, out = run_cli(
            ["compute", "--alpha", "0,0", "--beta", "1/2,1/2", "--engine", "closed"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == "1"
        assert doc["profiles"]["closed"]["hodge"] == {"1": 1, "2": 1}

    def test_reducible_exits_3(self, capsys):
        code = main(["compute", "--alpha", "1/3", "--beta", "1/3"])
        assert code == 3
        assert "alpha_i != beta_j" in capsys.readouterr().err

    def test_parse_error_exits_2(self, capsys):
        code = main(["compute", "--alpha", "0.5", "--beta", "1/2"])
        assert code == 2

    def test_length_mismatch_exits_2(self, capsys):
        code = main(["compute", "--alpha", "0,1/3", "--beta", "1/2"])
        assert code == 2

    def test_zero_denominator_exits_2(self, capsys):
        code = main(["compute", "--alpha", "1/0", "--beta", "1/2"])
        assert code == 2
        assert "zero denominator" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "alpha, message",
        [
            ("1/2,,1/3", "--alpha: exponent 2 of 3 is empty"),
            (",1/2,1/3", "--alpha: exponent 1 of 3 is empty"),
            ("1/2,1/3,", "--alpha: exponent 3 of 3 is empty"),
            ("1/2, ,1/3", "--alpha: exponent 2 of 3 is empty"),
            (" ", "--alpha: exponent 1 of 1 is empty"),
        ],
    )
    def test_empty_field_exits_2(self, capsys, alpha, message):
        code = main(["compute", "--alpha", alpha, "--beta", "1/4,3/4"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_empty_field_in_beta_is_named(self, capsys):
        assert main(["compute", "--alpha", "0,1/2", "--beta", "1/4,"]) == 2
        assert "--beta: exponent 2 of 2 is empty" in capsys.readouterr().err

    def test_spaces_around_fields_are_accepted(self):
        code, out = run_cli(
            ["compute", "--alpha", "0, 1/2", "--beta", " 1/4 ,3/4", "--engine", "closed"]
        )
        assert code == 0
        assert json.loads(out)["params"] == {"alpha": ["0", "1/2"], "beta": ["1/4", "3/4"]}

    @pytest.mark.parametrize("error", ENGINE_ERRORS)
    def test_engine_error_exits_4(self, monkeypatch, capsys, error):
        fail_on_rank(monkeypatch, 2, error)
        code = main(["compute", "--alpha", "0,0", "--beta", "1/2,1/2"])
        assert code == 4
        assert "injected engine failure" in capsys.readouterr().err

    def test_optimized_interpreter_same_output(self):
        argv = ["-m", "hyphodge.cli", "compute", "--alpha", "0,0", "--beta", "1/2,1/2"]
        outputs = [
            subprocess.run(
                [sys.executable, *flags, *argv],
                env=cli_env(),
                capture_output=True,
                text=True,
                timeout=60,
                check=True,
            ).stdout
            for flags in ([], ["-O"])
        ]
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[1])["report"]["agree"] is True

    def test_output_pipe_closed_before_writing_exits_141(self):
        argv = ["-m", "hyphodge.cli", "compute", "--alpha", "0", "--beta", "1/2"]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, *argv],
                env=cli_env(),
                stdout=write_end,
                stderr=subprocess.PIPE,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (141, b"")

    def test_both_engines_report_agreement(self):
        code, out = run_cli(
            ["compute", "--alpha", "0,1/2", "--beta", "1/4,3/4", "--engine", "both"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["agree"] is True
        assert doc["report"]["shift"] == 0

    def test_normalize_records_shift(self):
        code, out = run_cli(
            [
                "compute",
                "--alpha",
                "0,1/2",
                "--beta",
                "1/4,3/4",
                "--engine",
                "closed",
                "--normalize",
            ]
        )
        doc = json.loads(out)
        assert doc["normalization"] == -1
        assert doc["profiles"]["closed"]["hodge"] == {"1": 2}

    def test_normalize_only_translates(self):
        from hyphodge import equal_up_to_shift
        from hyphodge.serialize import parse_document

        argv = ["compute", "--alpha", "0,0", "--beta", "1/2,1/2", "--engine", "both"]
        _, plain_out = run_cli(argv)
        _, norm_out = run_cli(argv + ["--normalize"])
        plain = parse_document(json.loads(plain_out))
        norm = parse_document(json.loads(norm_out))
        shift = norm["normalization"]
        for name in ("closed", "recursive"):
            assert equal_up_to_shift(plain["profiles"][name], norm["profiles"][name]) == shift

    def test_tsv_format(self):
        code, out = run_cli(
            [
                "compute",
                "--alpha",
                "1/3",
                "--beta",
                "0",
                "--engine",
                "recursive",
                "--format",
                "tsv",
            ]
        )
        assert code == 0
        assert "point\tresidue\tlevel\tp\tmult" in out
        assert "zero\t1/3\t0\t1\t1" in out


SPELLINGS = {
    "1/2": ["2/4", "5/2", " 1/2 "],
    "7/8": ["-1/8"],
    "2/3": ["\u22121/3"],
    "3/4": ["+3/4"],
    "0": ["0/5", "6/3"],
}
"""Exponent texts keyed by the residue each reads as."""


def spelled_instances(count=10, seed=20261021):
    """Seeded ``(alpha, beta)`` text lists of rank 1-3 over ``SPELLINGS``,
    alpha and beta drawn from disjoint residue classes."""
    rng = random.Random(seed)
    classes = sorted(SPELLINGS)
    out = []
    for _ in range(count):
        rng.shuffle(classes)
        cut = rng.randint(1, len(classes) - 1)
        n = rng.randint(1, 3)
        alpha = [rng.choice(SPELLINGS[rng.choice(classes[:cut])]) for _ in range(n)]
        beta = [rng.choice(SPELLINGS[rng.choice(classes[cut:])]) for _ in range(n)]
        out.append((alpha, beta))
    return out


HUGE_DEN = ([f"1/{10**2200 + 1}"], [f"1/{10**2200 + 3}"])
"""Coprime denominators whose lcm has about 4,400 digits, so writing the
special exponent passes Python's limit on int-to-str conversion."""

NEEDS_DIGIT_LIMIT = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit"
)


class TestComputeMatchesBatch:
    # ``compute --alpha/--beta`` and a batch line read their exponents by one
    # route, so the same texts give the same document.
    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("engine", ["closed", "recursive", "both"])
    def test_same_document(self, monkeypatch, engine, normalize):
        flags = ["--engine", engine] + ["--normalize"] * normalize
        instances = spelled_instances()
        used = {text for alpha, beta in instances for text in alpha + beta}
        assert used == {text for texts in SPELLINGS.values() for text in texts}
        lines = "".join(json.dumps({"alpha": a, "beta": b}) + "\n" for a, b in instances)
        code, out = run_cli(["batch", *flags], lines, monkeypatch)
        assert code == 0
        answers = [json.loads(line) for line in out.splitlines()]
        assert len(answers) == len(instances)
        for (alpha, beta), answer in zip(instances, answers):
            argv = ["compute", f"--alpha={','.join(alpha)}", f"--beta={','.join(beta)}"]
            code, out = run_cli(argv + flags)
            assert code == 0
            assert json.loads(out) == answer

    @pytest.mark.parametrize(
        "alpha, beta, code",
        [
            (["1/3"], ["1/3"], 3),
            (["1/0"], ["1/2"], 2),
            (["0.5"], ["1/2"], 2),
            (["0", "1/3"], ["1/2"], 2),
            pytest.param(*HUGE_DEN, 2, marks=NEEDS_DIGIT_LIMIT),
            (["0", "0"], ["1/2", "1/2"], 4),
        ],
        ids=["reducible", "zero-denominator", "float", "length", "huge-den", "engine"],
    )
    def test_same_error_code(self, monkeypatch, capsys, alpha, beta, code):
        fail_on_rank(monkeypatch, 2, InternalEngineError)
        line = json.dumps({"alpha": alpha, "beta": beta}) + "\n"
        _code, out = run_cli(["batch"], line, monkeypatch)
        assert json.loads(out)["error"]["code"] == code
        argv = ["compute", f"--alpha={','.join(alpha)}", f"--beta={','.join(beta)}"]
        assert main(argv) == code
        assert "Traceback" not in capsys.readouterr().err

    @NEEDS_DIGIT_LIMIT
    def test_huge_denominator_exits_2_without_traceback(self):
        (alpha,), (beta,) = HUGE_DEN
        argv = ["-m", "hyphodge.cli", "compute", f"--alpha={alpha}", f"--beta={beta}"]
        done = subprocess.run(
            [sys.executable, *argv], env=cli_env(), capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 2
        assert done.stderr.startswith("error: ")
        assert "Traceback" not in done.stderr


class TestVerify:
    def test_exhaustive_small(self):
        code, out = run_cli(["verify", "--n-max", "1", "--den-max", "3"])
        assert code == 0
        doc = json.loads(out)
        assert doc["failures"] == []
        assert doc["instances"] > 0

    def test_sampled(self):
        code, out = run_cli(
            ["verify", "--n-max", "3", "--den-max", "6", "--sample", "25", "--seed", "7"]
        )
        assert code == 0
        assert json.loads(out)["instances"] == 25

    def test_sampled_deterministic(self):
        args = ["verify", "--n-max", "2", "--den-max", "5", "--sample", "10", "--seed", "3"]
        assert run_cli(args) == run_cli(args)

    def test_bad_bounds_exit_2(self, capsys):
        assert main(["verify", "--n-max", "0"]) == 2

    def run_verify(self, *bounds):
        # A child process, so a sampler stuck rejecting draws fails on the
        # timeout; a constructive draw answers these bounds in well under 1 s.
        return subprocess.run(
            [sys.executable, "-m", "hyphodge.cli", "verify", *bounds],
            env=cli_env(),
            capture_output=True,
            text=True,
            timeout=20,
        )

    def test_sample_on_crowded_grid_terminates(self):
        # Rank 12 on a four-residue grid: disjoint draws are rare by rejection.
        proc = self.run_verify("--n-max", "12", "--den-max", "3", "--sample", "5")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["instances"] == 5

    def test_sample_on_one_residue_grid_exits_2(self):
        # With the single residue 0 no irreducible instance exists.
        proc = self.run_verify("--n-max", "1", "--den-max", "1", "--sample", "1")
        assert proc.returncode == 2
        assert "--den-max" in proc.stderr


class TestVerifyFails:
    """Each failure reason of ``verify``, produced by an injected fault."""

    def verify(self, *bounds):
        code, out = run_cli(["verify", *bounds])
        return code, json.loads(out)

    def test_engines_disagree(self, monkeypatch):
        from hyphodge import cli, table_shift

        real = cli.profile_recursive

        def engine(params):
            profile = real(params)
            shifted = table_shift(profile.vanishing_finite, 1)
            return profile.replace(vanishing_finite=shifted)

        monkeypatch.setattr(cli, "profile_recursive", engine)
        code, doc = self.verify("--n-max", "1", "--den-max", "2")
        assert code == 1
        assert doc["instances"] == 2 and len(doc["failures"]) == 2
        for failure in doc["failures"]:
            assert "engines disagree on vanishing_finite" in failure["reasons"]

    def test_grading_shift(self, monkeypatch):
        from hyphodge import cli

        real = cli.profile_recursive
        monkeypatch.setattr(cli, "profile_recursive", lambda params: real(params).shifted(1))
        code, doc = self.verify("--n-max", "1", "--den-max", "2")
        assert code == 1
        for failure in doc["failures"]:
            assert failure["reasons"] == [
                "engines disagree on nearby_zero, nearby_infinity, vanishing_finite, hodge",
                "grading shift 1, expected 0",
            ]

    def test_index_identity(self, monkeypatch):
        # A recursive profile that breaks the fibre law is named, with the
        # engine, at each index; the closed profile keeps the law.
        from hyphodge import cli

        real = cli.profile_recursive
        monkeypatch.setattr(cli, "profile_recursive", lambda p: raised_at_infinity(real(p)))
        code, doc = self.verify("--n-max", "1", "--den-max", "2")
        assert code == 1
        reasons = [
            "engines disagree on nearby_infinity",
            "grading shift None, expected 0",
            "fibre law failed on the recursive profile at p=1",
            "fibre law failed on the recursive profile at p=2",
        ]
        assert doc["failures"] == [
            {"params": {"alpha": ["0"], "beta": ["1/2"]}, "reasons": reasons},
            {"params": {"alpha": ["1/2"], "beta": ["0"]}, "reasons": reasons},
        ]

    def test_fibre_rank_consistency(self, monkeypatch):
        # A closed profile that breaks the fibre law is named, with the
        # engine, at each index.
        from hyphodge import cli

        real = cli.profile_closed
        monkeypatch.setattr(cli, "profile_closed", lambda p: raised_at_infinity(real(p)))
        code, doc = self.verify("--n-max", "1", "--den-max", "2")
        assert code == 1
        assert doc["instances"] == 2 and len(doc["failures"]) == 2
        for failure in doc["failures"]:
            assert failure["reasons"] == [
                "engines disagree on nearby_infinity",
                "grading shift None, expected 0",
                "fibre law failed on the closed profile at p=1",
                "fibre law failed on the closed profile at p=2",
            ]

    def test_closed_profile_order_sensitive(self, monkeypatch):
        # The closed engine answers every permuted instance one index up.
        from hyphodge import HypergeometricParams, cli

        permuted, real_permuted, real = [], HypergeometricParams.permuted, cli.profile_closed

        def permute(params, order):
            permuted.append(real_permuted(params, order))
            return permuted[-1]

        def closed(params):
            profile = real(params)
            return profile.shifted(1) if any(params is p for p in permuted) else profile

        monkeypatch.setattr(HypergeometricParams, "permuted", permute)
        monkeypatch.setattr(cli, "profile_closed", closed)
        code, doc = self.verify("--n-max", "3", "--den-max", "4", "--sample", "12")
        assert code == 1
        ranks = [len(failure["params"]["alpha"]) for failure in doc["failures"]]
        assert len(ranks) == len(permuted) > 0 and min(ranks) > 1
        for failure in doc["failures"]:
            assert failure["reasons"] == ["closed profile is order-sensitive"]


LOCALES = ({"LC_ALL": "C", "PYTHONUTF8": "0"}, {"LC_ALL": "C.UTF-8", "PYTHONUTF8": "1"})
"""An ASCII locale with UTF-8 mode off, and a UTF-8 one."""


def run_in_locales(argv, stdin=b""):
    """``python -m hyphodge.cli *argv`` on ``stdin`` under each of ``LOCALES``."""
    procs = []
    for locale in LOCALES:
        env = {**cli_env(), **locale}
        probe = [sys.executable, "-c", "import sys; print(sys.getfilesystemencoding())"]
        probed = subprocess.run(probe, env=env, capture_output=True, text=True, timeout=30)
        assert probed.stdout.strip() == ("ascii" if locale["LC_ALL"] == "C" else "utf-8")
        procs.append(
            subprocess.run(
                [sys.executable, "-m", "hyphodge.cli", *argv],
                input=stdin,
                env=env,
                capture_output=True,
                timeout=30,
            )
        )
    return procs


class TestLocale:
    """The same bytes get the same answer whatever the locale."""

    def test_batch_reads_utf8(self):
        # A U+2212 minus, a line that is not UTF-8, then a plain line.
        stdin = (
            '{"alpha":["\u22121/3"],"beta":["0"],"engine":"closed"}\n'.encode()
            + b'\xff{"alpha":["0"],"beta":["1/2"]}\n'
            + b'{"alpha":["0"],"beta":["1/2"],"engine":"closed"}\n'
        )
        procs = run_in_locales(["batch"], stdin)
        assert [(p.returncode, p.stderr) for p in procs] == [(0, b"")] * 2
        assert procs[0].stdout == procs[1].stdout
        first, bad, last = (json.loads(line) for line in procs[0].stdout.splitlines())
        assert first["params"]["alpha"] == ["2/3"]
        assert bad["line"] == 2 and bad["error"]["code"] == 2
        assert bad["error"]["message"].startswith("line is not UTF-8: ")
        assert last["params"] == {"alpha": ["0"], "beta": ["1/2"]}

    def test_compute_reads_utf8_arguments(self):
        procs = run_in_locales(["compute", "--alpha", "\u22121/3".encode(), "--beta", "0"])
        assert [(p.returncode, p.stderr) for p in procs] == [(0, b"")] * 2
        assert procs[0].stdout == procs[1].stdout
        assert json.loads(procs[0].stdout)["params"]["alpha"] == ["2/3"]

    def test_compute_refuses_an_argument_that_is_not_utf8(self):
        procs = run_in_locales(["compute", "--alpha", b"1/3,\xff", "--beta", "0"])
        for proc in procs:
            assert (proc.returncode, proc.stdout) == (2, b"")
            assert proc.stderr == b"error: --alpha: argument is not UTF-8\n"

    def test_compute_takes_an_argument_the_locale_cannot_encode_as_it_is(self, capsys):
        # A lone surrogate has no bytes to read as UTF-8: the text is parsed
        # as given, and refused as no rational.
        assert main(["compute", "--alpha", "\ud800", "--beta", "0"]) == 2
        assert capsys.readouterr().err == "error: not a rational in a/b form: '\\ud800'\n"


class TestBatch:
    def test_two_valid_lines(self, monkeypatch):
        stdin = (
            '{"alpha": ["0"], "beta": ["1/2"]}\n'
            '{"alpha": ["0", "1/2"], "beta": ["1/4", "3/4"], "engine": "closed"}\n'
        )
        code, out = run_cli(["batch"], stdin, monkeypatch)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        first, second = (json.loads(l) for l in lines)
        assert first["command"] == "compute"
        assert second["engine"] == "closed"

    def test_error_line_is_inline(self, monkeypatch):
        stdin = '{"alpha": ["0"], "beta": ["1/2"]}\n{"alpha": ["1/3"], "beta": ["1/3"]}\n'
        code, out = run_cli(["batch"], stdin, monkeypatch)
        assert code == 0
        lines = [json.loads(l) for l in out.strip().splitlines()]
        assert "profiles" in lines[0]
        assert lines[1]["error"]["code"] == 3

    def test_unknown_engine_is_inline_error(self, monkeypatch):
        stdin = '{"alpha": ["0"], "beta": ["1/2"], "engine": "magic"}\n'
        code, out = run_cli(["batch"], stdin, monkeypatch)
        assert code == 0
        assert json.loads(out)["error"]["code"] == 2

    def test_malformed_line_continues(self, monkeypatch):
        stdin = 'nonsense\n{"alpha": ["0"], "beta": ["1/2"]}\n'
        code, out = run_cli(["batch"], stdin, monkeypatch)
        assert code == 0
        lines = [json.loads(l) for l in out.strip().splitlines()]
        assert lines[0]["error"]["code"] == 2
        assert "profiles" in lines[1]

    def test_deeply_nested_line_is_inline_and_stream_continues(self, monkeypatch):
        stdin = "[" * 100000 + '\n{"alpha": ["0"], "beta": ["1/2"]}\n'
        code, out = run_cli(["batch"], stdin, monkeypatch)
        assert code == 0
        lines = [json.loads(l) for l in out.strip().splitlines()]
        assert len(lines) == 2
        assert lines[0]["line"] == 1 and lines[0]["error"]["code"] == 2
        assert "profiles" in lines[1]

    def test_empty_input(self, monkeypatch):
        code, out = run_cli(["batch"], "", monkeypatch)
        assert code == 0
        assert out == ""

    def test_zero_denominator_is_inline_and_stream_continues(self, monkeypatch):
        stdin = '{"alpha": ["1/0"], "beta": ["1/2"]}\n{"alpha": ["0"], "beta": ["1/2"]}\n'
        code, out = run_cli(["batch"], stdin, monkeypatch)
        assert code == 0
        lines = [json.loads(l) for l in out.strip().splitlines()]
        assert lines[0]["error"]["code"] == 2
        assert "profiles" in lines[1]

    def test_exponents_must_be_lists(self, monkeypatch):
        stdin = '{"alpha": "12", "beta": ["1/2", "1/3"]}\n'
        code, out = run_cli(["batch"], stdin, monkeypatch)
        assert code == 0
        doc = json.loads(out)
        assert doc["error"]["code"] == 2
        assert "alpha must be a list" in doc["error"]["message"]

    @pytest.mark.parametrize("line", ["[]", '"x"', "null", "5"])
    def test_line_that_is_not_an_object(self, monkeypatch, line):
        code, out = run_cli(["batch"], line + "\n", monkeypatch)
        assert code == 0
        assert json.loads(out)["error"] == {
            "code": 2,
            "message": "line must be a JSON object",
        }

    @pytest.mark.parametrize(
        "line, key", [('{"beta": ["1/2"]}', "alpha"), ('{"alpha": ["0"]}', "beta")]
    )
    def test_missing_key(self, monkeypatch, line, key):
        code, out = run_cli(["batch"], line + "\n", monkeypatch)
        assert code == 0
        assert json.loads(out)["error"] == {
            "code": 2,
            "message": f"missing key {key!r}",
        }

    @pytest.mark.parametrize("error", ENGINE_ERRORS)
    def test_engine_error_is_inline_and_stream_continues(self, monkeypatch, error):
        fail_on_rank(monkeypatch, 2, error)
        stdin = (
            '{"alpha": ["0"], "beta": ["1/2"]}\n'
            '{"alpha": ["0", "0"], "beta": ["1/2", "1/2"]}\n'
            '{"alpha": ["0", "1/3", "2/3"], "beta": ["1/2", "1/4", "3/4"]}\n'
        )
        code, out = run_cli(["batch"], stdin, monkeypatch)
        assert code == 0
        lines = [json.loads(l) for l in out.strip().splitlines()]
        assert len(lines) == 3
        assert lines[1] == {
            "schema_version": "1",
            "line": 2,
            "error": {"code": 4, "message": "injected engine failure"},
        }
        assert lines[2]["report"]["agree"] is True

    def test_each_answer_is_one_write(self, monkeypatch):
        # Under ``python -u`` each write goes to the pipe as it is made, so an
        # answer written in two pieces can reach its reader in two.
        class Recorder(io.StringIO):
            def __init__(self):
                super().__init__()
                self.writes = []

            def write(self, text):
                self.writes.append(text)
                return super().write(text)

        stdin = (
            '{"alpha": ["0", "1/2"], "beta": ["1/4", "3/4"]}\n'
            '{"alpha": ["1/3"], "beta": ["1/3"]}\n'
            "nonsense\n"
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        out = Recorder()
        with redirect_stdout(out):
            assert main(["batch"]) == 0
        assert len(out.writes) == 3
        for write in out.writes:
            assert write.endswith("\n") and write.count("\n") == 1
        docs = [json.loads(write) for write in out.writes]
        assert "profiles" in docs[0]
        assert [doc["error"]["code"] for doc in docs[1:]] == [3, 2]

    def test_each_document_is_flushed(self):
        # A closed-loop client reads each answer before sending the next
        # line, so the document must arrive while stdin is still open.
        proc = subprocess.Popen(
            [sys.executable, "-m", "hyphodge.cli", "batch"],
            env=cli_env(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            proc.stdin.write('{"alpha": ["0"], "beta": ["1/2"]}\n')
            proc.stdin.flush()
            ready, _, _ = select.select([proc.stdout], [], [], 30)
            assert ready, "no document before stdin was closed"
            assert json.loads(proc.stdout.readline())["command"] == "compute"
        finally:
            proc.stdin.close()
            proc.wait(timeout=30)
            proc.stdout.close()
        assert proc.returncode == 0

    def test_closed_output_pipe_exits_141_quietly(self, tmp_path):
        # The reader takes one document and goes away: the writer stops with
        # 128 + SIGPIPE, not with a traceback and the verification code 1.
        lines = tmp_path / "lines.jsonl"
        lines.write_text('{"alpha": ["0", "1/2"], "beta": ["1/4", "3/4"]}\n' * 3000)
        with lines.open() as stdin:
            proc = subprocess.Popen(
                [sys.executable, "-m", "hyphodge.cli", "batch", "--engine", "closed"],
                env=cli_env(),
                stdin=stdin,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            )
        try:
            assert json.loads(proc.stdout.readline())["command"] == "compute"
            proc.stdout.close()
            proc.wait(timeout=60)
            stderr = proc.stderr.read()
        finally:
            proc.kill()
            proc.stdout.close()
            proc.stderr.close()
        assert (proc.returncode, stderr) == (141, b"")



def memo_args(engine="both", normalize=False):
    return argparse.Namespace(engine=engine, normalize=normalize)


def cold_text(line, engine, normalize):
    """The compute document of ``line`` from the engines and the writer,
    bypassing the batch memo."""
    params = params_from_dict(json.loads(line))
    return compute_document_text(params, engine, *_compute(params, engine, normalize))


def distinct_residue_line(rng, n, den):
    """A rank-``n`` line of ``2 * n`` distinct residues ``k/den``, each
    ``k`` of as many digits as ``den``."""
    ks = set()
    while len(ks) < 2 * n:
        ks.add(rng.randrange(den // 2, den))
    ks = [f"{k}/{den}" for k in ks]
    return json.dumps({"alpha": ks[:n], "beta": ks[n:]})


MERSENNE_127 = (1 << 127) - 1
"""A prime of 127 bits: exponents over it have the longest texts the memo keeps."""

MEMO_BYTES_MAX = 3 << 20
"""The memo's worst case, as the README states it: 3 MiB."""


class TestBatchMemo:
    # The batch memo answers an instance it has seen from the kept document,
    # whatever the order of the pairs.  The premise is that the engines'
    # answer depends on the factors alone; these tests pin it on the batch
    # path, the closed engine included.
    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("engine", ["closed", "recursive", "both"])
    def test_permuted_line_is_the_cold_document(self, engine, normalize):
        rng = random.Random(20261020)
        instances = [
            disjoint_pool_instance(rng, rng.randint(1, 8), rng.randint(6, 30)) for _ in range(40)
        ]
        keys = {(p.den, tuple(sorted(zip(*p.numerators[1:])))) for p in instances}
        for params in instances:
            _batch_answer(json.dumps(params_to_dict(params)), memo_args(engine, normalize))
            for _ in range(3):
                order = list(range(params.n))
                rng.shuffle(order)
                line = json.dumps(
                    {
                        "alpha": [spell(rng, params.alpha[i]) for i in order],
                        "beta": [spell(rng, params.beta[i]) for i in order],
                    }
                )
                hits = _memo.cache_info().hits
                answer = _batch_answer(line, memo_args(engine, normalize))
                assert _memo.cache_info().hits == hits + 1
                assert answer == cold_text(line, engine, normalize)
        assert _memo.cache_info().currsize == len(keys) == len(instances)

    @pytest.mark.parametrize("error", ENGINE_ERRORS)
    def test_engine_error_is_never_memoized(self, monkeypatch, error):
        line = '{"alpha": ["0", "0"], "beta": ["1/2", "1/2"]}'
        with monkeypatch.context() as patch:
            fail_on_rank(patch, 2, error)
            with pytest.raises(error):
                _batch_answer(line, memo_args())
        assert _batch_answer(line, memo_args()) == cold_text(line, "both", False)
        assert json.loads(_batch_answer(line, memo_args()))["report"]["agree"] is True
        assert _memo.cache_info().currsize == 1

    def test_line_above_the_gate_skips_the_memo(self):
        rng = random.Random(20261021)
        den = MERSENNE_127
        at_gate = [distinct_residue_line(rng, 64, den), distinct_residue_line(rng, 2, den)]
        above = [
            distinct_residue_line(rng, 65, den),
            distinct_residue_line(rng, 2, (1 << 129) - 1),
        ]
        assert [params_from_dict(json.loads(line)).den.bit_length() for line in above] == [127, 129]
        for line in above:
            size = _memo.cache_info().currsize
            assert _batch_answer(line, memo_args("closed")) == cold_text(line, "closed", False)
            assert _memo.cache_info().currsize == size
        for line in at_gate:
            size = _memo.cache_info().currsize
            _batch_answer(line, memo_args("closed"))
            assert _memo.cache_info().currsize == size + 1

    def test_batch_memo_memory_is_flat(self, monkeypatch):
        # Twice the memo's size of distinct lines at the gate, rank 64 with
        # 128 distinct residues of 39-digit texts: a full memo of closed
        # answers, then as many ``both`` answers, the longest document kept,
        # which evict them all.  Every entry left was made under tracing, and
        # the memo stays under the README's bound.  The engines answer each
        # ``both`` line before tracing starts, as tracemalloc slows their
        # bigint arithmetic many times over; the traced pass parses, keys
        # and writes.
        from hyphodge import cli

        size = _memo.cache_info().maxsize
        rng = random.Random(20261022)
        lines = [distinct_residue_line(rng, 64, MERSENNE_127) for _ in range(2 * size)]
        for line in lines[:size]:
            _batch_answer(line, memo_args("closed"))
        assert _memo.cache_info().currsize == size
        computed = {}
        for line in lines[size:]:
            params = params_from_dict(json.loads(line))
            computed[params.numerators] = _compute(params, "both", False)
        monkeypatch.setattr(cli, "_compute", lambda params, *_args: computed[params.numerators])
        tracemalloc.start()
        try:
            for line in lines[size:]:
                _batch_answer(line, memo_args())
            held, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert _memo.cache_info().misses == 2 * size
        assert _memo.cache_info().currsize == size
        assert held < MEMO_BYTES_MAX, held


def spell(rng, r):
    """One of the texts the batch format accepts for the residue ``r``."""
    form = rng.randrange(6)
    if form == 1:
        return f" {r} "
    if form == 2:
        return f"{2 * r.numerator}/{2 * r.denominator}"
    if form == 3:
        return str(r + 1)
    if form == 4:
        return str(r - 1).replace("-", "\u2212")
    if form == 5 and r.denominator == 1:
        return r.numerator
    return str(r)


def digest_corpus(count=300, seed=20261018):
    """Seeded batch lines: valid ones of rank 1-12 (closed-only up to 32),
    repeats, and reducible, malformed and zero-denominator lines."""
    rng = random.Random(seed)
    grid = residue_grid(12)
    lines = []
    for _ in range(count):
        kind = rng.random()
        if lines and kind < 0.15:
            lines.append(rng.choice(lines))
            continue
        data = {}
        n = rng.randint(1, 12)
        if kind > 0.85:
            n = rng.randint(13, 32)
            data["engine"] = "closed"
        rng.shuffle(grid)
        cut = rng.randint(1, len(grid) - 1)
        alpha = [rng.choice(grid[:cut]) for _ in range(n)]
        beta = [rng.choice(grid[cut:]) for _ in range(n)]
        if 0.15 <= kind < 0.2:
            beta[rng.randrange(n)] = alpha[0]
        alpha = [spell(rng, r) for r in alpha]
        beta = [spell(rng, r) for r in beta]
        if 0.2 <= kind < 0.25:
            alpha[rng.randrange(n)] = rng.choice(["0.5", "1/", "", "1 / 2", 0.5, None])
        elif 0.25 <= kind < 0.28:
            beta[rng.randrange(n)] = rng.choice(["1/0", "-3/0", "0/00"])
        elif 0.28 <= kind < 0.3:
            lines.append(rng.choice(['{"alpha": ["0"]}', "not json", "[1, 2]"]))
            continue
        lines.append(json.dumps({"alpha": alpha, "beta": beta, **data}))
    return "".join(line + "\n" for line in lines)


class TestBatchDigest:
    # sha256 of the batch output over ``digest_corpus``, taken before the
    # exponent texts were memoized; any change to the bytes shows here.
    DIGESTS = {
        "closed": "e66630950d54e36152a3a6cf054cbea0fb619a252786308c490d738dc8144b30",
        "recursive": "3d6e2f7d851e627b79de1a2cef48c07eba090b7f8e4e9be3f8ac2c9965128914",
        "both": "bdc2df8c1eea42df7d55f7615c0d0b235301b7d84f908312e65e0a25ec9864f2",
    }

    @pytest.mark.parametrize("engine", DIGESTS)
    def test_output_bytes_are_pinned(self, monkeypatch, engine):
        code, out = run_cli(["batch", "--engine", engine], digest_corpus(), monkeypatch)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[engine]

    # The same corpus with ``--normalize``, which runs ``profile_min_p`` and
    # ``table_shift``; taken at the commit before tables held integer
    # residues.
    NORMALIZED = {
        "closed": "b9db022d1e44cec8e133a7ff43423f9e7b63d6c33260f3dfc42e0388540dc3ec",
        "recursive": "2a0917228346f4d87cc33871505f805679b45da87212ccce2cdce86176fab0d7",
        "both": "09c863aeb1f1cab7f1c12875a0f4e121d3f11cd06e9114e459edf250de7b7dce",
    }

    @pytest.mark.parametrize("engine", NORMALIZED)
    def test_normalized_output_bytes_are_pinned(self, monkeypatch, engine):
        argv = ["batch", "--engine", engine, "--normalize"]
        code, out = run_cli(argv, digest_corpus(), monkeypatch)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.NORMALIZED[engine]


def shapes_corpus(seed=20261020):
    """Seeded batch lines in the three benchmark shapes, as the benchmark
    spells them: closed-only lines of rank 16-64 over denominators up to 64,
    distinct lines of rank 4-10 up to 12, and a pool of four rank 1-4
    instances up to 6 re-sent permuted; then a reducible line, a malformed
    line, a line naming an unknown engine and a blank line among them."""
    rng = random.Random(seed)

    def instance(n, den_max):
        grid = residue_grid(den_max)
        rng.shuffle(grid)
        half = len(grid) // 2

        def exponents(pool):
            classes = rng.sample(pool, rng.randint(max(1, n - 2), n))
            out = classes + [rng.choice(classes) for _ in range(n - len(classes))]
            rng.shuffle(out)
            return [str(r) for r in out]

        return {"alpha": exponents(grid[:half]), "beta": exponents(grid[half:])}

    lines = [{**instance(n, 64), "engine": "closed"} for n in (16, 24, 32, 48, 64)]
    lines += [instance(n, 12) for n in (4, 6, 7, 10)]
    pool = [instance(n, 6) for n in (1, 2, 3, 4)]
    for _ in range(8):
        data = rng.choice(pool)
        order = list(range(len(data["alpha"])))
        rng.shuffle(order)
        lines.append({k: [data[k][i] for i in order] for k in ("alpha", "beta")})
    texts = [json.dumps(data, separators=(",", ":")) for data in lines]
    texts[3:3] = ['{"alpha":["1/3","1/2"],"beta":["1/4","1/3"]}', '{"alpha":["1/2"],']
    texts[9:9] = ['{"alpha":["0"],"beta":["1/2"],"engine":"magic"}', ""]
    return "".join(text + "\n" for text in texts)


class TestShapesDigest:
    # sha256 of the batch output over ``shapes_corpus``, taken before batch
    # answers were written as text by one writer.
    DIGESTS = {
        ("closed", False):
            "e3794c79a6b5660923c67423d450466e755430a021a018217e300579feb5156f",
        ("recursive", False):
            "8dc83bff9c4b1401f891d367c1efc5a873a8845063c71b1135511bf8bb1ba7c9",
        ("both", False):
            "e85171539c4c36fa0375433946a0d3ecf01db300b03176fc4bc1252cf72ed81e",
        ("closed", True):
            "22fcc02d5f4cadb50f369c12b3012308fe7f17bc85702bbca689c30e709f58ca",
        ("recursive", True):
            "ec800ea3dc50430af8f66a320dba5e433595ed753cb92983de91a4f585cc3f44",
        ("both", True):
            "1b8897e7039e323a813fc3d2b06a61a61ca1dd50ddfc6b96809bb6c131eb5fcf",
    }

    @pytest.mark.parametrize("engine, normalize", DIGESTS)
    def test_output_bytes_are_pinned(self, monkeypatch, engine, normalize):
        argv = ["batch", "--engine", engine] + ["--normalize"] * normalize
        code, out = run_cli(argv, shapes_corpus(), monkeypatch)
        assert code == 0
        docs = [json.loads(line) for line in out.splitlines()]
        assert len(docs) == 20
        assert [doc["error"]["code"] for doc in docs if "error" in doc] == [3, 2, 2]
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[engine, normalize]


def tsv_corpus(count=60, seed=20261019):
    """Seeded ``compute --format tsv`` argument lists: ranks 1-10, every
    engine, half of them normalized, exponents spelled in every accepted form."""
    rng = random.Random(seed)
    grid = residue_grid(12)
    runs = []
    for i in range(count):
        n = rng.randint(1, 10)
        rng.shuffle(grid)
        cut = rng.randint(1, len(grid) - 1)
        alpha = [str(spell(rng, rng.choice(grid[:cut]))) for _ in range(n)]
        beta = [str(spell(rng, rng.choice(grid[cut:]))) for _ in range(n)]
        argv = ["compute", "--alpha", ",".join(alpha), "--beta", ",".join(beta)]
        argv += ["--engine", ("closed", "recursive", "both")[i % 3], "--format", "tsv"]
        runs.append(argv + ["--normalize"] * (i % 2))
    return runs


def test_tsv_output_bytes_are_pinned():
    # sha256 of the TSV projection over ``tsv_corpus``, taken at the commit
    # before tables held integer residues.
    digest = hashlib.sha256()
    for argv in tsv_corpus():
        code, out = run_cli(argv)
        assert code == 0, argv
        digest.update(out.encode())
    assert digest.hexdigest() == "367490d4e4830b612baac289be1c1eb411221440773fb82b1904ace186d059cf"


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=6)
    | st.dictionaries(st.text(max_size=6), inner, max_size=6),
    max_leaves=12,
)
residues = st.sampled_from(["0", "1/2", "1/3", "2/3", "1/4", "3/4", "-1/5", "7"])
engines = st.sampled_from(["closed", "recursive", "both"])
# Equal-length lists of valid exponents, so most of these reach the engines.
instance_objects = st.integers(1, 6).flatmap(
    lambda n: st.fixed_dictionaries(
        {
            "alpha": st.lists(residues, min_size=n, max_size=n),
            "beta": st.lists(residues, min_size=n, max_size=n),
        },
        optional={"engine": engines},
    )
)
malformed_objects = st.fixed_dictionaries(
    {},
    optional={
        "alpha": st.lists(residues | st.integers(-3, 3) | json_values, max_size=6),
        "beta": st.lists(residues | st.integers(-3, 3) | json_values, max_size=6),
        "engine": engines | json_values,
    },
)
batch_lines = (
    st.text().map(lambda t: t.replace("\n", ""))
    | json_values.map(json.dumps)
    | malformed_objects.map(json.dumps)
    | instance_objects.map(json.dumps)
)

class TestBatchFuzz:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(batch_lines, max_size=6))
    def test_one_document_per_non_empty_line(self, lines):
        out = io.StringIO()
        with mock.patch("sys.stdin", io.StringIO("".join(l + "\n" for l in lines))):
            with redirect_stdout(out):
                assert main(["batch"]) == 0
        answered = [i + 1 for i, l in enumerate(lines) if l.strip()]
        docs = [json.loads(d) for d in out.getvalue().splitlines()]
        assert len(docs) == len(answered)
        for line_no, doc in zip(answered, docs):
            if "error" in doc:
                assert doc["line"] == line_no
                assert doc["error"]["code"] in (2, 3, 4)
                assert isinstance(doc["error"]["message"], str)
            else:
                assert doc["command"] == "compute"
                assert "profiles" in doc
