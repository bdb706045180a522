"""End-to-end checks of the command line: exit codes, output formats,
schema conformance, and golden transcripts.

Every command is exercised through ``main(argv)`` so the tests see exactly
what a shell user sees, including stderr and the process exit code.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from jsonschema import Draft202012Validator

import qlattice
from qlattice.cli import main

DATA = pathlib.Path(__file__).resolve().parent / "data"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
SCHEMAS = pathlib.Path(qlattice.__file__).resolve().parent / "schemas"

BISECTION3 = str(DATA / "bisection3.json")
PLANES7 = str(DATA / "planes7.json")
PROFILE_TIGHT = str(DATA / "profile_tight.json")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def load_schema(name):
    return json.loads((SCHEMAS / f"{name}.schema.json").read_text())


def check_against(payload, schema_name):
    Draft202012Validator(load_schema(schema_name)).validate(payload)


class TestScalars:
    def test_qbinom_json(self):
        code, out, err = run(["qbinom", "4", "2", "2"])
        assert (code, out, err) == (0, "35\n", "")

    @pytest.mark.parametrize("fmt", ["json", "table", "csv"])
    def test_scalar_is_bare_in_every_format(self, fmt):
        code, out, _ = run(["qbinom", "4", "2", "2", "--format", fmt])
        assert code == 0
        assert out == "35\n"

    def test_altsum_positive_dimension(self):
        code, out, _ = run(["altsum", "5", "3"])
        assert (code, out) == (0, "0\n")

    def test_altsum_zero_dimension(self):
        code, out, _ = run(["altsum", "0", "2"])
        assert (code, out) == (0, "1\n")

    def test_qbinom_rejects_q_below_two(self):
        code, out, err = run(["qbinom", "4", "2", "1"])
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert payload["error"]["kind"] == "DomainError"
        assert "q must be >= 2" in payload["error"]["message"]


class TestExitCodes:
    def test_unknown_subcommand(self):
        code, _, _ = run(["nosuchcmd"])
        assert code == 2

    def test_no_arguments(self):
        code, _, _ = run([])
        assert code == 2

    def test_check_requires_a_predicate(self):
        code, _, _ = run(["check", "--family", BISECTION3])
        assert code == 2

    def test_check_rejects_two_predicates(self):
        code, _, _ = run(
            ["check", "--family", BISECTION3,
             "--profile", PROFILE_TIGHT, "--fractions", "1/2"]
        )
        assert code == 2

    def test_failed_check_exits_one(self):
        code, out, _ = run(["check", "--family", PLANES7, "--fractions", "1/3"])
        assert code == 1
        payload = json.loads(out)
        assert payload["ok"] is False
        assert payload["witness"] is not None

    def test_zero_subspace_fails_a_fractional_check(self, write_json):
        family = write_json("zero.json", {"q": {"p": 2, "e": 1}, "n": 2,
                                          "subspaces": [[], [[1, 0]], [[1, 0], [0, 1]]]})
        code, out, err = run(["check", "--family", family, "--fractions", "1/2,1/3,1/4"])
        assert (code, err) == (1, "")
        assert json.loads(out) == {"kind": "fractional", "size": 3, "ok": False,
                                   "witness": [0], "detail": "member 0 has dim 0, not positive"}
        code, out, _ = run(["bound", "--theorem", "frac", "--n", "2", "--q", "2",
                            "--fractions", "1/2,1/3,1/4"])
        assert code == 0 and json.loads(out)["bound"] == 2

    @pytest.mark.parametrize("q, message", [
        ({"p": 4, "e": 1}, "field characteristic must be prime, got 4"),
        ({"p": 2, "e": 2, "modulus": [1, 0, 1]}, "modulus [1, 0, 1] is reducible over GF(2)"),
        ({"p": 3, "e": 6}, "q = 729 exceeds the supported ceiling 256"),
        ({"p": 2, "e": 20000}, "q = 2^20000 exceeds the supported ceiling 256"),
    ])
    def test_family_field_error_reaches_stderr(self, write_json, q, message):
        family = write_json("family.json", {"q": q, "n": 2, "subspaces": [[[1, 0]]]})
        code, out, err = run(["check", "--family", family, "--fractions", "1/2"])
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == {"kind": "DomainError", "message": message}

    def test_malformed_family_still_named(self, write_json):
        family = write_json("family.json", {"q": {"p": 2, "e": 1}, "subspaces": []})
        code, out, err = run(["check", "--family", family, "--fractions", "1/2"])
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["message"] == (
            "malformed family description: keys q, n, subspaces required"
        )

    def test_huge_field_degree_answers_at_once(self, tmp_path):
        # 2^(10^9) took 7.7 s and 430 MB to refuse. A fresh process, so a
        # regression fails at the timeout.
        family = tmp_path / "family.json"
        family.write_text(json.dumps({"q": {"p": 2, "e": 10 ** 9}, "n": 2, "subspaces": []}))
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(qlattice.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "qlattice.cli", "check", "--family", str(family),
             "--fractions", "1/2"],
            capture_output=True, text=True, env=env, timeout=5,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert json.loads(proc.stderr)["error"] == {
            "kind": "DomainError",
            "message": "q = 2^1000000000 exceeds the supported ceiling 256",
        }

    @pytest.mark.parametrize("text, message", [
        ("1-2", "fraction '1-2' must look like a/b"),
        ("a/2", "fraction 'a/2' must have integer parts"),
        ("3/2", "fraction 3/2 outside (0, 1)"),
        ("2/4", "fraction 2/4 is not in lowest terms"),
    ])
    @pytest.mark.parametrize("flag", [["--theorem", "singleton", "--frac"],
                                      ["--theorem", "frac", "--fractions"]])
    def test_one_fraction_parser_and_validator(self, flag, text, message):
        code, out, err = run(["bound", "--n", "4", "--q", "2", *flag, text])
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == {"kind": "DomainError", "message": message}

    def test_lattice_budget_must_be_positive(self):
        code, out, err = run(["qbinom", "4", "2", "2", "--lattice-budget", "0"])
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == {"kind": "DomainError",
                                            "message": "lattice budget must be positive"}

    @pytest.mark.parametrize("argv", [
        ["enum", "--n", "3", "--q", "2305843009213693951", "--dim", "1", "--count-only"],
        ["search", "--n", "3", "--q", "2305843009213693951", "--fractions", "1/2"],
    ])
    def test_large_prime_q_answers_at_once(self, argv):
        # q = 2^61 - 1 is prime: trial division up to its square root never
        # returned. A fresh process, so a regression fails at the timeout.
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(qlattice.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-m", "qlattice.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=10)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert json.loads(proc.stderr)["error"] == {
            "kind": "DomainError",
            "message": "q = 2305843009213693951 exceeds the supported ceiling 256",
        }

    def test_excluded_pair_is_a_usage_error_for_bounds(self):
        code, out, err = run(
            ["bound", "--theorem", "main", "--n", "6", "--q", "2",
             "--b", "6", "--K", "1", "--L", "2"]
        )
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert payload["error"]["kind"] == "UnsupportedParametersError"
        assert payload["error"]["clause"] == "q_2_b_6"

    def test_excluded_pair_is_plain_data_for_zsigmondy(self):
        # The lookup itself reports the exclusion as a result, not a failure.
        code, out, _ = run(["zsigmondy", "2", "6"])
        assert code == 0
        payload = json.loads(out)
        assert payload["prime"] is None
        assert payload["exception"]["clause"] == "q_2_b_6"

    def test_zsigmondy_with_large_prime_factor_finishes(self):
        # fresh processes, so a regression fails at the timeout instead of
        # hanging; each answer is above PSI_13, and its p - 1 keeps a
        # composite part after trial division that rho splits for the proof
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(qlattice.__file__).resolve().parents[1]))
        for q, b, prime in [
            (2, 107, 162259276829213363391578010288127),
            (5, 47, 177635683940025046467781066894531),
            (3, 71, 3754733257489862401973357979128773),
        ]:
            proc = subprocess.run(
                [sys.executable, "-m", "qlattice.cli", "zsigmondy", str(q), str(b)],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert (proc.returncode, proc.stderr) == (0, "")
            assert json.loads(proc.stdout) == {
                "q": q, "b": b, "prime": prime, "order": b, "exception": None}

    def test_zsigmondy_proves_a_large_prime(self):
        # 2^89 - 1 is above PSI_13, and 2^89 - 2 factors completely
        code, out, err = run(["zsigmondy", "2", "89"])
        assert (code, err) == (0, "")
        assert json.loads(out)["prime"] == 618970019642690137449562111

    def test_lattice_budget_exhaustion_exits_three(self):
        code, out, err = run(
            ["enum", "--n", "8", "--q", "3", "--dim", "4",
             "--lattice-budget", "10"]
        )
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"]["kind"] == "ResourceLimitError"
        # The flag is scoped to the command, not the process.
        assert qlattice.lattice_budget() == qlattice.budgets.DEFAULT_LATTICE_BUDGET

    def test_lowered_budget_applies_to_cached_lattice(self):
        argv = ["search", "--n", "3", "--q", "2", "--fractions", "1/2"]
        assert run(argv)[0] == 0  # builds and caches the 16-subspace lattice
        code, out, err = run(argv + ["--lattice-budget", "5"])
        assert (code, out) == (3, "")
        assert json.loads(err)["error"]["kind"] == "ResourceLimitError"

    def test_float_overflow_in_frac_bound_exits_three(self):
        code, out, err = run(
            ["bound", "--theorem", "frac", "--n", "130", "--q", "256", "--fractions", "1/2"]
        )
        assert (code, out) == (3, "")
        assert json.loads(err)["error"]["kind"] == "ResourceLimitError"

    @pytest.mark.parametrize("flag", ["--seed", "--threads"])
    def test_removed_flags_are_usage_errors(self, flag):
        assert run(["qbinom", "4", "2", "2", flag, "1"])[0] == 2

    def test_count_only_never_materializes(self):
        from qlattice.qcombin import qbinom

        code, out, _ = run(["enum", "--n", "8", "--q", "3", "--dim", "4",
                            "--lattice-budget", "10", "--count-only"])
        assert code == 0
        assert json.loads(out)["count"] == qbinom(8, 4, 3)

    def test_truncated_search_exits_three_with_payload(self):
        code, out, _ = run(
            ["search", "--n", "3", "--q", "2", "--fractions", "1/2",
             "--max-nodes", "1"]
        )
        assert code == 3
        payload = json.loads(out)
        assert payload["exhausted"] is False
        assert payload["nodes"] <= 1

    def test_deep_clique_search_exits_zero(self, tmp_path):
        # all 1057 lines of GF(32)^3 pairwise meet in 0: one clique of depth
        # 1057, deeper than the interpreter's recursion limit
        profile = tmp_path / "lines.json"
        profile.write_text(json.dumps({"b": 2, "K": [1], "L": [0]}))
        code, out, err = run(["search", "--n", "3", "--q", "32", "--profile", str(profile)])
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert (payload["size"], payload["exhausted"], payload["nodes"]) == (1057, True, 1057)


# Usage errors found after parsing: (id, argv, DomainError message). {missing}
# names a file that does not exist and {bad} one that holds no JSON.
BOUND = ["bound", "--n", "4", "--q", "2", "--theorem"]
USAGE_ERRORS = [
    ("int-list", BOUND + ["main", "--b", "3", "--K", "2,x", "--L", "1"],
     "expected a comma-separated integer list, got '2,x'"),
    ("missing-file", ["check", "--family", "{missing}", "--fractions", "1/2"],
     "cannot read {missing}: [Errno 2] No such file or directory: '{missing}'"),
    ("invalid-json", ["check", "--family", "{bad}", "--fractions", "1/2"],
     "{bad} is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    ("main-inline", BOUND + ["main", "--b", "3", "--K", "2"],
     "give --profile, or all of --b, --K, --L"),
    ("frac", BOUND + ["frac"], "--theorem frac needs --fractions"),
    ("singleton", BOUND + ["singleton"], "--theorem singleton needs --frac a/b"),
    ("frankl-graham", BOUND + ["frankl-graham", "--k", "2", "--b", "3"],
     "--theorem frankl-graham needs --k, --b, --mus"),
    ("gram-base", ["gram", "--family", BISECTION3, "--base", "3", "--frac", "1/2"],
     "--frac denominator 2 must equal --base 3"),
    ("uniform", ["example", "uniform", "--k", "2", "--s", "1"],
     "example uniform needs --k, --s, --q"),
    ("frac-uniform", ["example", "frac-uniform", "--s", "2", "--q", "2"],
     "example frac-uniform needs --s, --n, --q"),
    ("bisection", ["example", "bisection", "--q", "2"], "example bisection needs --n, --q"),
]


@pytest.mark.parametrize(
    "argv, message", [case[1:] for case in USAGE_ERRORS], ids=[case[0] for case in USAGE_ERRORS]
)
def test_usage_errors_exit_two(tmp_path, argv, message):
    paths = {"missing": str(tmp_path / "missing.json"), "bad": str(tmp_path / "bad.json")}
    (tmp_path / "bad.json").write_text("not json", encoding="utf-8")
    code, out, err = run([arg.format(**paths) for arg in argv])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {"kind": "DomainError", "message": message.format(**paths)}


SEARCH3 = ["search", "--n", "3", "--q", "2", "--fractions", "1/2"]


class TestBudgetScope:
    """--lattice-budget and --time-budget hold for one command, through budgets.budget."""

    @pytest.fixture(autouse=True)
    def built_lattice(self):
        """Build GF(2)^3 before any clock is faked. A first build checks the
        deadline once per dimension step, so the clock reads counted below
        are those of a command that finds the lattice cached."""
        qlattice.lattice(qlattice.field(2), 3)

    @pytest.fixture
    def outside(self):
        """The scope and environment main() must leave as it found them."""
        from qlattice.budgets import DEFAULT_LATTICE_BUDGET

        def environ():
            # pytest rewrites PYTEST_CURRENT_TEST between set-up and call
            return {k: v for k, v in os.environ.items() if k != "PYTEST_CURRENT_TEST"}

        before = environ()

        def check():
            assert qlattice.lattice_budget() == DEFAULT_LATTICE_BUDGET
            assert qlattice.budgets.current_deadline() is None
            assert environ() == before

        return check

    @staticmethod
    def _record(monkeypatch, module, name, seen, fail=None):
        """Wrap <module>.<name>, where the handler reads it, to note the scope it
        runs in, then raise fail if given."""
        original = getattr(module, name)

        def wrapped(*args, **kwargs):
            seen.append((qlattice.lattice_budget(), qlattice.budgets.current_deadline()))
            if fail is not None:
                raise fail
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    def test_restored_after_success(self, monkeypatch, outside, fake_clock):
        # the search handler imports max_family from qlattice.search when it runs
        seen = []
        self._record(monkeypatch, qlattice.search, "max_family", seen)
        code, out, err = run(SEARCH3 + ["--lattice-budget", "100", "--time-budget", "30"])
        assert (code, err) == (0, "")
        assert seen == [(100, 30.0)]
        outside()

    def test_restored_after_resource_error(self, outside):
        code, out, err = run(SEARCH3 + ["--lattice-budget", "5", "--time-budget", "30"])
        assert (code, out) == (3, "")
        assert json.loads(err)["error"]["kind"] == "ResourceLimitError"
        outside()

    def test_restored_after_unexpected_exception(self, monkeypatch, outside, fake_clock):
        seen = []
        self._record(monkeypatch, qlattice.cli, "qbinom", seen, fail=RuntimeError("boom"))
        code, out, err = run(["qbinom", "4", "2", "2", "--lattice-budget", "7"])
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == {"kind": "RuntimeError", "message": "boom"}
        assert seen == [(7, None)]
        outside()

    @pytest.mark.parametrize("step,phase", [(5, "lattice"), (1, "incidence"), (0.6, "graph")])
    def test_time_budget_covers_lattice_and_graph(self, fake_clock, step, phase):
        # entry reads 0, the lattice check reads step, the check after the
        # one block of the line-mask transposition 2·step, the first row
        # check 3·step
        fake_clock.step = step
        code, out, err = run(SEARCH3 + ["--time-budget", "1.5"])
        assert (code, out) == (3, "")
        progress = {"lattice": {}, "incidence": {"transposed": 15, "masks": 15},
                    "graph": {"rows": 1, "vertices": 15}}[phase]
        assert json.loads(err)["error"] == {
            "kind": "ResourceLimitError",
            "message": f"time budget ran out in {phase}",
            "partial": {"phase": phase, **progress},
        }

    def test_lattice_budget_error_carries_the_size(self):
        code, out, err = run(SEARCH3 + ["--lattice-budget", "5"])
        assert (code, out) == (3, "")
        assert json.loads(err)["error"] == {
            "kind": "ResourceLimitError",
            "message": "16 subspaces of GF(2)^3 exceed the lattice budget 5",
            "partial": {"size": 16},
        }

    def test_time_budget_runs_out_in_search(self, fake_clock):
        fake_clock.step = 1
        # entry 0, lattice 1, incidence 2, 15 rows 3..17, nodes from 18
        code, out, err = run(SEARCH3 + ["--time-budget", "20.5"])
        assert (code, err) == (3, "")
        payload = json.loads(out)
        assert (payload["vertices"], payload["exhausted"], payload["nodes"]) == (15, False, 3)

    def test_time_budget_validation(self):
        for value in ("0", "-2", "nan"):
            code, out, err = run(SEARCH3 + ["--time-budget", value])
            assert (code, out) == (2, "")
            assert json.loads(err)["error"] == {
                "kind": "DomainError",
                "message": f"time_budget must be positive, got {float(value)}"}

    def test_infinite_time_budget_is_no_budget(self):
        assert run(SEARCH3 + ["--time-budget", "inf"]) == run(SEARCH3)

    def test_negative_ambient_exits_two(self):
        code, out, err = run(["search", "--n", "-1", "--q", "2", "--fractions", "1/2"])
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == {
            "kind": "DomainError", "message": "ambient dimension must be >= 0, got -1"}

    @pytest.mark.parametrize("dim", ["9", "-1", "4"])
    def test_dims_outside_the_ambient_exit_two(self, dim):
        code, out, err = run(SEARCH3 + ["--dims", f"1,{dim}"])
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == {
            "kind": "DomainError", "message": f"dim_filter entry {dim} lies outside [0, 3]"}

    def test_dims_at_the_ends_of_the_ambient(self):
        code, out, _ = run(SEARCH3 + ["--dims", "0,3"])
        assert code == 0
        assert json.loads(out)["vertices"] == 1


# Every subcommand with extreme arguments: huge n, q = 256, empty lists.
# {E} is an empty family in GF(256)^100000.
EXTREME = [
    ["qbinom", "100000", "50000", "256"],
    ["qbinom", "3000", "1500", "2"],
    ["altsum", "100000", "256"],
    ["zsigmondy", "256", "97", "--ceiling", "1000"],
    ["zsigmondy", "256", "100000"],
    ["enum", "--n", "100000", "--q", "256", "--dim", "1", "--count-only"],
    ["enum", "--n", "40", "--q", "256", "--dim", "2"],
    ["check", "--family", PLANES7, "--fractions", ""],
    ["check", "--family", "{E}", "--fractions", "1/2"],
    ["bound", "--theorem", "main", "--n", "100000", "--q", "256", "--b", "3", "--K", "2",
     "--L", ""],
    ["bound", "--theorem", "frac", "--n", "3000", "--q", "2", "--fractions", "1/2"],
    ["bound", "--theorem", "singleton", "--n", "100000", "--q", "256", "--frac", "1/2"],
    ["bound", "--theorem", "frankl-graham", "--n", "100000", "--q", "256", "--k", "3",
     "--b", "5", "--mus", ""],
    ["certify", "--family", "{E}", "--profile", PROFILE_TIGHT, "--variant", "swallow1"],
    ["certify", "--family", PLANES7, "--profile", PROFILE_TIGHT, "--variant", "lemma41",
     "--prime", "20000000000000002559"],
    ["partition", "--family", "{E}", "--base", "256"],
    ["partition", "--family", PLANES7, "--prime", "1"],
    ["gram", "--family", "{E}", "--base", "256", "--frac", "1/256"],
    ["gram", "--family", PLANES7, "--base", "256", "--frac", "1/256"],
    ["search", "--n", "100000", "--q", "256", "--fractions", "1/2"],
    ["search", "--n", "3", "--q", "2", "--fractions", "1/2", "--dims", ""],
    ["example", "uniform", "--k", "100000", "--s", "1", "--q", "256"],
    ["example", "uniform", "--k", "100", "--s", "100", "--q", "256"],
    ["example", "frac-uniform", "--s", "1", "--n", "100000", "--q", "256"],
    ["example", "bisection", "--n", "100000", "--q", "256"],
]


class TestTotality:
    @pytest.mark.parametrize("argv", EXTREME, ids=lambda argv: " ".join(argv)[:60])
    def test_extreme_arguments(self, argv, write_json):
        empty = write_json("empty.json", {"n": 100000, "q": {"p": 2, "e": 8}, "subspaces": []})
        code, out, err = run([empty if a == "{E}" else a for a in argv])
        assert code in (0, 1, 2, 3)
        if code >= 2 and not out:
            assert set(json.loads(err)) == {"error"}
        else:
            assert err == ""
            json.loads(out)

    def test_subcommands_all_covered(self):
        parser_commands = {"qbinom", "altsum", "zsigmondy", "enum", "check", "bound",
                           "certify", "partition", "gram", "search", "example"}
        assert {argv[0] for argv in EXTREME} == parser_commands

    def test_long_integers_print_exactly(self):
        from qlattice.qcombin import qbinom

        limit = getattr(sys, "get_int_max_str_digits", lambda: None)
        before = limit()
        code, out, err = run(["qbinom", "300", "150", "2"])
        assert (code, err) == (0, "")
        assert limit() == before
        code, enum_out, _ = run(["enum", "--n", "300", "--q", "2", "--dim", "150",
                                 "--count-only"])
        assert code == 0 and limit() == before
        digits = out.strip()
        assert len(digits) > 4300 and digits.isdigit()
        with contextlib.ExitStack() as stack:
            if before is not None:
                sys.set_int_max_str_digits(0)
                stack.callback(sys.set_int_max_str_digits, before)
            assert int(digits) == qbinom(300, 150, 2)
            assert json.loads(enum_out)["count"] == int(digits)

    def test_qbinom_over_ceiling_exits_three(self):
        for argv in (["qbinom", "3000", "1500", "2"], ["qbinom", "100000", "50000", "256"]):
            code, out, err = run(argv)
            assert (code, out) == (3, "")
            assert json.loads(err)["error"]["kind"] == "ResourceLimitError"

    @pytest.mark.parametrize("argv", [
        ["example", "uniform", "--k", "100", "--s", "100", "--q", "256"],
        ["zsigmondy", "256", "100000"],
    ])
    def test_huge_sizes_exit_three(self, argv):
        # [200 100]_256 has far more than 4300 digits, and trial division of
        # the 800000-bit 256^100000 - 1 ran for minutes
        code, out, err = run(argv)
        assert (code, out) == (3, "")
        assert json.loads(err)["error"]["kind"] == "ResourceLimitError"

    def test_huge_count_in_partial_is_named_by_bit_length(self):
        code, out, err = run(["example", "uniform", "--k", "100", "--s", "100", "--q", "256"])
        assert (code, out) == (3, "")
        assert json.loads(err)["error"]["partial"] == {"count": "at least 2^80000"}

    def test_safe_prime_override_answers_at_once(self):
        # checking p by factoring p - 1 ran for minutes on this safe prime;
        # only b = 3 is factored now
        code, out, err = run(["certify", "--family", PLANES7, "--profile", PROFILE_TIGHT,
                              "--variant", "lemma41", "--prime", "20000000000000002559"])
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["kind"] == "DomainError"

    @pytest.mark.parametrize("exc, code", [(KeyError("x"), 2), (ZeroDivisionError(), 2),
                                           (RecursionError(), 3), (MemoryError(), 3)])
    def test_unexpected_exceptions_become_json_errors(self, monkeypatch, exc, code):
        import qlattice.cli as cli

        def boom(args):
            raise exc

        monkeypatch.setattr(cli, "_cmd_qbinom", boom)
        got, out, err = run(["qbinom", "4", "2", "2"])
        assert (got, out) == (code, "")
        assert json.loads(err)["error"]["kind"] == type(exc).__name__


class TestFieldTablesBuiltOnlyWhenUsed:
    """Size ceilings, counts and listings never build a field's tables."""

    @pytest.fixture
    def no_tables(self, monkeypatch):
        from qlattice import gfspace

        def refuse(ctx):
            raise AssertionError(f"tables of {ctx!r} built")

        # fields cached by earlier tests may hold their tables already
        gfspace._field_cached.cache_clear()
        monkeypatch.setattr(gfspace.FieldContext, "_build_tables", refuse)

    def test_enum_count_only(self, no_tables):
        code, out, err = run(["enum", "--n", "3", "--q", "256", "--dim", "1", "--count-only"])
        assert (code, err) == (0, "")
        assert json.loads(out) == {"count": 65793, "dim": 1, "n": 3, "q": 256}

    def test_enum_listing(self, no_tables):
        # listing builds canonical bases, which needs no field arithmetic
        code, out, err = run(["enum", "--n", "2", "--q", "256", "--dim", "1"])
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["count"] == len(payload["subspaces"]) == 257
        assert payload["subspaces"][0] == [[0, 1]] and payload["subspaces"][-1] == [[1, 255]]

    def test_example_uniform(self, no_tables):
        code, out, err = run(["example", "uniform", "--k", "1", "--s", "1", "--q", "256"])
        assert (code, err) == (0, "")
        assert json.loads(out)["size"] == 257

    def test_fixture_refuses_arithmetic(self, no_tables):
        code, _, err = run(["example", "bisection", "--n", "2", "--q", "256"])
        assert code == 2
        assert "tables of GF(256; modulus=" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("argv", [
        ["search", "--n", "6", "--q", "256", "--fractions", "1/2"],
        ["example", "uniform", "--k", "3", "--s", "3", "--q", "256"],
        ["example", "frac-uniform", "--s", "3", "--n", "6", "--q", "256"],
        ["example", "bisection", "--n", "6", "--q", "256"],
    ])
    def test_over_budget_before_the_field(self, no_tables, argv):
        code, out, err = run(argv)
        assert (code, out) == (3, "")
        assert json.loads(err)["error"]["kind"] == "ResourceLimitError"

    @pytest.mark.parametrize("q, message", [("6", "q = 6 is not a prime power"),
                                            ("512", "q = 512 exceeds the supported ceiling 256")])
    @pytest.mark.parametrize("argv", [
        ["enum", "--n", "3", "--dim", "1", "--count-only"],
        ["search", "--n", "100000", "--fractions", "1/2"],
        ["example", "uniform", "--k", "100", "--s", "100"],
    ])
    def test_bad_q_still_reported_first(self, no_tables, argv, q, message):
        code, out, err = run(argv + ["--q", q])
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == {"kind": "DomainError", "message": message}


class TestFormats:
    def test_json_is_canonical(self):
        # Sorted keys, two-space indent, trailing newline.
        code, out, _ = run(["zsigmondy", "2", "3"])
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"

    def test_table_two_columns(self):
        code, out, _ = run(
            ["bound", "--theorem", "singleton", "--n", "4", "--q", "2",
             "--frac", "1/2", "--format", "table"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines
        for line in lines:
            key, _, rest = line.partition("  ")
            assert key and rest

    def test_csv_single_record(self):
        code, out, _ = run(
            ["bound", "--theorem", "singleton", "--n", "4", "--q", "2",
             "--frac", "1/2", "--format", "csv"]
        )
        assert code == 0
        assert "\r" not in out
        records = list(csv.reader(io.StringIO(out)))
        assert len(records) == 2
        header, values = records
        assert len(header) == len(values)
        assert values[header.index("bound")] == "34"

    def test_profile_file_and_inline_flags_agree(self):
        inline = run(["bound", "--theorem", "main", "--n", "3", "--q", "2",
                      "--b", "3", "--K", "2", "--L", "1"])
        from_file = run(["bound", "--theorem", "main", "--n", "3", "--q", "2",
                         "--profile", PROFILE_TIGHT])
        assert inline == from_file
        assert inline[0] == 0
        assert json.loads(inline[1])["bound"] == 7


GOLDEN_CASES = {
    "qbinom.txt": ["qbinom", "4", "2", "2"],
    "zsigmondy_prime.json": ["zsigmondy", "2", "3"],
    "zsigmondy_exception.json": ["zsigmondy", "2", "6"],
    "enum_count.json": ["enum", "--n", "3", "--q", "2", "--dim", "1",
                        "--count-only"],
    "bound_singleton.json": ["bound", "--theorem", "singleton", "--n", "4",
                             "--q", "2", "--frac", "1/2"],
    "bound_singleton.table.txt": ["bound", "--theorem", "singleton", "--n", "4",
                                  "--q", "2", "--frac", "1/2",
                                  "--format", "table"],
    "bound_singleton.csv": ["bound", "--theorem", "singleton", "--n", "4",
                            "--q", "2", "--frac", "1/2", "--format", "csv"],
    "example_bisection.json": ["example", "bisection", "--n", "3", "--q", "2"],
    "search_frac.json": ["search", "--n", "3", "--q", "2",
                         "--fractions", "1/2"],
    "certify_swallow1.json": ["certify", "--family", PLANES7,
                              "--profile", PROFILE_TIGHT,
                              "--variant", "swallow1"],
    "check_bisection.json": ["check", "--family", BISECTION3,
                             "--fractions", "1/2"],
    "partition_power.json": ["partition", "--family", BISECTION3,
                             "--base", "2"],
    "gram_bisection.json": ["gram", "--family", BISECTION3, "--base", "2",
                            "--frac", "1/2"],
}


class TestGolden:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_byte_identical(self, name):
        code, out, err = run(GOLDEN_CASES[name])
        assert code == 0, err
        assert out == (GOLDEN / name).read_text()

    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "--n", "3", "--q", "2", "--fractions", "1/2"],
            ["example", "uniform", "--k", "2", "--s", "1", "--q", "2"],
            ["certify", "--family", PLANES7, "--profile", PROFILE_TIGHT,
             "--variant", "swallow1"],
        ],
        ids=["search", "example", "certify"],
    )
    def test_repeat_runs_identical(self, argv):
        first = run(argv)
        second = run(argv)
        assert first == second


class TestSchemas:
    @pytest.mark.parametrize(
        "name",
        [p.name.removesuffix(".schema.json") for p in sorted(SCHEMAS.glob("*.schema.json"))],
    )
    def test_schema_files_are_valid(self, name):
        Draft202012Validator.check_schema(load_schema(name))

    def test_scalar_payloads(self):
        for argv in (["qbinom", "4", "2", "2"], ["altsum", "5", "3"]):
            code, out, _ = run(argv)
            assert code == 0
            check_against(json.loads(out), "scalar")

    def test_zsigmondy_payloads(self):
        for b in ("3", "6"):
            code, out, _ = run(["zsigmondy", "2", b])
            assert code == 0
            check_against(json.loads(out), "zsigmondy")

    def test_enum_payloads(self):
        code, out, _ = run(["enum", "--n", "3", "--q", "2", "--dim", "2"])
        assert code == 0
        payload = json.loads(out)
        check_against(payload, "enum")
        assert payload["count"] == 7
        assert len(payload["subspaces"]) == 7
        code, out, _ = run(["enum", "--n", "3", "--q", "2", "--dim", "2",
                            "--count-only"])
        assert code == 0
        check_against(json.loads(out), "enum")

    def test_check_payloads(self):
        code, out, _ = run(["check", "--family", PLANES7,
                            "--profile", PROFILE_TIGHT])
        assert code == 0
        payload = json.loads(out)
        check_against(payload, "check")
        assert payload["ok"] is True and payload["kind"] == "modular"
        code, out, _ = run(["check", "--family", PLANES7,
                            "--fractions", "1/3"])
        assert code == 1
        check_against(json.loads(out), "check")

    @pytest.mark.parametrize(
        "argv, bound",
        [
            (["bound", "--theorem", "main", "--n", "3", "--q", "2",
              "--b", "3", "--K", "2", "--L", "1"], 7),
            (["bound", "--theorem", "frac", "--n", "4", "--q", "2",
              "--fractions", "1/2"], 713),
            (["bound", "--theorem", "singleton", "--n", "4", "--q", "2",
              "--frac", "1/2"], 34),
            (["bound", "--theorem", "frankl-graham", "--n", "3", "--q", "2",
              "--b", "3", "--k", "2", "--mus", "1"], 7),
        ],
        ids=["main", "frac", "singleton", "frankl-graham"],
    )
    def test_bound_payloads(self, argv, bound):
        code, out, _ = run(argv)
        assert code == 0
        payload = json.loads(out)
        check_against(payload, "bound")
        assert payload["bound"] == bound

    @pytest.mark.parametrize("variant, rows", [("swallow1", 8), ("lemma52", 1)])
    def test_certificate_payloads(self, variant, rows):
        code, out, _ = run(["certify", "--family", PLANES7,
                            "--profile", PROFILE_TIGHT, "--variant", variant])
        assert code == 0
        payload = json.loads(out)
        check_against(payload, "certificate")
        assert payload["variant"] == variant
        assert len(payload["rows"]) == rows
        assert payload["rank"] == rows
        assert payload["verdict"] == "independent"

    def test_search_payloads(self):
        code, out, _ = run(["search", "--n", "3", "--q", "2",
                            "--fractions", "1/2"])
        assert code == 0
        payload = json.loads(out)
        check_against(payload, "search")
        assert payload["size"] == 7 and payload["exhausted"] is True
        code, out, _ = run(["search", "--n", "3", "--q", "2",
                            "--fractions", "1/2", "--max-nodes", "1"])
        assert code == 3
        check_against(json.loads(out), "search")

    @pytest.mark.parametrize(
        "argv",
        [
            ["example", "uniform", "--k", "2", "--s", "1", "--q", "2"],
            ["example", "frac-uniform", "--s", "2", "--n", "4", "--q", "2"],
            ["example", "bisection", "--n", "3", "--q", "2"],
        ],
        ids=["uniform", "frac-uniform", "bisection"],
    )
    def test_example_payloads(self, argv):
        code, out, _ = run(argv)
        assert code == 0
        check_against(json.loads(out), "example")

    def test_partition_payloads(self):
        code, out, _ = run(["partition", "--family", PLANES7, "--prime", "5"])
        assert code == 0
        payload = json.loads(out)
        check_against(payload, "partition")
        assert payload["kind"] == "mod-prime"
        assert payload["cells"] == {"2": [0, 1, 2, 3, 4, 5, 6]}
        code, out, _ = run(["partition", "--family", BISECTION3,
                            "--base", "2"])
        assert code == 0
        payload = json.loads(out)
        check_against(payload, "partition")
        assert payload["kind"] == "power-cells"

    def test_gram_payload(self):
        code, out, _ = run(["gram", "--family", BISECTION3, "--base", "2",
                            "--frac", "1/2"])
        assert code == 0
        check_against(json.loads(out), "gram")

    def test_family_fixtures_match_their_schema(self):
        for path in (BISECTION3, PLANES7):
            check_against(json.loads(pathlib.Path(path).read_text()), "family")

    def test_profile_fixture_matches_its_schema(self):
        check_against(json.loads(pathlib.Path(PROFILE_TIGHT).read_text()),
                      "profile")

    def test_fraction_sidecar_schema(self):
        check_against({"fractions": ["1/2", "2/3"]}, "fractions")
        with pytest.raises(Exception):
            check_against({"fractions": ["half"]}, "fractions")
