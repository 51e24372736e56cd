"""Tests for the command line front end: exit codes, JSON output, caps."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from veralg import cases, cli


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv + ["--json"])
    return code, json.loads(out), err


def run_fresh(args, hash_seed="0"):
    """``python ARGS`` in a fresh interpreter on these sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONHASHSEED"] = hash_seed
    return subprocess.run(
        [sys.executable, *args],
        env=env,
        capture_output=True,
        timeout=120,
    )


def stdout_sha256(argv, hash_seed):
    """sha256 of the stdout of ``veralg ARGV`` in a fresh interpreter."""
    done = run_fresh(["-m", "veralg.cli", *argv], hash_seed)
    assert done.returncode == 0, done.stderr
    return hashlib.sha256(done.stdout).hexdigest()


# sha256 of stdout, pinned so that a refactor keeps every byte; the repro
# digest is also perfbench/data/expected.json's repro_sha256
PINNED_STDOUT = {
    ("repro", "--all", "--json"):
        "64547b444b204cdaff47570a2f4c1654f7ebe8c4e970b22e00d042e2fa5b14f4",
    ("expand", "--example", "aut_6", "--json"):
        "3a922e89976dbe73614667a63f418870352508922ce904a1e3dd9446dd05fb9e",
}

# sha256 of the stdout of ``basis --variety V --gens G --max-deg B --json``
# for the builds of the basis benchmark; also perfbench/data/expected.json's
# basis_sha256
PINNED_BASIS = {
    ("lie", 2, 7):
        "f452d18127947ac5ef9563b25aa5fb79ad2a881fa7cc6eaef4a57790bca76f9f",
    ("alternative", 2, 6):
        "40416128b6154d5373fbe02c36198edf6b4610c3420776a5a26c92c2d5cc2f30",
    ("jordan", 2, 6):
        "4e942b040fd83ab2f8fb7db24af51e556a782179eef33149f56647648dc74333",
    ("powerassociative", 2, 5):
        "3b3ba1ba103e74c4eed1f5321d826a2e93abf6c8266027e1669fe77c94b0a4cc",
    ("lie", 3, 5):
        "8d9a891aa4cfbca6936c98eff58fa7b2452d9c1336e0353443e482458e04db97",
    ("alternative", 3, 5):
        "c4036c63c0c16b0db928ec0cc5d1f1cbb3044a98bc63cbf95a662aee2c7c27e3",
    ("alllinear", 2, 6):
        "37c59def79d4c9663e40b29420e4cb60c37e86b693fb842eb64b45478c9d038f",
}


class TestBasis:
    def test_lie_dims_json(self, capsys):
        code, d, _ = run_json(
            capsys, ["basis", "--variety", "lie", "--gens", "2", "--max-deg", "5"]
        )
        assert code == 0
        assert d["dims"] == [2, 1, 2, 3, 6]
        assert d["basis"]["2"] == ["(x1 x2)"]
        assert len(d["basis"]["5"]) == 6

    def test_text_lists_every_degree(self, capsys):
        code, out, _ = run(capsys, ["basis", "--variety", "jordan", "--max-deg", "3"])
        assert code == 0
        assert "degree 1: dim 2" in out
        assert "total dimension" in out

    def test_unknown_variety_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["basis", "--variety", "nosuch", "--max-deg", "3"])
        assert code == 2
        assert "unknown variety" in err

    def test_max_deg_required(self, capsys):
        code, _, _ = run(capsys, ["basis", "--variety", "lie"])
        assert code == 2

    @pytest.mark.parametrize("variety, gens, bound", sorted(PINNED_BASIS))
    def test_json_matches_pinned_digest(self, variety, gens, bound):
        argv = ("basis", "--variety", variety, "--gens", str(gens),
                "--max-deg", str(bound), "--json")
        assert stdout_sha256(argv, "0") == PINNED_BASIS[variety, gens, bound]


class TestDegreeCap:
    def test_default_cap_allows_eight(self, capsys):
        code, d, _ = run_json(
            capsys, ["basis", "--variety", "commutative", "--gens", "1", "--max-deg", "8"]
        )
        assert code == 0
        # one commutative generator counts unordered binary trees
        assert d["dims"] == [1, 1, 1, 2, 3, 6, 11, 23]

    def test_exceeding_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("VF_MAX_DEG", "4")
        code, _, err = run(capsys, ["basis", "--variety", "lie", "--max-deg", "5"])
        assert code == 2
        assert "exceeds the degree cap 4" in err

    def test_cap_applies_to_example_bounds(self, capsys, monkeypatch):
        monkeypatch.setenv("VF_MAX_DEG", "4")
        code, _, err = run(capsys, ["falsify", "--example", "aut_6"])
        assert code == 2
        assert "degree cap" in err

    def test_cap_applies_to_repro(self, capsys, monkeypatch):
        monkeypatch.setenv("VF_MAX_DEG", "4")
        code, _, err = run(capsys, ["repro", "--example", "aut_6"])
        assert code == 2
        assert "degree cap" in err
        # bound-2 example and the bound-4 tables still fit under the cap
        assert run(capsys, ["repro", "--example", "aut_1_3_4"])[0] == 0
        assert run(capsys, ["repro", "--example", "op2_table"])[0] == 0

    def test_cap_can_raise_limit(self, capsys, monkeypatch):
        monkeypatch.setenv("VF_MAX_DEG", "9")
        code, d, _ = run_json(
            capsys, ["basis", "--variety", "commutative", "--gens", "1", "--max-deg", "9"]
        )
        assert code == 0
        assert len(d["dims"]) == 9

    def test_non_integer_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("VF_MAX_DEG", "many")
        code, _, err = run(capsys, ["basis", "--variety", "lie", "--max-deg", "2"])
        assert code == 2
        assert "VF_MAX_DEG" in err

    def test_nonpositive_degree(self, capsys):
        code, _, err = run(capsys, ["basis", "--variety", "lie", "--max-deg", "0"])
        assert code == 2
        assert "at least 1" in err


class TestOp2:
    def test_defaults_report_admissible(self, capsys):
        code, d, _ = run_json(capsys, ["op2", "--variety", "alllinear"])
        assert code == 0
        assert d["admissible"] is True
        assert d["phi"] == "id" and d["a"] == "1" and d["b"] == "0"

    def test_folded_pair_fails_form_only(self, capsys):
        code, d, _ = run_json(
            capsys, ["op2", "--variety", "commutative", "--a", "2", "--b", "1"]
        )
        assert code == 0
        assert d["identity_ok"] is True
        assert d["invertible"] is True
        assert d["form_ok"] is False
        assert d["admissible"] is False

    def test_text_shows_failures(self, capsys):
        code, out, _ = run(
            capsys, ["op2", "--variety", "alternative", "--a", "1", "--b", "1"]
        )
        assert code == 0
        assert "identity fails" in out
        assert "singular on multidegree" in out

    def test_scalar_coefficients_accept_field_elements(self, capsys):
        code, d, _ = run_json(
            capsys,
            ["op2", "--variety", "alllinear", "--a", "t1", "--b", "1/2"],
        )
        assert code == 0
        assert d["a"] == "t1" and d["b"] == "1/2"

    @pytest.mark.parametrize("flag", ("--a", "--b"))
    def test_negative_coefficient_needs_equals_form(self, capsys, flag):
        # argparse reads a value that starts with '-' as an option unless it
        # is a number; the --a=-t1 form always works
        argv = ["op2", "--variety", "alllinear"]
        code, _, err = run(capsys, argv + [flag, "-t1"])
        assert code == 2
        assert f"argument {flag}: expected one argument" in err
        code, d, _ = run_json(capsys, argv + [f"{flag}=-t1"])
        assert code == 0
        assert d[flag[2:]] == "-t1"
        code, d, _ = run_json(capsys, argv + [flag, "-1"])
        assert code == 0
        assert d[flag[2:]] == "-1"


class TestInner:
    def test_scaling_change_is_inner(self, capsys):
        code, d, _ = run_json(
            capsys, ["inner", "--variety", "alllinear", "--a", "2", "--b", "0"]
        )
        assert code == 0
        assert d["status"] == "inner"
        assert d["witness"] == "1/2"

    def test_swap_is_refuted(self, capsys):
        code, d, _ = run_json(
            capsys, ["inner", "--variety", "alllinear", "--phi", "swap"]
        )
        assert code == 0
        assert d["status"] == "refuted"
        assert "no nonzero solution" in d["obstruction"]

    def test_unknown_status_exits_one(self, capsys, monkeypatch):
        from veralg.verbal import InnerReport

        fake = InnerReport(status="unknown", witness=None, obstruction=None,
                           equations=())
        monkeypatch.setattr(cli, "inner_witness", lambda alg, system: fake)
        code, out, _ = run(capsys, ["inner", "--variety", "alllinear"])
        assert code == 1
        assert "inconclusive" in out


class TestExpand:
    def test_example_equations(self, capsys):
        code, d, _ = run_json(capsys, ["expand", "--example", "aut_1_3_4"])
        assert code == 0
        assert d["equations"] == [
            "(t2 + 1)*a11*a12",
            "t2*a11*a22 + a12*a21 - t1*rho",
            "a11*a22 + t2*a12*a21 - rho",
            "(t2 + 1)*a21*a22",
        ]

    def test_smallest_closed_shows_transformed_word(self, capsys):
        code, out, _ = run(capsys, ["expand", "--example", "s_1_3"])
        assert code == 0
        assert "word: ((x1 x1) x2)" in out
        assert "3 * (x2 (x1 x1)) + 6 * ((x1 x1) x2)" in out

    def test_image_coefficients_listed(self, capsys):
        code, d, _ = run_json(capsys, ["expand", "--example", "aut_6"])
        assert code == 0
        assert len(d["image"]) == 6
        targets = [row["target"] for row in d["image"]]
        assert "(x1 (x1 (x1 (x1 x2))))" in targets

    def test_table_examples_rejected(self, capsys):
        code, _, _ = run(capsys, ["expand", "--example", "op2_table"])
        assert code == 2


class TestFalsify:
    VERDICTS = {
        "aut_1_3_4": "(x1 x2)",
        "aut_2_5": "(x1 (x1 x2))",
        "aut_6": "(x1 (x1 (x1 (x1 x2))))",
        "s_4": "(x2 (x2 x1))",
    }

    @pytest.mark.parametrize("name", sorted(VERDICTS))
    def test_examples_reach_verdicts(self, capsys, name):
        code, d, _ = run_json(capsys, ["falsify", "--example", name])
        assert code == 0
        assert d["verdict"] == "not_geometrically_equivalent"
        assert d["details"]["witness"] == self.VERDICTS[name]

    def test_spec_file(self, capsys, tmp_path):
        path = tmp_path / "job.json"
        path.write_text(json.dumps(cases.load_job("s_1_3")))
        code, d, _ = run_json(capsys, ["falsify", "--spec", str(path)])
        assert code == 0
        assert d["verdict"] == "not_geometrically_equivalent"

    def test_spec_missing_key(self, capsys, tmp_path):
        job = cases.load_job("s_1_3")
        del job["variety"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(job))
        code, _, err = run(capsys, ["falsify", "--spec", str(path)])
        assert code == 2
        assert "variety" in err

    def test_spec_file_missing(self, capsys):
        code, _, err = run(capsys, ["falsify", "--spec", "/nonexistent/job.json"])
        assert code == 2

    def test_inconclusive_exits_one(self, capsys, monkeypatch):
        real = cases.falsify_job

        def stunted(job):
            job = dict(job)
            job["hints"] = []
            return real(job)

        monkeypatch.setattr(cases, "falsify_job", stunted)
        # aut_6 needs its determinant hint; without it one branch gets stuck
        code, d, _ = run_json(capsys, ["falsify", "--example", "aut_6"])
        assert d["verdict"] in ("not_geometrically_equivalent", "inconclusive")
        if d["verdict"] == "inconclusive":
            assert code == 1
        else:
            assert code == 0

    def test_requires_spec_or_example(self, capsys):
        code, _, _ = run(capsys, ["falsify"])
        assert code == 2


class TestRepro:
    def test_single_example(self, capsys):
        code, out, _ = run(capsys, ["repro", "--example", "op2_table"])
        assert code == 0
        assert "op2_table: ok" in out
        assert "overall: ok" in out

    def test_all(self, capsys):
        code, out, _ = run(capsys, ["repro", "--all"])
        assert code == 0
        for name in cases.EXAMPLE_IDS:
            assert f"{name}: ok" in out

    def test_all_json_is_deterministic(self, capsys):
        code1, out1, _ = run(capsys, ["repro", "--all", "--json"])
        code2, out2, _ = run(capsys, ["repro", "--all", "--json"])
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["ok"] is True
        assert [r["example"] for r in payload["examples"]] == list(cases.EXAMPLE_IDS)

    @pytest.mark.parametrize("argv", sorted(PINNED_STDOUT), ids=" ".join)
    def test_output_matches_pinned_digest(self, argv):
        # the same bytes whatever the hash seed: no set or dict order leaks
        for hash_seed in ("0", "1", "2", "random"):
            assert stdout_sha256(argv, hash_seed) == PINNED_STDOUT[argv], hash_seed

    def test_mismatch_exits_one(self, capsys, monkeypatch):
        fake = {
            "example": "aut_1_3_4",
            "ok": False,
            "checks": [{"name": "verdict", "ok": False, "got": "x", "want": "y"}],
        }
        monkeypatch.setattr(cases, "run_example", lambda name: fake)
        code, out, _ = run(capsys, ["repro", "--example", "aut_1_3_4"])
        assert code == 1
        assert "MISMATCH" in out
        assert 'got "x", want "y"' in out

    def test_example_and_all_exclusive(self, capsys):
        code, _, _ = run(capsys, ["repro", "--example", "aut_6", "--all"])
        assert code == 2

    # ROADMAP item 6 step 3's Alternative (2, 3) row under phi = swap, where
    # the laws act at the bound: 4 solved cases, none stuck
    ALTERNATIVE_ROW = {
        "job": {
            "kind": "equation-ideal",
            "field": ["t1", "t2"],
            "variety": "alternative",
            "gens": 2,
            "bound": 3,
            "system": {"phi": "swap", "a": "1", "b": "0"},
            "generator": "t1 * (x1 (x1 x2)) + (x1 (x2 x1))",
            "tail": 4,
            "candidates": ["(x1 (x1 x2))", "(x1 (x2 x1))"],
            "hints": [cases.DET],
        },
        "checks": {
            "verdict": "not_geometrically_equivalent",
            "witness": "(x1 (x1 x2))",
            "stuck_count": 0,
        },
    }

    @staticmethod
    def job_choices(command):
        parser = cli._build_parser()
        [sub] = [a for a in parser._actions if a.dest == "command"]
        [example] = [a for a in sub.choices[command]._actions if a.dest == "example"]
        return example.choices

    def test_one_table_entry_is_an_example(self, capsys, monkeypatch):
        monkeypatch.setitem(cases.EXAMPLES, "aut_alt", self.ALTERNATIVE_ROW)
        report = cases.run_example("aut_alt")
        assert report["ok"] is True
        checks = [(c["name"], c["ok"]) for c in report["checks"]]
        assert checks == [("verdict", True), ("witness", True), ("stuck_count", True)]
        assert report["certificate"]["details"]["case_count"] == 4
        code, d, _ = run_json(capsys, ["falsify", "--example", "aut_alt"])
        assert code == 0
        assert d["details"]["witness"] == "(x1 (x1 x2))"

    def test_wrong_want_is_a_mismatch(self, monkeypatch):
        entry = dict(self.ALTERNATIVE_ROW)
        entry["checks"] = dict(entry["checks"], witness="(x1 (x2 x1))")
        monkeypatch.setitem(cases.EXAMPLES, "aut_alt", entry)
        report = cases.run_example("aut_alt")
        assert report["ok"] is False
        checks = [(c["name"], c["ok"]) for c in report["checks"]]
        assert checks == [("verdict", True), ("witness", False), ("stuck_count", True)]

    def test_example_ids_come_from_the_table(self, monkeypatch):
        assert cases.EXAMPLE_IDS == (*cases.EXAMPLES, "op2_table", "inner_table")
        monkeypatch.setitem(cases.EXAMPLES, "aut_alt", self.ALTERNATIVE_ROW)
        for command in ("falsify", "expand"):
            assert self.job_choices(command) == list(cases.EXAMPLES)


class TestInputErrors:
    """Bad input exits 2 with a single error line instead of a traceback."""

    @staticmethod
    def single_error(err):
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        return lines[0]

    @staticmethod
    def job_file(tmp_path, name, **changes):
        job = cases.load_job(name)
        job.update(changes)
        path = tmp_path / "job.json"
        path.write_text(json.dumps(job))
        return str(path)

    def test_division_by_zero_in_coefficient(self, capsys):
        code, _, err = run(capsys, ["op2", "--variety", "lie", "--a", "1/0"])
        assert code == 2
        assert "division by zero" in self.single_error(err)

    @pytest.mark.parametrize("command", ("falsify", "expand"))
    def test_division_by_zero_in_hint(self, capsys, tmp_path, command):
        # expand printed its expansion and exited 0 on a hint that falsify
        # refused: it did not read the hints
        path = self.job_file(tmp_path, "aut_1_3_4", hints=["1/0"])
        code, out, err = run(capsys, [command, "--spec", path])
        assert code == 2
        assert out == ""
        assert "division by zero" in self.single_error(err)

    @pytest.mark.parametrize("command", ("falsify", "expand"))
    def test_unknown_name_in_hint(self, capsys, tmp_path, command):
        path = self.job_file(tmp_path, "aut_1_3_4", hints=["a11*x"])
        code, out, err = run(capsys, [command, "--spec", path])
        assert code == 2
        assert out == ""
        assert "unknown name 'x'" in self.single_error(err)

    def test_zero_generators(self, capsys):
        code, _, err = run(
            capsys, ["basis", "--variety", "lie", "--gens", "0", "--max-deg", "3"]
        )
        assert code == 2
        assert "--gens must be at least 1" in self.single_error(err)

    def test_generator_guard_refuses_before_building(self, capsys, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("the guard must refuse before any build")

        monkeypatch.setattr(cli, "build_truncated", no_build)
        monkeypatch.setattr(cli, "check_op2", no_build)
        # 50 generators at bound 3 (op2's default for Lie) make 252,550
        # monomials, against 129,958 for 2 generators at the default cap 8
        for argv in (
            ["basis", "--variety", "lie", "--gens", "50", "--max-deg", "3"],
            ["op2", "--variety", "lie", "--gens", "50"],
            ["inner", "--variety", "lie", "--gens", "50", "--max-deg", "3"],
        ):
            code, _, err = run(capsys, argv)
            assert code == 2
            assert "--gens 50 at degree bound 3" in self.single_error(err)

    def test_generator_guard_on_jobs(self, capsys, tmp_path):
        path = self.job_file(tmp_path, "aut_1_3_4", gens=4, bound=8)
        code, _, err = run(capsys, ["falsify", "--spec", path])
        assert code == 2
        assert "gens 4 at degree bound 8" in self.single_error(err)

    def test_generator_guard_follows_the_cap(self, monkeypatch):
        # 3 generators at bound 6 (34,491 monomials) fit under 2 at cap 8
        # (129,958); 3 at bound 7 (323,175) fit only under cap 9 (862,118)
        monkeypatch.setenv("VF_MAX_DEG", "9")
        assert cli._generators(3, "--gens", 7).size == 3
        monkeypatch.setenv("VF_MAX_DEG", "8")
        assert cli._generators(3, "--gens", 6).size == 3
        with pytest.raises(cli.UsageError):
            cli._generators(3, "--gens", 7)

    @pytest.mark.parametrize(
        "changes,field",
        (
            ({"system": ["id"]}, "system"),
            ({"system": {"phi": "id", "a": 1, "b": "0"}}, "system"),
            ({"system": {"phi": "id", "b": "0"}}, "system"),
            ({"generator": 7}, "generator"),
            ({"candidates": [3]}, "candidates"),
            ({"field": ["t1", 2]}, "field"),
            ({"field": "t1"}, "field"),
            ({"variety": 5}, "variety"),
            ({"hints": [5]}, "hints"),
            ({"gens": "two"}, "gens"),
            ({"tail": 2.5}, "tail"),
        ),
        ids=(
            "system-list", "system-a-int", "system-no-a", "generator-int",
            "candidates-int", "field-int", "field-string", "variety-int",
            "hints-int", "gens-string", "tail-float",
        ),
    )
    def test_malformed_job_field(self, capsys, tmp_path, changes, field):
        # each of these crashed (exit 3), or named no field, before the
        # fields were checked
        path = self.job_file(tmp_path, "aut_1_3_4", **changes)
        code, out, err = run(capsys, ["falsify", "--spec", path])
        assert code == 2
        assert out == ""
        assert f"job field {field!r} must be" in self.single_error(err)

    @pytest.mark.parametrize(
        "command,name,misspelt,right",
        (
            ("falsify", "aut_1_3_4", "candidate", "candidates"),
            ("expand", "aut_6", "hint", "hints"),
        ),
        ids=("falsify-candidate", "expand-hint"),
    )
    def test_unknown_job_field(self, capsys, tmp_path, command, name, misspelt, right):
        # a misspelt key was ignored: aut_1_3_4 without its candidates
        # printed no_falsification, and the determinant hint was dropped
        job = cases.load_job(name)
        job[misspelt] = job.pop(right)
        path = tmp_path / "job.json"
        path.write_text(json.dumps(job))
        code, out, err = run(capsys, [command, "--spec", str(path)])
        assert code == 2
        assert out == ""
        line = self.single_error(err)
        assert f"unknown job field {misspelt!r}" in line
        assert right in line

    @pytest.mark.parametrize("command", ("falsify", "expand"))
    @pytest.mark.parametrize(
        "name,kind,changes",
        (
            (
                "s_1_3",
                "smallest-closed",
                {"generator": "(x1 x2)", "tail": 3, "candidates": ["(x1 x2)"]},
            ),
            ("s_1_3", "smallest-closed", {"hints": []}),
            ("aut_1_3_4", "equation-ideal", {"word": "(x1 x2)"}),
        ),
        ids=("smallest-closed-equation-keys", "smallest-closed-hints", "equation-word"),
    )
    def test_key_of_the_other_kind(self, capsys, tmp_path, command, name, kind, changes):
        # a key of the other kind was ignored, and the job ran and exited 0
        path = self.job_file(tmp_path, name, **changes)
        code, out, err = run(capsys, [command, "--spec", path])
        assert code == 2
        assert out == ""
        line = self.single_error(err)
        assert f"a {kind} job has no field" in line
        for key in changes:
            assert repr(key) in line

    def test_job_that_is_not_an_object(self, capsys, tmp_path):
        path = tmp_path / "job.json"
        path.write_text("5")
        code, _, err = run(capsys, ["falsify", "--spec", str(path)])
        assert code == 2
        assert "a job must be a JSON object" in self.single_error(err)

    @pytest.mark.parametrize(
        "text",
        ("[" * 100000 + "]" * 100000, '{"a": ' * 100000 + "1" + "}" * 100000),
        ids=("array", "object"),
    )
    @pytest.mark.parametrize("command", ("falsify", "expand"))
    def test_job_file_nested_too_deep(self, capsys, tmp_path, command, text):
        # the JSON reader recurses once per level, so it runs out of stack
        # long before the file ends; that is bad input, not a crash
        path = tmp_path / "job.json"
        path.write_text(text)
        code, out, err = run(capsys, [command, "--spec", str(path)])
        assert code == 2
        assert out == ""
        assert "nests too deep" in self.single_error(err)

    def test_unknown_job_kind(self, capsys, tmp_path):
        path = self.job_file(tmp_path, "aut_1_3_4", kind="nosuch")
        code, _, err = run(capsys, ["falsify", "--spec", path])
        assert code == 2
        line = self.single_error(err)
        assert "unknown job kind 'nosuch'" in line
        assert "equation-ideal" in line and "smallest-closed" in line

    def test_inadmissible_smallest_closed(self, capsys, tmp_path):
        # a = b = 1 is singular on AllLinear: refused, as for equation ideals
        path = self.job_file(
            tmp_path, "s_4", variety="alllinear", word="((x1 x1) x2)",
            system={"phi": "id", "a": "1", "b": "1"},
        )
        code, out, err = run(capsys, ["falsify", "--spec", path])
        assert code == 2
        assert out == ""
        assert "not admissible" in self.single_error(err)

    @pytest.mark.parametrize(
        "changes",
        (
            {"generator": "t1 * (x1 (x1 x2))", "tail": 4},
            {"variety": "anticommutative", "generator": "(x1 x1)"},
        ),
        ids=("above-the-bound", "killed-by-the-laws"),
    )
    def test_generator_that_is_zero_in_the_truncation(self, capsys, tmp_path, changes):
        # one generator is listed, but its normal form is 0
        path = self.job_file(tmp_path, "aut_1_3_4", **changes)
        code, out, err = run(capsys, ["falsify", "--spec", path])
        assert code == 2
        assert out == ""
        assert "the generator is 0 in this truncation" in self.single_error(err)

    @pytest.mark.parametrize(
        "name,changes",
        (
            ("s_1_3", {"bound": 2}),
            (
                "s_4",
                {
                    "variety": "anticommutative", "word": "(x1 x1)",
                    "system": {"phi": "id", "a": "2", "b": "0"},
                },
            ),
        ),
        ids=("above-the-bound", "killed-by-the-laws"),
    )
    def test_word_that_is_zero_in_the_truncation(self, capsys, tmp_path, name, changes):
        # the smallest closed set of 0 is refused, not reported as a verdict
        path = self.job_file(tmp_path, name, **changes)
        code, out, err = run(capsys, ["falsify", "--spec", path])
        assert code == 2
        assert out == ""
        assert "the word is 0 in this truncation" in self.single_error(err)

    def test_expand_of_a_word_that_is_zero_in_the_truncation(self, capsys, tmp_path):
        # expand refuses what falsify refuses, instead of printing
        # "transformed word: 0"
        path = self.job_file(
            tmp_path, "s_4", variety="alllinear", bound=2, word="((x1 x1) x2)",
        )
        for argv in (["expand", "--spec", path], ["expand", "--spec", path, "--json"]):
            code, out, err = run(capsys, argv)
            assert code == 2
            assert out == ""
            assert "the word is 0 in this truncation" in self.single_error(err)

    @pytest.mark.parametrize("command", ("op2", "inner"))
    def test_swap_needs_two_transcendentals(self, capsys, command):
        argv = [command, "--variety", "lie", "--field", "t1", "--phi", "swap"]
        code, _, err = run(capsys, argv + ["--a", "t1"])
        assert code == 2
        assert "swap needs transcendentals 1 and 2" in self.single_error(err)

    def test_swap_needs_two_transcendentals_in_job(self, capsys, tmp_path):
        path = self.job_file(tmp_path, "aut_1_3_4", field=["t1"])
        code, _, err = run(capsys, ["falsify", "--spec", path])
        assert code == 2
        assert "swap needs transcendentals 1 and 2" in self.single_error(err)

    def test_exponent_guard(self, capsys, tmp_path):
        # powers are repeated products: unguarded, t1^1000000 ran over 15 s
        for text in ("t1^101", "t1^-101", "t1^1000000"):
            code, _, err = run(capsys, ["op2", "--variety", "lie", "--a", text])
            assert code == 2
            assert "MAX_EXPONENT = 100" in self.single_error(err)
        code, _, _ = run(capsys, ["op2", "--variety", "lie", "--a", "t1^-100"])
        assert code == 0
        path = self.job_file(tmp_path, "aut_1_3_4", generator="t1^101 * (x1 x2)")
        code, _, err = run(capsys, ["falsify", "--spec", path])
        assert code == 2
        assert "MAX_EXPONENT = 100" in self.single_error(err)

    def test_nested_powers_are_bounded_by_degree(self, capsys):
        # the degree of a power, its base's times |k|, is guarded before the
        # power is taken: unguarded, ((t1 + t2 + 1)^10)^100 would expand a
        # polynomial of degree 1000
        for text in ("(t1^2)^51", "(t1^-10)^-11", "((t1 + t2 + 1)^10)^100"):
            code, _, err = run(capsys, ["op2", "--variety", "lie", "--a", text])
            assert code == 2
            message = self.single_error(err)
            assert "power of degree" in message and "MAX_EXPONENT = 100" in message
        for text in ("(t1^2)^50", "(t1^-10)^-10", "(t1/t2^2)^50"):
            code, _, _ = run(capsys, ["op2", "--variety", "lie", "--a", text])
            assert code == 0

    def test_power_terms_are_bounded(self, capsys):
        # a base of n terms to the power k may have C(n + k - 1, k) terms:
        # unguarded, op2 took 3.3 s on (t1 + t2 + 1)^50 (1,326 terms)
        for text in ("(t1 + t2 + 1)^50", "(t1 + t2 + 1)^31", "1/(t1 + t2 + 1)^-31"):
            code, _, err = run(capsys, ["op2", "--variety", "lie", "--a", text])
            assert code == 2
            message = self.single_error(err)
            assert "528" in message or "1326" in message
            assert "MAX_POWER_TERMS = 500" in message
        # 496 terms, and powers of one or two terms up to the exponent bound
        for text in ("(t1 + t2 + 1)^30", "(t1 + 1)^100", "(t1/t2^2)^-50"):
            code, _, _ = run(capsys, ["op2", "--variety", "lie", "--a", text])
            assert code == 0

    DEEP = "(" * 600 + "1" + ")" * 600

    @pytest.mark.parametrize(
        "name,changes,commands",
        (
            ("aut_1_3_4", {"generator": DEEP + " * (x1 x2)"}, ("falsify", "expand")),
            ("aut_1_3_4", {"candidates": [DEEP + " * (x1 x2)"]}, ("falsify", "expand")),
            ("aut_1_3_4", {"hints": [DEEP]}, ("falsify",)),
            ("s_4", {"word": "(" * 600 + "x1" + " x1)" * 600}, ("falsify", "expand")),
        ),
        ids=("generator", "candidate", "hint", "word"),
    )
    def test_nesting_guard_on_jobs(self, capsys, tmp_path, name, changes, commands):
        # the element, polynomial and monomial readers: the first three
        # ended in RecursionError (exit 3) before the tokenizer bounded
        # the nesting
        path = self.job_file(tmp_path, name, **changes)
        for command in commands:
            code, out, err = run(capsys, [command, "--spec", path])
            assert code == 2
            assert out == ""
            assert "MAX_NESTING = 100" in self.single_error(err)

    def test_nesting_guard_on_scalars(self, capsys):
        code, _, err = run(capsys, ["op2", "--variety", "lie", "--a", self.DEEP])
        assert code == 2
        assert "MAX_NESTING = 100" in self.single_error(err)
        ok = "(" * 100 + "2" + ")" * 100
        assert run(capsys, ["op2", "--variety", "lie", "--a", ok])[:2] == run(
            capsys, ["op2", "--variety", "lie", "--a", "2"]
        )[:2]

    def test_run_of_signs_is_not_nesting(self, capsys, tmp_path):
        # 3,000 signs ended in RecursionError (exit 3); an even run is +
        code, out, _ = run(capsys, ["op2", "--variety", "lie", "--a=" + "-" * 3000 + "2"])
        assert (code, out) == run(capsys, ["op2", "--variety", "lie", "--a", "2"])[:2]
        # the first sign is the term's, the other 2,999 the coefficient's
        path = self.job_file(
            tmp_path, "aut_1_3_4", generator="-" * 3000 + "t1 * (x1 x2) + (x2 x1)"
        )
        signed = run(capsys, ["falsify", "--spec", path, "--json"])
        assert signed[0] == 0
        assert signed[:2] == run(capsys, ["falsify", "--example", "aut_1_3_4", "--json"])[:2]

    @pytest.mark.parametrize(
        "candidate,normal_form",
        (
            ("0", "0"),
            ("(x1 (x1 x2))", "0"),  # above the bound 2
            ("(x1 x2) + (x2 x1)", "(x1 x2) + (x2 x1)"),
        ),
        ids=("zero", "above-bound", "two-terms"),
    )
    def test_expand_needs_one_term_candidates(self, capsys, tmp_path, candidate, normal_form):
        # falsify takes any candidate; expand exited 2 with a bare
        # "not enough values to unpack" or "too many values to unpack"
        path = self.job_file(tmp_path, "aut_1_3_4", candidates=[candidate])
        assert run(capsys, ["falsify", "--spec", path])[0] == 0
        code, out, err = run(capsys, ["expand", "--spec", path])
        assert code == 2
        assert out == ""
        assert self.single_error(err) == (
            f"error: candidate {candidate!r} has the normal form {normal_form}:"
            " an image coefficient needs one basis monomial"
        )

    def test_permutation_names_unknown_transcendental(self, capsys):
        code, _, err = run(
            capsys, ["op2", "--variety", "lie", "--phi", "perm:t3,t1"]
        )
        assert code == 2
        assert "unknown transcendental 't3'" in self.single_error(err)

    @pytest.mark.parametrize(
        "name,changes",
        (
            ("aut_1_3_4", {"candidates": ["(x1 x3)"]}),
            ("aut_1_3_4", {"generator": "t1 * (x3 x2)"}),
            ("s_4", {"word": "(x3 (x2 x2))"}),
        ),
        ids=("candidate", "generator", "word"),
    )
    def test_unknown_generator_name(self, capsys, tmp_path, name, changes):
        # it exited 2 with "tuple.index(x): x not in tuple"
        path = self.job_file(tmp_path, name, **changes)
        code, out, err = run(capsys, ["falsify", "--spec", path])
        assert code == 2
        assert out == ""
        line = self.single_error(err)
        assert "unknown generator 'x3'; the generators are x1, x2" in line


    def test_transcendental_named_like_an_unknown(self, capsys):
        # it exited 2 with "unknown name 'mu' collides"
        code, out, err = run(capsys, ["inner", "--variety", "lie", "--field", "mu,t2"])
        assert code == 2
        assert out == ""
        assert self.single_error(err) == (
            "error: transcendental 'mu' has the name of a solver unknown;"
            " the unknowns are mu"
        )

    @pytest.mark.parametrize("name", ("rho", "a11"))
    def test_transcendental_named_like_an_unknown_in_job(self, capsys, tmp_path, name):
        # the generator names no t1, so the field is checked next
        path = self.job_file(
            tmp_path, "aut_1_3_4", field=[name, "t2"],
            generator="t2 * (x1 x2) + (x2 x1)",
        )
        code, out, err = run(capsys, ["falsify", "--spec", path])
        assert code == 2
        assert out == ""
        assert self.single_error(err) == (
            f"error: transcendental {name!r} has the name of a solver unknown;"
            " the unknowns are a11, a12, a21, a22, rho"
        )


class TestInternalError:
    def test_crash_exits_three_with_traceback(self, capsys, monkeypatch):
        def crash(args):
            raise RuntimeError("internal failure")

        monkeypatch.setattr(cli, "cmd_basis", crash)
        code, out, err = run(capsys, ["basis", "--variety", "lie", "--max-deg", "3"])
        assert code == 3
        assert out == ""
        assert "Traceback" in err
        assert "RuntimeError: internal failure" in err


class TestModule:
    @pytest.mark.parametrize(
        "argv",
        (
            ["basis", "--variety", "lie", "--gens", "2", "--max-deg", "3", "--json"],
            ["basis", "--variety", "nosuch", "--max-deg", "3"],
        ),
        ids=("verdict", "usage-error"),
    )
    def test_python_m_veralg_matches_main(self, capsys, argv):
        code, out, _ = run(capsys, argv)
        done = run_fresh(["-m", "veralg", *argv])
        assert done.returncode == code
        assert done.stdout.decode() == out

    def test_import_does_not_run_the_front_end(self):
        done = run_fresh(
            ["-c", "import sys, veralg; print('veralg.__main__' in sys.modules)"]
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.decode().strip() == "False"


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert run(capsys, [])[0] == 2

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, ["frobnicate"])[0] == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, ["--help"])
        assert code == 0
        assert "basis" in out and "falsify" in out
