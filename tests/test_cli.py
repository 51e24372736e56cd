"""Tests for the command line front end: exit codes, JSON output, caps."""

import json

import pytest

from veralg import cases, cli


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv + ["--json"])
    return code, json.loads(out), err


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

    def test_division_by_zero_in_hint(self, capsys, tmp_path):
        path = self.job_file(tmp_path, "aut_1_3_4", hints=["1/0"])
        code, _, err = run(capsys, ["falsify", "--spec", path])
        assert code == 2
        assert "division by zero" in self.single_error(err)

    def test_zero_generators(self, capsys):
        code, _, err = run(
            capsys, ["basis", "--variety", "lie", "--gens", "0", "--max-deg", "3"]
        )
        assert code == 2
        assert "--gens must be at least 1" in self.single_error(err)

    def test_unknown_job_kind(self, capsys, tmp_path):
        path = self.job_file(tmp_path, "aut_1_3_4", kind="nosuch")
        code, _, err = run(capsys, ["falsify", "--spec", path])
        assert code == 2
        line = self.single_error(err)
        assert "unknown job kind 'nosuch'" in line
        assert "equation-ideal" in line and "smallest-closed" in line


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert run(capsys, [])[0] == 2

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, ["frobnicate"])[0] == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, ["--help"])
        assert code == 0
        assert "basis" in out and "falsify" in out
