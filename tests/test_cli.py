"""Command-line contract: usage errors, exit codes, the numpy-free exact
verbs, a closed pipe and thread-independent results.  The outputs themselves
are pinned by ``tests/golden``; the payload tests here that restate a golden
entry are listed, with that entry, in ROADMAP item 8."""

import json
import math
import platform
import subprocess
import sys

import pytest

from sepprob import checks
from sepprob.cli import _versions, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


# Runs the exact verbs in a fresh interpreter and reports which numpy
# version they printed and whether numpy got imported.
_EXACT_VERBS_CHILD = """
import contextlib, io, json, sys
from sepprob.cli import main
versions = []
for argv in (
    ["integrate", "--emit", "prob"],
    ["volumes", "--n", "4"],
    ["density"],
    ["marginal", "--spectrum", "0.45,0.27,0.18,0.10"],
):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    versions.append(json.loads(out.getvalue())["versions"]["numpy"])
print(json.dumps({"numpy_imported": "numpy" in sys.modules, "versions": versions}))
"""


def test_exact_verbs_run_without_numpy(child_env):
    proc = subprocess.run([sys.executable, "-c", _EXACT_VERBS_CHILD], env=child_env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got == {"numpy_imported": False, "versions": [None] * 4}


def test_versions_reads_the_python_version_without_platform():
    assert _versions()["python"] == platform.python_version()


class TestVolumesVerb:
    def test_n4(self, capsys):
        code, rep, _ = run_json(capsys, "volumes", "--n", "4")
        assert code == 0
        res = rep["results"]
        assert res["flag_hs"]["coeff"] == "16/3" and res["flag_hs"]["pi_pow"] == 6
        assert res["simplex_integral"] == "1/9081072000"
        # 17-significant-digit decimals accompany every exact value.
        assert "decimal" in res["flag_hs"] and "simplex_integral_decimal" in res

    def test_rejects_nonpositive(self, capsys):
        code, _, err = run(capsys, "volumes", "--n", "0")
        assert code == 2


class TestDensityVerb:
    def test_chamber_polynomials(self, capsys):
        code, rep, _ = run_json(capsys, "density")
        assert code == 0
        assert set(rep["results"]["chambers"]) == {"C0", "C1", "C2", "C3"}
        assert rep["results"]["chambers"]["C0"] == []

    def test_check_oracle(self, capsys):
        code, rep, _ = run_json(capsys, "density", "--check-oracle", "--points", "5", "--seed", "3")
        assert code == 0
        assert rep["pass"] is True
        rows = rep["results"]["rows"]
        assert len(rows) == 20
        assert {"chamber", "point", "closed_form", "oracle", "abs_err"} <= set(rows[0])

    def test_failed_oracle_check_exits_1_with_the_report(self, capsys):
        # The float oracle is off by about 1e-13, far above a 1e-300 tolerance.
        code, rep, err = run_json(capsys, "density", "--check-oracle", "--points", "5", "--tol", "1e-300")
        assert code == 1 and err == ""
        assert rep["pass"] is False and rep["checks"][0]["pass"] is False
        assert float(rep["results"]["max_abs_err"]) > 1e-300 and len(rep["results"]["rows"]) == 20

    def test_grid_csv(self, capsys):
        code, out, _ = run(capsys, "density", "--grid", "20")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r,s,chamber,density"
        assert len(lines) == 1 + 400
        assert any(",C2," in line for line in lines[1:])

    def test_closed_pipe_exits_141_quietly(self, child_env):
        # A reader that stops after the header, as `| head -n 1` does.
        argv = [sys.executable, "-m", "sepprob.cli", "density", "--grid", "300"]
        proc = subprocess.Popen(argv, env=child_env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        assert proc.stdout.readline() == "r,s,chamber,density\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert err == "" and proc.returncode == 141

    @pytest.mark.parametrize("order", [("--grid", "2", "--check-oracle"), ("--check-oracle", "--grid", "2")])
    def test_rejects_grid_with_check_oracle(self, capsys, order):
        # Either order: the grid must not quietly stand in for the oracle check.
        code, out, err = run(capsys, "density", *order)
        assert code == 2
        assert out == ""
        assert "not allowed with" in err


class TestMarginalVerb:
    SPEC = "0.45,0.27,0.18,0.10"

    def test_piecewise_payload(self, capsys):
        code, rep, _ = run_json(capsys, "marginal", "--spectrum", self.SPEC)
        assert code == 0
        res = rep["results"]
        assert res["breakpoints"] == ["0/1", "1/10", "13/50", "11/25"]
        assert res["breakpoints_decimal"][-1] == "0.44"
        assert len(res["pieces"]) == 3

    def test_grid_contains_breakpoints(self, capsys):
        code, out, _ = run(capsys, "marginal", "--spectrum", self.SPEC, "--grid", "40")
        assert code == 0
        xs = [line.split(",")[0] for line in out.strip().splitlines()[1:]]
        for bp in ("0.10000000000000001", "0.26000000000000001", "0.44"):
            assert any(x.startswith(bp[:6]) for x in xs)

    def test_grid_of_one_point(self, capsys):
        code, out, _ = run(capsys, "marginal", "--spectrum", self.SPEC, "--grid", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,density"
        assert [line.split(",")[0] for line in lines[1:]] == [
            "0", "0.10000000000000001", "0.26000000000000001", "0.44"
        ]

    def test_histogram_rows_align(self, capsys):
        code, rep, _ = run_json(
            capsys, "marginal", "--spectrum", self.SPEC, "--samples", "20000", "--bins", "10", "--seed", "5"
        )
        assert code == 0
        rows = rep["results"]["histogram"]
        assert len(rows) == 10
        assert sum(r["count"] for r in rows) == 20000
        for row in rows:
            assert {"bin_lo", "bin_hi", "count", "empirical_density", "analytic_density"} <= set(row)

    def test_histogram_csv(self, capsys):
        code, out, _ = run(
            capsys, "marginal", "--spectrum", self.SPEC, "--samples", "5000", "--bins", "8",
            "--seed", "5", "--csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "bin_lo,bin_hi,count,empirical_density,analytic_density"
        assert len(lines) == 9

    def test_rejects_bad_spectrum(self, capsys):
        code, _, err = run(capsys, "marginal", "--spectrum", "0.5,0.5")
        assert code == 2

    @pytest.mark.parametrize(
        "spectrum, repeated", [("0.5,0.5,0,0", "1/2"), ("0.4,0.3,0.3,0", "3/10"), ("0.25,0.25,0.25,0.25", "1/4")]
    )
    @pytest.mark.parametrize("form", [(), ("--grid", "5"), ("--samples", "2000")])
    def test_rejects_repeated_eigenvalue(self, capsys, spectrum, repeated, form):
        code, out, err = run(capsys, "marginal", "--spectrum", spectrum, *form)
        assert code == 2
        assert out == ""
        assert f"{repeated} is repeated" in err

    def test_rejects_samples_with_grid(self, capsys):
        code, out, err = run(capsys, "marginal", "--spectrum", self.SPEC, "--samples", "1000", "--grid", "5")
        assert code == 2
        assert out == ""
        assert "not allowed with" in err

    @pytest.mark.parametrize("form", [(), ("--grid", "5")])
    def test_rejects_csv_without_samples(self, capsys, form):
        code, out, err = run(capsys, "marginal", "--spectrum", self.SPEC, "--csv", *form)
        assert code == 2
        assert out == ""
        assert "--csv needs --samples" in err


class TestSampleVerb:
    def test_sep_payload_and_determinism(self, capsys):
        code, rep1, _ = run_json(capsys, "sample", "sep", "--n", "2000", "--seed", "9")
        assert code == 0
        assert {"n", "ppt_count", "fraction", "stderr", "indeterminate"} <= set(rep1["results"])
        _, rep2, _ = run_json(capsys, "sample", "sep", "--n", "2000", "--seed", "9", "--threads", "3")
        assert rep1["results"] == rep2["results"]
        assert rep1["seed"] == 9

    def test_negative_count_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "sample", "sep", "--n", "-5")
        assert code == 2

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    @pytest.mark.parametrize(
        "argv",
        [("sample", "sep", "--n", "2000"), ("sample", "conditioned", "--a", "0.2", "--n", "100"), ("density",)],
    )
    def test_non_finite_tolerance_is_usage_error(self, capsys, argv, tol):
        code, out, err = run(capsys, *argv, "--tol", tol)
        assert code == 2 and out == "" and "finite" in err

    def test_conditioned_payload(self, capsys):
        code, rep, _ = run_json(capsys, "sample", "conditioned", "--a", "0.2", "--n", "1000", "--seed", "4")
        assert code == 0
        res = rep["results"]
        assert res["a"] == 0.2 and res["n"] == 1000
        assert {"fraction", "agreement_halfbound", "band_count"} <= set(res)
        assert res["stderr"] == math.sqrt(res["fraction"] * (1 - res["fraction"]) / 1000)

    def test_conditioned_results_do_not_depend_on_threads(self, capsys):
        # 70,000 draws make three blocks, so two threads split the work.
        argv = ("sample", "conditioned", "--a", "0.4", "--n", "70000", "--seed", "8")
        _, rep1, _ = run_json(capsys, *argv, "--threads", "1")
        _, rep2, _ = run_json(capsys, *argv, "--threads", "2")
        assert rep1["results"] == rep2["results"]

    @pytest.mark.parametrize("flag", ["--burn", "--thin", "--chains"])
    def test_conditioned_has_no_walk_knobs(self, capsys, flag):
        code, out, _ = run(capsys, "sample", "conditioned", "--a", "0.2", "--n", "100", flag, "10")
        assert code == 2 and out == ""

    def test_conditioned_rejects_radius_one(self, capsys):
        code, _, _ = run(capsys, "sample", "conditioned", "--a", "1.0", "--n", "100")
        assert code == 2


class TestVerifyVerb:
    def test_unknown_scope_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "verify", "everything")
        assert code == 2

    def test_verify_all_passes(self, verify_all_42):
        code, rep = verify_all_42
        assert code == 0
        assert rep["pass"] is True
        names = [c["name"] for c in rep["checks"]]
        assert len(names) == len(set(names)) >= 17
        assert all(c["pass"] for c in rep["checks"])
        assert rep["seed"] == 42 and rep["wall_clock_s"] is not None
        assert rep["results"] == {"deep": False}

    def test_verify_all_deep_reports_deep(self, cli_run):
        # The same in-process run that the golden --deep entry compares.
        code, out = cli_run(["verify", "all", "--seed", "42", "--deep"])
        rep = json.loads(out)
        assert code == 0 and rep["pass"] is True and rep["results"] == {"deep": True}

    def test_verify_all_times_each_check(self, verify_all_42):
        _, rep = verify_all_42
        assert all(isinstance(c["seconds"], float) and c["seconds"] >= 0 for c in rep["checks"])

    def test_raising_check_keeps_the_report(self, capsys, monkeypatch, verify_all_42):
        def broken():
            raise IndexError("index 4 is out of bounds")

        monkeypatch.setattr(checks, "check_regions", broken)
        code, rep, _ = run_json(capsys, "verify", "all", "--seed", "42")
        assert code == 1 and rep["pass"] is False
        assert [c["name"] for c in rep["checks"]] == [c["name"] for c in verify_all_42[1]["checks"]]
        failed = [c for c in rep["checks"] if not c["pass"]]
        assert [c["name"] for c in failed] == ["integration regions"]
        assert failed[0]["detail"] == "raised IndexError: index 4 is out of bounds"


class TestUsage:
    def test_no_verb(self, capsys):
        assert main([]) == 2

    def test_unknown_verb(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_unknown_flag(self, capsys):
        assert main(["volumes", "--n", "4", "--bogus"]) == 2
