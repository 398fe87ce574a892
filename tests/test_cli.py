"""End-to-end tests of the command-line interface via main(argv)."""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

import pinvkit.cli
import pinvkit.core
from pinvkit.circulant import circ_materialize, circ_pinv_spectral, generator_from_spectrum
from pinvkit.cli import _write_atomic, main
from pinvkit.core import gen_random_matrix, penrose_residuals, pinv
from pinvkit.graphdist import gen_zero_sum_tree, tree_build, wheel_build, wheel_pinv
from pinvkit.linalg import svd, svd_batch
from pinvkit.matrix import (
    PreconditionError,
    Tolerance,
    dumps_generator_json,
    dumps_matrix_csv,
    dumps_matrix_json,
    dumps_tree_csv,
    frobenius,
    loads_matrix_csv,
    loads_matrix_json,
    loads_tree_csv,
    parse_complex,
)


def write_matrix(path, a):
    path.write_text(dumps_matrix_json(np.asarray(a, dtype=np.complex128)))
    return str(path)


def read_matrix(path):
    return loads_matrix_json(path.read_text())


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


# --------------------------------------------------------------------------
# pinv


def test_pinv_svd_diag(tmp_path, capsys):
    a = write_matrix(tmp_path / "a.json", np.diag([2.0, 0.0]))
    out = tmp_path / "x.json"
    code, report = run(capsys, ["pinv", "--input", a, "--output", str(out)])
    assert code == 0
    assert report["passed"] is True
    assert report["rank"] == 1
    assert report["max_penrose_residual"] <= report["residual_bound"]
    np.testing.assert_allclose(read_matrix(out), np.diag([0.5, 0.0]), atol=1e-15)


@pytest.mark.parametrize("method", ["normal", "rank-completion"])
def test_pinv_methods_match_svd(tmp_path, capsys, method):
    a = gen_random_matrix(9, 6, 6, rank=4)
    path = write_matrix(tmp_path / "a.json", a)
    out = tmp_path / "x.json"
    code, report = run(capsys, ["pinv", "--input", path, "--method", method, "--output", str(out)])
    assert code == 0, report
    np.testing.assert_allclose(read_matrix(out), pinv(a), atol=1e-9)


def test_pinv_pair_method(tmp_path, capsys):
    a = write_matrix(tmp_path / "a.json", np.diag([1.0, 0.0]))
    b = write_matrix(tmp_path / "b.json", np.diag([0.0, 2.0]))
    out = tmp_path / "x.json"
    code, report = run(
        capsys, ["pinv", "--input", a, "--aux", b, "--method", "pair", "--output", str(out)]
    )
    assert code == 0
    assert report["method"] == "pair"
    np.testing.assert_allclose(read_matrix(out), np.diag([1.0, 0.0]), atol=1e-12)


def test_pinv_and_verify_read_csv_input(tmp_path, capsys):
    a = gen_random_matrix(23, 5, 4, rank=3)
    as_json = write_matrix(tmp_path / "a.json", a)
    as_csv = tmp_path / "a.csv"
    as_csv.write_text(dumps_matrix_csv(a))
    x_json, x_csv = tmp_path / "x_json.csv", tmp_path / "x_csv.csv"
    code, from_json = run(capsys, ["pinv", "--input", as_json, "--output", str(x_json)])
    assert code == 0
    code, from_csv = run(capsys, ["pinv", "--input", str(as_csv), "--output", str(x_csv)])
    assert code == 0 and from_csv["rank"] == from_json["rank"] == 3
    # the CSV cells carry every bit, so both inputs give the same pseudoinverse
    assert x_csv.read_bytes() == x_json.read_bytes()
    code, report = run(capsys, ["verify", "--input", str(as_csv), "--aux", str(x_csv)])
    assert code == 0 and report["passed"] and report["rank"] == 3


def test_pinv_reports_digests_and_writes_deterministically(tmp_path, capsys):
    a = write_matrix(tmp_path / "a.json", gen_random_matrix(3, 5, 4))
    out = tmp_path / "x.json"
    code, first = run(capsys, ["pinv", "--input", a, "--output", str(out)])
    bytes_first = out.read_bytes()
    code, second = run(capsys, ["pinv", "--input", a, "--output", str(out)])
    assert code == 0
    assert bytes_first == out.read_bytes()
    assert first["input_digest"] == second["input_digest"]
    assert first["output_digest"] == second["output_digest"]


def test_pinv_tight_tolerance_fails_with_exit_2(tmp_path, capsys):
    a = write_matrix(tmp_path / "a.json", gen_random_matrix(4, 5, 5))
    code, report = run(capsys, ["pinv", "--input", a, "--tol-residual", "1e-30"])
    assert code == 2
    assert report["passed"] is False


@pytest.mark.parametrize("existing", [False, True])
@pytest.mark.parametrize("command", ["pinv", "circ"])
def test_failed_check_leaves_the_output_path_as_it_was(tmp_path, capsys, command, existing):
    # exit 2 still prints the report, but --output is not written
    a = write_matrix(tmp_path / "a.json", gen_random_matrix(4, 5, 5))
    out = tmp_path / "x.json"
    if existing:
        out.write_text("kept")
    argv = {"pinv": ["pinv", "--input", a], "circ": ["circ", "--gen", "1,2,3"]}[command]
    code, report = run(capsys, [*argv, "--tol-residual", "1e-30", "--output", str(out)])
    assert code == 2 and report["passed"] is False and report["output_digest"] is None
    assert sorted(os.listdir(tmp_path)) == ["a.json"] + ["x.json"] * existing
    assert not existing or out.read_text() == "kept"


# --------------------------------------------------------------------------
# circ


def test_circ_zero_sum_frozen(tmp_path, capsys):
    out = tmp_path / "g.json"
    code, report = run(
        capsys,
        ["circ", "--gen", "1,-1,0", "--method", "zero-sum", "--alpha", "1",
         "--output", str(out)],
    )
    assert code == 0
    got = json.loads(out.read_text())
    values = [complex(re, im) for re, im in got["gen"]]
    np.testing.assert_allclose(values, [1 / 3, 0.0, -1 / 3], atol=1e-12)
    assert report["extras"]["support"] == [1, 2]


def test_circ_two_term_frozen(tmp_path, capsys):
    out = tmp_path / "g.json"
    code, _ = run(
        capsys, ["circ", "--gen", "1,1,0,0", "--method", "two-term", "--output", str(out)]
    )
    assert code == 0
    got = json.loads(out.read_text())
    values = [complex(re, im) for re, im in got["gen"]]
    np.testing.assert_allclose(values, np.array([6, -2, -2, 6]) / 16.0, atol=1e-12)


def test_circ_two_term_from_flags(tmp_path, capsys):
    code, report = run(
        capsys,
        ["circ", "--method", "two-term", "--alpha", "1", "--beta", "1", "--n", "4"],
    )
    assert code == 0
    assert report["rank"] == 3


def test_circ_spectral_identity(capsys):
    code, report = run(capsys, ["circ", "--gen", "1,0,0", "--method", "spectral"])
    assert code == 0
    assert report["rank"] == 3
    assert report["extras"]["support"] == [0, 1, 2]


def test_circ_csv_output_materializes(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code, _ = run(capsys, ["circ", "--gen", "2,0,1", "--output", str(out)])
    assert code == 0
    x = loads_matrix_csv(out.read_text())
    want = np.array([[4, 1, -2], [-2, 4, 1], [1, -2, 4]]) / 9.0
    np.testing.assert_allclose(x.real, want, atol=1e-12)


def test_circ_generator_json_input(tmp_path, capsys):
    src = tmp_path / "gen.json"
    src.write_text(dumps_generator_json(np.array([1.0, -1.0, 0.0])))
    code, report = run(capsys, ["circ", "--input", str(src), "--method", "spectral"])
    assert code == 0
    assert report["rank"] == 2


def test_circ_rejects_gen_and_input_together(tmp_path, capsys):
    src = tmp_path / "gen.json"
    src.write_text(dumps_generator_json(np.array([1.0, 0.0])))
    assert main(["circ", "--gen", "1,0", "--input", str(src)]) == 3


def test_circ_two_term_rejects_non_adjacent(capsys):
    assert main(["circ", "--gen", "1,0,1,0", "--method", "two-term"]) == 3


def test_circ_block_needs_all_params(capsys):
    assert main(["circ", "--method", "block", "--alpha", "1", "--beta", "1"]) == 3


def test_circ_rank_follows_the_oracle_rule(tmp_path, capsys):
    # one eigenvalue at 1e-11 relative: above the SVD cutoff
    # rank_rel * max|lambda| * n (about 2e-15), so the rank is 8, not 7
    gen = generator_from_spectrum(
        np.array([1, 2, 1.5, 1e-11, 3, 2.5, 1.2, 0.8], dtype=np.complex128)
    )
    src = tmp_path / "gen.json"
    src.write_text(dumps_generator_json(gen))
    code, report = run(capsys, ["circ", "--input", str(src)])
    assert code == 0
    c = circ_materialize(gen)
    assert report["rank"] == svd(c).rank == 8
    oracle = pinv(c)
    x = circ_materialize(circ_pinv_spectral(gen))
    # cond(c) is 3e11, so a first-order forward error of about 3e-5
    assert frobenius(x - oracle) <= 1e-4 * frobenius(oracle)


def test_circ_block_runs(tmp_path, capsys):
    out = tmp_path / "g.json"
    code, report = run(
        capsys,
        ["circ", "--method", "block", "--alpha", "1.5", "--beta", "0.5",
         "--k", "2", "--q", "2", "--output", str(out)],
    )
    assert code == 0
    assert report["rows"] == 6


@pytest.mark.parametrize(
    "argv",
    [
        ["--gen", "1e-320,0"],
        # every 1/lambda is finite here, but their FFT sum is not
        ["--gen", "6e-309,0"],
        ["--method", "zero-sum", "--gen", "3e-320,1e-320"],
        ["--method", "two-term", "--alpha=1e-320", "--beta=-1e-320", "--n", "4"],
        ["--method", "block", "--alpha=1e-320", "--beta=1", "--k", "1", "--q", "2"],
    ],
)
def test_circ_pinv_past_the_float_range_exits_3_without_warnings(
    tmp_path, monkeypatch, capsys, argv
):
    # valid input whose pseudoinverse overflows is refused, not a parse error
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["circ", *argv, "--output", "g.json"]) == 3
    assert "the pseudoinverse leaves the float range" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["--gen", "1e308,1e308,1e308"],
        ["--method", "zero-sum", "--gen", "1e308,-1e308,0", "--alpha", "1"],
        ["--method", "two-term", "--gen", "1e308,1e308,0"],
        ["--method", "two-term", "--alpha", "1e308", "--beta", "1e308", "--n", "4"],
        ["--method", "block", "--alpha=1e308", "--beta=1e308", "--k", "2", "--q", "1"],
    ],
)
def test_circ_past_the_float_range_exits_3_before_any_route(tmp_path, monkeypatch, capsys, argv):
    # sqrt(n) ||g|| = ||circ(g)||_F is inf, so every residual bound was 0: the
    # first printed rank 0 after an ifft overflow warning, the second a null
    # residual, and both exited 2
    monkeypatch.chdir(tmp_path)
    for route in ("circ_pinv_spectral", "two_term_pinv", "zero_sum_shift_pinv",
                  "block_pattern_pinv", "circ_spectrum"):
        monkeypatch.setattr(pinvkit.cli, route, None)
    assert main(["circ", *argv, "--output", "g.json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "the circulant leaves the float range" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_circ_just_inside_the_float_range_keeps_its_rank(capsys):
    code, report = run(capsys, ["circ", "--gen", "1e307,1e307,1e307"])
    assert code == 0 and report["rank"] == 1 and report["extras"]["support"] == [0]


def test_memory_error_exits_3_naming_memory(tmp_path, monkeypatch, capsys):
    # wheel --n 1000001 escaped as numpy's _ArrayMemoryError with status 1
    def no_memory(n, tol=None):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(pinvkit.cli, "wheel_build", no_memory)
    assert main(["wheel", "--n", "1000001", "--output", "w.json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "out of memory" in captured.err
    assert list(tmp_path.iterdir()) == []


# --------------------------------------------------------------------------
# tree and wheel


def test_tree_path3(tmp_path, capsys):
    src = tmp_path / "t.csv"
    src.write_text("1,2,1\n2,3,-1\n")
    out = tmp_path / "d.json"
    code, report = run(capsys, ["tree", "--input", str(src), "--output", str(out)])
    assert code == 0
    d = tree_build([(1, 2, 1.0), (2, 3, -1.0)]).D
    np.testing.assert_allclose(read_matrix(out).real, d / 2.0, atol=1e-12)
    np.testing.assert_allclose(report["extras"]["u"], [0.25, 0.0, -0.25], atol=1e-12)
    assert report["extras"]["dl_identity_residual"] < 1e-12


def test_tree_explicit_alpha(tmp_path, capsys):
    src = tmp_path / "t.csv"
    src.write_text("1,2,1\n2,3,-1\n")
    code, report = run(capsys, ["tree", "--input", str(src), "--alpha", "5"])
    assert code == 0
    assert report["extras"]["alpha"] == 5.0


def test_tree_nonzero_sum_exits_3(tmp_path, capsys):
    src = tmp_path / "t.csv"
    src.write_text("1,2,1\n2,3,2\n")
    assert main(["tree", "--input", str(src)]) == 3


def test_tree_bad_edge_file_exits_1(tmp_path):
    src = tmp_path / "t.csv"
    src.write_text("1,2\n")
    assert main(["tree", "--input", str(src)]) == 1


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf", "1e400"])
def test_tree_non_finite_alpha_exits_1_without_warnings(tmp_path, capsys, alpha):
    src = tmp_path / "t.csv"
    src.write_text("1,2,1\n2,3,-1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["tree", "--input", str(src), f"--alpha={alpha}"]) == 1
    assert "not a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["1e-20", "1e300", "1e-300"])
def test_tree_badly_scaled_alpha_names_alpha_and_the_automatic_value(tmp_path, capsys, alpha):
    # D^+ does not depend on alpha, so any nonzero alpha is only recorded
    src = tmp_path / "t.csv"
    src.write_text("1,2,1\n2,3,-1\n")
    plain, given = tmp_path / "plain.json", tmp_path / "given.json"
    code, report = run(capsys, ["tree", "--input", str(src), "--output", str(plain)])
    assert code == 0 and report["extras"]["alpha"] == "auto"
    argv = ["tree", "--input", str(src), f"--alpha={alpha}", "--output", str(given)]
    code, report = run(capsys, argv)
    assert code == 0 and report["extras"]["alpha"] == float(alpha)
    assert given.read_bytes() == plain.read_bytes()


def test_tree_small_negative_alpha_still_passes(tmp_path, capsys):
    src = tmp_path / "t.csv"
    src.write_text("1,2,1\n2,3,-1\n")
    code, report = run(capsys, ["tree", "--input", str(src), "--alpha=-1e-12"])
    assert code == 0 and report["passed"]


# argparse's own negative-number pattern has no exponent and no imaginary
# unit, so these were taken for flags ("expected one argument")
NEGATIVE_LITERALS = ["-1e-3", "-1E5", "-2.5e+2", "-2i", "-1-2i", "-.5e1"]


@pytest.mark.parametrize("value", NEGATIVE_LITERALS)
def test_tree_takes_a_negative_literal_as_alpha(tmp_path, capsys, value):
    src = tmp_path / "t.csv"
    src.write_text("1,2,1\n2,3,-1\n")
    code = main(["tree", "--input", str(src), "--alpha", value])
    captured = capsys.readouterr()
    assert "expected one argument" not in captured.err
    if parse_complex(value).imag:
        # the value reaches --alpha's own check, which wants a real number
        assert code == 1 and f"not a finite number: '{value}'" in captured.err
    else:
        assert code == 0 and json.loads(captured.out)["extras"]["alpha"] == float(value)


@pytest.mark.parametrize("flag", ["--alpha", "--beta"])
@pytest.mark.parametrize("value", NEGATIVE_LITERALS)
def test_circ_takes_a_negative_literal_as_the_flags_value(tmp_path, capsys, flag, value):
    other = "--beta" if flag == "--alpha" else "--alpha"
    reports, outputs = [], []
    for name, given in (("spaced.csv", [flag, value]), ("joined.csv", [f"{flag}={value}"])):
        out = tmp_path / name
        argv = ["circ", "--method", "two-term", *given, other, "1.5", "--n", "8", "--k", "1",
                "--output", str(out)]
        code, report = run(capsys, argv)
        assert code == 0
        del report["wall_time_s"]
        reports.append(report)
        outputs.append(out.read_bytes())
    # "--flag value" reads the value as "--flag=value" always did
    assert reports[0] == reports[1] and outputs[0] == outputs[1]


@pytest.mark.parametrize("gen", ["-1,1,0", "-2i,1,0", "-1e-3,2,-1-2i"])
def test_circ_takes_a_generator_with_a_negative_first_entry(tmp_path, capsys, gen):
    reports, outputs = [], []
    for name, given in (("spaced.csv", ["--gen", gen]), ("joined.csv", [f"--gen={gen}"])):
        out = tmp_path / name
        code, report = run(capsys, ["circ", *given, "--output", str(out)])
        assert code == 0
        del report["wall_time_s"]
        reports.append(report)
        outputs.append(out.read_bytes())
    assert reports[0] == reports[1] and outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["circ", "--method", "two-term", "--alpha", "--beta", "1", "--n", "8", "--k", "1"],
        ["circ", "--method", "two-term", "--alpha", "1", "--beta", "--n", "8", "--k", "1"],
        ["tree", "--input", "t.csv", "--alpha", "--output", "d.json"],
    ],
)
def test_flag_without_its_value_still_exits_1(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.csv").write_text("1,2,1\n2,3,-1\n")
    assert main(argv) == 1
    assert "expected one argument" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["t.csv"]


def test_tree_method_names_the_form_that_ran(tmp_path, capsys):
    # the path on three vertices has tau^t L tau = 0
    src = tmp_path / "t.csv"
    src.write_text("1,2,1\n2,3,-1\n")
    tree = tree_build(loads_tree_csv(src.read_text()))
    assert float(tree.tau @ tree.L @ tree.tau) == 0.0
    code, report = run(capsys, ["tree", "--input", str(src)])
    assert code == 0 and report["method"] == "closed-form"
    code, report = run(capsys, ["tree", "--input", str(src), "--alpha", "5"])
    assert code == 0 and report["method"] == "closed-form"


def test_wheel_5_matches_module(tmp_path, capsys):
    out = tmp_path / "w.json"
    code, report = run(capsys, ["wheel", "--n", "5", "--output", str(out)])
    assert code == 0
    dpinv = wheel_pinv(wheel_build(5))
    np.testing.assert_allclose(read_matrix(out).real, dpinv, atol=1e-13)
    assert report["extras"]["z24"] == [-72, -24, 120, -24]
    assert all(report["extras"]["z_identities"].values())
    assert report["extras"]["eigvector_residual"] <= 1e-10


def test_wheel_even_n_exits_3(capsys):
    assert main(["wheel", "--n", "4"]) == 3


# sha256 of each output as the per-row writer formatted it, before the
# writer formatted each distinct real value once
GOLDEN_DIGESTS = {
    ("wheel", "csv"): "d0d9b264bb7e6c97d329e35d27f657e4ddaffab9a58027421f8a7a6627323b7f",
    ("wheel", "json"): "b48f1c0baaf3532fb7996eace72f8135fa11b0f1e8de64ba6c68901ac047952d",
    ("tree", "csv"): "d22759fdbd5446bca182d4cd73e2b6f01d645194fd62692c50b7406e06e55d3d",
    ("tree", "json"): "9322a0ec9508c3233a3db5b3dbb8fe2317c00e7d21e6202f06000e8e8ed1db70",
}


@pytest.mark.parametrize("command,ext", sorted(GOLDEN_DIGESTS))
def test_wheel_61_and_tree_60_outputs_keep_their_bytes(tmp_path, capsys, command, ext):
    if command == "wheel":
        argv = ["wheel", "--n", "61"]
    else:
        edges = tmp_path / "t.csv"
        edges.write_text(dumps_tree_csv(gen_zero_sum_tree(7, 60).edges))
        argv = ["tree", "--input", str(edges)]
    out = tmp_path / f"x.{ext}"
    code, report = run(capsys, [*argv, "--output", str(out)])
    assert code == 0
    want = GOLDEN_DIGESTS[command, ext]
    assert report["output_digest"] == want
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want


# --------------------------------------------------------------------------
# verify


def test_verify_identity_passes(tmp_path, capsys):
    a = write_matrix(tmp_path / "a.json", np.eye(3))
    code, report = run(capsys, ["verify", "--input", a, "--aux", a])
    assert code == 0
    residuals = report["extras"]["residuals"]
    assert len(residuals) == 10
    assert max(residuals.values()) == 0.0


def test_verify_wrong_inverse_exits_2(tmp_path, capsys):
    a = write_matrix(tmp_path / "a.json", np.diag([2.0, 0.0]))
    x = write_matrix(tmp_path / "x.json", np.ones((2, 2)))
    code, report = run(capsys, ["verify", "--input", a, "--aux", x])
    assert code == 2
    assert report["passed"] is False


def test_verify_shape_mismatch_exits_3(tmp_path):
    a = write_matrix(tmp_path / "a.json", np.eye(3))
    x = write_matrix(tmp_path / "x.json", np.eye(2))
    assert main(["verify", "--input", a, "--aux", x]) == 3


def test_verify_pinv_of_every_method_passes(tmp_path, capsys):
    a = gen_random_matrix(17, 6, 4, rank=3)
    src = write_matrix(tmp_path / "a.json", a)
    out = tmp_path / "x.json"
    for method in ("svd", "normal", "rank-completion"):
        code, _ = run(capsys, ["pinv", "--input", src, "--method", method,
                               "--output", str(out)])
        assert code == 0
        code, _ = run(capsys, ["verify", "--input", src, "--aux", str(out)])
        assert code == 0


@pytest.mark.parametrize("command", ["pinv", "verify"])
def test_dense_commands_factor_the_input_once(tmp_path, capsys, monkeypatch, command):
    a = gen_random_matrix(19, 5, 4, rank=2)
    src = write_matrix(tmp_path / "a.json", a)
    aux = write_matrix(tmp_path / "x.json", pinv(a))
    factored = []

    def counting_svd(m, *args, **kwargs):
        factored.append(np.array_equal(m, a))
        return svd(m, *args, **kwargs)

    def counting_batch(mats, *args, **kwargs):
        # verify factors A and X in one stacked call; each member counts
        factored.extend(np.array_equal(m, a) for m in mats)
        return svd_batch(mats, *args, **kwargs)

    monkeypatch.setattr(pinvkit.cli, "svd_batch", counting_batch)
    monkeypatch.setattr(pinvkit.core, "svd", counting_svd)
    argv = ["pinv", "--input", src] if command == "pinv" else ["verify", "--input", src, "--aux", aux]
    code, report = run(capsys, argv)
    assert code == 0 and report["rank"] == 2
    assert factored.count(True) == 1


# --------------------------------------------------------------------------
# gen


def test_gen_sum_family_files_and_certificate(tmp_path, capsys):
    prefix = tmp_path / "fam"
    argv = ["gen", "sum-family", "--k", "3", "--rows", "6", "--cols", "5",
            "--seed", "42", "--output", str(prefix)]
    code, report = run(capsys, argv)
    assert code == 0
    assert report["extras"]["certificate_holds"] is True
    paths = [entry["path"] for entry in report["extras"]["files"]]
    assert len(paths) == 3
    first_bytes = [(tmp_path / f"fam_{i}.json").read_bytes() for i in (1, 2, 3)]
    code, _ = run(capsys, argv)
    assert code == 0
    assert first_bytes == [(tmp_path / f"fam_{i}.json").read_bytes() for i in (1, 2, 3)]


def test_gen_zero_sum_tree_roundtrip(tmp_path, capsys):
    prefix = tmp_path / "tree"
    code, report = run(capsys, ["gen", "zero-sum-tree", "--n", "9", "--seed", "3",
                                "--output", str(prefix)])
    assert code == 0
    edges = loads_tree_csv((tmp_path / "tree.csv").read_text())
    tree = tree_build(edges)
    assert tree.n == 9
    assert abs(tree.weight_sum) < 1e-9
    code, _ = run(capsys, ["tree", "--input", str(tmp_path / "tree.csv")])
    assert code == 0


def test_gen_rank_additive_pair(tmp_path, capsys):
    prefix = tmp_path / "pair"
    code, report = run(capsys, ["gen", "rank-additive-pair", "--n", "6", "--seed", "7",
                                "--output", str(prefix)])
    assert code == 0
    a = read_matrix(tmp_path / "pair_a.json")
    b = read_matrix(tmp_path / "pair_b.json")
    assert a.shape == b.shape == (6, 6)


def test_gen_random_matrix_with_rank(tmp_path, capsys):
    prefix = tmp_path / "m"
    code, _ = run(capsys, ["gen", "random-matrix", "--rows", "5", "--cols", "4",
                           "--k", "2", "--seed", "1", "--output", str(prefix)])
    assert code == 0
    a = read_matrix(tmp_path / "m.json")
    assert np.linalg.matrix_rank(a) == 2


# --------------------------------------------------------------------------
# plumbing: exit codes, tolerance resolution, pretty output


@pytest.mark.parametrize(
    "argv",
    [
        ["pinv", "--input", "no_such_file.json"],
        ["pinv", "--nonsense-flag"],
        ["no-such-command"],
        [],
        ["circ", "--gen", "1", "--method", "spectral"],
        # flags a subcommand does not read are rejected, not ignored
        ["wheel", "--n", "5", "--input", "a.json"],
        ["verify", "--output", "x.json"],
        ["pinv", "--seed", "3"],
        ["tree", "--aux", "b.csv"],
        # and so are flags that the chosen method or kind does not read
        ["circ", "--gen", "1,2,3", "--method", "spectral", "--alpha", "7", "--k", "2"],
        ["gen", "zero-sum-tree", "--rows", "5"],
        # two-term takes alpha, beta, n and k from a given generator
        ["circ", "--method", "two-term", "--gen", "0,1,2,0",
         "--alpha", "5", "--n", "9", "--k", "3"],
        ["circ", "--method", "two-term", "--input", "g.json", "--beta", "2"],
        # only pair reads --aux, though a.json is a valid input
        ["pinv", "--method", "svd", "--input", "a.json", "--aux", "junk.json"],
        ["pinv", "--method", "normal", "--input", "a.json", "--aux", "junk.json"],
        ["pinv", "--method", "rank-completion", "--input", "a.json", "--aux", "junk.json"],
    ],
)
def test_parse_failures_exit_1(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    write_matrix(tmp_path / "a.json", np.eye(2))
    assert main(argv) == 1


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["pinv", "--input", "a.txt", "--output", "x.json"], 1, "unknown matrix format"),
        (["pinv", "--input", "a.json", "--output", "x.txt"], 3, "unknown output format"),
        (["pinv", "--output", "x.json"], 3, "pinv needs --input"),
        (["pinv", "--method", "pair", "--input", "a.json", "--output", "x.json"], 3,
         "pair method needs --aux"),
        (["circ", "--method", "spectral", "--output", "x.json"], 3, "needs a generator"),
        (["circ", "--method", "zero-sum", "--alpha", "2", "--output", "x.json"], 3,
         "needs a generator"),
        (["circ", "--method", "two-term", "--output", "x.json"], 3, "two-term without --gen"),
        (["circ", "--method", "two-term", "--alpha", "1", "--beta", "2", "--output", "x.json"],
         3, "two-term without --gen"),
        (["tree", "--output", "x.json"], 3, "tree needs --input"),
        (["verify", "--input", "a.json"], 3, "verify needs --input (matrix) and --aux"),
    ],
)
def test_missing_inputs_and_unknown_formats_are_refused_and_write_nothing(
    tmp_path, monkeypatch, capsys, argv, code, message
):
    monkeypatch.chdir(tmp_path)
    write_matrix(tmp_path / "a.json", np.eye(2))
    (tmp_path / "a.txt").write_text((tmp_path / "a.json").read_text())
    assert main(argv) == code
    assert message in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["a.json", "a.txt"]


@pytest.mark.parametrize(
    "argv",
    [
        ["circ", "--method", "two-term", "--alpha", "1", "--beta", "2", "--n", "0"],
        ["circ", "--method", "two-term", "--alpha", "1", "--beta", "2", "--n", "-3"],
        ["gen", "rank-additive-pair", "--n", "1"],
        ["gen", "random-matrix", "--rows", "-1"],
        ["gen", "random-matrix", "--rows", "0"],
    ],
)
def test_bad_sizes_exit_3_and_write_nothing(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 3
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind", ["random-matrix", "sum-family", "zero-sum-tree",
                                  "rank-additive-pair"])
def test_gen_negative_seed_exits_3_and_writes_nothing(tmp_path, monkeypatch, capsys, kind):
    monkeypatch.chdir(tmp_path)
    assert main(["gen", kind, "--seed=-1"]) == 3
    assert "seed must be non-negative" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


SHARED_FLAGS = {"--help", "--tol-rank", "--tol-residual", "--pretty"}


@pytest.mark.parametrize(
    "command, flags",
    [
        ("pinv", {"--method", "--input", "--aux", "--output"}),
        ("circ", {"--method", "--gen", "--alpha", "--beta", "--k", "--q", "--n",
                  "--input", "--output"}),
        ("tree", {"--alpha", "--input", "--output"}),
        ("wheel", {"--n", "--output"}),
        ("verify", {"--input", "--aux"}),
        ("gen", {"--rows", "--cols", "--k", "--n", "--seed", "--output"}),
    ],
)
def test_help_lists_only_the_flags_the_handler_reads(capsys, command, flags):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) == flags | SHARED_FLAGS


REPORT_KEYS = [
    "command", "method", "rows", "cols", "rank", "max_penrose_residual",
    "residual_bound", "passed", "wall_time_s", "input_digest", "output_digest", "extras",
]


@pytest.mark.parametrize(
    "command, extras",
    [
        ("pinv", []),
        ("circ", ["support"]),
        ("tree", ["alpha", "weight_sum", "u", "reconstruction_gap", "dl_identity_residual"]),
        ("wheel", ["n", "z24", "z_identities", "eigvector_residual"]),
        ("verify", ["residuals"]),
        ("gen", ["kind", "seed", "weight_sum", "files"]),
    ],
)
def test_report_key_order_and_wall_time(tmp_path, capsys, command, extras):
    a = write_matrix(tmp_path / "a.json", np.diag([2.0, 1.0]))
    x = write_matrix(tmp_path / "x.json", np.diag([0.5, 1.0]))
    tree = tmp_path / "t.csv"
    tree.write_text("1,2,1\n2,3,-1\n")
    argv = {
        "pinv": ["pinv", "--input", a],
        "circ": ["circ", "--gen", "2,0,1"],
        "tree": ["tree", "--input", str(tree)],
        "wheel": ["wheel", "--n", "5"],
        "verify": ["verify", "--input", a, "--aux", x],
        "gen": ["gen", "zero-sum-tree", "--output", str(tmp_path / "g")],
    }[command]
    code, report = run(capsys, argv)
    assert code == 0
    assert list(report) == REPORT_KEYS
    assert list(report["extras"]) == extras
    assert report["wall_time_s"] > 0


def test_malformed_matrix_json_exits_1(tmp_path):
    path = tmp_path / "a.json"
    path.write_text('{"rows": 2, "cols": 2, "data": [[0, 0]]}')
    assert main(["pinv", "--input", str(path)]) == 1


@pytest.mark.parametrize("command", ["pinv", "verify"])
@pytest.mark.parametrize("rows, cols", [("true", "true"), ("1", "true"), ("true", "1")])
def test_boolean_json_sizes_exit_1(tmp_path, capsys, command, rows, cols):
    path = str(tmp_path / "a.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f'{{"rows": {rows}, "cols": {cols}, "data": [[1, 0]]}}')
    aux = ["--aux", path] if command == "verify" else []
    assert main([command, "--input", path, *aux]) == 1
    assert "rows/cols must be positive integers" in capsys.readouterr().err


@pytest.mark.parametrize("gen", ["1,,0", "1,0,", ",1,0"])
def test_circ_empty_generator_entry_exits_1(capsys, gen):
    assert main(["circ", f"--gen={gen}"]) == 1
    assert "bad complex literal: ''" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["pinv", "circ"])
@pytest.mark.parametrize("part", ["1" + "0" * 400, "true"], ids=["huge-int", "bool"])
def test_json_part_beyond_float_range_or_bool_exits_1(tmp_path, capsys, command, part):
    path = tmp_path / "in.json"
    if command == "pinv":
        path.write_text(f'{{"rows": 1, "cols": 2, "data": [[{part}, 0], [0, 0]]}}')
    else:
        path.write_text(f'{{"n": 2, "gen": [[0, 0], [0, {part}]]}}')
    assert main([command, "--input", str(path)]) == 1
    assert "parse error" in capsys.readouterr().err


def test_env_var_sets_residual_bound(tmp_path, capsys, monkeypatch):
    a = write_matrix(tmp_path / "a.json", np.diag([2.0, 0.0]))
    x = write_matrix(tmp_path / "x.json", np.diag([0.5 + 1e-5, 0.0]))
    assert main(["verify", "--input", a, "--aux", x]) == 2
    capsys.readouterr()
    monkeypatch.setenv("PINVKIT_TOL_RESIDUAL", "0.1")
    code, report = run(capsys, ["verify", "--input", a, "--aux", x])
    assert code == 0
    # the bound of the equation nearest its bound, relative factor 0.1
    tol = Tolerance(residual_rel=0.1)
    rep = penrose_residuals(np.diag([2.0, 0.0]), np.diag([0.5 + 1e-5, 0.0]), tol)
    assert report["residual_bound"] == pytest.approx(rep.bounds[rep.worst[0]])
    # explicit flag wins over the environment
    assert main(["verify", "--input", a, "--aux", x, "--tol-residual", "1e-9"]) == 2


def test_env_var_invalid_exits_1(tmp_path, monkeypatch):
    a = write_matrix(tmp_path / "a.json", np.eye(2))
    monkeypatch.setenv("PINVKIT_TOL_RESIDUAL", "not-a-float")
    assert main(["verify", "--input", a, "--aux", a]) == 1


def test_negative_tolerance_exits_3(tmp_path):
    a = write_matrix(tmp_path / "a.json", np.eye(2))
    assert main(["pinv", "--input", a, "--tol-residual", "-1"]) == 3


@pytest.mark.parametrize("flag", ["--tol-residual", "--tol-rank"])
def test_infinite_tolerance_flag_exits_3(tmp_path, flag):
    # an infinite bound would pass this wrong inverse
    a = write_matrix(tmp_path / "a.json", np.diag([2.0, 1.0]))
    x = write_matrix(tmp_path / "x.json", np.diag([3.0, -4.0]))
    assert main(["verify", "--input", a, "--aux", x, flag, "inf"]) == 3


def test_infinite_tolerance_env_var_exits_3(tmp_path, monkeypatch):
    a = write_matrix(tmp_path / "a.json", np.diag([2.0, 1.0]))
    x = write_matrix(tmp_path / "x.json", np.diag([3.0, -4.0]))
    monkeypatch.setenv("PINVKIT_TOL_RESIDUAL", "inf")
    assert main(["verify", "--input", a, "--aux", x]) == 3


def test_concurrent_writes_leave_one_complete_file(tmp_path):
    path = str(tmp_path / "x.csv")
    texts = [letter * (100_000 + 50_000 * index) + "\n" for index, letter in enumerate("abcd")]
    barrier = threading.Barrier(len(texts), timeout=30)
    errors = []

    def writer(text):
        try:
            for _ in range(20):
                barrier.wait()
                _write_atomic(path, text)
        except Exception as exc:  # reported below; a thread cannot fail the test
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=writer, args=(text,)) for text in texts]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    with open(path, encoding="utf-8") as handle:
        assert handle.read() in texts
    assert os.listdir(tmp_path) == ["x.csv"]
    umask = os.umask(0o077)
    os.umask(umask)
    assert os.stat(path).st_mode & 0o777 == 0o666 & ~umask


def test_failed_write_removes_temp_file(tmp_path):
    target = tmp_path / "x.json"
    target.mkdir()  # os.replace cannot put a file over a directory
    with pytest.raises(PreconditionError):
        _write_atomic(str(target), "{}")
    assert os.listdir(tmp_path) == ["x.json"]


def test_failing_block_source_keeps_the_old_file(tmp_path):
    target = tmp_path / "x.csv"
    target.write_bytes(b"old\n")

    def blocks():
        yield b"1+0i,2+0i\n" * 1000
        raise RuntimeError("block source failed")

    with pytest.raises(RuntimeError, match="block source failed"):
        _write_atomic(str(target), blocks())
    assert os.listdir(tmp_path) == ["x.csv"]
    assert target.read_bytes() == b"old\n"


def test_pretty_output_is_table(tmp_path, capsys):
    a = write_matrix(tmp_path / "a.json", np.eye(2))
    code = main(["pinv", "--input", a, "--pretty"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("command")
    assert "passed" in out
    assert not out.lstrip().startswith("{")


def test_pinv_at_1e200_scale_passes_without_warnings(tmp_path, capsys):
    a = np.array([[3.0, 1.0], [0.0, 2.0]]) * 1e200
    src = write_matrix(tmp_path / "a.json", a)
    out = tmp_path / "x.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, report = run(capsys, ["pinv", "--input", src, "--output", str(out)])
    assert code == 0 and report["rank"] == 2 and report["passed"]
    want = np.array([[2.0, -1.0], [0.0, 3.0]]) / 6e200
    np.testing.assert_allclose(read_matrix(out), want, rtol=1e-14, atol=1e-214)


# --------------------------------------------------------------------------
# one parser per process


def test_importing_the_cli_does_not_build_the_parser():
    code = (
        "import pinvkit.cli as cli; before = cli.build_parser.cache_info().currsize; "
        "cli.main(['wheel', '--n', '5']); print(before, cli.build_parser.cache_info().currsize)"
    )
    package_root = os.path.dirname(os.path.dirname(pinvkit.cli.__file__))
    path = os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip().splitlines()[-1] == "0 1"


def test_main_builds_the_parser_once(capsys):
    pinvkit.cli.build_parser.cache_clear()
    for n in ("5", "7", "9"):
        assert main(["wheel", "--n", n]) == 0
    assert pinvkit.cli.build_parser.cache_info().misses == 1


def test_back_to_back_calls_do_not_share_flags(tmp_path, capsys, monkeypatch):
    seen = []
    resolve = pinvkit.cli._resolve_tolerance

    def recording(args):
        seen.append(args)
        return resolve(args)

    monkeypatch.setattr(pinvkit.cli, "_resolve_tolerance", recording)
    zero_sum = ["circ", "--gen", "1,-1,0", "--method", "zero-sum"]
    assert run(capsys, [*zero_sum, "--alpha", "2"])[0] == 0
    # the shifted route needs an alpha, so a leaked --alpha 2 would exit 0
    assert run(capsys, zero_sum)[0] == 3
    assert seen[0].alpha == 2 and seen[1].alpha is None

    a = write_matrix(tmp_path / "a.json", np.diag([2.0, 1.0]))
    code, report = run(capsys, ["pinv", "--method", "normal", "--input", a])
    assert code == 0 and report["method"] == "normal"
    code, report = run(capsys, ["pinv", "--input", a])
    assert code == 0 and report["method"] == "svd"


def test_usage_errors_exit_1_with_the_parser_cached(capsys):
    assert main(["wheel", "--n", "5"]) == 0
    assert main(["wheel", "--n", "5", "--input", "a.json"]) == 1
    assert main(["pinv", "--method", "qr"]) == 1
    assert main(["wheel", "--n", "5"]) == 0


class _StdoutPerThread:
    """A stdout that keeps what each thread prints apart."""

    def __init__(self):
        self.lock = threading.Lock()
        self.text: dict[int, list[str]] = {}

    def write(self, chunk):
        with self.lock:
            self.text.setdefault(threading.get_ident(), []).append(chunk)
        return len(chunk)

    def flush(self):
        pass

    def report(self):
        return json.loads("".join(self.text.pop(threading.get_ident())))


def test_threads_calling_main_give_the_sequential_reports(tmp_path, monkeypatch):
    a = write_matrix(tmp_path / "a.json", np.diag([2.0, 0.0, 1.0]))
    tree = tmp_path / "t.csv"
    tree.write_text("1,2,1\n2,3,-1\n2,4,0.5\n4,5,-0.5\n")

    def argvs(tag):
        out = tmp_path / tag
        out.mkdir(exist_ok=True)
        return [
            ["pinv", "--method", "normal", "--input", a, "--output", str(out / "x.json")],
            ["circ", "--gen", "2,0,1", "--output", str(out / "g.csv")],
            ["tree", "--input", str(tree), "--output", str(out / "t.json")],
            ["wheel", "--n", "9", "--output", str(out / "w.csv")],
        ]

    def bare(report):
        report.pop("wall_time_s")
        return report

    stdout = _StdoutPerThread()
    monkeypatch.setattr(sys, "stdout", stdout)
    want = []
    for argv in argvs("sequential"):
        assert main(argv) == 0
        want.append(bare(stdout.report()))

    got: list = [None] * 4
    barrier = threading.Barrier(4, timeout=30)

    def call(index, argv):
        try:
            barrier.wait()
            got[index] = [(main(argv), bare(stdout.report())) for _ in range(5)]
        except Exception as exc:  # reported below; a thread cannot fail the test
            got[index] = exc
            barrier.abort()

    threads = [
        threading.Thread(target=call, args=(index, argv))
        for index, argv in enumerate(argvs("threaded"))
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [[(0, report)] * 5 for report in want]
    for name in ("x.json", "g.csv", "t.json", "w.csv"):
        sequential = (tmp_path / "sequential" / name).read_bytes()
        assert (tmp_path / "threaded" / name).read_bytes() == sequential
