import json
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special as sps

import minrep.verify
from minrep.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- coefficient tables ------------------------------------------------------


def test_mano_csv(capsys):
    code, out, err = run_cli(capsys, "mano", "--mu", "3", "--ell", "1", "--j", "0")
    assert code == 0 and err == ""
    assert out == "k,numerator,denominator\n0,2,1\n1,1,1\n"


def test_mano_invalid_mu_exits_2(capsys):
    code, out, err = run_cli(capsys, "mano", "--mu", "2", "--ell", "1", "--j", "0")
    assert code == 2
    assert "odd integer mu" in err


def test_mano_json_equals_laguerre_json(capsys):
    code, out_m, _ = run_cli(
        capsys, "mano", "--mu", "3", "--ell", "0", "--j", "2", "--format", "json"
    )
    assert code == 0
    code, out_l, _ = run_cli(
        capsys, "laguerre", "--mu", "3", "--j", "2", "--format", "json"
    )
    assert code == 0
    assert out_m == out_l
    payload = json.loads(out_m)
    assert payload[0] == {"k": 0, "numerator": 10, "denominator": 1}


def test_laurent_table_includes_negative_k(capsys):
    code, out, _ = run_cli(capsys, "mano", "--mu", "1", "--ell", "-1", "--j", "1")
    assert code == 0
    assert out.splitlines()[1].startswith("-1,")


# -- kernel commands -----------------------------------------------------------


def test_kernel_classify_json(capsys):
    code, out, _ = run_cli(capsys, "kernel", "classify", "--p", "3", "--q", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["case"] == "B1"
    assert rep["locally_integrable"] is False
    code, out, _ = run_cli(capsys, "kernel", "classify", "--p", "2", "--q", "2")
    assert json.loads(out)["locally_integrable"] is True


def test_kernel_parity_exit_2(capsys):
    code, out, err = run_cli(capsys, "kernel", "classify", "--p", "4", "--q", "3")
    assert code == 2
    assert "no minimal representation" in err


def test_kernel_eval_value(capsys):
    code, out, _ = run_cli(capsys, "kernel", "eval", "--p", "3", "--q", "1", "--t", "0.5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,value,method,est_error"
    value = float(lines[1].split(",")[1])
    assert value == pytest.approx(0.2238907791, abs=1e-6)


def test_kernel_eval_range(capsys):
    code, out, _ = run_cli(
        capsys,
        "kernel", "eval", "--p", "3", "--q", "3",
        "--min", "0.5", "--max", "1.5", "--count", "3", "--method", "both",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1 + 6  # header + 3 t-values x 2 methods
    ts = [float(l.split(",")[0]) for l in lines[1:4]]
    assert ts == [0.5, 1.0, 1.5]
    res = {(l.split(",")[0], l.split(",")[2]): float(l.split(",")[1]) for l in lines[1:]}
    for t in ("0.5", "1", "1.5"):
        assert res[(t, "residue")] == pytest.approx(res[(t, "contour")], rel=1e-6)


@pytest.mark.parametrize(
    "argv",
    [
        ("kernel", "eval", "--p", "3", "--q", "1", "--min", "-2", "--max", "3", "--count", "6"),
        ("kernel", "eval", "--p", "3", "--q", "1", "--count", "0"),
        ("table", "--function", "jtilde", "--order", "50.3",
         "--min", "1e-5", "--max", "5", "--count", "3"),
    ],
)
def test_failed_command_writes_no_stdout(capsys, argv):
    # the header, and in the first case two valid rows, precede the failure
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error" in err


def test_repeated_main_calls_share_no_parser_state(capsys):
    code, out, _ = run_cli(capsys, "kernel", "eval", "--p", "3", "--q", "1",
                           "--t", "0.5", "1.5", "--method", "contour")
    assert code == 0
    assert [l.split(",")[2] for l in out.splitlines()[1:]] == ["contour", "contour"]
    code, out, _ = run_cli(capsys, "kernel", "eval", "--p", "3", "--q", "1")
    assert code == 0
    rows = [l.split(",") for l in out.splitlines()[1:]]
    assert [(float(r[0]), r[2]) for r in rows] == [(0.1, "residue")]


def test_kernel_singular_json(capsys):
    code, out, _ = run_cli(capsys, "kernel", "singular", "--p", "5", "--q", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["kind"] == "delta_derivatives"
    assert rep["constant"] == "UNKNOWN"
    assert rep["terms"] == [
        {"l": 0, "coeff_num": 1, "coeff_den": 1},
        {"l": 1, "coeff_num": -1, "coeff_den": 2},
    ]


# -- tabulation ------------------------------------------------------------------


def test_table_ktilde(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--function", "ktilde", "--order", "-0.5", "--x", "1.0"
    )
    assert code == 0
    value = float(out.splitlines()[1].split(",")[1])
    assert value == pytest.approx(math.sqrt(math.pi) / 2.0 * math.exp(-1.0), rel=1e-15)


def test_table_jtilde_rational_order(capsys):
    code, out, err = run_cli(
        capsys, "table", "--function", "jtilde", "--order", "0.3", "--x", "1.0"
    )
    assert code == 0 and err == ""
    value = float(out.splitlines()[1].split(",")[1])
    assert value == pytest.approx(sps.jv(0.3, 1.0) * 0.5**-0.3, rel=1e-12)


def test_lambda_tabulation(capsys):
    code, out, _ = run_cli(
        capsys, "lambda", "--mu", "1", "--nu", "1", "--j", "0", "--x", "1.3"
    )
    assert code == 0
    from minrep.specfun import lambda_eval

    value = float(out.splitlines()[1].split(",")[1])
    assert value == pytest.approx(lambda_eval(1, 1, 0, 1.3), rel=1e-9)


def test_grid_arguments(capsys):
    code, out, _ = run_cli(
        capsys,
        "table", "--function", "jtilde", "--order", "0",
        "--min", "0.5", "--max", "1.5", "--count", "3",
    )
    assert code == 0
    xs = [float(line.split(",")[0]) for line in out.splitlines()[1:]]
    assert xs == [0.5, 1.0, 1.5]


# -- inversion of sampled data ------------------------------------------------------


def test_invert_roundtrip(tmp_path, capsys):
    rs = np.linspace(0.001, 25.0, 400)
    table = tmp_path / "f.csv"
    lines = ["r,f"] + [f"{r:.17g},{math.exp(-2.0 * r):.17g}" for r in rs]
    table.write_text("\n".join(lines) + "\n", encoding="utf-8")
    # cubic interpolation of the samples limits the capture residual, so
    # the tolerance is passed to match the sampling resolution
    code, out, err = run_cli(
        capsys, "invert", "--p", "3", "--q", "1", "--input", str(table),
        "--tol", "1e-4",
    )
    assert code == 0, err
    rows = out.splitlines()[1:]
    worst = 0.0
    for row in rows:
        r, v = (float(c) for c in row.split(","))
        worst = max(worst, abs(v + math.exp(-2.0 * r)))
    assert worst < 1e-4  # F(e^{-2r}) = -e^{-2r} up to interpolation error


def test_invert_requires_increasing_radii(tmp_path, capsys):
    table = tmp_path / "bad.csv"
    table.write_text("r,f\n1.0,0.5\n0.5,0.7\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "invert", "--p", "3", "--q", "1", "--input", str(table))
    assert code == 2
    assert "increasing" in err


@pytest.mark.parametrize("p,q,code", [(3, 3, 2), (7, 3, 2), (3, 1, 0)])
def test_invert_sample_at_origin(tmp_path, capsys, p, q, code):
    # for odd q >= 3 the basis carries x^{-(q-2)}: a sample at r = 0 is an
    # error with no stdout, not a nan row; q = 1 keeps its finite r = 0 row
    rs = np.linspace(0.0, 20.0, 161)
    table = tmp_path / "f.csv"
    lines = ["r,f"] + [f"{r:.17g},{(1.0 + r) * math.exp(-2.0 * r):.17g}" for r in rs]
    table.write_text("\n".join(lines) + "\n", encoding="utf-8")
    got, out, err = run_cli(
        capsys, "invert", "--p", str(p), "--q", str(q), "--input", str(table), "--tol", "1e-3",
    )
    assert got == code, err
    if code:
        assert out == ""
        assert "x > 0" in err
    else:
        assert math.isfinite(float(out.splitlines()[1].split(",")[1]))


# -- verification ---------------------------------------------------------------------


def test_verify_eigen_counts_and_exit(capsys):
    code, out, _ = run_cli(capsys, "verify", "eigen", "--max-j", "4")
    assert code == 0
    lines = out.splitlines()
    # |{mu}| * |{ell}| * (j_max + 1) checks, one line each plus the summary
    assert len([l for l in lines if l.startswith("PASS")]) == 4 * 3 * 5
    assert lines[-1].startswith("OK")


def test_verify_eigen_perturbation_hook(capsys, monkeypatch):
    monkeypatch.setattr(minrep.verify, "MANO_PERTURBATION", Fraction(1, 1000000))
    code, out, _ = run_cli(capsys, "verify", "eigen", "--max-j", "1")
    assert code == 1
    assert "FAIL" in out


def test_verify_unknown_suite_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bogus"])
    assert exc.value.code == 2


def test_cli_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "kernel", "eval", "--p", "4", "--q", "2",
                         "--t", "0.5", "1.0", "--method", "both")
    _, out2, _ = run_cli(capsys, "kernel", "eval", "--p", "4", "--q", "2",
                         "--t", "0.5", "1.0", "--method", "both")
    assert out1 == out2
    _, out3, _ = run_cli(capsys, "mano", "--mu", "5", "--ell", "2", "--j", "7")
    _, out4, _ = run_cli(capsys, "mano", "--mu", "5", "--ell", "2", "--j", "7")
    assert out3 == out4


def test_csv_uses_lf_line_endings(capsys):
    _, out, _ = run_cli(capsys, "mano", "--mu", "3", "--ell", "1", "--j", "2")
    assert "\r" not in out
