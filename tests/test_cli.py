"""Exit codes, report formats, and the documented command examples."""

import gc
import json
import os
import subprocess
import sys
import time

import pytest

import nsopt
from nsopt import cli, telescope
from nsopt.cli import main
from nsopt.dfield import ONE, NotPolynomialPart, sigma

from conftest import run_python

FLAGSHIP = "sum(r,1,n,(sum(l,1,r,(H(l)^2+H(2,l))/l)+sum(l,1,r,H(l)/l))/r)"
FLAGSHIP_OUT = (
    "1/12*H(n)^4 + 1/6*H(n)^3 + 1/2*H(n)^2*H(2,n) + 1/2*H(n)*H(2,n)"
    " + 2/3*H(n)*H(3,n) + 1/4*H(2,n)^2 + 1/3*H(3,n) + 1/2*H(4,n)"
)
A4 = "sum(i,2,n,sum(j,2,i,(2*j-1)*sum(k,1,j,1/((2*k-3)*(2*k-1)))/((j-1)*j))/i)"


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def run_cli_process(argv, timeout):
    """(exit code, stdout, stderr) of `python -m nsopt.cli argv`, killed
    after timeout seconds."""
    return run_python(["-m", "nsopt.cli", *argv], timeout)


# -- simplify ---------------------------------------------------------------


def test_simplify_already_optimal(capsys):
    code, out, _ = run_cli(["simplify", "sum(i,1,n,1/i)", "--h-sugar"], capsys)
    assert code == 0
    assert "output: H(n)" in out
    assert "depth:  2 -> 2" in out
    assert "lambda: 0" in out
    assert "verified: k = 0..60 exact" in out


def test_simplify_flagship(capsys):
    code, out, _ = run_cli(
        ["simplify", FLAGSHIP, "--h-sugar", "--verify-range", "100"], capsys
    )
    assert code == 0
    assert f"output: {FLAGSHIP_OUT}" in out
    assert "depth:  4 -> 2" in out
    assert "optimality_certified: true" in out
    assert "verified: k = 0..100 exact" in out


def test_simplify_a4(capsys):
    code, out, _ = run_cli(["simplify", A4, "--h-sugar"], capsys)
    assert code == 0
    assert "output: -1/2*H(n)^2 + 1/2*H(2,n)" in out
    assert "depth:  4 -> 2" in out


def test_simplify_emit_tower(capsys):
    code, out, _ = run_cli(
        ["simplify", "sum(l,1,n,H(l)/l)", "--emit-tower"], capsys
    )
    assert code == 0
    assert "tower:" in out
    assert "h sigma shift_part=1/(x + 1) depth=2" in out
    assert "h2 sigma shift_part=1/(x^2 + 2*x + 1) depth=2" in out


def test_simplify_json_report(capsys):
    code, out, _ = run_cli(["simplify", "sum(l,1,n,H(l)/l)", "--json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert list(rep) == [
        "input_text",
        "output_text",
        "lambda",
        "input_depth",
        "output_depth",
        "optimality_certified",
        "tower_summary",
        "verification",
    ]
    assert rep["lambda"] == 0
    assert rep["input_depth"] == 3
    assert rep["output_depth"] == 2
    assert rep["optimality_certified"] is True
    assert rep["tower_summary"]["base"] == "Q(x)"
    assert rep["tower_summary"]["shift"] == "x -> x + 1"
    assert len(rep["verification"]) == 61
    assert all(entry[3] is True for entry in rep["verification"])
    # exact rational transcript, not floats: H(1)/1 + H(2)/2 = 1 + 3/4
    assert rep["verification"][2] == [2, "7/4", "7/4", True]


def test_simplify_deterministic(capsys):
    a = run_cli(["simplify", A4, "--json"], capsys)
    b = run_cli(["simplify", A4, "--json"], capsys)
    assert a == b


def test_simplify_file_input(tmp_path, capsys):
    f = tmp_path / "expr.txt"
    f.write_text("sum(i,1,n,1/i)\n")
    code, out, _ = run_cli(["simplify", "--file", str(f), "--h-sugar"], capsys)
    assert code == 0
    assert "output: H(n)" in out


def test_simplify_parse_error_exit2(capsys):
    code, _, err = run_cli(["simplify", "sum(i,1,n"], capsys)
    assert code == 2
    assert "parse error" in err


def test_simplify_unsupported_exit3(capsys):
    # the inner H(n) runs to the session variable, not the active binder
    code, _, err = run_cli(["simplify", "sum(i,1,n,H(n)/i)"], capsys)
    assert code == 3
    assert "unsupported" in err


def test_not_polynomial_part_exit3(monkeypatch, capsys):
    # no known input yields a result that reinterpret cannot map back; if
    # one does, simplify and telescope exit through the failure table
    message = "a denominator is not a monomial in product-like generators"

    def refuse(*args):
        raise NotPolynomialPart(message)

    monkeypatch.setattr(cli, "reinterpret", refuse)
    for argv in (["simplify", "sum(i,1,n,1/i)"], ["telescope", "1/(n*(n+1))"]):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (3, "")
        assert err == f"unsupported: {message}\n"


def test_simplify_env_var_override(monkeypatch, capsys):
    # power-1 candidates cannot reach H(2,n), so the search degrades to
    # the uncertified fallback instead of the depth-2 form
    monkeypatch.setattr(telescope, "_MAX_ATOM_POWER", 1)
    code, out, _ = run_cli(["simplify", "sum(l,1,n,H(l)/l)"], capsys)
    assert code == 0
    assert "depth:  3 -> 3" in out
    assert "optimality_certified: false" in out


def test_search_class_flags_are_gone(capsys):
    # the candidate class is fixed, so no option sets its bounds
    for argv in (["simplify", "sum(l,1,n,H(l)/l)", "--max-atom-power", "1"],
                 ["telescope", "H(n+1)/(n+1)", "--max-monomial-degree", "1"]):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert "unrecognized arguments" in err


def test_illegal_product_exit3(capsys):
    # (-1)^n squared is the constant 1, so p is no product-like extension
    code, out, err = run_cli(
        ["simplify", "--with-product", "p:-1:1", "prod(t,1,n,-1)^2"], capsys
    )
    assert code == 3
    assert out == ""
    assert "not a legal product-like extension" in err


@pytest.mark.parametrize("command", ["simplify", "telescope"])
def test_related_products_exit3(command, capsys):
    # 4^n = (2^n)^2, so the sum is identically 0: q is no product-like
    # extension over p, and no depth claim about it may be certified; the
    # same holds at any exponent, e.g. 128^n = (2^n)^7 either way round
    cases = [
        ("p:2:1", "q:4:1", "sum(i,1,n,prod(t,1,i,4)-prod(t,1,i,2)^2)",
         "alpha^1 * g is solved by g = p^2"),
        ("p:2:1", "q:128:1", "sum(i,1,n,prod(t,1,i,128)-prod(t,1,i,2)^7)",
         "alpha^1 * g is solved by g = p^7"),
        ("p:128:1", "q:2:1", "sum(i,1,n,prod(t,1,i,2)^7-prod(t,1,i,128))",
         "alpha^7 * g is solved by g = p"),
    ]
    for p, q, expr, witness in cases:
        code, out, err = run_cli(
            [command, "--with-product", p, "--with-product", q, expr], capsys
        )
        assert code == 3
        assert out == ""
        assert err == (
            "unsupported: declared product 'q' is not a legal product-like"
            f" extension: sigma(g) = {witness}\n"
        )


def test_unrelated_products_certify(capsys):
    code, out, _ = run_cli(
        ["simplify", "--with-product", "p:2:1", "--with-product", "q:3:1",
         "sum(i,1,n,prod(t,1,i,2)+prod(t,1,i,3))"],
        capsys,
    )
    assert code == 0
    assert "depth:  2 -> 1" in out
    assert "optimality_certified: true" in out
    assert "verified: k = 0..60 exact" in out


def test_with_product_bad_spec_exit2(capsys):
    code, _, err = run_cli(
        ["simplify", "sum(i,1,n,1/i)", "--with-product", "justaname"], capsys
    )
    assert code == 2
    code, _, err = run_cli(
        ["simplify", "sum(i,1,n,1/i)", "--with-product", "b:H(n):1"], capsys
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv, line",
    [
        (["simplify", "--file", "expr.txt", "sum(i,1,n,1/i)"],
         "error: give an expression inline or via --file, not both"),
        (["simplify"], "error: no expression given"),
        (["simplify", "sum(i,1,n,1/i)", "--with-product", "b:n+1:z"],
         "error: bad --with-product lower bound 'z'"),
        (["simplify", "sum(i,1,n,1/i)", "--with-product", "b:(n+1:1"],
         "parse error in --with-product alpha:"
         " expected ), found end of input (at position 4)"),
        (["simplify", "sum(i,1,n,1/i)", "--with-product", "p:0:1"],
         "error: --with-product alpha must be nonzero: '0'"),
        (["telescope", "1/(n+1)", "--with-product", "p:n-n:1"],
         "error: --with-product alpha must be nonzero: 'n-n'"),
        (["simplify", "sum(i,1,n,1/i)", "--with-product", "b:2",
          "--with-product", "b:3"],
         "error: --with-product name 'b' declared twice"),
        (["telescope", "1/(n+1)", "--with-product", "b:2",
          "--with-product", "b:2"],
         "error: --with-product name 'b' declared twice"),
    ],
)
def test_usage_error_exit2(argv, line, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == line + "\n"


@pytest.mark.parametrize(
    "make, reason",
    [
        (lambda p: None, "No such file or directory"),
        (lambda p: p.mkdir(), "Is a directory"),
        (lambda p: p.write_bytes(b"\xff"),
         "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ],
)
def test_unreadable_file_exit2(make, reason, tmp_path, capsys):
    path = tmp_path / "expr.txt"
    make(path)
    code, out, err = run_cli(["simplify", "--file", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: cannot read --file {path}: {reason}\n"


# the constant term of i^2 + 1000000000000037 is past 10^12; the root
# finder is exact at any size and finds no root, so the quadratic is an
# irreducible atom and the sum is its own answer
@pytest.mark.parametrize(
    "argv, want",
    [
        (["simplify", "sum(i,1,n,1/(i^2+1000000000000037))"],
         ["depth:  2 -> 2", "optimality_certified: true", "verified: k = 0..60 exact"]),
        (["telescope", "1/(n^2+1000000000000037)"],
         ["g = sum(i1,1,n,1/(i1^2 + 1000000000000037)) - 1/(n^2 + 1000000000000037)"]),
    ],
    ids=["simplify", "telescope"],
)
def test_large_constant_term_solves(argv, want, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    for line in want:
        assert line in out.splitlines()


# the roots of i^4 + 10^30*i + 1 reach 10^10, so the window of shifts
# between the quartic and its translates is far too wide to try; the run
# must refuse at once instead of scanning it
def test_shift_search_limit_exit3():
    code, out, err = run_cli_process(
        ["simplify", "sum(i,1,n,1/(i^4+10^30*i+1))"], timeout=20
    )
    assert code == 3
    assert out == ""
    assert err == "unsupported: shift search out of range\n"


# i^3 + 10^30*i + 1 has no rational root, so it is irreducible and needs no
# shift search: the sum is its own certified answer
def test_irreducible_cubic_needs_no_shift_search(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(["simplify", "sum(i,1,n,1/(i^3+10^30*i+1))"], capsys)
    assert time.perf_counter() - start < 5
    assert (code, err) == (0, "")
    assert "depth:  2 -> 2" in out
    assert "optimality_certified: true" in out
    assert "verified: k = 0..60 exact" in out


# 1/(i+100000) reaches 1/(i+1) at dispersion 99999; the universal
# denominator would multiply 10^5 shifted factors, so the solve must refuse
# before building any of them
def test_dispersion_limit_exit3():
    code, out, err = run_cli_process(["simplify", "sum(i,1,n,1/(i+100000))"], timeout=5)
    assert code == 3
    assert out == ""
    assert err == "unsupported: dispersion 99999 past the limit of 250\n"


# a summand of degree past the limit is refused before it is expanded:
# i^800 took 93 s without the limit, and i^100000 ran for minutes in the
# Taylor shift alone
@pytest.mark.parametrize("degree", [800, 100000])
def test_degree_limit_exit3(degree):
    code, out, err = run_cli_process(["simplify", f"sum(i,1,n,i^{degree})"], timeout=5)
    assert code == 3
    assert out == ""
    assert err == f"unsupported: degree {degree} past the limit of 500\n"


# the parser keeps (i+1)^100000 unexpanded, since expanding it runs for
# minutes; compile refuses it by its degree
def test_parser_power_past_degree_limit_exit3():
    code, out, err = run_cli_process(["simplify", "sum(i,1,n,(i+1)^100000)"], timeout=5)
    assert (code, out) == (3, "")
    assert err == "unsupported: degree 100000 past the limit of 500\n"
    # the same power still evaluates, so verify can check it
    code, out, err = run_cli_process(
        ["verify", "--range", "5", "sum(i,1,n,(i+1)^100000)", "sum(i,1,n,(1+i)^100000)"],
        timeout=5,
    )
    assert (code, out, err) == (0, "equal: k = 0..5 exact\n", "")


# the denominator's constant term is past 10^12, and its two quadratic
# factors lie 10 shifts apart
def test_root_bound_scan_simplifies(capsys):
    code, out, err = run_cli(
        ["simplify", "sum(i,1,n,(-20*i-100)/((i^2+1)*((i+10)^2+1)))"], capsys
    )
    assert (code, err) == (0, "")
    assert "depth:  2 -> 1" in out
    assert "optimality_certified: true" in out
    assert "verified: k = 0..60 exact" in out


# the two quadratic factors of the denominator lie 45 shifts apart: the
# universal denominator needs that dispersion to find the telescoper
def test_distant_shift_telescopes(capsys):
    code, out, err = run_cli(
        ["simplify", "--verify-range", "5",
         "sum(i,1,n,(-90*i-2025)/((i^2+1)*((i+45)^2+1)))"],
        capsys,
    )
    assert (code, err) == (0, "")
    assert "depth:  2 -> 1" in out
    assert "optimality_certified: true" in out
    assert "verified: k = 0..5 exact" in out


def test_with_product_registers(capsys):
    code, out, _ = run_cli(
        [
            "simplify",
            "sum(i,1,n,(4*i-3)/(i*(2*i-1)))",
            "--with-product",
            "b:(n+1)/(2*(2*n+1)):1",
        ],
        capsys,
    )
    assert code == 0
    assert "depth:  2 -> 2" in out
    assert "optimality_certified: true" in out


def _sweep_leaf_calls(monkeypatch, capsys, n):
    """Base-leaf evaluations made inside the verification sweep's evaluate:
    a compiled leaf calls nsopt.expr._base_value once each time it runs."""
    calls, inside = 0, False
    base_value, evaluate = nsopt.expr._base_value, cli.evaluate

    def counting_base_value(*args):
        nonlocal calls
        calls += inside
        return base_value(*args)

    def sweep_evaluate(*args):
        nonlocal inside
        inside = True
        try:
            return evaluate(*args)
        finally:
            inside = False

    monkeypatch.setattr(nsopt.expr, "_base_value", counting_base_value)
    monkeypatch.setattr(cli, "evaluate", sweep_evaluate)
    code, _, _ = run_cli(
        ["simplify", "sum(l,1,n,H(l)/l)", "--verify-range", str(n)], capsys
    )
    assert code == 0
    return calls


def test_simplify_sweep_work_is_linear(monkeypatch, capsys):
    # a fresh Evaluator per point makes the work quadratic (ratio near 4);
    # one per side keeps it linear (ratio 2)
    ratio = (_sweep_leaf_calls(monkeypatch, capsys, 80)
             / _sweep_leaf_calls(monkeypatch, capsys, 40))
    assert ratio < 2.5


# a rational factor outside the inner sum sends the generator search
# through the level solvers' parameter rewrite before it solves
@pytest.mark.parametrize(
    "expression",
    [
        "sum(i,1,n,sum(j,1,i,1/(j+2))*1/(i+1))",
        "sum(i,0,n,sum(j,0,i,1/(2*j+1))*1/(2*i+3))",
    ],
)
def test_simplify_weighted_outer_level(expression, capsys):
    code, out, _ = run_cli(["simplify", expression], capsys)
    assert code == 0
    assert "depth:  3 -> 2" in out
    assert "optimality_certified: true" in out
    assert "verified: k = 0..60 exact" in out


@pytest.mark.parametrize(
    "expression, lam",
    [
        # outputs with a pole just below lambda: lambda is read off the
        # printed output, whose pole zeroes only its own term
        ("sum(i,1,n,1/i) - 3/2 + sum(i,4,n,1/((i-3)*(i-2)))", 3),
        ("H(n) + sum(i,4,n,3/((i-4)*(i-4+3))) - 11/6", 4),
        # input and output are both -1 at k = 1, a pole of the output
        ("sum(i,3,n,sum(j,1,i,1/((j-3)*(j-3+1)))) - 1", 1),
    ],
)
def test_simplify_lambda_from_printed_output(expression, lam, capsys):
    code, out, _ = run_cli(
        ["simplify", "--json", "--verify-range", "8", expression], capsys
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["lambda"] == lam
    assert [row[0] for row in rep["verification"]] == list(range(lam, lam + 9))
    assert all(row[3] is True for row in rep["verification"])


def test_simplify_negative_range_exit2(capsys):
    code, out, err = run_cli(
        ["simplify", "sum(i,1,n,1/i)", "--verify-range", "-3"], capsys
    )
    assert code == 2
    assert out == ""
    assert "--verify-range: must be an integer >= 0, got '-3'" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["simplify", "-sum(i,1,n,1/i)", "--verify-range", "3"],
        ["simplify", "--verify-range", "3", "-sum(i,1,n,1/i)"],
        ["simplify", "--verify-range", "3", "--", "-sum(i,1,n,1/i)"],
    ],
)
def test_simplify_leading_minus(argv, capsys):
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert "input:  -sum(i,1,n,1/i)" in out
    assert "verified: k = 0..3 exact" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "-H(n)", "-sum(i,1,n,1/i)", "--range", "5"],
        ["verify", "--range", "5", "-H(n)", "-sum(i,1,n,1/i)"],
        ["verify", "--range", "5", "--", "-H(n)", "-sum(i,1,n,1/i)"],
    ],
)
def test_verify_leading_minus(argv, capsys):
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out == "equal: k = 0..5 exact\n"


# rational summands: the solve stays in Q(x), where nsopt.telescope.sigma
# is used by the residual check alone, so no broken solve gets cached
@pytest.mark.parametrize(
    "argv",
    [["simplify", "sum(i,1,n,1/(i*(i+1)))"], ["telescope", "1/(n*(n+1))"]],
)
def test_residual_failure_exit4(argv, monkeypatch, capsys):
    monkeypatch.setattr(
        telescope, "sigma", lambda tower, g: sigma(tower, g) + ONE
    )
    code, _, err = run_cli(argv, capsys)
    assert code == 4
    assert "residual check" in err


def test_residual_failure_exit4_under_optimize():
    # the residual check must not vanish with asserts under python -O
    script = (
        "import sys\n"
        "from nsopt import telescope\n"
        "from nsopt.dfield import ONE, sigma\n"
        "telescope.sigma = lambda tower, g: sigma(tower, g) + ONE\n"
        "from nsopt.cli import main\n"
        "sys.exit(main(['simplify', 'sum(i,1,n,1/(i*(i+1)))']))\n"
    )
    src = os.path.dirname(os.path.dirname(nsopt.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 4, proc.stderr
    assert "residual check" in proc.stderr


# -- process entry ----------------------------------------------------------


# `python -m nsopt.cli` goes through run(), which freezes the collector's
# heap before main(): every byte it prints and its exit code are main()'s
@pytest.mark.parametrize(
    "argv, code",
    [
        (["simplify", "--json", "sum(l,1,n,H(l)/l)"], 0),
        (["simplify", "--verify-range", "3", "--file", "minus.txt"], 0),
        (["simplify", "sum(i,1,n"], 2),
        (["simplify", "--verify-range", "5", "sum(i,1,n,i^800)"], 3),
    ],
    ids=["json", "minus-file", "parse-error", "degree-limit"],
)
def test_process_entry_matches_main(argv, code, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "minus.txt").write_text("-sum(i,1,n,1/i)\n")
    src = os.path.dirname(os.path.dirname(nsopt.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "nsopt.cli", *argv],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )
    in_process = run_cli(argv, capsys)
    assert in_process[0] == code
    assert (proc.returncode, proc.stdout, proc.stderr) == in_process


def test_main_leaves_the_collector_alone(capsys):
    before = gc.get_freeze_count(), gc.isenabled()
    assert run_cli(["simplify", "sum(i,1,n,1/i)"], capsys)[0] == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == before


# -- verify -----------------------------------------------------------------


def test_verify_equal(capsys):
    code, out, _ = run_cli(
        ["verify", "H(n)^2", "sum(i,1,n,(2*H(i)-1/i)/i)", "--range", "40"],
        capsys,
    )
    assert code == 0
    assert out == "equal: k = 0..40 exact\n"


def test_verify_counterexample(capsys):
    code, out, _ = run_cli(
        ["verify", "sum(i,1,n,1/i)", "H(n)+1/(n+1)"], capsys
    )
    assert code == 1
    assert out == "counterexample: k = 0: lhs = 0, rhs = 1\n"


def test_verify_negative_range_exit2(capsys):
    # an empty range would report two different expressions equal
    code, out, err = run_cli(["verify", "--range", "-1", "H(n)", "H(n)+1"], capsys)
    assert code == 2
    assert out == ""
    assert "--range: must be an integer >= 0, got '-1'" in err


def test_verify_parse_error_exit2(capsys):
    code, _, err = run_cli(["verify", "H(n)", "1/+"], capsys)
    assert code == 2
    assert "parse error" in err


# -- telescope --------------------------------------------------------------


def test_telescope_no_solution(capsys):
    code, out, _ = run_cli(["telescope", "1/(n+1)"], capsys)
    assert code == 0
    assert out.startswith("NO_SOLUTION\n")
    assert "certificate:" in out


def test_telescope_rational(capsys):
    code, out, _ = run_cli(["telescope", "1/(n*(n+1))"], capsys)
    assert code == 0
    assert "g = -1/n" in out
    assert "adjoined: (none)" in out


def test_telescope_adjoins_h2(capsys):
    code, out, _ = run_cli(["telescope", "H(n+1)/(n+1)", "--h-sugar"], capsys)
    assert code == 0
    assert "g = 1/2*H(n)^2 + 1/2*H(2,n)" in out
    assert "adjoined: h2" in out
    assert "h2 sigma shift_part=1/(x^2 + 2*x + 1)" in out


def test_telescope_parse_error_exit2(capsys):
    code, _, err = run_cli(["telescope", "sum(i,1,n"], capsys)
    assert code == 2
