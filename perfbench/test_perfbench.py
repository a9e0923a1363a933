"""Tests of the benchmark's own code.

    python3 -m pytest perfbench -q

They need neither nsopt nor a benchmark run.
"""

from fractions import Fraction

import pytest

import oracle
import spans
import workloads


def value(text, k):
    return oracle.Evaluator().value(oracle.parse(text), k)


@pytest.mark.parametrize(
    "text, k, expected",
    [
        ("H(n)", 4, Fraction(25, 12)),
        ("H(2,n)", 3, Fraction(49, 36)),
        ("H(n+1)", 2, Fraction(11, 6)),
        ("H(n-1)", 3, Fraction(3, 2)),
        ("sum(i,1,n,sum(j,1,i,1/j))", 3, Fraction(13, 3)),
        ("prod(t,1,n,t/(2*(2*t-1)))", 3, Fraction(1, 20)),  # 1/binom(6,3)
        ("-sum(i,2,n,1/(i*(i-1)))", 4, Fraction(-3, 4)),
        ("sum(i,0,n,1/(i-2))", 3, Fraction(-1, 2)),  # the pole at 2 counts 0
        ("(n-1)/(n-1)", 1, Fraction(1)),  # removable: the limit
        ("2+1/(n-1)", 1, Fraction(0)),  # one rational function, a pole
        ("H(n)+1/(n-1)", 1, Fraction(1)),
        ("-n^2+2^3", 3, Fraction(-1)),
    ],
)
def test_evaluator_matches_hand_values(text, k, expected):
    assert value(text, k) == expected


def test_depth_counts_like_nsopt():
    assert oracle.depth(oracle.parse("3/4")) == 0
    assert oracle.depth(oracle.parse("n/(n+1)")) == 1
    assert oracle.depth(oracle.parse("H(n)^2 + 1")) == 2
    assert oracle.depth(oracle.parse(workloads.FLAGSHIP)) == 4
    assert oracle.depth(oracle.parse(workloads.B_DEPTH7)) == 7


def test_non_rational_divisor_is_refused():
    with pytest.raises(oracle.OracleParseError):
        oracle.parse("1/H(n)")


def _report(expr, output, verify_range=4, lam=0, certified=True):
    """A report as nsopt would print it, built with the oracle itself."""
    ev = oracle.Evaluator()
    src, out = oracle.parse(expr), oracle.parse(output)
    rows = []
    for k in range(lam, lam + verify_range + 1):
        lhs, rhs = ev.value(src, k), ev.value(out, k)
        rows.append([k, str(lhs), str(rhs), lhs == rhs])
    return {
        "input_text": expr,
        "output_text": output,
        "lambda": lam,
        "input_depth": oracle.depth(src),
        "output_depth": oracle.depth(out),
        "optimality_certified": certified,
        "verification": rows,
    }


def test_right_output_is_accepted():
    expr = "sum(i,1,n,sum(j,1,i,1/j))"
    out = "(n + 1)*sum(i1,1,n,1/i1) - n"
    assert oracle.check_report(expr, 4, _report(expr, out)) == []


def test_wrong_output_is_rejected():
    expr = "sum(i,1,n,sum(j,1,i,1/j))"
    wrong = "(n + 1)*sum(i1,1,n,1/i1) - n + 1/(n + 7)^3"
    problems = oracle.check_report(expr, 4, _report(expr, wrong))
    assert any("differs from input" in p for p in problems)


def test_wrong_only_past_the_programs_range_is_rejected():
    expr = "sum(i,1,n,1/i)"
    wrong = "sum(i1,1,n,1/i1) + n*(n-1)*(n-2)*(n-3)*(n-4)/1000"
    problems = oracle.check_report(expr, 4, _report(expr, wrong, verify_range=4))
    assert problems


def test_misreported_fields_are_rejected():
    expr = "sum(i,1,n,sum(j,1,i,1/j))"
    out = "(n + 1)*sum(i1,1,n,1/i1) - n"
    report = _report(expr, out)
    report["output_depth"] = 1
    report["verification"][2][1] = "5"
    problems = oracle.check_report(expr, 4, report)
    assert any("output_depth" in p for p in problems)
    assert any("verification row" in p for p in problems)


def test_fixture_closed_form_checks():
    a4 = workloads.A4
    right = "-1/2*sum(i1,1,n,1/i1)^2 + 1/2*sum(i2,1,n,1/i2^2)"
    assert oracle.check_report(a4, 6, _report(a4, right, 6), "A4") == []
    # a certified answer deeper than the hand-derived form is a false claim
    deep = "sum(i,1,n,-sum(j,1,i,1/j)/i + 1/i^2)"
    problems = oracle.check_report(a4, 6, _report(a4, deep, 6), "A4")
    assert any("closed form of depth" in p for p in problems)


def test_closed_forms_match_their_fixtures():
    ev = oracle.Evaluator()
    for name, src in (("A4", workloads.A4), ("BINOM_A1", workloads.BINOM_A1)):
        e = oracle.parse(src)
        closed, _ = oracle.CLOSED_FORMS[name]
        assert all(ev.value(e, k) == closed(k) for k in range(0, 12)), name


def test_iterated_batch_repeats_for_a_seed():
    assert workloads.iterated_batch(7) == workloads.iterated_batch(7)
    assert workloads.iterated_batch(7) != workloads.iterated_batch(8)


def test_iterated_batch_covers_every_template_once():
    ops = workloads.iterated_batch(3)
    assert len(ops) == len(workloads.TEMPLATES)
    for (label, expr, *_), template in zip(ops, workloads.TEMPLATES):
        depth, _squared, harmonic, _core, _den = template
        assert label == f"T{workloads.TEMPLATES.index(template):02d}"
        assert oracle.depth(oracle.parse(expr)) == depth + 1 + harmonic, expr


def test_fixed_workloads_only_reorder_with_the_seed():
    for make in (workloads.search_heavy, workloads.sweep_long):
        assert sorted(make(1)) == sorted(make(2))


def test_span_self_time_excludes_children():
    rec = spans.Recorder()
    inner = rec.wrap("dfield.sigma", lambda: None)
    outer = rec.wrap("telescope.tower_solve", lambda: inner() or FakeSolve())
    main = rec.wrap("cli.main", lambda: [outer(), outer()])
    main()
    table = spans.layer_metrics([tuple(s) for s in rec.spans])
    assert table["dfield.sigma_calls"] == 2
    assert table["telescope.tower_solves"] == 2
    assert table["telescope.tower_solved_ratio"] == 1.0
    solve = [s for s in rec.spans if s[0] == "telescope.tower_solve"]
    sigma = [s for s in rec.spans if s[0] == "dfield.sigma"]
    expected = sum(s[4] - s[3] for s in solve) - sum(s[4] - s[3] for s in sigma)
    assert table["telescope.tower_solve_s"] == pytest.approx(expected)
    assert {s[1] for s in rec.spans} == {0}  # one input


class FakeSolve:
    solved = True
