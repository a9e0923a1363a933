"""Idempotence: re-simplifying an output never lowers its depth, and a
certified output stays certified.  `tools/corpus_reports.py audit` makes
the same check, through `idempotence_failure`, over every simplify report
of the corpus; here it runs in process on ten of its inputs.  The tool's
`diff`, which reads the corpus runs that audit checks, is tested here too."""

import importlib.util
import json
import os

import pytest

from nsopt.cli import main

from test_fuzz import planted_draws

_ROOT = os.path.join(os.path.dirname(__file__), "..")


def _load(relpath, name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(_ROOT, relpath))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


workloads = _load("perfbench/workloads.py", "idempotence_workloads")
corpus = _load("tools/corpus_reports.py", "idempotence_corpus")

_PRODUCT_FLAGS, _PRODUCT_INPUT = corpus.PRODUCTS[4]
_DRAWS = planted_draws()
# (label, simplify flags, input): the fixtures and benchmark inputs whose
# search nodes are the hardest, the declared-product probe and the first
# two planted draws of family B (planted depth 3)
CASES = (
    ("FLAGSHIP", [], workloads.FLAGSHIP),
    ("A4", [], workloads.A4),
    ("B_DEPTH7", [], workloads.B_DEPTH7),
    ("BINOM_B", list(workloads.BINOM_PRODUCT), workloads.BINOM_B),
    ("WEIGHTED_0", [], workloads.WEIGHTED[0]),
    ("WEIGHTED_1", [], workloads.WEIGHTED[1]),
    ("QUADRATIC_ATOM", [], workloads.QUADRATIC_ATOM),
    ("products/4", ["--with-product", *_PRODUCT_FLAGS], _PRODUCT_INPUT),
    ("planted/2", [], _DRAWS[2][0]),
    ("planted/5", [], _DRAWS[5][0]),
)


def _simplify(flags, text, capsys):
    """The parsed `simplify --json` report of text, or None unless exit 0."""
    code = main(["simplify", "--json", "--verify-range", "0", *flags, text])
    out, _ = capsys.readouterr()
    return json.loads(out) if code == 0 else None


@pytest.mark.parametrize("label, flags, text", CASES, ids=[c[0] for c in CASES])
def test_resimplify_keeps_depth_and_certificate(label, flags, text, capsys):
    report = _simplify(flags, text, capsys)
    assert report is not None
    again = _simplify(flags, report["output_text"], capsys)
    assert corpus.idempotence_failure(report, again) is None


def test_corpus_diff_tallies_exit_code_changes(tmp_path, capsys):
    report = json.dumps({"input_depth": 2, "output_depth": 2,
                         "optimality_certified": True, "output_text": "x",
                         "tower_summary": {"generators": [{"name": "h"}]}})

    def rec(label, code, stdout, seconds=1.0):
        return {"label": label, "argv": ["simplify", "--json", "e"], "code": code,
                "stdout": stdout, "stderr": "", "seconds": seconds}

    runs = (
        [rec("answered", 3, ""), rec("refused", 0, report),
         rec("timed", "timeout", ""), rec("same", 0, report, 1.0)],
        [rec("answered", 0, report), rec("refused", 3, ""),
         rec("timed", 0, report), rec("same", 0, report, 9.0)],
    )
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, records in zip(paths, runs):
        path.write_text(json.dumps(records), encoding="utf-8")
    assert corpus.diff(*paths) == 1
    out = capsys.readouterr().out.splitlines()
    assert "answered: differs in code, stdout; exit 3 -> 0; None -> (2, 2, True, 1)" in out
    assert "refused: differs in code, stdout; exit 0 -> 3; (2, 2, True, 1) -> None" in out
    # the seconds are not compared
    assert "1 of 4 invocations byte-identical" in out
    # totals over the exit-0 reports: two before, three after
    assert ("totals: generators 2 -> 3, printed sums 0 -> 0,"
            " output characters 2 -> 3") in out
    assert out[-1] == ("differing: 0 depth lower, 0 certification gained,"
                       " 2 refusal answered, 0 text only, 1 worse,"
                       " 0 not two simplify reports")
