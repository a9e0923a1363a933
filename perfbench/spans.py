"""Spans around nsopt's public functions, recorded from outside the program.

`install()` replaces each traced function in the module namespace where
its callers look it up (for example `nsopt.telescope.nullspace`, which
`solve_first_order` calls), so no file of the program changes.  Spans are
kept in memory as one tuple per call; `layer_metrics()` turns them into
the per-layer table.  A span's self time is its duration minus the time
its child spans cover, so re-entrant and nested calls are not counted
twice.

Patched names, by layer:

  cli        main (the parent span of one input), cmd_simplify, and the
             verification sweep: from the return of `to_src` inside
             cmd_simplify to the return of cmd_simplify
  expr       parse, compile, reinterpret, to_src, evaluate
  telescope  telescope_depth_optimal, telescope_tower, solve_first_order
  dfield     sigma
  algebra    nullspace
"""

import functools
import time

_clock = time.perf_counter

# (layer span name, module, attribute) for every place a traced function
# is looked up by its callers inside nsopt.
PATCHES = (
    ("cli.main", "nsopt.cli", "main"),
    ("cli.cmd_simplify", "nsopt.cli", "cmd_simplify"),
    ("expr.parse", "nsopt.cli", "parse"),
    ("expr.compile", "nsopt.cli", "compile"),
    ("expr.reinterpret", "nsopt.cli", "reinterpret"),
    ("expr.to_src", "nsopt.cli", "to_src"),
    ("expr.evaluate", "nsopt.cli", "evaluate"),
    ("telescope.depth_optimal", "nsopt.expr", "telescope_depth_optimal"),
    ("telescope.depth_optimal", "nsopt.cli", "telescope_depth_optimal"),
    ("telescope.tower_solve", "nsopt.telescope", "telescope_tower"),
    ("telescope.tower_solve", "nsopt.telescope", "telescope_any"),
    ("telescope.base_solve", "nsopt.telescope", "solve_first_order"),
    ("dfield.sigma", "nsopt.telescope", "sigma"),
    ("dfield.sigma", "nsopt.expr", "sigma"),
    ("algebra.nullspace", "nsopt.telescope", "nullspace"),
)

# every per-layer metric, in report order, with its unit
LAYER_METRICS = (
    ("cli.sweep_s", "s"),
    ("expr.evaluate_calls", "count"),
    ("expr.evaluate_s", "s"),
    ("expr.parse_s", "s"),
    ("expr.compile_self_s", "s"),
    ("expr.reinterpret_s", "s"),
    ("expr.to_src_s", "s"),
    ("telescope.depth_optimal_calls", "count"),
    ("telescope.depth_optimal_s", "s"),
    ("telescope.depth_optimal_max_s", "s"),
    ("telescope.adjoined", "count"),
    ("telescope.tower_solves", "count"),
    ("telescope.tower_solve_s", "s"),
    ("telescope.tower_solved_ratio", "ratio"),
    ("telescope.base_solves", "count"),
    ("telescope.base_solve_s", "s"),
    ("dfield.sigma_calls", "count"),
    ("dfield.sigma_s", "s"),
    ("algebra.nullspace_calls", "count"),
    ("algebra.nullspace_s", "s"),
    ("algebra.nullspace_max_cols", "count"),
)

# metrics that must repeat exactly from one traced run to the next
COUNT_METRICS = tuple(name for name, unit in LAYER_METRICS if unit != "s")


class Recorder:
    """In-memory span store.

    A span is (name, input, parent, start, end, child_time, extra): the
    input is the index of the enclosing `cli.main` call, parent the index
    of the enclosing span, and extra a per-layer detail (solved flag,
    generators adjoined, nullspace columns)."""

    def __init__(self):
        self.spans = []
        self._stack = []  # indices of open spans
        self._input = -1
        self._sweep_from = None

    def _open(self, name):
        if name == "cli.main":
            self._input += 1
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self._input, parent, _clock(), None, 0.0, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx, extra=None):
        span = self.spans[idx]
        span[4] = _clock()
        span[6] = extra
        self._stack.pop()
        if span[2] >= 0:
            self.spans[span[2]][5] += span[4] - span[3]

    def wrap(self, name, fn):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = rec._open(name)
            extra = None
            try:
                out = fn(*args, **kwargs)
                extra = _extra(name, args, out)
                return out
            finally:
                rec._close(idx, extra)
                if name == "expr.to_src":
                    rec._sweep_from = rec.spans[idx][4]
                elif name == "cli.cmd_simplify" and rec._sweep_from is not None:
                    # the sweep is a loop, not a function: close a span over it
                    start, rec._sweep_from = rec._sweep_from, None
                    rec.spans.append(
                        ["cli.sweep", rec._input, idx, start, rec.spans[idx][4], 0.0, None]
                    )

        return traced


def _extra(name, args, out):
    if name == "telescope.tower_solve":
        return bool(out.solved)
    if name == "telescope.depth_optimal":
        return len(out.adjoined)
    if name == "algebra.nullspace":
        return int(args[1])
    return None


def install(recorder):
    """Patch every traced name; returns a function that undoes it."""
    import importlib

    saved = []
    for name, module, attr in PATCHES:
        mod = importlib.import_module(module)
        fn = getattr(mod, attr)
        saved.append((mod, attr, fn))
        setattr(mod, attr, recorder.wrap(name, fn))

    def uninstall():
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)

    return uninstall


def layer_metrics(spans):
    """Per-layer table from a list of span tuples (any number of inputs)."""
    calls, self_s, total_s = {}, {}, {}
    depth_opt_max = 0.0
    adjoined = solved = max_cols = 0
    for name, _inp, _parent, start, end, child, extra in spans:
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur - child
        total_s[name] = total_s.get(name, 0.0) + dur
        if name == "telescope.depth_optimal":
            depth_opt_max = max(depth_opt_max, dur)
            adjoined += extra or 0
        elif name == "telescope.tower_solve":
            solved += bool(extra)
        elif name == "algebra.nullspace":
            max_cols = max(max_cols, extra or 0)
    solves = calls.get("telescope.tower_solve", 0)
    return {
        "cli.sweep_s": total_s.get("cli.sweep", 0.0),
        "expr.evaluate_calls": calls.get("expr.evaluate", 0),
        "expr.evaluate_s": self_s.get("expr.evaluate", 0.0),
        "expr.parse_s": self_s.get("expr.parse", 0.0),
        "expr.compile_self_s": self_s.get("expr.compile", 0.0),
        "expr.reinterpret_s": self_s.get("expr.reinterpret", 0.0),
        "expr.to_src_s": self_s.get("expr.to_src", 0.0),
        "telescope.depth_optimal_calls": calls.get("telescope.depth_optimal", 0),
        "telescope.depth_optimal_s": self_s.get("telescope.depth_optimal", 0.0),
        "telescope.depth_optimal_max_s": depth_opt_max,
        "telescope.adjoined": adjoined,
        "telescope.tower_solves": solves,
        "telescope.tower_solve_s": self_s.get("telescope.tower_solve", 0.0),
        "telescope.tower_solved_ratio": solved / solves if solves else 0.0,
        "telescope.base_solves": calls.get("telescope.base_solve", 0),
        "telescope.base_solve_s": self_s.get("telescope.base_solve", 0.0),
        "dfield.sigma_calls": calls.get("dfield.sigma", 0),
        "dfield.sigma_s": self_s.get("dfield.sigma", 0.0),
        "algebra.nullspace_calls": calls.get("algebra.nullspace", 0),
        "algebra.nullspace_s": self_s.get("algebra.nullspace", 0.0),
        "algebra.nullspace_max_cols": max_cols,
    }
