"""Run one ``gerst`` job in this process with spans around each layer's entry points.

Usage: python perfbench/tracer.py OUT.json JOB_ID CLI_ARG...

The benchmark starts this script as a fresh process, exactly where an
untraced run starts ``python -m gerstenhaber.cli``, so every cache starts
empty.  Before ``cli.main`` runs, each target function is replaced by a
timing wrapper in every ``gerstenhaber.*`` namespace that holds it (several
modules import functions by name), and the ``Cochain``/``Polynomial``/
``BasisTerm`` methods are replaced on their classes.  Spans are kept in
memory; when the job ends, they are written to OUT.json with per-name call
counts, self time, counters and the ``lru_cache`` statistics.
The job's stdout and exit code are those of the untraced job.

Self time is a span's duration minus the time of the spans it directly
contains.  Constructors and arithmetic called millions of times (``HOT``)
are aggregated without keeping a span each; they still count as children,
so their time is not charged to their callers' self time.
"""

from __future__ import annotations

import json
import sys
import time

perf = time.perf_counter

# (module, attribute, span name): module-level functions to wrap.
FUNCTIONS = (
    ("linsolve", "solve_particular", "linsolve.solve"),
    ("linsolve", "solve_unique", "linsolve.solve_unique"),
    ("starproduct", "solve_maurer_cartan", "starproduct.solve_maurer_cartan"),
    ("starproduct", "obstruction", "starproduct.obstruction"),
    ("starproduct", "build_block", "starproduct.build_block"),
    ("starproduct", "solve_delta", "starproduct.solve_delta"),
    ("starproduct", "star_series", "starproduct.star_series"),
    ("starproduct", "associativity_defect", "starproduct.assoc_defect"),
    ("operations", "bracket", "operations.bracket"),
    ("operations", "hochschild_delta", "operations.delta"),
    ("operations", "cup", "operations.cup"),
    ("grading", "decompose_by_weight", "grading.decompose"),
    ("grading", "decompose_by_bigrade", "grading.decompose"),
    ("grading", "semigroup_member", "grading.semigroup_member"),
    ("grading", "in_ideal", "grading.in_ideal"),
    ("grading", "project_subalgebra", "grading.project"),
    ("sexpr", "parse_document", "sexpr.parse"),
    ("sexpr", "print_document", "sexpr.print"),
    ("sexpr", "cochain_to_node", "sexpr.print"),
    ("cli", "main", "cli.main"),
)

# (class, method, span name): methods wrapped on the class itself.
METHODS = (
    ("Cochain", "__init__", "cochains.cochain_new"),
    ("Cochain", "__add__", "cochains.cochain_add"),
    ("Cochain", "apply", "cochains.apply"),
    ("Polynomial", "__mul__", "cochains.poly_mul"),
)

HOT = frozenset({"cochains.cochain_new", "cochains.cochain_add", "cochains.poly_mul"})

# lru_cache'd functions whose statistics are read when the job ends.
CACHES = (
    ("operations", "_insert_term", "insert_term"),
    ("operations", "_delta_term", "delta_term"),
    ("cochains", "index_splits", "index_splits"),
    ("starproduct", "build_block", "build_block"),
)


def _bytes_in(args, result):
    return {"bytes": len(args[0])}


def _bytes_out(args, result):
    return {"bytes": len(result)}


def _cells(args, result):
    matrix = args[0]
    rows = len(matrix)
    return {"cells": rows * (len(matrix[0]) if rows else 0), "rows_max": rows}


def _checks(args, result):
    return {"checks": result.checks}


def _order(args):
    return args[1]


MEASURES = {
    ("sexpr", "parse_document"): _bytes_in,
    ("sexpr", "print_document"): _bytes_out,
    ("linsolve", "solve_particular"): _cells,
}


class Tracer:
    """Spans and per-name aggregates for one job."""

    def __init__(self):
        self.stats: dict[str, dict] = {}
        self.spans: list[tuple] = []
        # Each open call: [child seconds, id of the nearest kept span].
        self.stack: list[list] = [[0.0, None]]

    def wrap(self, name: str, fn, measure=None, label=None):
        stats = self.stats.setdefault(name, {"calls": 0, "self_s": 0.0})
        stack = self.stack
        spans = self.spans
        keep = name not in HOT

        def traced(*args, **kwargs):
            parent = stack[-1]
            span_id = len(spans) if keep else None
            if keep:
                spans.append(None)  # reserve the id; filled in on exit
            frame = [0.0, span_id if keep else parent[1]]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                parent[0] += duration
                stats["calls"] += 1
                stats["self_s"] += duration - frame[0]
                if keep:
                    tag = label(args) if label is not None else None
                    spans[span_id] = (name, start, end, parent[1], duration - frame[0], tag)
            if measure is not None:
                for key, value in measure(args, result).items():
                    if key.endswith("_max"):
                        stats[key] = max(stats.get(key, 0), value)
                    else:
                        stats[key] = stats.get(key, 0) + value
            return result

        return traced


def _modules():
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "gerstenhaber" and m]


def install(tracer: Tracer, package) -> None:
    modules = _modules()
    for module_name, attr, name in FUNCTIONS:
        original = getattr(getattr(package, module_name), attr)
        # Obstruction spans carry their order k, so the solver's last order can be timed.
        label = _order if attr == "obstruction" else None
        wrapped = tracer.wrap(name, original, MEASURES.get((module_name, attr)), label)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    for class_name, attr, name in METHODS:
        cls = getattr(package.cochains, class_name)
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr)))
    # BasisTerm construction is only counted: a span per term would cost more
    # than the constructor itself.
    counter = tracer.stats.setdefault("cochains.basisterm_new", {"calls": 0})
    basis_init = package.cochains.BasisTerm.__init__

    def counted_init(self, *args, **kwargs):
        counter["calls"] += 1
        basis_init(self, *args, **kwargs)

    package.cochains.BasisTerm.__init__ = counted_init
    # The law suites are called through the ALL_LAWS table.
    axioms = package.axioms
    axioms.ALL_LAWS = tuple((law, tracer.wrap("axioms.laws", fn, _checks)) for law, fn in axioms.ALL_LAWS)


def cache_stats(caches: dict) -> dict:
    out = {}
    for key, fn in caches.items():
        info = fn.cache_info()
        out[key] = {"hits": info.hits, "misses": info.misses, "size": info.currsize}
    return out


def main(argv: list[str]) -> int:
    out_path, job, cli_args = argv[0], argv[1], argv[2:]
    started = perf()
    import gerstenhaber.cli  # noqa: F401  (timed: the cost a user pays per call)
    import gerstenhaber as package

    import_s = perf() - started
    caches = {key: getattr(getattr(package, module), attr) for module, attr, key in CACHES}
    tracer = Tracer()
    install(tracer, package)
    code = 1
    try:
        code = package.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        ended = perf()
        record = {
            "job": job,
            "exit": code,
            "import_s": import_s,
            "wall_s": ended - started,
            "stats": tracer.stats,
            "caches": cache_stats(caches),
            "spans": tracer.spans,
        }
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
