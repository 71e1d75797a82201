"""Traced, in-process run of one synsem CLI command.

    python bench/trace.py cli STATS_JSON -- <synsem CLI arguments>
    python bench/trace.py validate-chain STATS_JSON N_TOKENS

The first form wraps every public module-level function and every public
method of each synsem module, rebinding each wrapped function under every
module name that refers to it (`all_yields` is bound in model, alignment,
evaluation and normalization alike). It then calls `synsem.cli.main` and
writes, per wrapped name, the call count and the self time: the span's
duration minus the time covered by the spans it called and by the garbage
collections that ran inside it. Collections are spans of their own, found
through `gc.callbacks`, so a pause is charged to `gc` and not to whichever
call happened to allocate the object that triggered it.

The second form times `model.validate` on a head-chain DAG of N_TOKENS
tokens, the shape that makes its reachability loop quadratic.

The benchmark runner starts this file as a subprocess with `src` on
PYTHONPATH; it is not meant to be imported.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

MODULES = ("cli", "treebanks", "ud_conversion", "normalization", "model", "alignment", "evaluation")


class Tracer:
    """Call counts and self times per wrapped name, plus GC pauses."""

    def __init__(self):
        self.open: list[float] = []  # time covered by children, per open span
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self._gc_start = 0.0

    def wrap(self, key: str, fn):
        open_spans, self_s, calls, clock = self.open, self.self_s, self.calls, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[key] += elapsed - open_spans.pop()
                calls[key] += 1
                if open_spans:
                    open_spans[-1] += elapsed

        return traced

    def on_gc(self, phase: str, info: dict):
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        pause = time.perf_counter() - self._gc_start
        self.gc_pause_s += pause
        self.gc_collections += 1
        if self.open:
            self.open[-1] += pause

    def report(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "gc_pause_s": self.gc_pause_s,
            "gc_collections": self.gc_collections,
        }


def install(tracer: Tracer):
    """Wrap synsem's public functions and methods; returns synsem.cli."""
    modules = {name: importlib.import_module(f"synsem.{name}") for name in MODULES}
    wrappers = {}
    for name, module in modules.items():
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                wrappers[obj] = tracer.wrap(f"{name}.{attr}", obj)
            elif inspect.isclass(obj):
                for method_name, method in list(vars(obj).items()):
                    if inspect.isfunction(method) and not method_name.startswith("_"):
                        setattr(obj, method_name,
                                tracer.wrap(f"{name}.{attr}.{method_name}", method))
    for module in [importlib.import_module("synsem"), *modules.values()]:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, attr, wrappers[obj])
    return modules["cli"]


def run_cli(stats_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    cli = install(tracer)
    gc.callbacks.append(tracer.on_gc)
    try:
        code = cli.main(argv)
    finally:
        gc.callbacks.remove(tracer.on_gc)
    with open(stats_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.report(), handle)
    return code


def validate_chain(stats_path: str, n_tokens: int) -> int:
    from synsem.model import (
        HEAD, NON_TERMINAL, PRE_TERMINAL, CategorySet, Edge, Node, Terminal, UnifiedDAG,
        validate,
    )

    # The shape convert_basic gives a head chain: unit k holds its own
    # pre-terminal and the unit of token k+1.
    dependent = CategorySet.of("obj")
    nodes, edges = [], []
    for k in range(1, n_tokens + 1):
        nodes += [Node(f"n{k}", NON_TERMINAL), Node(f"p{k}", PRE_TERMINAL, (k,))]
        edges.append(Edge(f"n{k}", f"p{k}", HEAD))
        if k < n_tokens:
            edges.append(Edge(f"n{k}", f"n{k + 1}", dependent))
    terminals = tuple(Terminal(k, f"w{k}") for k in range(1, n_tokens + 1))
    dag = UnifiedDAG("chain", terminals, tuple(nodes), tuple(edges), "n1")
    start = time.perf_counter()
    problems = validate(dag)
    elapsed = time.perf_counter() - start
    with open(stats_path, "w", encoding="utf-8") as handle:
        json.dump({"validate_s": elapsed, "violations": len(problems)}, handle)
    return 0 if not problems else 1


def main(argv: list[str]) -> int:
    mode, stats_path, *rest = argv
    if mode == "cli":
        return run_cli(stats_path, rest[1:] if rest[:1] == ["--"] else rest)
    if mode == "validate-chain":
        return validate_chain(stats_path, int(rest[0]))
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
