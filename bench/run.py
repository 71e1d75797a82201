"""Benchmark of the synsem command line: wall time, peak RSS and output
hashes per subcommand, plus a traced per-module breakdown.

    python3 bench/run.py --workload short-corpus --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Run from the repository root. Each invocation generates its workload's
corpora from the seed (bench/corpora.py), then runs the real CLI as one
subprocess at a time (`python -m synsem.cli`, with `src` on PYTHONPATH) and
reads each child's peak RSS from `os.wait4`. Every operation's output is
hashed against bench/references.json. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
`--trace 0` the metrics are the end-to-end ones; with `--trace 1` they are the
per-layer ones from a traced run (bench/trace.py). bench/README.md explains
the workloads and every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import corpora

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"
TRACE_WORKER = HERE / "trace.py"

COMMANDS = ("convert_ud", "convert_ucca", "confusion", "stats", "evaluate", "evaluate_fine")
# The subcommands that pair two corpora; each of them also computes yields.
PAIRING = ("confusion", "stats", "evaluate", "evaluate_fine")
# Modules whose code each command runs; the per-layer self times cover these.
MODULES_RUN = {
    "convert_ud": ("cli", "treebanks", "ud_conversion", "model"),
    "convert_ucca": ("cli", "treebanks", "normalization", "model"),
    "confusion": ("cli", "treebanks", "ud_conversion", "normalization", "model", "alignment"),
    "stats": ("cli", "treebanks", "ud_conversion", "normalization", "model", "alignment"),
    "evaluate": ("cli", "treebanks", "normalization", "model", "evaluation"),
    "evaluate_fine": ("cli", "treebanks", "ud_conversion", "normalization", "model", "evaluation"),
}

SETUP_REPEATS = 15
PROBE_TOKENS = 1500
DEADLINE_S = 170.0  # the whole invocation, build excluded


@dataclass(frozen=True)
class Workload:
    family: corpora.Family
    sentences: int
    smoke_sentences: int
    pair_by: str


WORKLOADS = {
    "short-corpus": Workload(corpora.SHORT, 5000, 40, "index"),
    "long-deep": Workload(corpora.LONG, 150, 3, "index"),
    "by-id": Workload(corpora.SHORT, 5000, 40, "id"),
}
CHAIN_TOKENS = 8000
SMOKE_CHAIN_TOKENS = 800


class BenchError(Exception):
    """The benchmark cannot run here (missing program, deadline passed)."""


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    exit_code: int
    stderr: str


@dataclass
class Ledger:
    """Every operation attempted, and the ones that failed and why."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    checks: dict[str, int] = field(default_factory=dict)

    def record(self, kind: str, name: str, problem: str | None):
        self.attempted += 1
        self.checks[kind] = self.checks.get(kind, 0) + 1
        if problem:
            self.failures.append(f"{name}: {problem}")


class Runner:
    """Spawns children one at a time, inside the invocation's deadline."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "SYNSEM_LOG"}
        self.env["PYTHONPATH"] = str(SRC)

    def spawn(self, argv: list[str]) -> Child:
        """Run one child to completion: its wall time, peak RSS and exit code.

        posix_spawn starts the child on this process's memory, and Linux
        keeps that memory's peak in the child's ru_maxrss; the benchmark
        therefore holds no corpus in memory, so that its own peak (reported
        as bench_rss_mb) stays under every measured command's.
        """
        remaining = self.deadline - time.monotonic()
        if remaining <= 1:
            raise BenchError("deadline passed")
        os.sync()  # flush earlier writes so their writeback lands outside the timing
        err_path = self.work / "stderr.txt"
        with open(err_path, "wb") as err, open(os.devnull, "wb") as null:
            actions = [
                (os.POSIX_SPAWN_DUP2, null.fileno(), 1),
                (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
            ]
            start = time.perf_counter()
            pid = os.posix_spawn(sys.executable, [sys.executable, *argv], self.env,
                                 file_actions=actions)
            status, usage = _wait(pid, remaining)
            wall = time.perf_counter() - start
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        return Child(wall, usage.ru_maxrss / 1024, os.waitstatus_to_exitcode(status), stderr)

    def cli(self, args: list[str]) -> Child:
        return self.spawn(["-m", "synsem.cli", *args])


def _on_alarm(signum, frame):
    raise TimeoutError


def _wait(pid: int, timeout: float):
    """Wait for pid; kill it and wait again if it outlives timeout."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        _, status, usage = os.wait4(pid, 0)
    except TimeoutError:
        os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return status, usage


def cli_args(cmd: str, corpus: corpora.Corpus, pair_by: str, out: Path) -> list[str]:
    ud, gold, pred = str(corpus.ud), str(corpus.gold), str(corpus.pred)
    args = {
        "convert_ud": ["convert", "--ud", ud],
        "convert_ucca": ["convert", "--ucca", gold],
        "confusion": ["confusion", "--ud", ud, "--ucca", gold],
        "stats": ["stats", "--ud", ud, "--ucca", gold],
        "evaluate": ["evaluate", "--gold", gold, "--pred", pred],
        "evaluate_fine": ["evaluate", "--gold", gold, "--pred", pred, "--ud", ud, "--fine-grained"],
    }[cmd]
    if cmd in PAIRING and pair_by != "index":
        args += ["--pair-by", pair_by]
    return args + ["--out", str(out)]


def output_digest(cmd: str, out: Path, corpus: corpora.Corpus) -> tuple[str | None, str | None]:
    """(sha256 of the output, problem).

    A converted corpus must list the input's sentences in the input's order;
    the sha256 of its lines, combined in pool order, then gives one digest
    for every seed's permutation. Outputs are read line by line so that this
    process stays small (see Runner.spawn).
    """
    if not cmd.startswith("convert"):
        return corpora.sha256_file(out), None
    order, line_digests = [], {}
    with open(out, "rb") as handle:
        for line in handle:
            sid = json.loads(line)["id"]
            order.append(sid)
            line_digests[sid] = hashlib.sha256(line).digest()
    source = corpus.ud.name if cmd == "convert_ud" else corpus.gold.name
    if order != corpus.file_ids[source] or len(line_digests) != len(order):
        return None, "output sentences are not the input sentences in input order"
    return hashlib.sha256(b"".join(line_digests[sid] for sid in corpus.ids)).hexdigest(), None


class Bench:
    def __init__(self, workload: Workload, seed: int, seconds: float, smoke: bool,
                 record: bool, work: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.record = record
        self.work = work
        self.runner = Runner(work, deadline)
        self.ledger = Ledger()
        self.references = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
        self.log: list[dict] = []
        self.inputs: dict = {}

    # -- inputs ---------------------------------------------------------------

    def corpus(self, family: corpora.Family, sentences: int, seed: int, name: str,
               shuffle_sides: bool = False) -> corpora.Corpus:
        """Generate a corpus in a child process, keeping this one small."""
        out = self.work / name
        argv = [str(HERE / "corpora.py"), family.name, str(sentences), str(seed), str(out)]
        child = self.runner.spawn(argv + (["--shuffle-sides"] if shuffle_sides else []))
        if child.exit_code != 0:
            raise BenchError(f"corpus generation failed: {child.stderr.strip()[-300:]}")
        return corpora.load_corpus(out)

    def workload_corpus(self, sentences: int, name: str) -> corpora.Corpus:
        return self.corpus(self.workload.family, sentences, self.seed, name,
                           shuffle_sides=self.workload.pair_by == "id")

    # -- checks ---------------------------------------------------------------

    def check_digest(self, key: str, cmd: str, digest: str) -> str | None:
        known = self.references.setdefault(key, {}).get(cmd)
        if known is None:
            if self.record:
                self.references[key][cmd] = digest
                return None
            return f"no reference output recorded for {key}/{cmd}"
        return None if known == digest else f"output hash {digest[:12]} != reference {known[:12]}"

    def operation(self, kind: str, cmd: str, child: Child, out: Path,
                  corpus: corpora.Corpus, ref_key: str) -> Child:
        problem = None
        if child.exit_code != 0:
            problem = f"exit {child.exit_code}: {child.stderr.strip()[-300:]}"
        else:
            digest, problem = output_digest(cmd, out, corpus)
            if digest:
                problem = self.check_digest(ref_key, cmd, digest)
        out.unlink(missing_ok=True)
        self.ledger.record(kind, f"{kind} {cmd}", problem)
        self.log.append({"op": f"{kind} {cmd}", "wall_s": round(child.wall_s, 4),
                         "rss_mb": round(child.rss_mb, 1), "ok": problem is None})
        return child

    def ref_key(self, sentences: int) -> str:
        return f"{self.workload.family.name}-{sentences}"

    # -- measured parts ------------------------------------------------------

    def setup_times(self) -> list[float]:
        """CLI start-up: `convert --ud` on one sentence, several times."""
        one = self.corpus(corpora.SHORT, 1, 0, "one")
        out = self.work / "setup.out"
        walls = []
        for _ in range(SETUP_REPEATS):
            child = self.runner.cli(cli_args("convert_ud", one, "index", out))
            self.operation("setup", "convert_ud", child, out, one, "setup")
            walls.append(child.wall_s)
        return walls

    def cycles(self, corpus: corpora.Corpus, n_cycles: int | None) -> dict[str, list[Child]]:
        """Run every command once per cycle. Without n_cycles, start cycles
        while the last one still fits into --seconds (always at least one)."""
        runs: dict[str, list[Child]] = {cmd: [] for cmd in COMMANDS}
        key = self.ref_key(corpus.sentences)
        out = self.work / "cmd.out"
        start = time.monotonic()
        done = 0
        while True:
            cycle_start = time.monotonic()
            for cmd in COMMANDS:
                child = self.runner.cli(cli_args(cmd, corpus, self.workload.pair_by, out))
                runs[cmd].append(self.operation("timed", cmd, child, out, corpus, key))
            done += 1
            elapsed = time.monotonic() - start
            if n_cycles is not None:
                if done >= n_cycles:
                    return runs
            elif elapsed + (time.monotonic() - cycle_start) > self.seconds:
                return runs

    def identity_check(self, corpus: corpora.Corpus):
        """evaluate --gold G --pred G must score every gold unit as correct."""
        out = self.work / "identity.out"
        child = self.runner.cli(["evaluate", "--gold", str(corpus.gold), "--pred",
                                 str(corpus.gold), "--out", str(out)])
        problem = None
        if child.exit_code != 0:
            problem = f"exit {child.exit_code}: {child.stderr.strip()[-300:]}"
        else:
            rows = out.read_text(encoding="utf-8").splitlines()[1:5]
            for row in rows:
                cells = row.split("\t")
                if len(cells) < 5 or not (cells[2] == cells[3] == cells[4]):
                    problem = f"identity evaluation row is not perfect: {row!r}"
            if len(rows) != 4:
                problem = "identity evaluation has no four corpus rows"
        out.unlink(missing_ok=True)
        self.ledger.record("identity", "identity evaluate", problem)

    def recursion_probe(self) -> bool:
        """confusion on one head chain of PROBE_TOKENS tokens. Returns whether
        it failed. Reported, not counted: see bench/README.md."""
        probe_dir = self.work / "probe"
        probe_dir.mkdir(exist_ok=True)
        ud, graph = probe_dir / "chain.conllu", probe_dir / "chain.jsonl"
        ud.write_text(corpora.head_chain_conllu(PROBE_TOKENS), encoding="utf-8")
        graph.write_text(corpora.head_chain_graph(PROBE_TOKENS), encoding="utf-8")
        out = probe_dir / "out"
        child = self.runner.cli(["confusion", "--ud", str(ud), "--ucca", str(graph),
                                 "--out", str(out)])
        failed = child.exit_code != 0
        last = child.stderr.strip().splitlines()[-1:] or [""]
        verdict = f"exit {child.exit_code}: {last[0]}" if failed else "ok"
        print(f"bench: probe (not counted in failed), confusion on a {PROBE_TOKENS}-token "
              f"head chain: {verdict}", file=sys.stderr)
        return failed

    # -- the two kinds of run --------------------------------------------------

    def end_to_end(self, corpus: corpora.Corpus) -> dict:
        metrics = {"setup_s": (statistics.median(self.setup_times()), "s")}
        runs = self.cycles(corpus, None)
        for cmd in COMMANDS:
            metrics[f"{cmd}_s"] = (statistics.median(c.wall_s for c in runs[cmd]), "s")
            metrics[f"{cmd}_rss_mb"] = (statistics.median(c.rss_mb for c in runs[cmd]), "MB")
        self.identity_check(corpus)
        return metrics

    def traced(self, corpus: corpora.Corpus, probe_failed: bool) -> dict:
        untraced = self.cycles(corpus, 1)
        key = self.ref_key(corpus.sentences)
        out = self.work / "traced.out"
        stats_path = self.work / "trace.json"
        metrics: dict[str, tuple[float, str]] = {}
        for cmd in COMMANDS:
            argv = [str(TRACE_WORKER), "cli", str(stats_path), "--",
                    *cli_args(cmd, corpus, self.workload.pair_by, out)]
            child = self.operation("traced", cmd, self.runner.spawn(argv), out, corpus, key)
            stats = json.loads(stats_path.read_text()) if child.exit_code == 0 else \
                {"self_s": {}, "calls": {}, "gc_pause_s": 0.0, "gc_collections": 0}
            metrics.update(layer_metrics(cmd, stats, corpus.sentences))
            metrics[f"{cmd}.trace_overhead_s"] = (child.wall_s - untraced[cmd][0].wall_s, "s")
        self.identity_check(corpus)

        double = self.workload_corpus(2 * corpus.sentences, "double")
        out = self.work / "double.out"
        child = self.runner.cli(cli_args("confusion", double, self.workload.pair_by, out))
        self.operation("rss-2x", "confusion", child, out, double, self.ref_key(double.sentences))
        metrics["confusion.cli.rss_ratio_2x"] = (
            child.rss_mb / untraced["confusion"][0].rss_mb, "ratio")

        tokens = SMOKE_CHAIN_TOKENS if self.smoke else CHAIN_TOKENS
        child = self.runner.spawn([str(TRACE_WORKER), "validate-chain", str(stats_path), str(tokens)])
        problem = None if child.exit_code == 0 else f"exit {child.exit_code}: {child.stderr[-300:]}"
        self.ledger.record("validate-chain", "validate chain", problem)
        chain_s = json.loads(stats_path.read_text())["validate_s"] if problem is None else 0.0
        metrics["model.validate.chain_8k_s"] = (chain_s, "s")
        metrics["probe.chain_1500.failed"] = (float(probe_failed), "count")
        return metrics

    def run(self, trace: bool) -> dict:
        sentences = self.workload.smoke_sentences if self.smoke else self.workload.sentences
        corpus = self.workload_corpus(sentences, "corpus")
        self.inputs = corpus.manifest()
        probe_failed = self.recursion_probe()
        metrics = self.traced(corpus, probe_failed) if trace else self.end_to_end(corpus)
        if self.record:
            REFERENCES.write_text(json.dumps(self.references, indent=2, sort_keys=True) + "\n")
        return metrics


def layer_metrics(cmd: str, stats: dict, sentences: int) -> dict:
    """Per-module self times, GC, and the named per-function figures."""
    self_s, calls = stats["self_s"], stats["calls"]
    metrics = {}
    for module in MODULES_RUN[cmd]:
        total = sum(v for k, v in self_s.items() if k.split(".", 1)[0] == module)
        metrics[f"{cmd}.{module}.self_s"] = (total, "s")
    metrics[f"{cmd}.gc.pause_s"] = (stats["gc_pause_s"], "s")
    metrics[f"{cmd}.gc.collections"] = (float(stats["gc_collections"]), "count")
    if cmd.startswith("convert"):
        metrics[f"{cmd}.model.validate.self_s"] = (self_s.get("model.validate", 0.0), "s")
    if cmd in PAIRING:
        metrics[f"{cmd}.model.all_yields.self_s"] = (self_s.get("model.all_yields", 0.0), "s")
        metrics[f"{cmd}.model.all_yields.calls_per_sentence"] = (
            calls.get("model.all_yields", 0) / sentences, "calls/sentence")
    if cmd.startswith("evaluate"):
        metrics[f"{cmd}.normalization.normalize.calls_per_sentence"] = (
            calls.get("normalization.normalize", 0) / sentences, "calls/sentence")
    return metrics


def git_commit() -> str:
    """HEAD's commit when run from a git checkout, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def invoke(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
           record: bool = False) -> tuple[dict, dict]:
    """One benchmark invocation; returns its record and its result."""
    if not (SRC / "synsem" / "cli.py").is_file():
        raise BenchError(f"synsem sources not found under {SRC}")
    deadline = time.monotonic() + DEADLINE_S
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    try:
        bench = Bench(WORKLOADS[name], seed, seconds, smoke, record, work, deadline)
        metrics = bench.run(trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in bench.ledger.failures:
        print(f"bench: FAILED {failure}", file=sys.stderr)
    record = {
        "workload": name, "seed": seed, "trace": int(trace), "inputs": bench.inputs,
        "python": platform.python_version(), "nproc": os.cpu_count(), "commit": git_commit(),
        "bench_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "checks": bench.ledger.checks, "operations": bench.log,
    }
    result = {
        "correct": not bench.ledger.failures,
        "attempted": bench.ledger.attempted,
        "failed": len(bench.ledger.failures),
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    return record, result


def smoke(record: bool = False) -> int:
    """Tiny sizes, every workload, both modes: every named metric must be
    emitted and every kind of check must run and pass."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    kinds = {0: {"setup", "timed", "identity"},
             1: {"timed", "traced", "identity", "rss-2x", "validate-chain"}}
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            run_record, result = invoke(name, 1, 0, bool(trace), smoke=True, record=record)
            print(json.dumps(run_record))
            got = set(result["metrics"])
            if got != want[trace]:
                problems.append(f"{name} trace={trace}: missing {sorted(want[trace] - got)}, "
                                f"unexpected {sorted(got - want[trace])}")
            if not kinds[trace] <= set(run_record["checks"]):
                problems.append(f"{name} trace={trace}: checks not run: "
                                f"{sorted(kinds[trace] - set(run_record['checks']))}")
            if not result["correct"]:
                problems.append(f"{name} trace={trace}: {result['failed']} failed operations")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print(json.dumps({"smoke": "ok" if not problems else "failed", "problems": len(problems)}))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure for this long: whole cycles of all six commands")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, all workloads")
    parser.add_argument("--record", action="store_true",
                        help="add missing reference hashes to bench/references.json")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke(args.record)
        if not args.workload:
            parser.error("--workload is required")
        run_record, result = invoke(args.workload, args.seed, args.seconds, bool(args.trace),
                                    record=args.record)
    except BenchError as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(run_record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
