"""Byte contract: every CLI output on the benchmark's smoke corpora.

The corpora come from bench/corpora.py, whose aggregate outputs are the
same for every seed, so two seeds check one recorded digest each. The six
benchmark subcommands are checked against bench/references.json (read,
never written), and the pairing ones also under --pair-by id on a short
corpus whose gold and pred files are shuffled. tests/fixtures/output_hashes.json
covers, on the short corpus, what the references do not: the md and json
formats and the convert --ud extension flags.

A convert output is digested as bench/run.py does it: the sha256 of each
line, combined in the generator's pool order, after checking that the
lines follow the input's order.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from synsem.cli import main

from helpers import FIXTURES

ROOT = Path(__file__).resolve().parent.parent
REFERENCES = json.loads((ROOT / "bench" / "references.json").read_text(encoding="utf-8"))
EXTRA_HASHES = json.loads((FIXTURES / "output_hashes.json").read_text(encoding="utf-8"))


def _load_corpora():
    spec = importlib.util.spec_from_file_location("bench_corpora", ROOT / "bench" / "corpora.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


corpora = _load_corpora()

PAIRING = ("confusion", "stats", "evaluate", "evaluate_fine")
# Output name -> argv, with {ud}, {gold} and {pred} filled from the corpus.
BENCH_COMMANDS = {
    "convert_ud": ["convert", "--ud", "{ud}"],
    "convert_ucca": ["convert", "--ucca", "{gold}"],
    "confusion": ["confusion", "--ud", "{ud}", "--ucca", "{gold}"],
    "stats": ["stats", "--ud", "{ud}", "--ucca", "{gold}"],
    "evaluate": ["evaluate", "--gold", "{gold}", "--pred", "{pred}"],
    "evaluate_fine": ["evaluate", "--gold", "{gold}", "--pred", "{pred}",
                      "--ud", "{ud}", "--fine-grained"],
}
EXTRA_COMMANDS = {
    "confusion_md": BENCH_COMMANDS["confusion"] + ["--format", "md"],
    "evaluate_md": BENCH_COMMANDS["evaluate"] + ["--format", "md"],
    "evaluate_json": BENCH_COMMANDS["evaluate"] + ["--format", "json"],
    "evaluate_fine_md": BENCH_COMMANDS["evaluate_fine"] + ["--format", "md"],
    "evaluate_fine_json": BENCH_COMMANDS["evaluate_fine"] + ["--format", "json"],
    "convert_ud_no_mwe_join": BENCH_COMMANDS["convert_ud"] + ["--no-mwe-join"],
    "convert_ud_no_conj_promote": BENCH_COMMANDS["convert_ud"] + ["--no-conj-promote"],
    "convert_ud_no_extensions": BENCH_COMMANDS["convert_ud"]
    + ["--no-mwe-join", "--no-conj-promote"],
}
CORPORA = {"short-40": (corpora.SHORT, 40), "long-3": (corpora.LONG, 3)}


def digest(name: str, out: Path, corpus) -> str:
    if not name.startswith("convert"):
        return hashlib.sha256(out.read_bytes()).hexdigest()
    lines = out.read_bytes().splitlines(keepends=True)
    by_id = {json.loads(line)["id"]: hashlib.sha256(line).digest() for line in lines}
    source = corpus.ud if name.startswith("convert_ud") else corpus.gold
    assert [json.loads(line)["id"] for line in lines] == corpus.file_ids[source.name]
    return hashlib.sha256(b"".join(by_id[sid] for sid in corpus.ids)).hexdigest()


def run_all(corpus, commands: dict, extra: list[str]) -> dict[str, str]:
    paths = {"ud": corpus.ud, "gold": corpus.gold, "pred": corpus.pred}
    digests = {}
    for name, template in commands.items():
        out = corpus.ud.parent / f"{name}.out"
        argv = [arg.format(**paths) for arg in template] + extra + ["--out", str(out)]
        assert main(argv) == 0, name
        digests[name] = digest(name, out, corpus)
    return digests


def mismatches(got: dict, expected: dict) -> dict:
    return {name: value for name, value in got.items() if expected.get(name) != value}


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("key", sorted(CORPORA))
def test_outputs_match_references(tmp_path, key, seed):
    family, sentences = CORPORA[key]
    corpus = corpora.write_corpus(family, sentences, seed, tmp_path)
    assert mismatches(run_all(corpus, BENCH_COMMANDS, []), REFERENCES[key]) == {}


def test_pair_by_id_outputs_match_references(tmp_path):
    # As in the benchmark's by-id workload: the short corpus, sides shuffled.
    corpus = corpora.write_corpus(corpora.SHORT, 40, 1, tmp_path, shuffle_sides=True)
    pairing = {name: BENCH_COMMANDS[name] for name in PAIRING}
    got = run_all(corpus, pairing, ["--pair-by", "id"])
    assert mismatches(got, REFERENCES["short-40"]) == {}


def test_formats_and_flags_match_recorded_hashes(tmp_path):
    corpus = corpora.write_corpus(corpora.SHORT, 40, 1, tmp_path)
    assert mismatches(run_all(corpus, EXTRA_COMMANDS, []), EXTRA_HASHES["short-40"]) == {}
