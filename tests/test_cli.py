import json
import shutil
import tracemalloc

import pytest

from synsem.cli import main
from synsem.treebanks import read_unified

from helpers import FIXTURES, read_fixture


def fixture(tmp_path, name):
    target = tmp_path / name
    shutil.copy(FIXTURES / name, target)
    return str(target)


def run(args):
    return main(args)


def test_convert_reproduces_golden_file(tmp_path):
    out = tmp_path / "converted.jsonl"
    code = run(["convert", "--ud", fixture(tmp_path, "graduation_ud.conllu"),
                "--out", str(out)])
    assert code == 0
    assert out.read_text(encoding="utf-8") == read_fixture("graduation_unified.golden.jsonl")


def test_convert_empty_corpus(tmp_path):
    empty = tmp_path / "empty.conllu"
    empty.write_text("", encoding="utf-8")
    out = tmp_path / "out.jsonl"
    assert run(["convert", "--ud", str(empty), "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.conllu", "out.jsonl"]


def test_convert_error_midstream_leaves_out_untouched(tmp_path, capsys):
    bad = tmp_path / "bad.conllu"
    bad.write_text(
        read_fixture("mini_ud.conllu") + "\n"
        "1\ta\t_\t_\t_\t_\t2\tdet\t_\t_\n"
        "2\tb\t_\t_\t_\t_\t1\tdet\t_\t_\n"
        "3\tc\t_\t_\t_\t_\t0\troot\t_\t_\n",
        encoding="utf-8",
    )
    out = tmp_path / "out.jsonl"
    out.write_bytes(b"earlier output\n")
    assert run(["convert", "--ud", str(bad), "--out", str(out)]) == 2
    assert "head cycle, sentence 4" in capsys.readouterr().err
    assert out.read_bytes() == b"earlier output\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.conllu", "out.jsonl"]


def test_non_utf8_input_names_file_and_line(tmp_path, capsys):
    text = read_fixture("mini_ud.conllu") + "\n"
    bad = tmp_path / "latin1.conllu"
    bad.write_bytes(
        text.encode("utf-8")
        + "1\tcaf\xe9\t_\t_\t_\t_\t0\troot\t_\t_\n".encode("latin-1")
    )
    out = tmp_path / "o.jsonl"
    assert run(["convert", "--ud", str(bad), "--out", str(out)]) == 2
    line = text.count("\n") + 1
    assert f"invalid UTF-8 (invalid continuation byte), {bad} line {line}" in (
        capsys.readouterr().err
    )
    assert not out.exists()


def test_convert_ucca_token_with_line_separator(tmp_path):
    out = tmp_path / "norm.jsonl"
    assert run(["convert", "--ucca", fixture(tmp_path, "u2028_ucca.jsonl"),
                "--out", str(out)]) == 0
    written = out.read_text(encoding="utf-8")
    assert json.loads(written)["tokens"][0]["text"] == "Hello\u2028world"
    assert read_unified(written)[0].terminals[0].form == "Hello\u2028world"


def test_convert_cyclic_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "cyclic.conllu"
    bad.write_text(
        "1\ta\t_\t_\t_\t_\t2\tdet\t_\t_\n"
        "2\tb\t_\t_\t_\t_\t1\tdet\t_\t_\n"
        "3\tc\t_\t_\t_\t_\t0\troot\t_\t_\n",
        encoding="utf-8",
    )
    code = run(["convert", "--ud", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "head cycle, sentence 1" in capsys.readouterr().err


def test_convert_ucca_input(tmp_path):
    out = tmp_path / "norm.jsonl"
    assert run(["convert", "--ucca", fixture(tmp_path, "graduation_ucca.jsonl"),
                "--out", str(out)]) == 0
    line = json.loads(out.read_text(encoding="utf-8"))
    assert all(not e["remote"] for e in line["edges"])
    assert any(n["kind"] == "terminal-wrapper" for n in line["nodes"])


def test_convert_flags_disable_extensions(tmp_path):
    conllu = tmp_path / "mwe.conllu"
    conllu.write_text(
        "1\tvisit\t_\t_\t_\t_\t0\troot\t_\t_\n"
        "2\tPeking\t_\t_\t_\t_\t1\tobj\t_\t_\n"
        "3\tGarden\t_\t_\t_\t_\t2\tflat\t_\t_\n",
        encoding="utf-8",
    )
    joined = tmp_path / "joined.jsonl"
    split = tmp_path / "split.jsonl"
    assert run(["convert", "--ud", str(conllu), "--out", str(joined)]) == 0
    assert run(["convert", "--ud", str(conllu), "--no-mwe-join",
                "--out", str(split)]) == 0
    assert "t2+3" in joined.read_text(encoding="utf-8")
    assert "t2+3" not in split.read_text(encoding="utf-8")


def test_confusion_output_and_summary(tmp_path):
    out = tmp_path / "matrix.tsv"
    code = run([
        "confusion",
        "--ud", fixture(tmp_path, "graduation_ud.conllu"),
        "--ucca", fixture(tmp_path, "graduation_ucca.jsonl"),
        "--out", str(out),
    ])
    assert code == 0
    text = out.read_text(encoding="utf-8")
    assert "P=7/8" in text and "R=7/8" in text
    lines = text.splitlines()
    assert lines[0].split("\t")[0] == ""
    assert any(line.startswith("head\t") for line in lines)


def test_confusion_markdown_format(tmp_path):
    out = tmp_path / "matrix.md"
    assert run([
        "confusion",
        "--ud", fixture(tmp_path, "mini_ud.conllu"),
        "--ucca", fixture(tmp_path, "mini_ucca.jsonl"),
        "--format", "md",
        "--out", str(out),
    ]) == 0
    text = out.read_text(encoding="utf-8")
    assert text.startswith("| relation |")
    assert "F1=" in text


def test_confusion_sentence_count_mismatch_exits_2(tmp_path, capsys):
    short = tmp_path / "short.jsonl"
    short.write_text(read_fixture("graduation_ucca.jsonl"), encoding="utf-8")
    code = run([
        "confusion",
        "--ud", fixture(tmp_path, "mini_ud.conllu"),
        "--ucca", str(short),
        "--out", str(tmp_path / "o"),
    ])
    assert code == 2
    assert "sentence count mismatch" in capsys.readouterr().err


def test_confusion_count_mismatch_beats_token_mismatch(tmp_path, capsys):
    short = tmp_path / "short.jsonl"
    lines = read_fixture("mini_ucca.jsonl").split("\n")
    short.write_text("\n".join(lines[1:]), encoding="utf-8")
    out = tmp_path / "o"
    code = run([
        "confusion",
        "--ud", fixture(tmp_path, "mini_ud.conllu"),
        "--ucca", str(short),
        "--out", str(out),
    ])
    assert code == 2
    assert "sentence count mismatch: left=3 right=2" in capsys.readouterr().err
    assert not out.exists()


def test_confusion_token_mismatch_names_sentence(tmp_path, capsys):
    swapped = tmp_path / "swapped.jsonl"
    lines = read_fixture("mini_ucca.jsonl").splitlines()
    swapped.write_text("\n".join([lines[1], lines[0], lines[2]]) + "\n",
                       encoding="utf-8")
    code = run([
        "confusion",
        "--ud", fixture(tmp_path, "mini_ud.conllu"),
        "--ucca", str(swapped),
        "--out", str(tmp_path / "o"),
    ])
    assert code == 2
    assert "token mismatch" in capsys.readouterr().err


def test_evaluate_token_mismatch_names_position(tmp_path, capsys):
    swapped = tmp_path / "swapped.jsonl"
    lines = read_fixture("mini_ucca.jsonl").splitlines()
    swapped.write_text("\n".join([lines[1], lines[0], lines[2]]) + "\n",
                       encoding="utf-8")
    code = run([
        "evaluate",
        "--gold", fixture(tmp_path, "mini_ucca.jsonl"),
        "--pred", str(swapped),
        "--out", str(tmp_path / "o"),
    ])
    assert code == 2
    assert capsys.readouterr().err == (
        "synsem: error: token mismatch at position 1 ('After' vs 'unique'), "
        "sentence after-graduation\n"
    )


@pytest.mark.parametrize("deprel,message", [
    ("", "DEPREL '' has an empty relation, line 2"),
    (":foo", "DEPREL ':foo' has an empty relation, line 2"),
    ("det|amod", "DEPREL 'det|amod' contains '|', line 2"),
], ids=["empty", "subtype-only", "two-labels"])
def test_convert_rejects_malformed_deprel(tmp_path, capsys, deprel, message):
    bad = tmp_path / "bad.conllu"
    bad.write_text(
        "1\ta\t_\t_\t_\t_\t0\troot\t_\t_\n"
        f"2\tb\t_\t_\t_\t_\t1\t{deprel}\t_\t_\n",
        encoding="utf-8",
    )
    assert run(["convert", "--ud", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"synsem: error: {message}\n"


@pytest.mark.parametrize("item,field,value,message", [
    ("edges", "categories", "AB", "edge 'categories' must be a list of strings"),
    ("edges", "categories", ["A", 1], "edge 'categories' must be a list of strings"),
    ("edges", "remote", "no", "edge 'remote' must be true or false"),
    ("tokens", "punct", 1, "token 'punct' must be true or false"),
], ids=["categories-string", "categories-int", "remote-string", "punct-int"])
def test_convert_rejects_mistyped_graph_fields(tmp_path, capsys, item, field, value, message):
    graph = {
        "id": "s",
        "tokens": [{"text": "a"}, {"text": "b", "punct": False}],
        "nodes": [{"id": "r"}],
        "edges": [{"parent": "r", "child": "t1", "categories": ["A"]},
                  {"parent": "r", "child": "t2", "categories": ["B"], "remote": False}],
    }
    graph[item][1][field] = value
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps(graph) + "\n", encoding="utf-8")
    assert run(["convert", "--ucca", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"synsem: error: {message}, sentence s\n"


def test_pair_by_id_reorders(tmp_path):
    swapped = tmp_path / "swapped.jsonl"
    lines = read_fixture("mini_ucca.jsonl").splitlines()
    swapped.write_text("\n".join([lines[1], lines[0], lines[2]]) + "\n",
                       encoding="utf-8")
    out = tmp_path / "o.tsv"
    assert run([
        "confusion",
        "--ud", fixture(tmp_path, "mini_ud.conllu"),
        "--ucca", str(swapped),
        "--pair-by", "id",
        "--out", str(out),
    ]) == 0
    reference = tmp_path / "ref.tsv"
    assert run([
        "confusion",
        "--ud", fixture(tmp_path, "mini_ud.conllu"),
        "--ucca", fixture(tmp_path, "mini_ucca.jsonl"),
        "--out", str(reference),
    ]) == 0
    assert out.read_text(encoding="utf-8") == reference.read_text(encoding="utf-8")


def test_stats_key_value_table(tmp_path):
    out = tmp_path / "stats.tsv"
    assert run([
        "stats",
        "--ud", fixture(tmp_path, "mini_ud.conllu"),
        "--ucca", fixture(tmp_path, "mini_ucca.jsonl"),
        "--out", str(out),
    ]) == 0
    rows = {
        line.split("\t")[0]: line.split("\t")[1:]
        for line in out.read_text(encoding="utf-8").splitlines()
    }
    # Arguments: two-scene sentence nsubj+2 obl (2 matched to A), coordination
    # none, linkage two nsubj (both A) plus one unmatched obl.
    assert rows["argument_units_matched_to_participant"][:2] == ["4", "6"]
    assert rows["head_units_matched_to_semantic_head"][:2] == ["7", "7"]


def test_evaluate_identity_scores(tmp_path):
    out = tmp_path / "eval.tsv"
    assert run([
        "evaluate",
        "--gold", fixture(tmp_path, "graduation_ucca.jsonl"),
        "--pred", fixture(tmp_path, "graduation_ucca.jsonl"),
        "--out", str(out),
    ]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    primary_labeled = lines[1].split("\t")
    assert primary_labeled[:5] == ["primary", "labeled", "9", "9", "9"]
    remote_labeled = lines[3].split("\t")
    assert remote_labeled[:5] == ["remote", "labeled", "1", "1", "1"]


def test_evaluate_fine_grained_json(tmp_path):
    out = tmp_path / "eval.json"
    assert run([
        "evaluate",
        "--gold", fixture(tmp_path, "graduation_ucca.jsonl"),
        "--pred", fixture(tmp_path, "graduation_pred_relabel.jsonl"),
        "--ud", fixture(tmp_path, "graduation_ud.conllu"),
        "--fine-grained",
        "--format", "json",
        "--out", str(out),
    ]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["corpus"]["primary_labeled"]["n_correct"] == 8
    assert payload["corpus"]["primary_unlabeled"]["f1"] == 1.0
    obl = next(r for r in payload["fine_grained"] if r["relation"] == "obl")
    assert obl["labeled_f1"] == 0.0
    assert obl["unlabeled_f1"] == 1.0


def test_evaluate_fine_grained_requires_ud(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run([
            "evaluate",
            "--gold", fixture(tmp_path, "graduation_ucca.jsonl"),
            "--pred", fixture(tmp_path, "graduation_ucca.jsonl"),
            "--fine-grained",
            "--out", str(tmp_path / "o"),
        ])
    assert exc.value.code == 1


def test_usage_error_exits_1():
    with pytest.raises(SystemExit) as exc:
        run(["convert", "--nonsense"])
    assert exc.value.code == 1


def test_removed_jobs_flag_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run([
            "confusion",
            "--ud", fixture(tmp_path, "mini_ud.conllu"),
            "--ucca", fixture(tmp_path, "mini_ucca.jsonl"),
            "--jobs", "2",
            "--out", str(tmp_path / "o"),
        ])
    assert exc.value.code == 1


def test_convert_determinism_across_runs(tmp_path):
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    for out in (first, second):
        assert run(["convert", "--ud", fixture(tmp_path, "mini_ud.conllu"),
                    "--out", str(out)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_log_env_var_is_harmless(tmp_path, monkeypatch):
    monkeypatch.setenv("SYNSEM_LOG", "debug")
    out = tmp_path / "o.jsonl"
    assert run(["convert", "--ud", fixture(tmp_path, "graduation_ud.conllu"),
                "--out", str(out)]) == 0


STREAMED = {
    "convert": lambda ud, ucca, out: ["convert", "--ud", ud, "--out", out],
    "confusion": lambda ud, ucca, out: ["confusion", "--ud", ud, "--ucca", ucca, "--out", out],
    "evaluate": lambda ud, ucca, out: ["evaluate", "--gold", ucca, "--pred", ucca, "--out", out],
}


@pytest.mark.parametrize("command", sorted(STREAMED))
def test_peak_memory_does_not_grow_with_corpus_size(tmp_path, command):
    peaks = []
    for times in (200, 800):
        paths = []
        for name in ("mini_ud.conllu", "mini_ucca.jsonl"):
            path = tmp_path / f"{times}x_{name}"
            path.write_text((read_fixture(name).rstrip("\n") + "\n\n") * times,
                            encoding="utf-8")
            paths.append(str(path))
        argv = STREAMED[command](*paths, str(tmp_path / f"{times}x.out"))
        tracemalloc.start()
        try:
            assert run(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2 * 2**20, peaks
