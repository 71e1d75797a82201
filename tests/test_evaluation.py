import json

import pytest

from synsem.evaluation import (
    EvalCounts,
    EvaluationError,
    FineGrainedScorer,
    evaluate_ucca,
    fine_grained,
    render_report,
)
from synsem.normalization import normalize
from synsem.treebanks import parse_conllu, parse_ucca_json
from synsem.ud_conversion import convert_extended

from helpers import read_fixture


@pytest.fixture
def gold():
    return normalize(
        parse_ucca_json(read_fixture("graduation_ucca.jsonl"))[0], keep_remotes=True
    )


@pytest.fixture
def pred_relabeled():
    return normalize(
        parse_ucca_json(read_fixture("graduation_pred_relabel.jsonl"))[0], keep_remotes=True
    )


def test_eval_counts_arithmetic():
    counts = EvalCounts(4, 5, 3)
    assert counts.precision == 0.6
    assert counts.recall == 0.75
    assert counts.f1 == pytest.approx(2 * 0.6 * 0.75 / 1.35)
    assert (counts + EvalCounts(1, 0, 0)).n_gold == 5
    with pytest.raises(ValueError):
        EvalCounts(1, 1, 2)


def test_identity_evaluation_is_perfect(gold):
    primary = evaluate_ucca(gold, gold, labeled=True, edge_class="primary")
    assert (primary.n_gold, primary.n_pred, primary.n_correct) == (9, 9, 9)
    assert primary.f1 == 1.0
    remote = evaluate_ucca(gold, gold, labeled=True, edge_class="remote")
    assert (remote.n_gold, remote.n_pred, remote.n_correct) == (1, 1, 1)
    assert remote.f1 == 1.0


def test_single_relabel_costs_one_labeled_unit(gold, pred_relabeled):
    labeled = evaluate_ucca(gold, pred_relabeled, labeled=True, edge_class="primary")
    assert (labeled.n_gold, labeled.n_pred, labeled.n_correct) == (9, 9, 8)
    assert labeled.f1 == pytest.approx(8 / 9)
    unlabeled = evaluate_ucca(gold, pred_relabeled, labeled=False, edge_class="primary")
    assert unlabeled.f1 == 1.0


def test_missing_remote_edge_only_hurts_remote_scores(gold):
    pred = normalize(
        parse_ucca_json(read_fixture("graduation_ucca.jsonl"))[0], keep_remotes=False
    )
    remote = evaluate_ucca(gold, pred, labeled=True, edge_class="remote")
    assert remote.recall == 0.0
    assert remote.n_pred == 0
    primary = evaluate_ucca(gold, pred, labeled=True, edge_class="primary")
    assert primary.f1 == 1.0


def test_duplicate_yields_count_as_multiset(gold):
    # {graduation} occurs twice among gold primary units (scene + process);
    # unlabeled matching must not collapse them.
    unlabeled = evaluate_ucca(gold, gold, labeled=False, edge_class="primary")
    assert unlabeled.n_gold == 9
    assert unlabeled.n_correct == 9


def test_evaluate_rejects_token_mismatch(gold):
    other = normalize(parse_ucca_json(read_fixture("coordination_ucca.jsonl"))[0])
    with pytest.raises(EvaluationError, match="token mismatch"):
        evaluate_ucca(gold, other)


def test_evaluate_rejects_unknown_edge_class(gold):
    with pytest.raises(ValueError):
        evaluate_ucca(gold, gold, edge_class="secondary")


def fine_rows(pred_name):
    gold_ucca = normalize(parse_ucca_json(read_fixture("graduation_ucca.jsonl"))[0])
    pred_ucca = normalize(parse_ucca_json(read_fixture(pred_name))[0])
    gold_ud = convert_extended(parse_conllu(read_fixture("graduation_ud.conllu"))[0])
    return {
        row.relation: row for row in fine_grained(gold_ucca, pred_ucca, gold_ud)
    }


def test_fine_grained_identity_rows():
    rows = fine_rows("graduation_ucca.jsonl")
    assert set(rows) == {"case", "head", "nsubj", "obl", "(none)"}
    for row in rows.values():
        if row.relation == "(none)":
            continue
        assert row.labeled_f1 == 1.0
        assert row.unlabeled_f1 == 1.0
    obl = rows["obl"]
    assert obl.total_in_ud == 2
    assert obl.match_gold == 1  # only {to, Paris} has a matching unit
    assert obl.avg_words == 2.0
    assert obl.mode_baseline_pct == 100.0
    case = rows["case"]
    assert case.total_in_ud == 2 and case.match_gold == 2
    assert case.mode_baseline_pct == 50.0  # L and R split the bucket
    head = rows["head"]
    assert head.total_in_ud == 3 and head.avg_words == 1.0
    # The scene over the last four tokens matches no relation.
    none = rows["(none)"]
    assert none.total_in_ud == 0 and none.match_gold == 1


def test_fine_grained_rows_ignore_remote_edges():
    gold_ud = convert_extended(parse_conllu(read_fixture("graduation_ud.conllu"))[0])
    graphs = [
        parse_ucca_json(read_fixture(name))[0]
        for name in ("graduation_ucca.jsonl", "graduation_pred_relabel.jsonl")
    ]
    assert any(e.remote for e in graphs[0].edges)
    rows = {
        keep: fine_grained(*(normalize(g, keep_remotes=keep) for g in graphs), gold_ud)
        for keep in (False, True)
    }
    assert rows[True] == rows[False]


def test_fine_grained_single_perturbation_hits_only_obl():
    rows = fine_rows("graduation_pred_relabel.jsonl")
    obl = rows["obl"]
    assert obl.labeled_correct == 0
    assert obl.unlabeled_correct == 1
    assert obl.labeled_f1 == 0.0
    assert obl.unlabeled_f1 == 1.0
    for name in ("case", "head", "nsubj"):
        assert rows[name].labeled_f1 == 1.0
        assert rows[name].unlabeled_f1 == 1.0


def test_fine_grained_empty_prediction():
    gold_ucca = normalize(parse_ucca_json(read_fixture("graduation_ucca.jsonl"))[0])
    empty_line = (
        '{"id": "after-graduation", "tokens": '
        + json.dumps([
            {"text": t, "punct": t == ","}
            for t in ["After", "graduation", ",", "John", "moved", "to", "Paris"]
        ])
        + ', "nodes": [{"id": "r"}], "edges": ['
        + ", ".join(
            '{"parent": "r", "child": "t%d", "categories": ["H"]}' % i
            for i in range(1, 8)
        )
        + "]}"
    )
    pred_ucca = normalize(parse_ucca_json(empty_line)[0])
    gold_ud = convert_extended(parse_conllu(read_fixture("graduation_ud.conllu"))[0])
    for row in fine_grained(gold_ucca, pred_ucca, gold_ud):
        if row.relation in ("obl",):
            assert row.match_pred == 0
            assert row.labeled_f1 == 0.0 and row.unlabeled_f1 == 0.0


def test_fine_grained_labeled_never_exceeds_unlabeled():
    for name in ("graduation_ucca.jsonl", "graduation_pred_relabel.jsonl"):
        for row in fine_rows(name).values():
            assert row.labeled_correct <= row.unlabeled_correct
            assert row.labeled_f1 <= row.unlabeled_f1 + 1e-12
            assert row.match_gold <= row.total_in_ud or row.relation == "(none)"


def test_fine_grained_buckets_reconcile_with_corpus_totals():
    # Summed labeled_correct over all buckets (the "(none)" row included)
    # equals the top-category intersection of gold and prediction; without
    # it the sum can only be smaller.
    from synsem.normalization import top_category_index

    gold_ucca = normalize(parse_ucca_json(read_fixture("graduation_ucca.jsonl"))[0])
    pred_ucca = normalize(parse_ucca_json(read_fixture("graduation_pred_relabel.jsonl"))[0])
    gold_ud = convert_extended(parse_conllu(read_fixture("graduation_ud.conllu"))[0])
    rows = fine_grained(gold_ucca, pred_ucca, gold_ud)
    gold_index = top_category_index(gold_ucca)
    pred_index = top_category_index(pred_ucca)
    top_level_correct = sum(
        1
        for y, label in gold_index.items()
        if pred_index.get(y) == label and label.render() != "ROOT"
    )
    total = sum(r.labeled_correct for r in rows)
    named_only = sum(r.labeled_correct for r in rows if r.relation != "(none)")
    assert total == top_level_correct
    assert named_only <= top_level_correct


def test_fine_grained_mode_matches_confusion_matrix():
    from synsem.alignment import align_sentence, confusion_matrix

    gold_ucca = normalize(parse_ucca_json(read_fixture("graduation_ucca.jsonl"))[0])
    gold_ud = convert_extended(parse_conllu(read_fixture("graduation_ud.conllu"))[0])
    matrix = confusion_matrix([align_sentence(gold_ud, gold_ucca)])
    for row in fine_grained(gold_ucca, gold_ucca, gold_ud):
        if row.relation == "(none)":
            continue
        cells = {c: n for (r, c), n in matrix.cells.items() if r == row.relation}
        assert row.mode_baseline_pct == pytest.approx(
            100 * max(cells.values()) / sum(cells.values())
        )


def test_corpus_scorer_accumulates_across_sentences():
    scorer = FineGrainedScorer()
    gold_ucca = normalize(parse_ucca_json(read_fixture("graduation_ucca.jsonl"))[0])
    gold_ud = convert_extended(parse_conllu(read_fixture("graduation_ud.conllu"))[0])
    scorer.add(gold_ucca, gold_ucca, gold_ud)
    scorer.add(gold_ucca, gold_ucca, gold_ud)
    rows = {row.relation: row for row in scorer.rows()}
    assert rows["obl"].total_in_ud == 4
    assert rows["obl"].match_gold == 2
    assert rows["obl"].avg_words == 2.0


def test_render_report_sorting_and_format():
    rows = fine_rows("graduation_pred_relabel.jsonl")
    text = render_report(list(rows.values()), sort="labeled_f1", fmt="tsv")
    lines = text.splitlines()
    assert lines[0].split("\t")[0] == "relation"
    order = [line.split("\t")[0] for line in lines[1:]]
    # Perfect buckets first (ties broken lexicographically), the perturbed
    # obl bucket last.
    assert order == ["(none)", "case", "head", "nsubj", "obl"]
    obl_line = next(line for line in lines if line.startswith("obl"))
    cells = obl_line.split("\t")
    assert cells[6] == "0.0"  # labeled f1 as percentage, one decimal
    assert cells[7] == "100.0"
    assert cells[10] == "2.0"  # average words, one decimal

    by_relation = render_report(list(rows.values()), sort="relation", fmt="tsv")
    names = [line.split("\t")[0] for line in by_relation.splitlines()[1:]]
    assert names == sorted(names)


def test_render_report_empty_rows_gives_header_only():
    text = render_report([], fmt="tsv")
    assert text.splitlines() == [
        "relation\ttotal_in_ud\tmatch_gold\tmatch_pred\tlabeled_correct\t"
        "unlabeled_correct\tlabeled_f1\tunlabeled_f1\t"
        "labeled_over_unlabeled_pct\tmode_baseline_pct\tavg_words"
    ]


def test_render_report_markdown_and_json_mirror_fields():
    rows = list(fine_rows("graduation_ucca.jsonl").values())
    md = render_report(rows, fmt="md")
    assert md.splitlines()[0].startswith("| relation |")
    payload = [row.as_dict() for row in rows]
    assert [r["relation"] for r in payload] == [
        line.split("\t")[0] for line in render_report(rows, sort="relation").splitlines()[1:]
    ]
    assert set(payload[0]) == {
        "relation", "total_in_ud", "match_gold", "match_pred",
        "labeled_correct", "unlabeled_correct", "labeled_f1", "unlabeled_f1",
        "labeled_over_unlabeled_pct", "mode_baseline_pct", "avg_words",
    }
