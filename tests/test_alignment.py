import random

import pytest

from synsem.alignment import (
    AlignmentError,
    OverlapScore,
    StatsAccumulator,
    align_sentence,
    confusion_matrix,
    overlap_f1,
    render_matrix,
)
from synsem.normalization import normalize
from synsem.treebanks import parse_conllu, parse_ucca_json
from synsem.ud_conversion import convert_extended

from helpers import oracle_align, random_unified_ucca, read_fixture


def load_pair(ud_name, ucca_name):
    tree = parse_conllu(read_fixture(ud_name))[0]
    graph = parse_ucca_json(read_fixture(ucca_name))[0]
    return convert_extended(tree), normalize(graph)


def rendered(alignment):
    matched = {(y, u.render(), c.render()) for y, u, c in alignment.matched}
    only_ud = {(y, u.render()) for y, u in alignment.unmatched_ud}
    only_ucca = {(y, c.render()) for y, c in alignment.unmatched_ucca}
    return matched, only_ud, only_ucca


def fs(*indices):
    return frozenset(indices)


def test_align_two_scene_sentence_exact_sets():
    ud, ucca = load_pair("graduation_ud.conllu", "graduation_ucca.jsonl")
    matched, only_ud, only_ucca = rendered(align_sentence(ud, ucca))
    assert matched == {
        (fs(1), "case", "L"),
        (fs(2), "head", "H"),
        (fs(4), "nsubj", "A"),
        (fs(5), "head", "P"),
        (fs(6), "case", "R"),
        (fs(7), "head", "C"),
        (fs(6, 7), "obl", "A"),
    }
    assert only_ud == {(fs(1, 2), "obl")}
    assert only_ucca == {(fs(4, 5, 6, 7), "H")}


def test_align_coordination_exact_sets():
    ud, ucca = load_pair("coordination_ud.conllu", "coordination_ucca.jsonl")
    matched, only_ud, only_ucca = rendered(align_sentence(ud, ucca))
    assert matched == {
        (fs(1), "amod", "E"),
        (fs(2), "head", "C"),
        (fs(3), "cc", "N"),
        (fs(4), "conj", "C"),
    }
    assert only_ud == set()
    assert only_ucca == {(fs(2, 3, 4), "C")}


def test_align_linkage_exact_sets():
    ud, ucca = load_pair("linkage_ud.conllu", "linkage_ucca.jsonl")
    matched, only_ud, only_ucca = rendered(align_sentence(ud, ucca))
    assert matched == {
        (fs(1), "case", "R"),
        (fs(2), "det", "E"),
        (fs(3), "head", "C"),
        (fs(4, 5), "acl", "H"),
        (fs(4), "nsubj", "A"),
        (fs(5), "head", "P"),
        (fs(7), "nsubj", "A"),
        (fs(8), "head", "S"),
    }
    assert only_ud == {(fs(1, 2, 3, 4, 5), "obl")}
    assert only_ucca == {(fs(1, 2, 3), "L"), (fs(7, 8), "H")}


def test_align_matches_brute_force_oracle_on_fixtures():
    for ud_name, ucca_name in [
        ("graduation_ud.conllu", "graduation_ucca.jsonl"),
        ("coordination_ud.conllu", "coordination_ucca.jsonl"),
        ("linkage_ud.conllu", "linkage_ucca.jsonl"),
    ]:
        ud, ucca = load_pair(ud_name, ucca_name)
        assert rendered(align_sentence(ud, ucca)) == oracle_align(ud, ucca)


def test_self_alignment_has_no_unmatched_units():
    graph = parse_ucca_json(read_fixture("graduation_ucca.jsonl"))[0]
    dag = normalize(graph)
    alignment = align_sentence(dag, dag)
    assert not alignment.unmatched_ud
    assert not alignment.unmatched_ucca
    assert all(u == c for _, u, c in alignment.matched)


def test_align_rejects_token_mismatch():
    ud, _ = load_pair("graduation_ud.conllu", "graduation_ucca.jsonl")
    _, other = load_pair("coordination_ud.conllu", "coordination_ucca.jsonl")
    with pytest.raises(AlignmentError, match="after-graduation"):
        align_sentence(ud, other)


def mini_alignments(names=None):
    pairs = [
        ("graduation_ud.conllu", "graduation_ucca.jsonl"),
        ("coordination_ud.conllu", "coordination_ucca.jsonl"),
        ("linkage_ud.conllu", "linkage_ucca.jsonl"),
    ]
    if names is not None:
        pairs = [pairs[i] for i in names]
    out = []
    for ud_name, ucca_name in pairs:
        ud, ucca = load_pair(ud_name, ucca_name)
        out.append((align_sentence(ud, ucca), ud, ucca))
    return out


def test_confusion_matrix_two_sentence_corpus():
    matrix = confusion_matrix(a for a, _, _ in mini_alignments([0, 1]))
    assert matrix.cells[("case", "L")] == 1
    assert matrix.cells[("head", "H")] == 1
    assert matrix.cells[("nsubj", "A")] == 1
    assert matrix.cells[("head", "P")] == 1
    assert matrix.cells[("case", "R")] == 1
    assert matrix.cells[("head", "C")] == 2
    assert matrix.cells[("obl", "A")] == 1
    assert matrix.cells[("amod", "E")] == 1
    assert matrix.cells[("cc", "N")] == 1
    assert matrix.cells[("conj", "C")] == 1
    assert sum(matrix.cells.values()) == 11
    assert dict(matrix.no_match_ud) == {"obl": 1}
    assert dict(matrix.no_match_ucca) == {"H": 1, "C": 1}


def test_confusion_matrix_empty_corpus():
    matrix = confusion_matrix([])
    assert not matrix.cells and not matrix.no_match_ud and not matrix.no_match_ucca
    score = overlap_f1(matrix)
    assert score.f1 == 0.0 and score.n_ud == 0


def test_confusion_matrix_diagonal_on_self_alignment():
    dag = normalize(parse_ucca_json(read_fixture("linkage_ucca.jsonl"))[0])
    matrix = confusion_matrix([align_sentence(dag, dag)])
    assert all(r == c for r, c in matrix.cells)
    assert not matrix.no_match_ud and not matrix.no_match_ucca


def test_matrix_merge_is_order_insensitive():
    alignments = [a for a, _, _ in mini_alignments()]
    forward = confusion_matrix(alignments)
    backward = confusion_matrix(reversed(alignments))
    assert forward == backward
    assert confusion_matrix(alignments[1:]).add(alignments[0]) == forward


def test_overlap_f1_reported_corpus_counts():
    score = OverlapScore.from_counts(n_ud=58992, n_ucca=60434, n_common=52280)
    assert abs(100 * score.f1 - 87.6) <= 0.05
    assert score.precision == 52280 / 58992
    assert score.recall == 52280 / 60434


def test_overlap_f1_perfect_and_zero():
    assert OverlapScore.from_counts(10, 10, 10).f1 == 1.0
    assert OverlapScore.from_counts(10, 10, 0).f1 == 0.0
    assert OverlapScore.from_counts(0, 0, 0).precision == 0.0


def test_overlap_f1_equals_closed_form():
    matrix = confusion_matrix(a for a, _, _ in mini_alignments())
    score = overlap_f1(matrix)
    assert score.f1 == pytest.approx(
        2 * score.n_common / (score.n_ud + score.n_ucca)
    )
    assert (score.n_ud, score.n_ucca, score.n_common) == (21, 23, 19)


def stats_report(results):
    stats = StatsAccumulator()
    for alignment, ud_dag, ucca_dag in results:
        stats.add(alignment, ud_dag, ucca_dag)
    return stats.report()


def test_aggregate_stats_mini_corpus_argument_shares():
    results = mini_alignments([0])
    report = stats_report(results)
    # Three argument units (nsubj John, obl to-Paris, obl After-graduation);
    # two match a Participant. Both Participant units match arguments.
    assert (report.argument_to_participant.numerator,
            report.argument_to_participant.denominator) == (2, 3)
    assert (report.participant_to_argument.numerator,
            report.participant_to_argument.denominator) == (2, 2)
    assert not report.argument_to_participant.undefined


def test_aggregate_stats_zero_denominators_flagged():
    report = StatsAccumulator().report()
    for _, ratio in report.rows():
        assert ratio.undefined
        assert ratio.value == 0.0
    assert "undefined" in report.render()


def test_aggregate_stats_head_breakdown():
    results = mini_alignments()
    report = stats_report(results)
    # Heads across the three fixtures: 7 matched units, all P/S/H/C.
    assert (report.head_semantic.numerator, report.head_semantic.denominator) == (7, 7)
    assert report.head_unmatched.numerator == 0
    assert report.head_other.numerator == 0


def test_aggregate_stats_scene_and_predicate_shares():
    results = mini_alignments()
    report = stats_report(results)
    # Scenes (units with a Participant child) per fixture: one in the first
    # (the remote is gone after normalization), none in the second, two in
    # the third. Matched scene yields: only {you enter} from the third.
    assert report.scene_to_predicate.denominator == 3
    assert report.scene_to_predicate.numerator == 1
    # Predicates: moved (first), enter and know (third); enter's unit yield
    # {you enter} is a matched scene containing its head word.
    assert report.predicate_to_scene.denominator == 3
    assert report.predicate_to_scene.numerator == 1


def test_matrix_tsv_layout():
    matrix = confusion_matrix(a for a, _, _ in mini_alignments())
    text = render_matrix(matrix, "tsv")
    lines = text.splitlines()
    header = lines[0].split("\t")
    assert header[0] == ""
    assert header[1:] == sorted(header[1:-1]) + ["No Match"]
    rows = [line.split("\t")[0] for line in lines[1:]]
    assert rows == ["acl", "amod", "case", "cc", "conj", "det", "nsubj", "obl",
                    "head", "No Match"]
    obl_row = dict(zip(header, lines[rows.index("obl") + 1].split("\t")))
    assert obl_row["A"] == "1"
    assert obl_row["No Match"] == "2"
    assert obl_row["H"] == ""  # zero cells are empty strings


def test_matrix_markdown_mirrors_tsv_content():
    matrix = confusion_matrix(a for a, _, _ in mini_alignments())
    md = render_matrix(matrix, "md")
    tsv = render_matrix(matrix, "tsv")
    md_cells = [
        [c.strip() for c in line.strip("|").split("|")]
        for line in md.splitlines()
        if not set(line) <= {"|", "-", " "}
    ]
    tsv_cells = [line.split("\t") for line in tsv.splitlines()]
    assert md_cells[0][1:] == tsv_cells[0][1:]
    assert md_cells[1:] == tsv_cells[1:]


def test_random_self_alignment_property():
    rng = random.Random(7)
    for _ in range(50):
        dag = random_unified_ucca(rng)
        alignment = align_sentence(dag, dag)
        assert not alignment.unmatched_ud
        assert not alignment.unmatched_ucca
