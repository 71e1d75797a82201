"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The full-corpus reproduction (criterion 6) is optional and runs
only when SYNSEM_EWT_UD and SYNSEM_EWT_UCCA point to the externally
downloaded corpora.
"""

from __future__ import annotations

import os
import random
import time

import pytest

from synsem.alignment import (
    OverlapScore,
    align_sentence,
    confusion_matrix,
    overlap_f1,
)
from synsem.evaluation import evaluate_ucca, fine_grained
from synsem.model import (
    HEAD_LABEL,
    all_yields,
    canonicalize_ids,
    same_structure,
    validate,
)
from synsem.normalization import normalize
from synsem.treebanks import parse_conllu, parse_ucca_json, read_unified, write_unified
from synsem.ud_conversion import (
    convert_basic,
    convert_extended,
    join_mwes,
    promote_conjunctions,
    strip_subtypes,
)

from helpers import (
    EXCLUDED,
    make_tree,
    oracle_align,
    oracle_dependency_yield,
    oracle_mwe_groups,
    oracle_top_index,
    random_tree,
    random_unified_ucca,
    read_fixture,
)

N_CASES = 1000
PROPERTY_BUDGET_SECONDS = 30.0
_property_seconds: dict[str, float] = {}


def passed(line: str):
    print(f"ACCEPTANCE PASS: {line}")


@pytest.fixture
def timed(request):
    start = time.perf_counter()
    yield
    _property_seconds[request.node.name] = time.perf_counter() - start


def fixture_pairs():
    return [
        ("graduation_ud.conllu", "graduation_ucca.jsonl"),
        ("coordination_ud.conllu", "coordination_ucca.jsonl"),
        ("linkage_ud.conllu", "linkage_ucca.jsonl"),
    ]


# -----------------------------------------------------------------------
# Criterion 1: fixture conversion reproduces the hand-checked structures.


def test_criterion_1_fixture_conversion():
    start = time.perf_counter()

    tree = parse_conllu(read_fixture("graduation_ud.conllu"))[0]
    got = canonicalize_ids(convert_extended(tree))
    expected = canonicalize_ids(read_unified(read_fixture("graduation_unified.golden.jsonl"))[0])
    assert same_structure(got, expected)

    coordination = convert_extended(parse_conllu(read_fixture("coordination_ud.conllu"))[0])
    coordination_yields = all_yields(coordination)
    top_children = {
        (e.label.render(), coordination_yields[e.child])
        for e in coordination.primary_children["n2"]
    }
    assert top_children == {
        ("amod", frozenset({1})),
        ("head", frozenset({2})),
        ("cc", frozenset({3})),
        ("conj", frozenset({4})),
    }

    linkage = convert_extended(parse_conllu(read_fixture("linkage_ud.conllu"))[0])
    linkage_yields = all_yields(linkage)
    assert linkage_yields["n3"] == frozenset({1, 2, 3, 4, 5})
    assert linkage_yields["n5"] == frozenset({4, 5})
    assert any(
        e.label.render() == "acl" and e.parent == "n3" and e.child == "n5"
        for e in linkage.edges
    )
    for dag in (got, coordination, linkage):
        assert validate(dag) == []

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    passed(f"criterion 1: fixture conversions reproduce expected structures ({elapsed:.3f}s)")


# -----------------------------------------------------------------------
# Criterion 2: fixture alignment, checked against the enumeration
# oracle and the frozen expected sets.


def test_criterion_2_fixture_alignment():
    def fs(*indices):
        return frozenset(indices)

    expected_matched = {
        "after-graduation": {
            (fs(1), "case", "L"), (fs(2), "head", "H"), (fs(4), "nsubj", "A"),
            (fs(5), "head", "P"), (fs(6), "case", "R"), (fs(7), "head", "C"),
            (fs(6, 7), "obl", "A"),
        },
        "unique-gifts": {
            (fs(1), "amod", "E"), (fs(2), "head", "C"), (fs(3), "cc", "N"),
            (fs(4), "conj", "C"),
        },
        "from-the-moment": {
            (fs(1), "case", "R"), (fs(2), "det", "E"), (fs(3), "head", "C"),
            (fs(4, 5), "acl", "H"), (fs(4), "nsubj", "A"), (fs(5), "head", "P"),
            (fs(7), "nsubj", "A"), (fs(8), "head", "S"),
        },
    }
    expected_only_ud = {
        "after-graduation": {(fs(1, 2), "obl")},
        "unique-gifts": set(),
        "from-the-moment": {(fs(1, 2, 3, 4, 5), "obl")},
    }
    expected_only_ucca = {
        "after-graduation": {(fs(4, 5, 6, 7), "H")},
        "unique-gifts": {(fs(2, 3, 4), "C")},
        "from-the-moment": {(fs(1, 2, 3), "L"), (fs(7, 8), "H")},
    }

    for ud_name, ucca_name in fixture_pairs():
        ud = convert_extended(parse_conllu(read_fixture(ud_name))[0])
        ucca = normalize(parse_ucca_json(read_fixture(ucca_name))[0])
        alignment = align_sentence(ud, ucca)
        matched = {(y, u.render(), c.render()) for y, u, c in alignment.matched}
        only_ud = {(y, u.render()) for y, u in alignment.unmatched_ud}
        only_ucca = {(y, c.render()) for y, c in alignment.unmatched_ucca}
        sid = ud.sentence_id
        assert matched == expected_matched[sid], sid
        assert only_ud == expected_only_ud[sid], sid
        assert only_ucca == expected_only_ucca[sid], sid
        assert (matched, only_ud, only_ucca) == oracle_align(ud, ucca), sid

    passed("criterion 2: fixture alignment matches enumeration oracle exactly")


# -----------------------------------------------------------------------
# Criterion 3: the overlap formula reproduces the corpus-level score.


def test_criterion_3_overlap_formula():
    score = OverlapScore.from_counts(n_ud=58992, n_ucca=60434, n_common=52280)
    assert abs(100 * score.f1 - 87.6) <= 0.05
    passed(f"criterion 3: overlap F1 {100 * score.f1:.3f}% within 87.6 +- 0.05")


# -----------------------------------------------------------------------
# Criterion 4: randomized property suites, 1000 cases each, < 30 s total.


def test_property_yield_preservation(timed):
    rng = random.Random(101)
    for _ in range(N_CASES):
        tree = strip_subtypes(random_tree(rng))
        dag = convert_basic(tree)
        yields = all_yields(dag)
        for node in dag.nodes:
            if node.is_pre_terminal or node.id == dag.root:
                continue
            head_edge = next(
                e for e in dag.primary_children[node.id]
                if e.label.render() == HEAD_LABEL
            )
            anchor = dag.node_by_id[head_edge.child].covered_terminals[0]
            assert yields[node.id] == oracle_dependency_yield(tree, anchor)
    passed("criterion 4a: conversion preserves dependency yields (1000 trees)")


def test_property_promotion_idempotence(timed):
    rng = random.Random(202)
    for _ in range(N_CASES):
        tree = strip_subtypes(random_tree(rng))
        dag = join_mwes(convert_basic(tree), tree)
        once = promote_conjunctions(dag, tree)
        twice = promote_conjunctions(once, tree)
        assert once == twice
        assert validate(once) == []
    passed("criterion 4b: conjunction promotion is idempotent (1000 trees)")


def test_property_mwe_join_against_union_find(timed):
    rng = random.Random(303)
    for _ in range(N_CASES):
        tree = strip_subtypes(random_tree(rng, mwe_rate=0.35))
        basic = convert_basic(tree)
        joined = join_mwes(basic, tree)
        groups = {
            frozenset(n.covered_terminals)
            for n in joined.nodes
            if n.is_pre_terminal and len(n.covered_terminals) > 1
        }
        assert groups == set(oracle_mwe_groups(tree))
        covered = sorted(
            i for n in joined.nodes if n.is_pre_terminal for i in n.covered_terminals
        )
        assert covered == list(range(1, len(tree.tokens) + 1))
        assert len(joined.nodes) <= len(basic.nodes)
        assert validate(joined) == []
    passed("criterion 4c: unanalyzable-unit joining matches union-find oracle (1000 trees)")


def test_property_serialization_round_trip(timed):
    rng = random.Random(404)
    for case in range(N_CASES):
        if case % 2:
            dag = random_unified_ucca(rng)
        else:
            tree = strip_subtypes(random_tree(rng, mwe_rate=0.2))
            dag = join_mwes(convert_basic(tree), tree)
        assert read_unified(write_unified([dag])) == [dag]
    passed("criterion 4d: serialization round trip is identity (1000 graphs)")


def test_property_self_alignment(timed):
    rng = random.Random(505)
    for _ in range(N_CASES):
        dag = random_unified_ucca(rng)
        alignment = align_sentence(dag, dag)
        assert not alignment.unmatched_ud
        assert not alignment.unmatched_ucca
    passed("criterion 4e: self-alignment leaves nothing unmatched (1000 graphs)")


def test_property_identity_evaluation(timed):
    rng = random.Random(606)
    for _ in range(N_CASES):
        dag = random_unified_ucca(rng)
        for edge_class in ("primary", "remote"):
            for labeled in (True, False):
                counts = evaluate_ucca(dag, dag, labeled, edge_class)
                if counts.n_gold:
                    assert counts.f1 == 1.0
                    assert counts.precision == 1.0 and counts.recall == 1.0
    passed("criterion 4f: identity evaluation scores exactly 1.0 (1000 graphs)")


def _perturb(dag, rng):
    from synsem.model import CategorySet, Edge, UnifiedDAG

    from helpers import UCCA_CATEGORIES

    edges = []
    for edge in dag.edges:
        label = edge.label
        if rng.random() < 0.4:
            label = CategorySet.of(rng.choice(UCCA_CATEGORIES))
        edges.append(Edge(edge.parent, edge.child, label, edge.remote))
    return UnifiedDAG(dag.sentence_id, dag.terminals, dag.nodes, tuple(edges), dag.root)


def test_property_labeled_never_beats_unlabeled(timed):
    rng = random.Random(707)
    for _ in range(N_CASES):
        tree = strip_subtypes(random_tree(rng))
        ud = convert_basic(tree)
        forms = [t.form for t in tree.tokens]
        gold = random_unified_ucca(rng, forms=forms)
        pred = _perturb(gold, rng) if rng.random() < 0.7 else random_unified_ucca(rng, forms=forms)
        labeled = evaluate_ucca(gold, pred, True, "primary")
        unlabeled = evaluate_ucca(gold, pred, False, "primary")
        assert labeled.n_correct <= unlabeled.n_correct
        for row in fine_grained(gold, pred, ud):
            assert row.labeled_correct <= row.unlabeled_correct
            assert row.labeled_f1 <= row.unlabeled_f1 + 1e-12
    passed("criterion 4g: labeled counts never exceed unlabeled (1000 pairs)")


def test_property_matrix_order_invariance(timed):
    rng = random.Random(808)
    alignments = []
    for _ in range(N_CASES):
        tree = strip_subtypes(random_tree(rng))
        ud = convert_basic(tree)
        ucca = random_unified_ucca(rng, forms=[t.form for t in tree.tokens])
        alignments.append(align_sentence(ud, ucca))
    reference = confusion_matrix(alignments)
    shuffled = alignments[:]
    rng.shuffle(shuffled)
    assert confusion_matrix(shuffled) == reference
    passed("criterion 4h: matrix marginals invariant to sentence order (1000 pairs)")


def test_criterion_4_property_budget():
    suites = [name for name in _property_seconds if name.startswith("test_property_")]
    assert len(suites) == 8, suites
    total = sum(_property_seconds.values())
    assert total < PROPERTY_BUDGET_SECONDS
    passed(f"criterion 4: 8 property suites x {N_CASES} cases in {total:.1f}s < 30s")


# -----------------------------------------------------------------------
# Criterion 5: single-label perturbation, against a bucket oracle.


def _oracle_buckets(gold_ucca, pred_ucca, gold_ud):
    """Brute-force fine-grained enumeration, independent of the scorer."""
    ud = {
        y: label
        for y, label in oracle_top_index(gold_ud).items()
        if label != "ROOT" and label not in EXCLUDED
    }
    gold = {y: l for y, l in oracle_top_index(gold_ucca).items() if l != "ROOT"}
    pred = {y: l for y, l in oracle_top_index(pred_ucca).items() if l != "ROOT"}
    rows = {}
    relations = set(ud.values()) | {"(none)"}
    for relation in relations:
        if relation == "(none)":
            yields = (set(gold) | set(pred)) - set(ud)
        else:
            yields = {y for y, r in ud.items() if r == relation}
        match_gold = {y for y in yields if y in gold}
        match_pred = {y for y in yields if y in pred}
        unlabeled = match_gold & match_pred
        labeled = {y for y in unlabeled if gold[y] == pred[y]}
        rows[relation] = (
            len(yields) if relation != "(none)" else 0,
            len(match_gold),
            len(match_pred),
            len(labeled),
            len(unlabeled),
        )
    return rows


def test_criterion_5_fine_grained_perturbation():
    gold_ucca = normalize(parse_ucca_json(read_fixture("graduation_ucca.jsonl"))[0])
    pred_ucca = normalize(parse_ucca_json(read_fixture("graduation_pred_relabel.jsonl"))[0])
    gold_ud = convert_extended(parse_conllu(read_fixture("graduation_ud.conllu"))[0])

    rows = {row.relation: row for row in fine_grained(gold_ucca, pred_ucca, gold_ud)}
    obl = rows["obl"]
    assert obl.labeled_f1 == 0.0 and obl.unlabeled_f1 == 1.0
    for name, row in rows.items():
        if name == "obl":
            continue
        assert row.labeled_f1 == 1.0, name
        assert row.unlabeled_f1 == 1.0, name

    oracle = _oracle_buckets(gold_ucca, pred_ucca, gold_ud)
    assert set(oracle) == set(rows)
    for relation, expected in oracle.items():
        row = rows[relation]
        got = (row.total_in_ud, row.match_gold, row.match_pred,
               row.labeled_correct, row.unlabeled_correct)
        assert got == expected, relation

    passed("criterion 5: perturbation isolates the obl bucket; oracle agrees")


# -----------------------------------------------------------------------
# Criterion 6 (optional): full-corpus reproduction.

FULL_UD = os.environ.get("SYNSEM_EWT_UD")
FULL_UCCA = os.environ.get("SYNSEM_EWT_UCCA")


@pytest.mark.skipif(
    not (FULL_UD and FULL_UCCA),
    reason="full-corpus data not present; set SYNSEM_EWT_UD and SYNSEM_EWT_UCCA",
)
def test_criterion_6_full_corpus_reproduction():
    from pathlib import Path

    trees = parse_conllu(Path(FULL_UD).read_text(encoding="utf-8"))
    graphs = parse_ucca_json(Path(FULL_UCCA).read_text(encoding="utf-8"))
    assert len(trees) == len(graphs)
    alignments = [
        align_sentence(convert_extended(t), normalize(g))
        for t, g in zip(trees, graphs)
    ]
    matrix = confusion_matrix(alignments)
    spots = {("nsubj", "A"): 4296, ("head", "H"): 2462, ("case", "R"): 2629}
    for cell, target in spots.items():
        assert abs(matrix.cells[cell] - target) <= 0.02 * target, cell
    score = overlap_f1(matrix)
    assert abs(100 * score.f1 - 87.6) <= 0.5
    passed(f"criterion 6: full-corpus spot cells and F1 {100 * score.f1:.2f}%")
