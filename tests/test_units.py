"""The per-sentence unit arrays that confusion, stats and evaluate fold over.

Each adapter's top-category index is checked against the brute-force
oracle over the DAG that convert_extended or normalize builds; each fold
step is checked to leave no cyclic garbage; and the CLI and all_yields
are run on chains far deeper than the recursion limit.
"""

import gc
import random
import sys

import pytest

from synsem.alignment import (ConfusionMatrix, SentenceAlignment, StatsAccumulator,
                              align_sentence, align_units)
from synsem.cli import _align_pair, _evaluate_pair, main
from synsem.evaluation import EVAL_ROWS, FineGrainedScorer
from synsem.model import (NON_TERMINAL, PRE_TERMINAL, CategorySet, Edge, EvalCounts, Node,
                          SentenceUnits, StructureError, Terminal, UnifiedDAG, all_yields,
                          mask_tokens)
from synsem.normalization import graph_units, normalize
from synsem.treebanks import UCCAGraph, UCCAToken, parse_conllu, parse_ucca_json
from synsem.ud_conversion import convert_extended, tree_units

from helpers import (load_bench_corpora, make_graph, make_tree, oracle_top_index, oracle_yield,
                     random_tree, random_unified_ucca, read_fixture)

# (name, predicted graphs): the gold graphs stand in where no prediction exists.
FIXTURE_PAIRS = [("graduation", "graduation_pred_relabel.jsonl"),
                 ("coordination", "coordination_ucca.jsonl"),
                 ("linkage", "linkage_ucca.jsonl"), ("mini", "mini_ucca.jsonl")]


def rendered(units: SentenceUnits) -> dict:
    return {mask_tokens(y): label.render() for y, label in units.index().items()}


def as_graph(dag, flag_punct: bool) -> UCCAGraph:
    """A normalized-style DAG back as parser output. Without flag_punct the
    tokens carry no punct flag, so only U-labeled edges mark punctuation."""
    tokens = tuple(UCCAToken(t.form, flag_punct and t.is_punct) for t in dag.terminals)
    node_ids = tuple(n.id for n in dag.nodes if not n.is_pre_terminal)
    return UCCAGraph(dag.sentence_id, tokens, node_ids, dag.edges, dag.root)


def test_tree_units_index_equals_oracle():
    rng = random.Random(2401)
    for _ in range(1000):
        tree = random_tree(rng, mwe_rate=0.25)
        assert rendered(tree_units(tree)) == oracle_top_index(convert_extended(tree)), tree


def test_tree_units_ignore_mwe_relation_of_the_root_token():
    tree = make_tree([("a", 0, "flat"), ("b", 1, "fixed"), ("c", 1, "cc"), ("d", 3, "conj")])
    assert rendered(tree_units(tree)) == oracle_top_index(convert_extended(tree))


def test_graph_units_index_equals_oracle():
    rng = random.Random(2402)
    for case in range(1000):
        graph = as_graph(random_unified_ucca(rng), flag_punct=case % 2 == 0)
        assert rendered(graph_units(graph)) == oracle_top_index(normalize(graph)), graph
    for name in ("graduation", "coordination", "linkage", "mini"):
        for graph in parse_ucca_json(read_fixture(f"{name}_ucca.jsonl")):
            assert rendered(graph_units(graph)) == oracle_top_index(normalize(graph))


def oracle_scene_counts(ud_dag, ucca_dag, matched) -> tuple[int, int, int, int]:
    """(predicates, predicates inside a matched scene, scenes, matched scenes
    holding a predicate head), testing every head against every scene."""
    heads = []
    for node in ud_dag.nodes:
        child_edges = [e for e in ud_dag.edges if e.parent == node.id and not e.remote]
        if any(e.label.render() in {"ccomp", "csubj", "iobj", "nsubj", "obj", "obl", "xcomp"}
               for e in child_edges):
            head = next(oracle_yield(ud_dag, e.child, True) for e in child_edges
                        if "head" in e.label.categories)
            if head:
                heads.append(head)
    scenes = {
        oracle_yield(ucca_dag, node.id, True)
        for node in ucca_dag.nodes
        if any(e.parent == node.id and not e.remote and "A" in e.label.categories
               for e in ucca_dag.edges)
    } - {frozenset()}
    matched_scenes = scenes & matched
    return (len(heads), sum(any(h <= y for y in matched_scenes) for h in heads),
            len(scenes), sum(any(h <= y for h in heads) for y in matched_scenes))


def test_stats_scene_counts_equal_all_pairs_oracle():
    # Joined MWEs give multi-token heads, which a scene may hold only in part.
    rng = random.Random(2403)
    for _ in range(600):
        tree = random_tree(rng, mwe_rate=0.35)
        ud_dag = convert_extended(tree)
        ucca_dag = random_unified_ucca(rng, forms=[t.form for t in tree.tokens])
        alignment = align_sentence(ud_dag, ucca_dag)
        stats = StatsAccumulator().add(alignment, ud_dag, ucca_dag)
        matched = {y for y, _, _ in alignment.matched}
        got = (stats.pred_total, stats.pred_matched, stats.scene_total, stats.scene_matched)
        assert got == oracle_scene_counts(ud_dag, ucca_dag, matched), tree


def test_stats_counts_every_matched_scene_above_a_head():
    # The only predicate head, w3, lies in two nested matched scenes; the
    # outer one's UD unit holds no argument, so only the inner head counts.
    tree = make_tree([("w1", 0, "root"), ("w2", 1, "advmod"), ("w3", 2, "amod"),
                      ("w4", 3, "nsubj")])
    graph = make_graph(["w1", "w2", "w3", "w4"], ["r", "outer", "inner"], [
        ("r", "t1", "H", False), ("r", "outer", "H", False),
        ("outer", "t2", "A", False), ("outer", "inner", "E", False),
        ("inner", "t3", "P", False), ("inner", "t4", "A", False),
    ])
    ud, ucca = tree_units(tree), graph_units(graph)
    stats = StatsAccumulator().add_units(align_units(ud, ucca), ud, ucca)
    assert (stats.pred_total, stats.pred_matched) == (1, 1)
    assert (stats.scene_total, stats.scene_matched) == (2, 2)


def test_stats_scene_must_hold_the_whole_head():
    # The predicate head is the joined "New York"; the matched scene given
    # to the public add holds "New" but not "York", so it does not count.
    tree = make_tree([("New", 0, "root"), ("York", 1, "flat"), ("won", 1, "nsubj")])
    graph = make_graph(["New", "York", "won"], ["r", "s"], [
        ("r", "s", "H", False), ("r", "t2", "D", False),
        ("s", "t1", "P", False), ("s", "t3", "A", False),
    ])
    ud_dag, ucca_dag = convert_extended(tree), normalize(graph)
    scene = frozenset({1, 3})
    label = CategorySet.of("H")
    alignment = SentenceAlignment("test", frozenset({(scene, label, label)}), frozenset(),
                                  frozenset())
    stats = StatsAccumulator().add(alignment, ud_dag, ucca_dag)
    got = (stats.pred_total, stats.pred_matched, stats.scene_total, stats.scene_matched)
    assert got == oracle_scene_counts(ud_dag, ucca_dag, {scene}) == (1, 0, 1, 0)


def _fold_fixtures():
    """Parse first, so that only the fold steps run in the checked window."""
    work = []
    for name, pred in FIXTURE_PAIRS:
        trees = parse_conllu(read_fixture(f"{name}_ud.conllu"))
        gold = parse_ucca_json(read_fixture(f"{name}_ucca.jsonl"))
        work.extend(zip(trees, gold, parse_ucca_json(read_fixture(pred)), strict=True))
    return work


def test_fold_steps_leave_no_cyclic_garbage():
    work = _fold_fixtures()
    matrix, stats, scorer = ConfusionMatrix(), StatsAccumulator(), FineGrainedScorer()
    totals = dict.fromkeys(EVAL_ROWS, EvalCounts())
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for tree, gold, pred in work:
            matrix.add(_align_pair(tree, gold)[0])
            stats.add_units(*_align_pair(tree, gold))
            _evaluate_pair(totals, scorer, gold, pred, tree)
        found = gc.collect()
        garbage = len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert (found, garbage) == (0, 0)
    assert matrix.cells and scorer.buckets


def test_head_chain_deeper_than_recursion_limit(tmp_path):
    corpora = load_bench_corpora()
    n_tokens = 1500
    assert n_tokens > sys.getrecursionlimit()
    ud, graph = tmp_path / "chain.conllu", tmp_path / "chain.jsonl"
    ud.write_text(corpora.head_chain_conllu(n_tokens), encoding="utf-8")
    graph.write_text(corpora.head_chain_graph(n_tokens), encoding="utf-8")
    out = str(tmp_path / "out")
    assert main(["confusion", "--ud", str(ud), "--ucca", str(graph), "--out", out]) == 0
    assert main(["stats", "--ud", str(ud), "--ucca", str(graph), "--out", out]) == 0
    assert main(["evaluate", "--gold", str(graph), "--pred", str(graph), "--ud", str(ud),
                 "--fine-grained", "--out", out]) == 0


def test_all_yields_walks_deep_chains_and_reports_cycles():
    n = 3 * sys.getrecursionlimit()
    label = CategorySet.of("A")
    nodes = [Node(f"n{k}", NON_TERMINAL) for k in range(n)] + [Node("p", PRE_TERMINAL, (1,))]
    edges = [Edge(f"n{k}", f"n{k + 1}", label) for k in range(n - 1)]
    edges.append(Edge(f"n{n - 1}", "p", label))
    chain = UnifiedDAG("chain", (Terminal(1, "w"),), nodes, edges, "n0")
    assert set(all_yields(chain).values()) == {frozenset({1})}

    cyclic = UnifiedDAG("cyc", (Terminal(1, "w"),), (
        Node("r", NON_TERMINAL), Node("a", NON_TERMINAL), Node("b", NON_TERMINAL),
        Node("t1", PRE_TERMINAL, (1,)),
    ), (Edge("r", "t1", label), Edge("a", "b", label), Edge("b", "a", label)), "r")
    with pytest.raises(StructureError, match="primary-cycle"):
        all_yields(cyclic)
