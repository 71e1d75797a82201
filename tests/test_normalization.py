import pytest

from synsem.model import ROOT_SENTINEL, CategorySet, StructureError, all_yields, validate
from synsem.normalization import normalize, top_category_index
from synsem.treebanks import parse_conllu, parse_ucca_json
from synsem.ud_conversion import convert_extended

from helpers import make_graph, oracle_top_index, read_fixture


@pytest.fixture
def graduation_graph():
    return parse_ucca_json(read_fixture("graduation_ucca.jsonl"))[0]


def test_normalize_drops_remote_edges(graduation_graph):
    dag = normalize(graduation_graph)
    assert all(not e.remote for e in dag.edges)
    assert len(dag.edges) == 10  # 11 in the graph, one remote
    assert validate(dag) == []


def test_normalize_can_keep_remotes(graduation_graph):
    dag = normalize(graduation_graph, keep_remotes=True)
    remotes = [e for e in dag.edges if e.remote]
    assert [(e.parent, e.child) for e in remotes] == [("s1", "t4")]
    assert validate(dag) == []


def test_normalize_marks_punctuation_from_u_edges_and_tokens(graduation_graph):
    dag = normalize(graduation_graph)
    assert dag.node_by_id["t3"].is_pre_terminal
    assert dag.terminals[2].is_punct
    assert not dag.terminals[3].is_punct
    # U edge alone suffices even when the token flag is off.
    graph = make_graph(
        ["hm", "!"],
        ["r"],
        [("r", "t1", "H", False), ("r", "t2", "U", False)],
        punct_forms=(),
    )
    assert normalize(graph).terminals[1].is_punct


def test_normalize_is_fixed_point_on_remote_free_graphs():
    graph = parse_ucca_json(read_fixture("coordination_ucca.jsonl"))[0]
    dag = normalize(graph)
    again = normalize(graph, keep_remotes=True)
    assert dag == again  # no remotes to begin with


def test_normalize_rejects_remote_only_attachment():
    from synsem.model import Edge
    from synsem.treebanks import UCCAGraph, UCCAToken

    graph = UCCAGraph(
        "rem",
        (UCCAToken("a"), UCCAToken("b")),
        ("r", "u"),
        (
            Edge("r", "t1", CategorySet.of("H")),
            Edge("r", "t2", CategorySet.of("H")),
            Edge("r", "u", CategorySet.of("A"), remote=True),
        ),
        "r",
    )
    with pytest.raises(StructureError, match="unreachable by primary edges"):
        normalize(graph)


def test_top_category_prefers_node_nearest_root(graduation_graph):
    index = top_category_index(normalize(graduation_graph))
    # Both the scene unit and the pre-terminal cover {graduation}: the
    # scene's own label wins.
    assert index[frozenset({2})] == CategorySet.of("H")


def test_top_category_three_level_chain():
    # The chain sits beside a second token so its yield stays proper (the
    # whole-sentence yield would map to the sentinel instead).
    graph = make_graph(
        ["word", "more"],
        ["r", "outer", "mid", "inner"],
        [
            ("r", "outer", "E", False),
            ("outer", "mid", "C", False),
            ("mid", "inner", "C", False),
            ("inner", "t1", "C", False),
            ("r", "t2", "H", False),
        ],
    )
    index = top_category_index(normalize(graph))
    assert index[frozenset({1})] == CategorySet.of("E")


def test_top_category_identity_when_all_yields_distinct():
    graph = parse_ucca_json(read_fixture("linkage_ucca.jsonl"))[0]
    dag = normalize(graph)
    index = top_category_index(dag)
    # One entry per distinct non-empty punctuation-excluded yield.
    yields = set(all_yields(dag, exclude_punct=True).values())
    yields.discard(frozenset())
    assert set(index) == yields


def test_top_category_whole_sentence_maps_to_root_sentinel(graduation_graph):
    dag = normalize(graduation_graph)
    index = top_category_index(dag)
    assert index[frozenset({1, 2, 4, 5, 6, 7})] == ROOT_SENTINEL


def test_top_category_matches_oracle_on_fixtures():
    for name in ("graduation_ucca.jsonl", "coordination_ucca.jsonl", "linkage_ucca.jsonl"):
        dag = normalize(parse_ucca_json(read_fixture(name))[0])
        got = {y: label.render() for y, label in top_category_index(dag).items()}
        assert got == oracle_top_index(dag)
    for name in ("graduation_ud.conllu", "coordination_ud.conllu", "linkage_ud.conllu"):
        dag = convert_extended(parse_conllu(read_fixture(name))[0])
        got = {y: label.render() for y, label in top_category_index(dag).items()}
        assert got == oracle_top_index(dag)


def test_remote_removal_changes_no_index_entries(graduation_graph):
    with_remotes = top_category_index(normalize(graduation_graph, keep_remotes=True))
    without = top_category_index(normalize(graduation_graph))
    assert with_remotes == without
