import pytest

from synsem.model import CategorySet, Edge, StructureError, UnifiedDAG
from synsem.normalization import normalize
from synsem.treebanks import (
    ParseError,
    UCCAGraph,
    SentencePairs,
    UCCAToken,
    parse_conllu,
    parse_ucca_json,
    read_unified,
    write_unified,
)
from synsem.ud_conversion import convert_extended

from helpers import read_fixture


def rels(tree):
    return {(t.head, t.index): t.deprel for t in tree.tokens}


def test_parse_conllu_graduation_block():
    tree = parse_conllu(read_fixture("graduation_ud.conllu"))[0]
    assert tree.sentence_id == "after-graduation"
    assert [t.form for t in tree.tokens] == [
        "After", "graduation", ",", "John", "moved", "to", "Paris",
    ]
    assert rels(tree) == {
        (2, 1): "case",
        (5, 2): "obl",
        (5, 3): "punct",
        (5, 4): "nsubj",
        (0, 5): "root",
        (7, 6): "case",
        (5, 7): "obl",
    }
    assert tree.token(3).is_punct
    assert not tree.token(4).is_punct


def test_parse_conllu_single_token():
    tree = parse_conllu("1\tHi\thi\tINTJ\tUH\t_\t0\troot\t_\t_\n")[0]
    assert len(tree.tokens) == 1
    assert tree.token(1).head == 0


def test_parse_conllu_sentence_counter_ids():
    text = (
        "1\tHi\t_\t_\t_\t_\t0\troot\t_\t_\n\n"
        "1\tBye\t_\t_\t_\t_\t0\troot\t_\t_\n"
    )
    trees = parse_conllu(text)
    assert [t.sentence_id for t in trees] == ["1", "2"]


def test_parse_conllu_head_out_of_range_names_line():
    text = "1\ta\t_\t_\t_\t_\t2\tdet\t_\t_\n2\tb\t_\t_\t_\t_\t99\troot\t_\t_\n"
    # Token 2 holds head 0 nowhere: make token 2 the root but keep head 99 on
    # it; the parser must name line 2.
    with pytest.raises(ParseError, match="no root"):
        parse_conllu(text)
    text = (
        "1\ta\t_\t_\t_\t_\t0\troot\t_\t_\n"
        "2\tb\t_\t_\t_\t_\t99\tdet\t_\t_\n"
    )
    with pytest.raises(ParseError, match="head out of range, line 2"):
        parse_conllu(text)


def test_parse_conllu_rejects_bad_column_count():
    with pytest.raises(ParseError, match="columns.*line 1"):
        parse_conllu("1\ta\tb\n")


def test_parse_conllu_rejects_non_integer_head():
    text = "1\ta\t_\t_\t_\t_\tx\troot\t_\t_\n"
    with pytest.raises(ParseError, match="non-integer head.*line 1"):
        parse_conllu(text)


def test_parse_conllu_rejects_multiple_roots():
    text = (
        "1\ta\t_\t_\t_\t_\t0\troot\t_\t_\n"
        "2\tb\t_\t_\t_\t_\t0\troot\t_\t_\n"
    )
    with pytest.raises(ParseError, match="multiple roots, line 2"):
        parse_conllu(text)


def test_parse_conllu_detects_head_cycle():
    text = (
        "1\ta\t_\t_\t_\t_\t2\tdet\t_\t_\n"
        "2\tb\t_\t_\t_\t_\t1\tdet\t_\t_\n"
        "3\tc\t_\t_\t_\t_\t0\troot\t_\t_\n"
    )
    with pytest.raises(ParseError, match="head cycle, sentence 1"):
        parse_conllu(text)


def test_parse_conllu_skips_mwt_ranges_and_empty_nodes():
    text = (
        "1-2\tdon't\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "1\tdo\tdo\tAUX\t_\t_\t3\taux\t_\t_\n"
        "2\tn't\tnot\tPART\t_\t_\t3\tadvmod\t_\t_\n"
        "3\tgo\tgo\tVERB\t_\t_\t0\troot\t_\t_\n"
        "3.1\telided\t_\t_\t_\t_\t_\t_\t_\t_\n"
    )
    tree = parse_conllu(text)[0]
    assert [t.form for t in tree.tokens] == ["do", "n't", "go"]


def test_parse_conllu_ignores_enhanced_deps_column():
    bare = read_fixture("graduation_ud.conllu")
    filled_lines = []
    for line in bare.splitlines():
        if line.startswith("#") or not line.strip():
            filled_lines.append(line)
            continue
        cols = line.split("\t")
        cols[8] = f"{cols[6]}:{cols[7]}"
        filled_lines.append("\t".join(cols))
    assert parse_conllu(bare) == parse_conllu("\n".join(filled_lines) + "\n")


def test_parse_ucca_graduation_graph():
    graph = parse_ucca_json(read_fixture("graduation_ucca.jsonl"))[0]
    assert graph.root == "root"
    rendered = {(e.parent, e.child, e.label.render(), e.remote) for e in graph.edges}
    assert ("root", "t1", "L", False) in rendered
    assert ("s1", "t2", "P", False) in rendered
    assert ("s2", "pp", "A", False) in rendered
    assert ("pp", "t7", "C", False) in rendered
    assert ("s1", "t4", "A", True) in rendered
    assert len(graph.edges) == 11


def test_parse_ucca_single_token_graph():
    line = (
        '{"id": "x", "tokens": [{"text": "Hi", "punct": false}],'
        ' "nodes": [{"id": "r"}],'
        ' "edges": [{"parent": "r", "child": "t1", "categories": ["H"],'
        ' "remote": false}]}'
    )
    graph = parse_ucca_json(line)[0]
    assert graph.root == "r"
    assert graph.edges[0].label == CategorySet.of("H")


def test_parse_ucca_rejects_multiple_primary_parents():
    line = (
        '{"id": "x", "tokens": [{"text": "a"}],'
        ' "nodes": [{"id": "r"}, {"id": "7"}, {"id": "8"}],'
        ' "edges": ['
        '{"parent": "r", "child": "7", "categories": ["H"], "remote": false},'
        '{"parent": "r", "child": "8", "categories": ["H"], "remote": false},'
        '{"parent": "8", "child": "7", "categories": ["C"], "remote": false},'
        '{"parent": "7", "child": "t1", "categories": ["C"], "remote": false}]}'
    )
    with pytest.raises(ParseError, match="multiple primary parents: 7"):
        parse_ucca_json(line)


def test_parse_ucca_rejects_dangling_reference():
    line = (
        '{"id": "x", "tokens": [{"text": "a"}], "nodes": [{"id": "r"}],'
        ' "edges": [{"parent": "r", "child": "ghost", "categories": ["H"]}]}'
    )
    with pytest.raises(ParseError, match="dangling node reference: ghost"):
        parse_ucca_json(line)


def test_parse_ucca_rejects_duplicate_and_reserved_ids():
    dup = '{"id": "x", "tokens": [], "nodes": [{"id": "a"}, {"id": "a"}], "edges": []}'
    with pytest.raises(ParseError, match="duplicate node id: a"):
        parse_ucca_json(dup)
    reserved = '{"id": "x", "tokens": [{"text": "a"}], "nodes": [{"id": "t1"}], "edges": []}'
    with pytest.raises(ParseError, match="collides with terminal references"):
        parse_ucca_json(reserved)


def test_parse_ucca_rejects_primary_cycle():
    line = (
        '{"id": "x", "tokens": [{"text": "a"}],'
        ' "nodes": [{"id": "r"}, {"id": "u"}, {"id": "v"}],'
        ' "edges": ['
        '{"parent": "r", "child": "t1", "categories": ["H"]},'
        '{"parent": "u", "child": "v", "categories": ["C"]},'
        '{"parent": "v", "child": "u", "categories": ["C"]}]}'
    )
    with pytest.raises(ParseError, match="primary cycle, sentence x"):
        parse_ucca_json(line)


def test_parse_ucca_rejects_missing_root():
    line = (
        '{"id": "x", "tokens": [{"text": "a"}],'
        ' "nodes": [{"id": "u"}, {"id": "v"}],'
        ' "edges": ['
        '{"parent": "u", "child": "v", "categories": ["C"]},'
        '{"parent": "v", "child": "t1", "categories": ["C"]}]}'
    )
    # u has no incoming primary edge, so it is the only root candidate; drop
    # its own incoming and both u and a second node qualify.
    graph = parse_ucca_json(line)
    assert graph[0].root == "u"
    two_roots = (
        '{"id": "x", "tokens": [{"text": "a"}],'
        ' "nodes": [{"id": "u"}, {"id": "v"}],'
        ' "edges": [{"parent": "u", "child": "t1", "categories": ["C"]}]}'
    )
    with pytest.raises(ParseError, match="multiple root candidates"):
        parse_ucca_json(two_roots)


def test_write_then_read_is_identity_on_fixtures():
    tree_dag = convert_extended(
        parse_conllu(read_fixture("graduation_ud.conllu"))[0]
    )
    ucca_dag = normalize(
        parse_ucca_json(read_fixture("graduation_ucca.jsonl"))[0], keep_remotes=True
    )
    for dag in (tree_dag, ucca_dag):
        assert read_unified(write_unified([dag])) == [dag]


def test_line_separator_in_token_survives_round_trip():
    text = read_fixture("u2028_ucca.jsonl")
    graph = parse_ucca_json(text)[0]
    assert graph.tokens[0].form == "Hello\u2028world"
    dag = normalize(graph)
    written = write_unified([dag])
    assert "\u2028" in written
    assert read_unified(written) == [dag]
    assert read_unified(written.split("\n")) == [dag]


def test_write_unified_empty_corpus():
    assert write_unified([]) == ""


def test_write_unified_refuses_broken_dag():
    from synsem.model import NON_TERMINAL, PRE_TERMINAL, Node, Terminal

    nodes = (
        Node("r", NON_TERMINAL),
        Node("a", NON_TERMINAL),
        Node("b", NON_TERMINAL),
        Node("t1", PRE_TERMINAL, (1,)),
    )
    edges = (
        Edge("r", "t1", CategorySet.of("H")),
        Edge("a", "b", CategorySet.of("H")),
        Edge("b", "a", CategorySet.of("H")),
    )
    dag = UnifiedDAG("cyc", (Terminal(1, "w"),), nodes, edges, "r")
    with pytest.raises(StructureError, match="primary-cycle"):
        write_unified([dag])


def test_pair_sentences_positional_and_by_id():
    graphs = parse_ucca_json(read_fixture("mini_ucca.jsonl"))
    trees = parse_conllu(read_fixture("mini_ud.conllu"))
    positional = list(SentencePairs(trees, graphs))
    assert [(t.sentence_id, g.sentence_id) for t, g in positional] == [
        ("after-graduation", "after-graduation"),
        ("unique-gifts", "unique-gifts"),
        ("from-the-moment", "from-the-moment"),
    ]
    by_id = list(SentencePairs(trees, list(reversed(graphs)), by="id"))
    assert positional == by_id


def test_pair_sentences_count_mismatch_is_hard_error():
    graphs = parse_ucca_json(read_fixture("mini_ucca.jsonl"))
    trees = parse_conllu(read_fixture("mini_ud.conllu"))
    with pytest.raises(ParseError, match="sentence count mismatch"):
        list(SentencePairs(trees[:2], graphs))


def test_pair_sentences_missing_id():
    graphs = parse_ucca_json(read_fixture("mini_ucca.jsonl"))
    trees = parse_conllu(read_fixture("mini_ud.conllu"))
    renamed = [UCCAGraph("other", g.tokens, g.node_ids, g.edges, g.root) for g in graphs[:1]]
    with pytest.raises(ParseError, match="missing from second corpus"):
        list(SentencePairs(trees, renamed + list(graphs[1:]), by="id"))


def test_pair_sentences_duplicate_id_in_first_corpus():
    graphs = parse_ucca_json(read_fixture("mini_ucca.jsonl"))
    trees = parse_conllu(read_fixture("mini_ud.conllu"))
    with pytest.raises(ParseError, match="duplicate sentence id: after-graduation"):
        list(SentencePairs([trees[0], trees[0]], graphs[:2], by="id"))
