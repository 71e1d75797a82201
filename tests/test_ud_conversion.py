import pytest

from synsem.model import (
    HEAD,
    NON_TERMINAL,
    PRE_TERMINAL,
    CategorySet,
    Edge,
    Node,
    Terminal,
    UnifiedDAG,
    all_yields,
    same_structure,
    validate,
)
from synsem.treebanks import parse_conllu
from synsem.ud_conversion import (
    ARGUMENT_RELATIONS,
    EXCLUDED_RELATIONS,
    MWE_RELATIONS,
    UNIVERSAL_RELATIONS,
    convert_basic,
    convert_extended,
    join_mwes,
    promote_conjunctions,
    strip_subtypes,
)

from helpers import make_tree, oracle_dependency_yield, read_fixture


def edge_set(dag):
    return {(e.parent, e.child, e.label.render()) for e in dag.edges}


def test_relation_inventory_contents():
    assert len(UNIVERSAL_RELATIONS) == 37
    assert MWE_RELATIONS == {"flat", "fixed", "goeswith"}
    assert ARGUMENT_RELATIONS == {"ccomp", "csubj", "iobj", "nsubj", "obj", "obl", "xcomp"}
    assert EXCLUDED_RELATIONS == {
        "root", "punct", "dep", "orphan", "fixed", "flat", "goeswith",
        "reparandum", "dislocated",
    }
    assert MWE_RELATIONS < UNIVERSAL_RELATIONS
    assert EXCLUDED_RELATIONS < UNIVERSAL_RELATIONS | {"root"}


@pytest.mark.parametrize(
    "deprel,expected",
    [("det:def", "det"), ("nsubj", "nsubj"), ("obl:tmod:foo", "obl")],
)
def test_strip_subtypes(deprel, expected):
    tree = make_tree([("a", 0, "root"), ("b", 1, deprel)])
    stripped = strip_subtypes(tree)
    assert stripped.token(2).deprel == expected
    assert stripped.token(1).deprel == "root"
    assert [t.form for t in stripped.tokens] == ["a", "b"]


def test_convert_basic_reproduces_graduation_golden():
    tree = parse_conllu(read_fixture("graduation_ud.conllu"))[0]
    dag = convert_basic(strip_subtypes(tree))
    expected = graduation_edge_set()
    assert edge_set(dag) == expected
    assert dag.root == "n0"
    assert validate(dag) == []


def graduation_edge_set():
    return {
        ("n0", "n5", "head"),
        ("n2", "t1", "case"),
        ("n2", "t2", "head"),
        ("n5", "n2", "obl"),
        ("n5", "t3", "punct"),
        ("n5", "t4", "nsubj"),
        ("n5", "t5", "head"),
        ("n5", "n7", "obl"),
        ("n7", "t6", "case"),
        ("n7", "t7", "head"),
    }


def test_convert_basic_single_token_sentence():
    dag = convert_basic(make_tree([("Hi", 0, "root")]))
    assert edge_set(dag) == {("n0", "t1", "head")}
    assert dag.root == "n0"
    assert all_yields(dag)["n0"] == frozenset({1})


def test_convert_basic_yields_equal_dependency_yields():
    tree = parse_conllu(read_fixture("linkage_ud.conllu"))[0]
    dag = convert_basic(strip_subtypes(tree))
    yields = all_yields(dag)
    heads = {token.head for token in tree.tokens}
    for token in tree.tokens:
        if token.index in heads:
            assert yields[f"n{token.index}"] == oracle_dependency_yield(
                tree, token.index
            )


def test_join_mwes_two_token_name():
    tree = make_tree(
        [("visit", 0, "root"), ("Peking", 1, "obj"), ("Garden", 2, "flat")]
    )
    dag = join_mwes(convert_basic(tree), tree)
    pre = [n for n in dag.nodes if n.is_pre_terminal]
    assert sorted(n.covered_terminals for n in pre) == [(1,), (2, 3)]
    # The chain head's non-terminal is kept, now holding the joined unit.
    assert ("n1", "n2", "obj") in edge_set(dag)
    assert ("n2", "t2+3", "head") in edge_set(dag)
    assert not any(label == "flat" for _, _, label in edge_set(dag))
    assert validate(dag) == []
    assert all_yields(dag)["n2"] == frozenset({2, 3})


def test_join_mwes_goeswith_pair():
    tree = make_tree([("went", 0, "root"), ("out", 1, "compound"), ("side", 2, "goeswith")])
    dag = join_mwes(convert_basic(tree), tree)
    covered = sorted(n.covered_terminals for n in dag.nodes if n.is_pre_terminal)
    assert covered == [(1,), (2, 3)]


def test_join_mwes_nested_chain_drops_two_pre_terminals():
    tree = make_tree(
        [
            ("saw", 0, "root"),
            ("New", 1, "obj"),
            ("York", 2, "flat"),
            ("City", 2, "flat"),
        ]
    )
    basic = convert_basic(tree)
    joined = join_mwes(basic, tree)
    n_pre_before = sum(1 for n in basic.nodes if n.is_pre_terminal)
    n_pre_after = sum(1 for n in joined.nodes if n.is_pre_terminal)
    assert n_pre_before - n_pre_after == 2
    assert any(n.covered_terminals == (2, 3, 4) for n in joined.nodes)
    assert validate(joined) == []


def test_join_mwes_reattaches_outside_dependents():
    # "Peking Garden here": adverb attached to the chain's non-head member
    # must survive under the joined unit's non-terminal.
    tree = make_tree(
        [
            ("visit", 0, "root"),
            ("Peking", 1, "obj"),
            ("Garden", 2, "flat"),
            ("here", 3, "advmod"),
        ]
    )
    dag = join_mwes(convert_basic(tree), tree)
    assert ("n2", "t4", "advmod") in edge_set(dag)
    assert ("n2", "t2+3", "head") in edge_set(dag)
    assert validate(dag) == []
    assert all_yields(dag)["n2"] == frozenset({2, 3, 4})


def test_join_mwes_only_decreases_node_count():
    tree = parse_conllu(read_fixture("graduation_ud.conllu"))[0]
    basic = convert_basic(strip_subtypes(tree))
    assert join_mwes(basic, strip_subtypes(tree)) == basic  # no MWEs: unchanged


def test_promote_cc_between_conjuncts():
    tree = make_tree([("John", 0, "root"), ("and", 3, "cc"), ("Mary", 1, "conj")])
    basic = convert_basic(tree)
    assert ("n3", "t2", "cc") in edge_set(basic)
    promoted = promote_conjunctions(basic, tree)
    assert ("n1", "t2", "cc") in edge_set(promoted)
    assert ("n3", "t2", "cc") not in edge_set(promoted)
    # Placed immediately before the conjunct it came out of.
    labels = [e.label.render() for e in promoted.edges if e.parent == "n1"]
    assert labels.index("cc") == labels.index("conj") - 1
    assert all_yields(promoted)["n3"] == frozenset({3})
    assert validate(promoted) == []


def test_promote_mark_under_advcl():
    # "After arriving home , John went to sleep"
    tree = make_tree(
        [
            ("After", 2, "mark"),
            ("arriving", 6, "advcl"),
            ("home", 2, "advmod"),
            (",", 6, "punct"),
            ("John", 6, "nsubj"),
            ("went", 0, "root"),
            ("to", 8, "case"),
            ("sleep", 6, "obl"),
        ]
    )
    promoted = promote_conjunctions(convert_basic(tree), tree)
    assert ("n6", "t1", "mark") in edge_set(promoted)
    assert all_yields(promoted)["n2"] == frozenset({2, 3})
    assert validate(promoted) == []


def test_mark_not_promoted_without_advcl_governor():
    # infinitive marker under an obl governor stays put
    tree = make_tree(
        [("went", 0, "root"), ("to", 3, "mark"), ("sleep", 1, "obl")]
    )
    dag = convert_basic(tree)
    assert promote_conjunctions(dag, tree) == dag


def test_sentence_initial_cc_not_promoted():
    tree = make_tree([("But", 2, "cc"), ("go", 0, "root")])
    dag = convert_basic(tree)
    assert promote_conjunctions(dag, tree) == dag


def test_promotion_fixed_point_without_conjunctions():
    tree = parse_conllu(read_fixture("graduation_ud.conllu"))[0]
    dag = convert_basic(strip_subtypes(tree))
    assert promote_conjunctions(dag, strip_subtypes(tree)) == dag


def test_promotion_idempotent_on_nested_coordination():
    # "either A or both B and C" skeleton: conj under conj, cc in each.
    tree = make_tree(
        [
            ("A", 0, "root"),
            ("or", 3, "cc"),
            ("B", 1, "conj"),
            ("and", 5, "cc"),
            ("C", 3, "conj"),
        ]
    )
    once = promote_conjunctions(convert_basic(tree), tree)
    twice = promote_conjunctions(once, tree)
    assert once == twice
    assert ("n1", "t2", "cc") in edge_set(once)  # "or" raised to the top unit
    assert ("n3", "t4", "cc") in edge_set(once)  # "and" raised one level only
    assert validate(once) == []


def test_convert_extended_coordination_fixture():
    tree = parse_conllu(read_fixture("coordination_ud.conllu"))[0]
    dag = convert_extended(tree)
    assert edge_set(dag) == {
        ("n0", "n2", "head"),
        ("n2", "t1", "amod"),
        ("n2", "t2", "head"),
        ("n2", "t3", "cc"),
        ("n2", "n4", "conj"),
        ("n4", "t4", "head"),
    }
    assert validate(dag) == []


def test_convert_extended_linkage_fixture():
    tree = parse_conllu(read_fixture("linkage_ud.conllu"))[0]
    dag = convert_extended(tree)
    assert all_yields(dag)["n3"] == frozenset({1, 2, 3, 4, 5})
    assert all_yields(dag)["n5"] == frozenset({4, 5})
    assert ("n3", "n5", "acl") in edge_set(dag)
    assert ("n8", "n3", "obl") in edge_set(dag)
    assert validate(dag) == []


def test_convert_extended_structure_equals_hand_built():
    tree = parse_conllu(read_fixture("graduation_ud.conllu"))[0]
    dag = convert_extended(tree)
    terminals = tuple(
        Terminal(i, f, p)
        for i, (f, p) in enumerate(
            [
                ("After", False), ("graduation", False), (",", True),
                ("John", False), ("moved", False), ("to", False), ("Paris", False),
            ],
            1,
        )
    )
    nodes = (
        Node("n0", NON_TERMINAL),
        Node("t1", PRE_TERMINAL, (1,)),
        Node("n2", NON_TERMINAL),
        Node("t2", PRE_TERMINAL, (2,)),
        Node("t3", PRE_TERMINAL, (3,)),
        Node("t4", PRE_TERMINAL, (4,)),
        Node("n5", NON_TERMINAL),
        Node("t5", PRE_TERMINAL, (5,)),
        Node("t6", PRE_TERMINAL, (6,)),
        Node("n7", NON_TERMINAL),
        Node("t7", PRE_TERMINAL, (7,)),
    )
    edges = (
        Edge("n0", "n5", HEAD),
        Edge("n2", "t1", CategorySet.of("case")),
        Edge("n2", "t2", HEAD),
        Edge("n5", "n2", CategorySet.of("obl")),
        Edge("n5", "t3", CategorySet.of("punct")),
        Edge("n5", "t4", CategorySet.of("nsubj")),
        Edge("n5", "t5", HEAD),
        Edge("n5", "n7", CategorySet.of("obl")),
        Edge("n7", "t6", CategorySet.of("case")),
        Edge("n7", "t7", HEAD),
    )
    expected = UnifiedDAG("after-graduation", terminals, nodes, edges, "n0")
    assert same_structure(dag, expected)


def test_extended_labels_are_head_or_universal():
    for name in ("graduation_ud.conllu", "coordination_ud.conllu", "linkage_ud.conllu"):
        dag = convert_extended(parse_conllu(read_fixture(name))[0])
        for edge in dag.edges:
            label = edge.label.render()
            assert label == "head" or (label in UNIVERSAL_RELATIONS and ":" not in label)


def test_token_conservation_through_extensions():
    tree = make_tree(
        [
            ("saw", 0, "root"),
            ("New", 1, "obj"),
            ("York", 2, "flat"),
            ("and", 5, "cc"),
            ("left", 1, "conj"),
        ]
    )
    dag = convert_extended(tree)
    covered = sorted(
        i for n in dag.nodes if n.is_pre_terminal for i in n.covered_terminals
    )
    assert covered == [1, 2, 3, 4, 5]
    assert validate(dag) == []
