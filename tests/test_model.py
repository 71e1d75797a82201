import pytest

from synsem.model import (
    NON_TERMINAL,
    PRE_TERMINAL,
    CategorySet,
    Edge,
    Node,
    StructureError,
    Terminal,
    UnifiedDAG,
    all_yields,
    canonicalize_ids,
    same_structure,
    validate,
)
from synsem.normalization import normalize
from synsem.treebanks import parse_conllu, parse_ucca_json
from synsem.ud_conversion import convert_extended

from helpers import oracle_yield, read_fixture


@pytest.fixture
def graduation_dag():
    tree = parse_conllu(read_fixture("graduation_ud.conllu"))[0]
    return convert_extended(tree)


@pytest.fixture
def graduation_graph():
    return parse_ucca_json(read_fixture("graduation_ucca.jsonl"))[0]


def test_category_set_canonical_order():
    assert CategorySet.of("P", "A").render() == "A|P"
    assert CategorySet.of("P", "A") == CategorySet.parse("A|P")


def test_category_set_rejects_empty_and_duplicates():
    with pytest.raises(ValueError):
        CategorySet.of()
    with pytest.raises(ValueError):
        CategorySet.of("A", "A")


def test_terminal_rejects_empty_form():
    with pytest.raises(ValueError):
        Terminal(1, "")


def test_node_coverage_rules():
    with pytest.raises(ValueError):
        Node("x", PRE_TERMINAL, ())
    with pytest.raises(ValueError):
        Node("x", NON_TERMINAL, (1,))


def test_edge_rejects_self_loop():
    with pytest.raises(ValueError):
        Edge("a", "a", CategorySet.of("H"))


def test_yield_of_non_terminal_over_two_tokens(graduation_dag):
    # The unit holding the first two tokens covers exactly those.
    assert all_yields(graduation_dag)["n2"] == frozenset({1, 2})


def test_yield_of_single_pre_terminal(graduation_dag):
    yields = all_yields(graduation_dag)
    for k in range(1, 8):
        assert yields[f"t{k}"] == frozenset({k})


def test_yield_excludes_punctuation(graduation_dag):
    assert all_yields(graduation_dag)["n5"] == frozenset({1, 2, 3, 4, 5, 6, 7})
    assert all_yields(graduation_dag, exclude_punct=True)["n5"] == frozenset({1, 2, 4, 5, 6, 7})


def test_remote_edges_never_contribute_to_yields(graduation_graph):
    with_remote = all_yields(normalize(graduation_graph, keep_remotes=True))
    without = all_yields(normalize(graduation_graph))
    # The remote Participant under the first scene adds nothing to it.
    assert with_remote["s1"] == frozenset({2})
    assert without["s1"] == frozenset({2})
    # The main scene is unaffected either way.
    assert with_remote["s2"] == frozenset({4, 5, 6, 7})
    assert with_remote == without


def test_yield_of_unknown_node_raises(graduation_dag):
    with pytest.raises(KeyError):
        all_yields(graduation_dag)["no-such-node"]


def test_yields_match_oracle_on_fixtures(graduation_dag, graduation_graph):
    dags = [graduation_dag, normalize(graduation_graph, keep_remotes=True)]
    for dag in dags:
        for exclude in (False, True):
            yields = all_yields(dag, exclude)
            for node in dag.nodes:
                assert yields[node.id] == oracle_yield(dag, node.id, exclude)


def test_validate_clean_fixture(graduation_dag):
    assert validate(graduation_dag) == []


def test_validate_reports_primary_cycle():
    terminals = (Terminal(1, "w"),)
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
    dag = UnifiedDAG("cyc", terminals, nodes, edges, "r")
    violations = validate(dag)
    assert [v.code for v in violations] == ["primary-cycle"]


def test_validate_reports_double_cover():
    terminals = tuple(Terminal(i, f"w{i}") for i in (1, 2, 3))
    nodes = (
        Node("r", NON_TERMINAL),
        Node("t1", PRE_TERMINAL, (1,)),
        Node("t2", PRE_TERMINAL, (2, 3)),
        Node("t3", PRE_TERMINAL, (3,)),
    )
    edges = tuple(Edge("r", f"t{i}", CategorySet.of("H")) for i in (1, 2, 3))
    dag = UnifiedDAG("dbl", terminals, nodes, edges, "r")
    violations = validate(dag)
    assert [v.code for v in violations] == ["double-cover"]
    assert "terminal 3" in violations[0].detail


def test_validate_reports_unreachable_pre_terminal():
    terminals = (Terminal(1, "w"),)
    nodes = (Node("r", NON_TERMINAL), Node("t1", PRE_TERMINAL, (1,)))
    dag = UnifiedDAG("orphan", terminals, nodes, (), "r")
    assert {v.code for v in validate(dag)} == {"unreachable"}


def test_validate_reports_uncovered_terminal():
    terminals = (Terminal(1, "w"), Terminal(2, "x"))
    nodes = (Node("r", NON_TERMINAL), Node("t1", PRE_TERMINAL, (1,)))
    edges = (Edge("r", "t1", CategorySet.of("H")),)
    dag = UnifiedDAG("gap", terminals, nodes, edges, "r")
    codes = {v.code for v in validate(dag)}
    assert codes == {"uncovered-terminal"}


def test_validate_reports_multiple_primary_parents():
    terminals = (Terminal(1, "w"),)
    nodes = (
        Node("r", NON_TERMINAL),
        Node("a", NON_TERMINAL),
        Node("t1", PRE_TERMINAL, (1,)),
    )
    edges = (
        Edge("r", "a", CategorySet.of("H")),
        Edge("r", "t1", CategorySet.of("C")),
        Edge("a", "t1", CategorySet.of("C")),
    )
    dag = UnifiedDAG("multi", terminals, nodes, edges, "r")
    codes = [v.code for v in validate(dag)]
    assert "multiple-primary-parent" in codes


def test_validate_reports_duplicate_primary_and_remote_edges():
    nodes = (Node("r", NON_TERMINAL), Node("a", NON_TERMINAL), Node("t1", PRE_TERMINAL, (1,)))
    h, r = CategorySet.of("H"), CategorySet.of("R")
    edges = (
        Edge("r", "a", h), Edge("a", "t1", h), Edge("r", "t1", r, remote=True),
        Edge("a", "t1", h), Edge("r", "t1", r, remote=True), Edge("r", "t1", h, remote=True),
    )
    dag = UnifiedDAG("dup", (Terminal(1, "w"),), nodes, edges, "r")
    assert [str(v) for v in validate(dag)] == [
        "duplicate-edge: a -> t1",
        "duplicate-edge: r -> t1",
        "multiple-primary-parent: t1 <- ['a', 'a']",
    ]


def test_validate_reports_dag_cycle_through_remote():
    terminals = (Terminal(1, "w"),)
    nodes = (
        Node("r", NON_TERMINAL),
        Node("a", NON_TERMINAL),
        Node("t1", PRE_TERMINAL, (1,)),
    )
    edges = (
        Edge("r", "a", CategorySet.of("H")),
        Edge("a", "t1", CategorySet.of("C")),
        Edge("a", "r", CategorySet.of("A"), remote=True),
    )
    dag = UnifiedDAG("remcyc", terminals, nodes, edges, "r")
    codes = [v.code for v in validate(dag)]
    assert "dag-cycle" in codes


def test_yield_monotonic_and_partitioned(graduation_dag, graduation_graph):
    for dag in (graduation_dag, normalize(graduation_graph)):
        yields = all_yields(dag)
        for edge in dag.edges:
            if edge.remote:
                continue
            assert yields[edge.child] <= yields[edge.parent]
        for node in dag.nodes:
            children = dag.primary_children.get(node.id, ())
            seen: set[int] = set()
            for edge in children:
                child_yield = yields[edge.child]
                assert not (seen & child_yield)
                seen |= child_yield


def test_root_yield_is_total(graduation_dag):
    assert all_yields(graduation_dag)[graduation_dag.root] == frozenset(range(1, 8))


def test_canonicalize_ids_is_stable_and_structure_preserving(graduation_dag):
    canon = canonicalize_ids(graduation_dag)
    assert validate(canon) == []
    assert canonicalize_ids(canon) == canon
    assert {n.kind for n in canon.nodes} == {n.kind for n in graduation_dag.nodes}
    assert len(canon.edges) == len(graduation_dag.edges)


def test_canonicalize_rejects_broken_dag():
    terminals = (Terminal(1, "w"),)
    nodes = (Node("r", NON_TERMINAL), Node("t1", PRE_TERMINAL, (1,)))
    dag = UnifiedDAG("bad", terminals, nodes, (), "r")
    with pytest.raises(StructureError):
        canonicalize_ids(dag)


def test_same_structure_ignores_order(graduation_dag):
    reordered = UnifiedDAG(
        graduation_dag.sentence_id,
        graduation_dag.terminals,
        tuple(reversed(graduation_dag.nodes)),
        tuple(reversed(graduation_dag.edges)),
        graduation_dag.root,
    )
    assert same_structure(graduation_dag, reordered)
