"""Shared fixtures, hand-built structures, independent oracles, and random
corpus generators for the test suite.

The oracle functions deliberately re-derive everything from the raw edge
lists by brute force, without touching the library's cached traversals, so
they stay independent of the code paths they check.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path

from synsem.model import (
    NON_TERMINAL,
    PRE_TERMINAL,
    CategorySet,
    Edge,
    Node,
    Terminal,
    UnifiedDAG,
)
from synsem.treebanks import UCCAGraph, UCCAToken, UDToken, UDTree

FIXTURES = Path(__file__).parent / "fixtures"
ROOT = Path(__file__).resolve().parent.parent

EXCLUDED = {
    "root", "punct", "dep", "orphan", "fixed", "flat", "goeswith",
    "reparandum", "dislocated",
}

UCCA_CATEGORIES = ["A", "C", "D", "E", "F", "G", "H", "L", "N", "P", "Q", "R", "S", "T"]


def read_fixture(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def load_bench_corpora():
    """bench/corpora.py, the benchmark's stdlib-only corpus generator."""
    spec = importlib.util.spec_from_file_location("bench_corpora", ROOT / "bench" / "corpora.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def make_tree(rows: list[tuple[str, int, str]], sentence_id: str = "test") -> UDTree:
    """Build a UDTree from (form, head, deprel) rows."""
    tokens = tuple(
        UDToken(
            index=i,
            form=form,
            deprel=deprel,
            head=head,
            is_punct=deprel.split(":")[0] == "punct",
        )
        for i, (form, head, deprel) in enumerate(rows, 1)
    )
    return UDTree(sentence_id, tokens)


def make_graph(
    forms: list[str],
    node_ids: list[str],
    edge_rows: list[tuple[str, str, str, bool]],
    sentence_id: str = "test",
    punct_forms: tuple[str, ...] = (",", ".", "!", "?", ";", ":"),
) -> UCCAGraph:
    """Build a UCCAGraph from (parent, child, categories, remote) rows.

    Categories are given in rendered form ("A" or "A|P"); the root is the
    declared node with no incoming primary edge.
    """
    tokens = tuple(UCCAToken(form, form in punct_forms) for form in forms)
    edges = tuple(
        Edge(parent, child, CategorySet.parse(cats), remote)
        for parent, child, cats, remote in edge_rows
    )
    with_parent = {e.child for e in edges if not e.remote}
    roots = [nid for nid in node_ids if nid not in with_parent]
    assert len(roots) == 1, roots
    return UCCAGraph(sentence_id, tokens, tuple(node_ids), edges, roots[0])


# ---------------------------------------------------------------------------
# Brute-force oracles


def oracle_yield(dag: UnifiedDAG, node_id: str, exclude_punct: bool = False) -> frozenset[int]:
    """Reachability over primary edges, recomputed from the edge list."""
    punct = {t.index for t in dag.terminals if t.is_punct}
    kinds = {n.id: n for n in dag.nodes}
    result: set[int] = set()
    frontier = {node_id}
    visited = set()
    while frontier:
        current = frontier.pop()
        if current in visited:
            continue
        visited.add(current)
        node = kinds[current]
        if node.kind == PRE_TERMINAL:
            result.update(node.covered_terminals)
        frontier.update(e.child for e in dag.edges if not e.remote and e.parent == current)
    if exclude_punct:
        result -= punct
    return frozenset(result)


def oracle_depth(dag: UnifiedDAG, node_id: str) -> int:
    """Root distance by climbing primary parent links."""
    parents = {e.child: e.parent for e in dag.edges if not e.remote}
    depth = 0
    current = node_id
    while current != dag.root:
        current = parents[current]
        depth += 1
    return depth


def oracle_top_index(dag: UnifiedDAG) -> dict[frozenset[int], str]:
    """Yield -> rendered label of the node nearest the root, ROOT for the
    whole-sentence yield."""
    labels = {e.child: e.label.render() for e in dag.edges if not e.remote}
    best: dict[frozenset[int], tuple[int, str]] = {}
    for node in dag.nodes:
        y = oracle_yield(dag, node.id, exclude_punct=True)
        if not y:
            continue
        depth = oracle_depth(dag, node.id)
        if y not in best or depth < best[y][0]:
            label = "ROOT" if node.id == dag.root else labels[node.id]
            best[y] = (depth, label)
    return {y: label for y, (_, label) in best.items()}


def oracle_align(ud_dag: UnifiedDAG, ucca_dag: UnifiedDAG):
    """Independent alignment: returns (matched, unmatched_ud, unmatched_ucca)
    with rendered labels."""
    ud = {
        y: label
        for y, label in oracle_top_index(ud_dag).items()
        if label != "ROOT" and label not in EXCLUDED
    }
    ucca = {
        y: label for y, label in oracle_top_index(ucca_dag).items() if label != "ROOT"
    }
    matched = {(y, ud[y], ucca[y]) for y in set(ud) & set(ucca)}
    only_ud = {(y, ud[y]) for y in set(ud) - set(ucca)}
    only_ucca = {(y, ucca[y]) for y in set(ucca) - set(ud)}
    return matched, only_ud, only_ucca


def oracle_dependency_yield(tree: UDTree, token: int) -> frozenset[int]:
    """Transitive closure of the dependent relation, plus the token itself."""
    result = {token}
    changed = True
    while changed:
        changed = False
        for tok in tree.tokens:
            if tok.head in result and tok.index not in result:
                result.add(tok.index)
                changed = True
    return frozenset(result)


def oracle_mwe_groups(tree: UDTree) -> list[frozenset[int]]:
    """Connected components over flat/fixed/goeswith edges, brute force."""
    links = [
        (tok.head, tok.index)
        for tok in tree.tokens
        if tok.head and tok.deprel.split(":")[0] in {"flat", "fixed", "goeswith"}
    ]
    groups: list[set[int]] = []
    for a, b in links:
        touching = [g for g in groups if a in g or b in g]
        merged = {a, b}.union(*touching) if touching else {a, b}
        groups = [g for g in groups if g not in touching]
        groups.append(merged)
    return [frozenset(g) for g in groups if len(g) >= 2]


# ---------------------------------------------------------------------------
# Random corpus generators (seeded, deterministic)

_DEPRELS = [
    "nsubj", "obj", "iobj", "obl", "advmod", "amod", "det", "case", "nmod",
    "conj", "cc", "mark", "advcl", "acl", "compound", "aux", "cop", "xcomp",
    "ccomp", "punct", "nummod", "appos",
]
_SUBTYPED = ["obl:tmod", "acl:relcl", "nmod:poss", "cc:preconj", "det:def"]
_MWE = ["flat", "fixed", "goeswith"]


def random_tree(
    rng: random.Random,
    max_tokens: int = 9,
    mwe_rate: float = 0.0,
    subtype_rate: float = 0.15,
) -> UDTree:
    """A random dependency tree with a single root and no cycles."""
    n = rng.randint(1, max_tokens)
    order = list(range(1, n + 1))
    rng.shuffle(order)
    heads = {order[0]: 0}
    for pos in range(1, n):
        heads[order[pos]] = order[rng.randrange(pos)]
    rows = []
    for i in range(1, n + 1):
        if heads[i] == 0:
            deprel = "root"
        elif mwe_rate and rng.random() < mwe_rate:
            deprel = rng.choice(_MWE)
        elif rng.random() < subtype_rate:
            deprel = rng.choice(_SUBTYPED)
        else:
            deprel = rng.choice(_DEPRELS)
        rows.append((f"w{i}", heads[i], deprel))
    return make_tree(rows, sentence_id=f"rand-{rng.randrange(10**6)}")


def random_unified_ucca(
    rng: random.Random, forms: list[str] | None = None, remote_rate: float = 0.4
) -> UnifiedDAG:
    """A random normalized-style DAG: primary tree over non-terminals with
    every terminal wrapped, plus occasional remote edges."""
    if forms is None:
        n = rng.randint(1, 8)
        forms = [f"w{i}" for i in range(1, n + 1)]
        if rng.random() < 0.4:
            forms[-1] = "."
    n = len(forms)
    terminals = tuple(
        Terminal(i, form, form in {",", "."}) for i, form in enumerate(forms, 1)
    )
    n_units = rng.randint(1, max(1, n // 2 + 1))
    unit_ids = [f"u{j}" for j in range(n_units)]
    nodes = [Node(uid, NON_TERMINAL) for uid in unit_ids]
    nodes.extend(Node(f"t{i}", PRE_TERMINAL, (i,)) for i in range(1, n + 1))
    edges = []
    for j in range(1, n_units):
        parent = unit_ids[rng.randrange(j)]
        edges.append(Edge(parent, unit_ids[j], CategorySet.of(rng.choice("HAECD"))))
    for i in range(1, n + 1):
        parent = unit_ids[rng.randrange(n_units)]
        label = "U" if terminals[i - 1].is_punct else rng.choice(UCCA_CATEGORIES)
        edges.append(Edge(parent, f"t{i}", CategorySet.of(label)))
    dag = UnifiedDAG(f"rand-{rng.randrange(10**6)}", terminals, tuple(nodes),
                     tuple(edges), unit_ids[0])
    if rng.random() < remote_rate and n_units >= 1:
        ancestors: dict[str, set[str]] = {}
        parents = {e.child: e.parent for e in edges}
        for nid in [node.id for node in nodes]:
            chain = set()
            current = nid
            while current in parents:
                current = parents[current]
                chain.add(current)
            ancestors[nid] = chain
        parent = rng.choice(unit_ids)
        # A remote parent -> child is safe iff child is not an ancestor of
        # parent (no cycle) and does not duplicate the primary edge.
        candidates = [
            node.id
            for node in nodes
            if node.id != parent
            and node.id not in ancestors[parent]
            and parents.get(node.id) != parent
        ]
        if candidates:
            child = rng.choice(candidates)
            edges = list(dag.edges)
            edges.append(Edge(parent, child, CategorySet.of(rng.choice("AP")), remote=True))
            dag = UnifiedDAG(dag.sentence_id, terminals, dag.nodes, tuple(edges),
                             dag.root)
    return dag
