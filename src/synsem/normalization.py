"""Turning semantic graphs into unified DAGs, and indexing units by yield.

Normalization removes remote edges (reentrancy is deliberately not
compared), wraps every terminal in a pre-terminal, and marks punctuation:
a terminal is punctuation if its token says so or if it is attached by a
U-labeled edge.

When several nested units share a terminal yield (a chain of single-child
units), top_category_index keeps the one closest to the root, so each
distinct yield carries exactly one label per scheme.
"""

from __future__ import annotations

from .model import (
    NON_TERMINAL,
    PRE_TERMINAL,
    CategorySet,
    Node,
    SentenceUnits,
    StructureError,
    Terminal,
    UnifiedDAG,
    dag_units,
    mask_tokens,
    top_down,
)
from .treebanks import UCCAGraph

PUNCT_CATEGORY = "U"


def normalize(graph: UCCAGraph, *, keep_remotes: bool = False) -> UnifiedDAG:
    """Convert a semantic graph to a unified DAG.

    Remote edges are dropped unless keep_remotes is set (evaluation of
    reentrancy needs them intact); the primary structure is preserved
    verbatim. Raises StructureError when the primary edges do not form a
    tree covering every unit and terminal.
    """
    units = graph_units(graph)
    k = len(graph.node_ids)
    # A terminal's own mask is empty exactly when it is punctuation.
    terminals = tuple(
        Terminal(i, tok.form, not units.own[k + i - 1])
        for i, tok in enumerate(graph.tokens, 1)
    )
    nodes: list[Node] = [Node(nid, NON_TERMINAL) for nid in graph.node_ids]
    nodes.extend(
        Node(f"t{i}", PRE_TERMINAL, (i,)) for i in range(1, len(graph.tokens) + 1)
    )
    edges = graph.edges if keep_remotes else tuple(e for e in graph.edges if not e.remote)
    return UnifiedDAG(graph.sentence_id, terminals, tuple(nodes), edges, graph.root)


def graph_units(graph: UCCAGraph) -> SentenceUnits:
    """The unit arrays of normalize(graph, keep_remotes=True), without the DAG.

    Unit i < k is the i-th declared node, unit k+i-1 the pre-terminal of
    token i; parents come from the primary edges and remote edges are kept
    as a side list. A token is punctuation if it says so or if any edge,
    remote ones included, attaches it with a U label. Raises
    StructureError naming the units the root does not reach.
    """
    k = len(graph.node_ids)
    pos = {nid: i for i, nid in enumerate(graph.node_ids)}
    size = k + len(graph.tokens)
    parent = [-1] * size
    label: list = [None] * size
    punct = [tok.punct for tok in graph.tokens]
    remotes = []
    for edge in graph.edges:
        child = pos.get(edge.child)
        if child is None:  # a terminal reference "t<i>"
            child = k - 1 + int(edge.child[1:])
            if PUNCT_CATEGORY in edge.label.categories:
                punct[child - k] = True
        if edge.remote:
            remotes.append((child, edge.label))
        else:
            parent[child] = pos[edge.parent]
            label[child] = edge.label
    own = [0] * k
    own.extend(0 if is_punct else 1 << i for i, is_punct in enumerate(punct, 1))
    root = pos[graph.root]
    order = top_down(parent)
    reached = bytearray(size)
    reached[root] = 1
    for u in order:
        if parent[u] >= 0:
            reached[u] = reached[parent[u]]
    if not all(reached):
        ids = [*graph.node_ids, *(f"t{i}" for i in range(1, len(graph.tokens) + 1))]
        unreachable = ", ".join(ids[u] for u in range(size) if not reached[u])
        raise StructureError(
            f"unreachable by primary edges: {unreachable}, sentence {graph.sentence_id}"
        )
    forms = [tok.form for tok in graph.tokens]
    return SentenceUnits(graph.sentence_id, forms, parent, label, own, order, root, remotes)


def top_category_index(dag: UnifiedDAG) -> dict[frozenset[int], CategorySet]:
    """Map each distinct punctuation-excluded yield to its topmost label.

    Among nodes sharing a yield, the one nearest the root wins; the
    whole-sentence yield (the root's) maps to the ROOT sentinel. Empty
    yields (punctuation-only units) are not indexed.
    """
    return {mask_tokens(y): label for y, label in dag_units(dag).index().items()}
