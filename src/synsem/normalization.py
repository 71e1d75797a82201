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
    ROOT_SENTINEL,
    CategorySet,
    Node,
    StructureError,
    Terminal,
    UnifiedDAG,
    all_yields,
    primary_depths,
)
from .treebanks import TERMINAL_REF, UCCAGraph

PUNCT_CATEGORY = "U"


def normalize(graph: UCCAGraph, *, keep_remotes: bool = False) -> UnifiedDAG:
    """Convert a semantic graph to a unified DAG.

    Remote edges are dropped unless keep_remotes is set (evaluation of
    reentrancy needs them intact); the primary structure is preserved
    verbatim. Raises StructureError when the primary edges do not form a
    tree covering every unit and terminal.
    """
    punct = set()
    for edge in graph.edges:
        if PUNCT_CATEGORY in edge.label:
            match = TERMINAL_REF.match(edge.child)
            if match:
                punct.add(int(match.group(1)))
    terminals = tuple(
        Terminal(i, tok.form, tok.punct or i in punct)
        for i, tok in enumerate(graph.tokens, 1)
    )

    nodes: list[Node] = [Node(nid, NON_TERMINAL) for nid in graph.node_ids]
    nodes.extend(
        Node(f"t{i}", PRE_TERMINAL, (i,)) for i in range(1, len(graph.tokens) + 1)
    )
    edges = graph.edges if keep_remotes else tuple(e for e in graph.edges if not e.remote)
    dag = UnifiedDAG(graph.sentence_id, terminals, tuple(nodes), edges, graph.root)

    reached = {dag.root}
    stack = [dag.root]
    while stack:
        for edge in dag.primary_children.get(stack.pop(), ()):
            if edge.child not in reached:
                reached.add(edge.child)
                stack.append(edge.child)
    unreachable = [node.id for node in dag.nodes if node.id not in reached]
    if unreachable:
        raise StructureError(
            f"unreachable by primary edges: {', '.join(unreachable)}, "
            f"sentence {graph.sentence_id}"
        )
    return dag


def top_category_index(dag: UnifiedDAG) -> dict[frozenset[int], CategorySet]:
    """Map each distinct punctuation-excluded yield to its topmost label.

    Among nodes sharing a yield, the one nearest the root wins; the
    whole-sentence yield (the root's) maps to the ROOT sentinel. Empty
    yields (punctuation-only units) are not indexed.
    """
    yields = all_yields(dag, exclude_punct=True)
    depths = primary_depths(dag)
    best: dict[frozenset[int], str] = {}
    for node in dag.nodes:
        y = yields[node.id]
        if not y:
            continue
        current = best.get(y)
        if current is None or depths[node.id] < depths[current]:
            best[y] = node.id
    index: dict[frozenset[int], CategorySet] = {}
    for y, node_id in best.items():
        if node_id == dag.root:
            index[y] = ROOT_SENTINEL
        else:
            index[y] = dag.primary_parent[node_id].label
    return index
