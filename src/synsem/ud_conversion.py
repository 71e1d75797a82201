"""Rewriting dependency trees into the shared unit format.

The basic conversion wraps every token in a pre-terminal and introduces
one non-terminal per head token: the head attaches to its own unit with
the synthetic label "head", dependents attach with their relation. Two
extensions remove known convention differences between the schemes:
multiword expressions connected by flat/fixed/goeswith collapse into a
single pre-terminal, and conjunctions move out of their conjunct to
sibling position.
"""

from __future__ import annotations

from typing import Sequence

from .model import (
    HEAD,
    NON_TERMINAL,
    PRE_TERMINAL,
    CategorySet,
    Edge,
    Node,
    Terminal,
    UnifiedDAG,
)
from .treebanks import UDToken, UDTree, base_relation

#: The universal relations (v2 taxonomy).
UNIVERSAL_RELATIONS = frozenset(
    {
        "acl", "advcl", "advmod", "amod", "appos", "aux", "case", "cc",
        "ccomp", "clf", "compound", "conj", "cop", "csubj", "dep", "det",
        "discourse", "dislocated", "expl", "fixed", "flat", "goeswith",
        "iobj", "list", "mark", "nmod", "nsubj", "nummod", "obj", "obl",
        "orphan", "parataxis", "punct", "reparandum", "root", "vocative",
        "xcomp",
    }
)

#: Relations whose dependents are parts of one unanalyzable expression.
MWE_RELATIONS = frozenset({"flat", "fixed", "goeswith"})

#: Core and oblique argument relations.
ARGUMENT_RELATIONS = frozenset({"ccomp", "csubj", "iobj", "nsubj", "obj", "obl", "xcomp"})

#: Relations dropped from alignment counting: root always matches the whole
#: sentence, punctuation is ignored, the rest are either unspecified, parts
#: of unanalyzable units, or too rare to matter.
EXCLUDED_RELATIONS = frozenset(
    {"root", "punct", "dep", "orphan", "fixed", "flat", "goeswith",
     "reparandum", "dislocated"}
)


def strip_subtypes(tree: UDTree) -> UDTree:
    """Truncate every relation at its first ":" (det:def becomes det)."""
    tokens = tuple(
        UDToken(t.index, t.form, base_relation(t.deprel), t.head, t.is_punct)
        for t in tree.tokens
    )
    return UDTree(tree.sentence_id, tokens)


def _pre_id(indices: Sequence[int]) -> str:
    return "t" + "+".join(str(i) for i in indices)


def convert_basic(tree: UDTree) -> UnifiedDAG:
    """Basic conversion of a dependency tree to a unified DAG.

    One pre-terminal per token; one non-terminal per token that has
    dependents, holding the head's pre-terminal via "head" and each
    dependent's unit via its relation. The yield of every created
    non-terminal equals the dependency yield of its head token. The dag
    root is a synthetic top holding the 0-headed token's unit via "head".
    """
    dependents: dict[int, list[int]] = {}
    root_token = 0
    for tok in tree.tokens:
        if tok.head == 0:
            root_token = tok.index
        else:
            dependents.setdefault(tok.head, []).append(tok.index)

    pre = {t.index: Node(_pre_id((t.index,)), PRE_TERMINAL, (t.index,)) for t in tree.tokens}
    non_terminal = {h: Node(f"n{h}", NON_TERMINAL) for h in dependents}

    def unit(i: int) -> Node:
        return non_terminal[i] if i in dependents else pre[i]

    top = Node("n0", NON_TERMINAL)
    nodes: list[Node] = [top]
    for tok in tree.tokens:
        if tok.index in non_terminal:
            nodes.append(non_terminal[tok.index])
        nodes.append(pre[tok.index])

    edges: list[Edge] = [Edge(top.id, unit(root_token).id, HEAD)]
    for head in sorted(dependents):
        parent = non_terminal[head]
        before = [d for d in dependents[head] if d < head]
        after = [d for d in dependents[head] if d > head]
        for dep in before:
            edges.append(Edge(parent.id, unit(dep).id, CategorySet.of(tree.token(dep).deprel)))
        edges.append(Edge(parent.id, pre[head].id, HEAD))
        for dep in after:
            edges.append(Edge(parent.id, unit(dep).id, CategorySet.of(tree.token(dep).deprel)))

    terminals = tuple(Terminal(t.index, t.form, t.is_punct) for t in tree.tokens)
    return UnifiedDAG(tree.sentence_id, terminals, tuple(nodes), tuple(edges), top.id)


def _mwe_groups(tree: UDTree) -> dict[int, list[int]]:
    """Connected components of flat/fixed/goeswith edges, keyed by chain head.

    The chain head is the one member whose own head lies outside the group.
    """
    parent = {t.index: t.index for t in tree.tokens}

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for tok in tree.tokens:
        if tok.head != 0 and base_relation(tok.deprel) in MWE_RELATIONS:
            parent[find(tok.index)] = find(tok.head)

    groups: dict[int, list[int]] = {}
    for tok in tree.tokens:
        groups.setdefault(find(tok.index), []).append(tok.index)
    result: dict[int, list[int]] = {}
    for members in groups.values():
        if len(members) < 2:
            continue
        member_set = set(members)
        chain_head = next(m for m in members if tree.token(m).head not in member_set)
        result[chain_head] = sorted(members)
    return result


def _wrapper_token(dag: UnifiedDAG, node: Node) -> int | None:
    """Token covered by a single-token pre-terminal, else None."""
    if node.is_pre_terminal and len(node.covered_terminals) == 1:
        return node.covered_terminals[0]
    return None


def _head_token_of_unit(dag: UnifiedDAG, node_id: str) -> int | None:
    """Token anchoring a basic-conversion non-terminal (via its head edge)."""
    for edge in dag.primary_children.get(node_id, ()):
        if edge.label == HEAD:
            child = dag.node_by_id[edge.child]
            if child.is_pre_terminal:
                return child.covered_terminals[0]
    return None


def join_mwes(dag: UnifiedDAG, tree: UDTree) -> UnifiedDAG:
    """Collapse flat/fixed/goeswith chains into single pre-terminals.

    The connecting edges disappear; non-terminals built for non-head chain
    members dissolve, and any other dependents they held re-attach to the
    chain head's non-terminal unchanged.
    """
    groups = _mwe_groups(tree)
    if not groups:
        return dag

    member_to_head = {m: h for h, members in groups.items() for m in members}
    nt_of: dict[int, str] = {}
    for node in dag.nodes:
        if not node.is_pre_terminal:
            head_token = _head_token_of_unit(dag, node.id)
            if head_token is not None:
                nt_of[head_token] = node.id

    dissolved = {
        nt_of[m]: m
        for m in member_to_head
        if m != member_to_head[m] and m in nt_of
    }
    joined = {
        h: Node(_pre_id(members), PRE_TERMINAL, tuple(members))
        for h, members in groups.items()
    }

    def remap_parent(node_id: str) -> str:
        if node_id in dissolved:
            return nt_of[member_to_head[dissolved[node_id]]]
        return node_id

    new_edges: list[Edge] = []
    for edge in dag.edges:
        child_node = dag.node_by_id[edge.child]
        child_token = _wrapper_token(dag, child_node)
        if edge.child in dissolved:
            continue  # the MWE edge into a dissolved unit
        if child_token in member_to_head:
            chain_head = member_to_head[child_token]
            if child_token == chain_head and edge.label == HEAD:
                new_edges.append(
                    Edge(remap_parent(edge.parent), joined[chain_head].id,
                         edge.label, edge.remote)
                )
            # Other edges into member pre-terminals are the MWE edges (or the
            # dissolved units' internal head edges): dropped.
            continue
        new_edges.append(
            Edge(remap_parent(edge.parent), edge.child, edge.label, edge.remote)
        )

    new_nodes: list[Node] = []
    for node in dag.nodes:
        if node.id in dissolved:
            continue
        token = _wrapper_token(dag, node)
        if token in member_to_head:
            if token == member_to_head[token]:
                new_nodes.append(joined[token])
            continue
        new_nodes.append(node)

    return UnifiedDAG(dag.sentence_id, dag.terminals, tuple(new_nodes),
                      tuple(new_edges), dag.root)


def _anchor_tokens(dag: UnifiedDAG, tree: UDTree) -> dict[str, int]:
    """Token anchoring each unit: chain head for pre-terminals, the lexical
    head for non-terminals (following head edges downward)."""
    anchors: dict[str, int] = {}
    for node in dag.nodes:
        if node.is_pre_terminal:
            covered = set(node.covered_terminals)
            anchors[node.id] = next(
                (i for i in node.covered_terminals if tree.token(i).head not in covered),
                node.covered_terminals[0],
            )

    def resolve(node_id: str) -> int | None:
        if node_id in anchors:
            return anchors[node_id]
        for edge in dag.primary_children.get(node_id, ()):
            if edge.label == HEAD:
                anchor = resolve(edge.child)
                if anchor is not None:
                    anchors[node_id] = anchor
                return anchor
        return None

    for node in dag.nodes:
        resolve(node.id)
    return anchors


_CC = CategorySet.of("cc")
_MARK = CategorySet.of("mark")


def promote_conjunctions(dag: UnifiedDAG, tree: UDTree) -> UnifiedDAG:
    """Move conjunctions out of their conjunct to sibling position.

    A cc-labeled unit whose head token is conj-attached, and a mark-labeled
    unit whose head token is advcl-attached, detach from the non-terminal
    built for that head token and re-attach one level up, immediately
    before the unit they came out of. Applying the operation twice equals
    applying it once: a unit already promoted no longer sits inside its
    head token's non-terminal.
    """
    anchors = _anchor_tokens(dag, tree)
    promotions: list[Edge] = []
    for edge in dag.edges:
        if edge.remote:
            continue
        if edge.label == _CC:
            required_head_rel = "conj"
        elif edge.label == _MARK:
            required_head_rel = "advcl"
        else:
            continue
        anchor = anchors.get(edge.child)
        if anchor is None:
            continue
        governor = tree.token(anchor).head
        if governor == 0:
            continue
        if base_relation(tree.token(governor).deprel) != required_head_rel:
            continue
        # Only promote out of the governor's own unit: this is what makes
        # the operation idempotent under nested coordination.
        if anchors.get(edge.parent) != governor:
            continue
        parent_node = dag.node_by_id[edge.parent]
        if parent_node.is_pre_terminal:
            continue
        promotions.append(edge)

    if not promotions:
        return dag

    edges = list(dag.edges)
    parent_edge = {e.child: e for e in edges if not e.remote}
    for edge in promotions:
        conjunct_edge = parent_edge.get(edge.parent)
        if conjunct_edge is None:
            continue  # conjunct unit is the dag root; nothing above it
        edges.remove(edge)
        raised = Edge(conjunct_edge.parent, edge.child, edge.label)
        edges.insert(edges.index(conjunct_edge), raised)
    return UnifiedDAG(dag.sentence_id, dag.terminals, dag.nodes, tuple(edges), dag.root)


def convert_extended(
    tree: UDTree, *, join_unanalyzable: bool = True, promote: bool = True
) -> UnifiedDAG:
    """Full pipeline: strip subtypes, convert, join MWEs, promote conjunctions."""
    stripped = strip_subtypes(tree)
    dag = convert_basic(stripped)
    if join_unanalyzable:
        dag = join_mwes(dag, stripped)
    if promote:
        dag = promote_conjunctions(dag, stripped)
    return dag
