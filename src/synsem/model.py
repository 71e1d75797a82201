"""Shared graph model: terminals, labeled DAGs, and terminal yields.

It also holds what the comparison and evaluation outputs share: the
token check on a sentence pair, P/R/F1 from counts, and the table
renderer.

Both annotation schemes are reduced to the same structure before any
comparison: every token is wrapped in a pre-terminal node, non-terminals
group nodes into units, and edges carry one or more category labels.
Primary edges form a tree rooted at a single node; remote edges add
reentrancy on top of the tree and never contribute to yields.

Yields are sets of token indices, not spans: units may be discontiguous
and nothing here assumes contiguity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

PRE_TERMINAL = "terminal-wrapper"
NON_TERMINAL = "non-terminal"

# Label of the edge that attaches a unit's own lexical head inside converted
# dependency trees. Never a real relation in either input scheme.
HEAD_LABEL = "head"

# Sentinel label assigned to the whole-sentence yield by top-category
# indexing. Consumers drop it: the root trivially covers every sentence.
ROOT_LABEL = "ROOT"


class StructureError(Exception):
    """A graph violates the structural contract of the unified format."""


@dataclass(frozen=True)
class Terminal:
    """One surface token: 1-based index, form, punctuation flag."""

    index: int
    form: str
    is_punct: bool = False

    def __post_init__(self):
        if self.index < 1:
            raise ValueError(f"terminal index must be >= 1, got {self.index}")
        if not self.form:
            raise ValueError(f"terminal {self.index} has an empty form")


@dataclass(frozen=True)
class CategorySet:
    """One or more edge labels, kept in canonical (lexicographic) order.

    Most edges carry a single label; multi-label edges (e.g. a unit that is
    both a Participant and a Process) render as "A|P".
    """

    categories: tuple[str, ...]

    def __post_init__(self):
        cats = tuple(sorted(self.categories))
        if not cats:
            raise ValueError("category set must contain at least one label")
        if len(set(cats)) != len(cats):
            raise ValueError(f"duplicate label in category set: {cats}")
        if any(not c for c in cats):
            raise ValueError("category labels must be non-empty")
        object.__setattr__(self, "categories", cats)

    @classmethod
    def of(cls, *categories: str) -> "CategorySet":
        return cls(tuple(categories))

    @classmethod
    def parse(cls, rendered: str) -> "CategorySet":
        return cls(tuple(rendered.split("|")))

    def render(self) -> str:
        return "|".join(self.categories)

    def __contains__(self, category: str) -> bool:
        return category in self.categories

    def __str__(self) -> str:
        return self.render()


HEAD = CategorySet.of(HEAD_LABEL)
ROOT_SENTINEL = CategorySet.of(ROOT_LABEL)


@dataclass(frozen=True)
class Node:
    """A unit in the graph.

    Pre-terminals cover one or more terminal indices (more than one only
    for joined unanalyzable expressions); non-terminals cover none directly
    and get their yields through primary descendants.
    """

    id: str
    kind: str
    covered_terminals: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in (PRE_TERMINAL, NON_TERMINAL):
            raise ValueError(f"unknown node kind: {self.kind!r}")
        object.__setattr__(self, "covered_terminals", tuple(self.covered_terminals))
        if self.kind == PRE_TERMINAL and not self.covered_terminals:
            raise ValueError(f"pre-terminal {self.id} covers no terminals")
        if self.kind == NON_TERMINAL and self.covered_terminals:
            raise ValueError(f"non-terminal {self.id} covers terminals directly")

    @property
    def is_pre_terminal(self) -> bool:
        return self.kind == PRE_TERMINAL


@dataclass(frozen=True)
class Edge:
    parent: str
    child: str
    label: CategorySet
    remote: bool = False

    def __post_init__(self):
        if self.parent == self.child:
            raise ValueError(f"self-loop on node {self.parent}")


@dataclass(frozen=True)
class Violation:
    """One failed structural invariant, naming the offending node or edge."""

    code: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code}: {self.detail}"


@dataclass(frozen=True)
class UnifiedDAG:
    """The shared post-conversion format both schemes are reduced to.

    Equality is exact (same ids, same node/edge order); use same_structure
    or canonicalize_ids for order- and id-insensitive comparison.
    """

    sentence_id: str
    terminals: tuple[Terminal, ...]
    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]
    root: str

    def __post_init__(self):
        object.__setattr__(self, "terminals", tuple(self.terminals))
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges", tuple(self.edges))
        for pos, term in enumerate(self.terminals, 1):
            if term.index != pos:
                raise ValueError(
                    f"terminal indices must be contiguous from 1, "
                    f"got {term.index} at position {pos}"
                )

    @cached_property
    def node_by_id(self) -> dict[str, Node]:
        return {node.id: node for node in self.nodes}

    @cached_property
    def primary_children(self) -> dict[str, tuple[Edge, ...]]:
        children: dict[str, list[Edge]] = {node.id: [] for node in self.nodes}
        for edge in self.edges:
            if not edge.remote and edge.parent in children:
                children[edge.parent].append(edge)
        return {nid: tuple(edges) for nid, edges in children.items()}

    @cached_property
    def primary_parent(self) -> dict[str, Edge]:
        # Assumes at most one primary parent per node; validate() reports
        # graphs where that does not hold.
        parents: dict[str, Edge] = {}
        for edge in self.edges:
            if not edge.remote:
                parents.setdefault(edge.child, edge)
        return parents

    @cached_property
    def punct_indices(self) -> frozenset[int]:
        return frozenset(t.index for t in self.terminals if t.is_punct)


def same_structure(a: UnifiedDAG, b: UnifiedDAG) -> bool:
    """Structural equality: terminals, node set, edge set and root.

    Ignores sentence ids and node/edge ordering; node ids still must match,
    so canonicalize both sides first when they come from different builders.
    """
    return (
        a.terminals == b.terminals
        and set(a.nodes) == set(b.nodes)
        and set(a.edges) == set(b.edges)
        and a.root == b.root
    )


def all_yields(dag: UnifiedDAG, exclude_punct: bool = False) -> dict[str, frozenset[int]]:
    """Yields of every node, computed in one bottom-up pass over the tree."""
    yields: dict[str, frozenset[int]] = {}
    punct = dag.punct_indices if exclude_punct else frozenset()

    def visit(node_id: str, on_path: set[str]) -> frozenset[int]:
        if node_id in yields:
            return yields[node_id]
        if node_id in on_path:
            raise StructureError(f"primary-cycle: reached {node_id} twice")
        on_path.add(node_id)
        node = dag.node_by_id[node_id]
        covered: set[int] = set(node.covered_terminals) - punct
        for edge in dag.primary_children.get(node_id, ()):
            covered |= visit(edge.child, on_path)
        on_path.discard(node_id)
        result = frozenset(covered)
        yields[node_id] = result
        return result

    for node in dag.nodes:
        visit(node.id, set())
    return yields


def primary_depths(dag: UnifiedDAG) -> dict[str, int]:
    """Distance of each node from the root along primary edges."""
    depths = {dag.root: 0}
    queue = [dag.root]
    while queue:
        current = queue.pop(0)
        for edge in dag.primary_children.get(current, ()):
            if edge.child not in depths:
                depths[edge.child] = depths[current] + 1
                queue.append(edge.child)
    return depths


def validate(dag: UnifiedDAG) -> list[Violation]:
    """Check every dag-level invariant; an empty list means the dag is valid.

    Violations are data, not exceptions: callers that must refuse broken
    input (e.g. serialization) raise on a non-empty result.
    """
    violations: list[Violation] = []
    ids = [node.id for node in dag.nodes]
    id_set = set(ids)
    if len(ids) != len(id_set):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        violations.append(Violation("duplicate-node", ", ".join(dupes)))

    if dag.root not in id_set:
        violations.append(Violation("root-missing", dag.root))
        return violations

    seen_edges: set[Edge] = set()
    primary_parents: dict[str, list[str]] = {}
    for edge in dag.edges:
        if edge.parent not in id_set or edge.child not in id_set:
            violations.append(
                Violation("dangling-edge", f"{edge.parent} -> {edge.child}")
            )
            continue
        if edge in seen_edges:
            violations.append(
                Violation("duplicate-edge", f"{edge.parent} -> {edge.child}")
            )
        seen_edges.add(edge)
        if not edge.remote:
            primary_parents.setdefault(edge.child, []).append(edge.parent)

    for child, parents in primary_parents.items():
        if len(parents) > 1:
            violations.append(
                Violation("multiple-primary-parent", f"{child} <- {sorted(parents)}")
            )
    if dag.root in primary_parents:
        violations.append(Violation("root-incoming", dag.root))

    # Reachability and cycles over primary edges.
    reached: set[str] = set()
    stack = [dag.root]
    while stack:
        current = stack.pop()
        if current in reached:
            continue
        reached.add(current)
        for edge in dag.edges:
            if not edge.remote and edge.parent == current and edge.child in id_set:
                stack.append(edge.child)

    cycle_nodes = _find_cycle(id_set, dag.edges, primary_only=True)
    if cycle_nodes:
        violations.append(Violation("primary-cycle", " -> ".join(cycle_nodes)))
    for node in dag.nodes:
        if node.id not in reached and node.id not in (cycle_nodes or ()):
            violations.append(Violation("unreachable", node.id))

    if not cycle_nodes:
        full_cycle = _find_cycle(id_set, dag.edges, primary_only=False)
        if full_cycle:
            violations.append(Violation("dag-cycle", " -> ".join(full_cycle)))

    coverage: dict[int, list[str]] = {}
    for node in dag.nodes:
        for index in node.covered_terminals:
            coverage.setdefault(index, []).append(node.id)
    for term in dag.terminals:
        owners = coverage.get(term.index, [])
        if not owners:
            violations.append(Violation("uncovered-terminal", str(term.index)))
        elif len(owners) > 1:
            violations.append(
                Violation(
                    "double-cover", f"terminal {term.index} <- {sorted(owners)}"
                )
            )
    for index in coverage:
        if index < 1 or index > len(dag.terminals):
            violations.append(Violation("covered-out-of-range", str(index)))

    return violations


def _find_cycle(
    ids: set[str], edges: Iterable[Edge], primary_only: bool
) -> list[str] | None:
    adjacency: dict[str, list[str]] = {i: [] for i in ids}
    for edge in edges:
        if primary_only and edge.remote:
            continue
        if edge.parent in adjacency and edge.child in ids:
            adjacency[edge.parent].append(edge.child)

    WHITE, GRAY, BLACK = 0, 1, 2
    color = dict.fromkeys(ids, WHITE)

    def dfs(start: str) -> list[str] | None:
        stack: list[tuple[str, Iterator[str]]] = [(start, iter(adjacency[start]))]
        color[start] = GRAY
        path = [start]
        while stack:
            node, children = stack[-1]
            advanced = False
            for child in children:
                if color[child] == GRAY:
                    return path[path.index(child):] + [child]
                if color[child] == WHITE:
                    color[child] = GRAY
                    path.append(child)
                    stack.append((child, iter(adjacency[child])))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                path.pop()
                stack.pop()
        return None

    for node_id in sorted(ids):
        if color[node_id] == WHITE:
            cycle = dfs(node_id)
            if cycle:
                return cycle
    return None


def canonicalize_ids(dag: UnifiedDAG) -> UnifiedDAG:
    """Relabel node ids deterministically for structure comparison.

    Non-terminals are numbered n0, n1, ... in breadth-first order over
    primary edges (edge order as stored); pre-terminals take their covered
    indices as id ("t3", or "t3+4" for joined units). Requires a valid dag.
    """
    problems = validate(dag)
    if problems:
        raise StructureError("; ".join(str(v) for v in problems))
    mapping: dict[str, str] = {}
    order: list[str] = []
    counter = 0
    queue = [dag.root]
    while queue:
        current = queue.pop(0)
        node = dag.node_by_id[current]
        if node.is_pre_terminal:
            mapping[current] = "t" + "+".join(str(i) for i in node.covered_terminals)
        else:
            mapping[current] = f"n{counter}"
            counter += 1
        order.append(current)
        for edge in dag.primary_children.get(current, ()):
            queue.append(edge.child)
    nodes = tuple(
        Node(mapping[nid], dag.node_by_id[nid].kind, dag.node_by_id[nid].covered_terminals)
        for nid in order
    )
    edges = tuple(
        Edge(mapping[e.parent], mapping[e.child], e.label, e.remote) for e in dag.edges
    )
    return UnifiedDAG(dag.sentence_id, dag.terminals, nodes, edges, mapping[dag.root])


def check_same_tokens(a: UnifiedDAG, b: UnifiedDAG, error_cls: type[Exception]):
    """Raise error_cls unless both sides have the same token forms.

    The message names the first differing position, or else the two token
    counts, and a's sentence id.
    """
    a_forms = [t.form for t in a.terminals]
    b_forms = [t.form for t in b.terminals]
    if a_forms == b_forms:
        return
    for pos, (x, y) in enumerate(zip(a_forms, b_forms), 1):
        if x != y:
            raise error_cls(
                f"token mismatch at position {pos} ({x!r} vs {y!r}), "
                f"sentence {a.sentence_id}"
            )
    raise error_cls(
        f"token count mismatch ({len(a_forms)} vs {len(b_forms)}), "
        f"sentence {a.sentence_id}"
    )


@dataclass(frozen=True)
class EvalCounts:
    """Gold, predicted and correct unit counts, and the P/R/F1 they give."""

    n_gold: int = 0
    n_pred: int = 0
    n_correct: int = 0

    def __post_init__(self):
        if self.n_correct > min(self.n_gold, self.n_pred):
            raise ValueError("n_correct exceeds n_gold or n_pred")

    def __add__(self, other: "EvalCounts") -> "EvalCounts":
        return EvalCounts(
            self.n_gold + other.n_gold,
            self.n_pred + other.n_pred,
            self.n_correct + other.n_correct,
        )

    @property
    def precision(self) -> float:
        return self.n_correct / self.n_pred if self.n_pred else 0.0

    @property
    def recall(self) -> float:
        return self.n_correct / self.n_gold if self.n_gold else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0


def render_table(header: Sequence[str], rows: Iterable[Sequence[str]], fmt: str) -> str:
    """A header and rows of cells as TSV ("tsv") or a Markdown table ("md")."""
    if fmt == "tsv":
        lines = ["\t".join(header)]
        lines.extend("\t".join(row) for row in rows)
    elif fmt == "md":
        lines = ["| " + " | ".join(header) + " |"]
        lines.append("|" + "|".join(["---"] * len(header)) + "|")
        lines.extend("| " + " | ".join(row) + " |" for row in rows)
    else:
        raise ValueError(f"unknown table format: {fmt!r}")
    return "".join(line + "\n" for line in lines)
