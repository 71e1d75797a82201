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

from dataclasses import dataclass, field
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


def token_mask(indices: Iterable[int]) -> int:
    """The yield mask of a set of token indices: bit i for token i."""
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def mask_tokens(mask: int) -> frozenset[int]:
    """The token indices of a yield mask."""
    tokens = []
    while mask:
        low = mask & -mask
        tokens.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(tokens)


def top_down(parent: Sequence[int]) -> list[int]:
    """Indices ordered so that every parent comes before its children.

    parent[u] is the index of u's parent, or -1 if u has none. Each unit is
    placed by climbing its parent chain to a placed unit, so the walk is
    linear and needs no recursion; units whose chain runs into a cycle are
    left out.
    """
    state = bytearray(len(parent))  # 0 new, 1 climbed but not placed, 2 placed
    order: list[int] = []
    for start in range(len(parent)):
        climb = []
        u = start
        while u >= 0 and not state[u]:
            state[u] = 1
            climb.append(u)
            u = parent[u]
        if u < 0 or state[u] == 2:
            for v in reversed(climb):
                state[v] = 2
                order.append(v)
    return order


@dataclass(slots=True, eq=False)
class SentenceUnits:
    """One sentence as unit arrays: what every comparison is folded over.

    Unit u has the primary parent parent[u] (-1 for none), the label of its
    incoming primary edge label[u], and own[u], the mask of the
    non-punctuation tokens it covers directly (see token_mask). order lists
    the units parents first; remotes holds one (unit, label) per remote
    edge. yields[u] is u's own mask ORed with those of all its descendants,
    from one pass up the order.
    """

    sentence_id: str
    forms: Sequence[str]
    parent: list[int]
    label: list
    own: list[int]
    order: list[int]
    root: int
    remotes: Sequence[tuple[int, CategorySet]] = ()
    yields: list[int] = field(init=False)

    def __post_init__(self):
        yields = self.own[:]
        parent = self.parent
        for u in reversed(self.order):
            p = parent[u]
            if p >= 0:
                yields[p] |= yields[u]
        self.yields = yields

    def index(self) -> dict[int, CategorySet]:
        """Map each distinct non-empty yield mask to its topmost label.

        A unit is indexed when its yield is non-empty and differs from its
        parent's. Units that share a yield always form an ancestor chain,
        so this keeps the one nearest the root. The root maps to
        ROOT_SENTINEL.
        """
        parent, yields, label, root = self.parent, self.yields, self.label, self.root
        index: dict[int, CategorySet] = {}
        for u in self.order:
            y = yields[u]
            p = parent[u]
            if y and (p < 0 or y != yields[p]):
                index[y] = ROOT_SENTINEL if u == root else label[u]
        return index


def dag_units(dag: UnifiedDAG, exclude_punct: bool = True) -> SentenceUnits:
    """The unit arrays of a unified DAG; unit i is dag.nodes[i].

    A node's parent is the parent of its first primary incoming edge;
    validate reports nodes with more than one. Raises StructureError on a
    primary cycle.
    """
    pos = {node.id: i for i, node in enumerate(dag.nodes)}
    parent = [-1] * len(dag.nodes)
    label: list = [None] * len(dag.nodes)
    remotes = []
    for edge in dag.edges:
        child = pos[edge.child]
        if edge.remote:
            remotes.append((child, edge.label))
        elif parent[child] < 0:
            parent[child] = pos[edge.parent]
            label[child] = edge.label
    punct = dag.punct_indices if exclude_punct else frozenset()
    own = [
        token_mask(i for i in node.covered_terminals if i not in punct) for node in dag.nodes
    ]
    order = top_down(parent)
    if len(order) < len(parent):
        placed = set(order)
        stuck = next(node.id for i, node in enumerate(dag.nodes) if i not in placed)
        raise StructureError(f"primary-cycle: reached {stuck} twice")
    forms = [t.form for t in dag.terminals]
    return SentenceUnits(dag.sentence_id, forms, parent, label, own, order,
                         pos[dag.root], remotes)


def all_yields(dag: UnifiedDAG, exclude_punct: bool = False) -> dict[str, frozenset[int]]:
    """Yields of every node, from the unit arrays of dag_units."""
    yields = dag_units(dag, exclude_punct).yields
    return {node.id: mask_tokens(y) for node, y in zip(dag.nodes, yields)}


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

    # Primary edges into each node: the first, and all of them where there
    # are several. Duplicates are looked for among these (primary) or in
    # remote_seen; a child list per node would cost a container per node.
    first_in: dict[str, Edge] = {}
    all_in: dict[str, list[Edge]] = {}
    remote_seen: set[Edge] = set()
    # Primary children as linked lists over edge positions: last[p] is p's
    # latest child edge, before[i] the one added before edge i.
    last: dict[str, int] = {}
    before = [-1] * len(dag.edges)
    for i, edge in enumerate(dag.edges):
        parent, child = edge.parent, edge.child
        if parent not in id_set or child not in id_set:
            violations.append(Violation("dangling-edge", f"{parent} -> {child}"))
            continue
        if edge.remote:
            duplicate = edge in remote_seen
            remote_seen.add(edge)
        elif child in first_in:
            earlier = all_in.setdefault(child, [first_in[child]])
            duplicate = edge in earlier
            earlier.append(edge)
        else:
            first_in[child] = edge
            duplicate = False
        if duplicate:
            violations.append(Violation("duplicate-edge", f"{parent} -> {child}"))
        if not edge.remote:
            before[i] = last.get(parent, -1)
            last[parent] = i

    for child in first_in if all_in else ():
        if child in all_in:
            parents = sorted(e.parent for e in all_in[child])
            violations.append(Violation("multiple-primary-parent", f"{child} <- {parents}"))
    if dag.root in first_in:
        violations.append(Violation("root-incoming", dag.root))

    # Reachability and cycles over primary edges.
    reached = {dag.root}
    stack = [dag.root]
    while stack:
        i = last.get(stack.pop(), -1)
        while i >= 0:
            child = dag.edges[i].child
            if child not in reached:
                reached.add(child)
                stack.append(child)
            i = before[i]

    # With one primary parent per node and none for the root, a cycle can
    # only sit where the root does not reach.
    cycle_nodes = None
    if all_in or dag.root in first_in or len(reached) < len(id_set):
        cycle_nodes = _find_cycle(_adjacency(dag, id_set, remote=False))
        if cycle_nodes:
            violations.append(Violation("primary-cycle", " -> ".join(cycle_nodes)))
        for node in dag.nodes:
            if node.id not in reached and node.id not in (cycle_nodes or ()):
                violations.append(Violation("unreachable", node.id))

    # Without remote edges the full graph is the primary one, checked above.
    if not cycle_nodes and remote_seen:
        full_cycle = _find_cycle(_adjacency(dag, id_set, remote=True))
        if full_cycle:
            violations.append(Violation("dag-cycle", " -> ".join(full_cycle)))

    owner: dict[int, str] = {}
    double_cover: dict[int, list[str]] = {}
    for node in dag.nodes:
        for index in node.covered_terminals:
            if index in owner:
                double_cover.setdefault(index, [owner[index]]).append(node.id)
            else:
                owner[index] = node.id
    for term in dag.terminals:
        if term.index not in owner:
            violations.append(Violation("uncovered-terminal", str(term.index)))
        elif term.index in double_cover:
            owners = sorted(double_cover[term.index])
            violations.append(Violation("double-cover", f"terminal {term.index} <- {owners}"))
    for index in owner:
        if index < 1 or index > len(dag.terminals):
            violations.append(Violation("covered-out-of-range", str(index)))

    return violations


def _adjacency(dag: UnifiedDAG, ids: set[str], remote: bool) -> dict[str, list[str]]:
    """Children of every node in ids, over primary edges and, if remote, the
    remote ones too."""
    adjacency: dict[str, list[str]] = {i: [] for i in ids}
    for edge in dag.edges:
        if (remote or not edge.remote) and edge.parent in ids and edge.child in ids:
            adjacency[edge.parent].append(edge.child)
    return adjacency


def _find_cycle(adjacency: dict[str, list[str]]) -> list[str] | None:
    WHITE, GRAY, BLACK = 0, 1, 2
    color = dict.fromkeys(adjacency, WHITE)

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

    for node_id in sorted(adjacency):
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


def check_same_tokens(a: SentenceUnits, b: SentenceUnits, error_cls: type[Exception]):
    """Raise error_cls unless both sides have the same token forms.

    The message names the first differing position, or else the two token
    counts, and a's sentence id.
    """
    a_forms, b_forms = a.forms, b.forms
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
