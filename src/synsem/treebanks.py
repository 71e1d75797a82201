"""Readers and writers for the supported corpus formats.

Three formats are handled:

- CoNLL-U dependency treebanks (10 tab-separated columns, blank-line
  sentence separation, "#" comments). Multiword-token range lines are
  skipped in favor of their syntactic-word lines, and the enhanced
  dependency column (DEPS) is read but discarded.
- Semantic graphs as JSON-lines, one object per sentence:
  {"id": str, "tokens": [{"text": str, "punct": bool}], "nodes": [{"id":
  str}], "edges": [{"parent": str, "child": str, "categories": [str],
  "remote": bool}]}. Terminals are referenced as children via ids "t1",
  "t2", ... in token order; the root is the unique declared node with no
  incoming primary edge.
- The unified DAG format (JSON-lines, see write_unified) produced by the
  converters. Terminal-wrapper nodes carry a "terminals" array with the
  covered indices so that parsing a written corpus restores it exactly.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from .model import (
    CategorySet,
    Edge,
    Node,
    StructureError,
    Terminal,
    UnifiedDAG,
    validate,
)

CONLLU_COLUMNS = 10
_ID, _FORM, _LEMMA, _UPOS, _XPOS, _FEATS, _HEAD, _DEPREL, _DEPS, _MISC = range(10)

TERMINAL_REF = re.compile(r"^t([1-9][0-9]*)$")


class ParseError(Exception):
    """Malformed input; the message names the offending line or sentence."""


@dataclass(frozen=True)
class UDToken:
    index: int
    form: str
    deprel: str  # may still carry a subtype, e.g. "obl:tmod"
    head: int  # 0 marks the root token
    is_punct: bool


@dataclass(frozen=True)
class UDTree:
    """One dependency tree: exactly one 0-headed token, no head cycles."""

    sentence_id: str
    tokens: tuple[UDToken, ...]

    def token(self, index: int) -> UDToken:
        return self.tokens[index - 1]


@dataclass(frozen=True)
class UCCAToken:
    form: str
    punct: bool = False


@dataclass(frozen=True)
class UCCAGraph:
    """A rooted semantic DAG prior to normalization.

    Edge children may be declared node ids or terminal references "t<k>".
    Primary edges form a tree over the declared nodes; remote edges add
    reentrancy.
    """

    sentence_id: str
    tokens: tuple[UCCAToken, ...]
    node_ids: tuple[str, ...]
    edges: tuple[Edge, ...]
    root: str


def _as_lines(text: str | Iterable[str]) -> Iterator[str]:
    # Lines end at "\n" only, so that a str and a file opened without
    # newline translation split alike; str.splitlines would also break at
    # U+2028, U+0085 and other characters that JSON strings may hold raw.
    if isinstance(text, str):
        text = text.split("\n")
    for line in text:
        yield line.removesuffix("\n").removesuffix("\r")


def base_relation(deprel: str) -> str:
    """Universal relation without the language-specific subtype."""
    return deprel.split(":", 1)[0]


def parse_conllu(text: str | Iterable[str]) -> list[UDTree]:
    """Parse a CoNLL-U character stream into one UDTree per sentence."""
    return list(iter_conllu(text))


def iter_conllu(text: str | Iterable[str]) -> Iterator[UDTree]:
    """Yield one UDTree per sentence as soon as its block is read.

    sentence_id is taken from the "# sent_id" comment when present, else a
    running 1-based counter. Errors name the file line that caused them.
    """
    tokens: list[UDToken] = []
    token_lines: list[int] = []
    sent_id: str | None = None
    counter = 0

    for line_no, line in enumerate(_as_lines(text), 1):
        if not line.strip():
            if tokens:
                counter += 1
                sid = sent_id if sent_id is not None else str(counter)
                yield _build_tree(sid, tokens, token_lines)
                tokens, token_lines = [], []
            sent_id = None
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("sent_id") and "=" in body:
                sent_id = body.split("=", 1)[1].strip()
            continue
        columns = line.split("\t")
        if len(columns) != CONLLU_COLUMNS:
            raise ParseError(
                f"expected {CONLLU_COLUMNS} columns, got {len(columns)}, line {line_no}"
            )
        token_id = columns[_ID]
        if "-" in token_id or "." in token_id:
            # Multiword-token ranges and enhanced-only empty nodes carry no
            # basic tree structure.
            continue
        try:
            index = int(token_id)
        except ValueError:
            raise ParseError(f"non-integer token id {token_id!r}, line {line_no}")
        if index != len(tokens) + 1:
            raise ParseError(f"token id out of sequence ({token_id}), line {line_no}")
        form = columns[_FORM]
        if not form:
            raise ParseError(f"empty FORM, line {line_no}")
        try:
            head = int(columns[_HEAD])
        except ValueError:
            raise ParseError(f"non-integer head {columns[_HEAD]!r}, line {line_no}")
        deprel = columns[_DEPREL]
        relation = base_relation(deprel)
        if not relation:
            raise ParseError(f"DEPREL {deprel!r} has an empty relation, line {line_no}")
        if "|" in deprel:
            raise ParseError(f"DEPREL {deprel!r} contains '|', line {line_no}")
        tokens.append(
            UDToken(
                index=index,
                form=form,
                deprel=deprel,
                head=head,
                is_punct=relation == "punct",
            )
        )
        token_lines.append(line_no)
    if tokens:
        sid = sent_id if sent_id is not None else str(counter + 1)
        yield _build_tree(sid, tokens, token_lines)


def _build_tree(sid: str, tokens: list[UDToken], token_lines: list[int]) -> UDTree:
    roots = [i for i, tok in enumerate(tokens) if tok.head == 0]
    if not roots:
        raise ParseError(f"no root token, line {token_lines[0]}")
    if len(roots) > 1:
        raise ParseError(f"multiple roots, line {token_lines[roots[1]]}")
    for tok, tline in zip(tokens, token_lines):
        if tok.head < 0 or tok.head > len(tokens):
            raise ParseError(f"head out of range, line {tline}")
    _check_head_cycles(tokens, sid)
    return UDTree(sid, tuple(tokens))


def _check_head_cycles(tokens: list[UDToken], sid: str):
    state = [0] * (len(tokens) + 1)  # 0 unseen, 1 on path, 2 done
    for tok in tokens:
        path = []
        current = tok.index
        while current != 0 and state[current] == 0:
            state[current] = 1
            path.append(current)
            current = tokens[current - 1].head
        if current != 0 and state[current] == 1:
            raise ParseError(f"head cycle, sentence {sid}")
        for index in path:
            state[index] = 2


def parse_ucca_json(text: str | Iterable[str]) -> list[UCCAGraph]:
    """Parse JSON-lines semantic graphs; errors name the sentence id."""
    return list(iter_ucca_json(text))


def iter_ucca_json(text: str | Iterable[str]) -> Iterator[UCCAGraph]:
    """Yield one UCCAGraph per non-blank line as soon as it is read."""
    counter = 0
    for raw in _as_lines(text):
        if not raw.strip():
            continue
        counter += 1
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON, sentence {counter}: {exc}") from exc
        sid = str(obj.get("id", counter))
        tokens = []
        for tok in obj.get("tokens", ()):
            punct = tok.get("punct", False)
            if not isinstance(punct, bool):
                raise ParseError(f"token 'punct' must be true or false, sentence {sid}")
            tokens.append(UCCAToken(tok["text"], punct))
        node_ids = []
        seen_ids: set[str] = set()
        for node in obj.get("nodes", ()):
            nid = str(node["id"])
            if nid in seen_ids:
                raise ParseError(f"duplicate node id: {nid}, sentence {sid}")
            if TERMINAL_REF.match(nid):
                raise ParseError(
                    f"node id {nid} collides with terminal references, sentence {sid}"
                )
            seen_ids.add(nid)
            node_ids.append(nid)

        edges = []
        primary_parents: dict[str, str] = {}
        for entry in obj.get("edges", ()):
            parent, child = str(entry["parent"]), str(entry["child"])
            if parent not in seen_ids:
                raise ParseError(f"dangling node reference: {parent}, sentence {sid}")
            if not _known_child(child, seen_ids, len(tokens)):
                raise ParseError(f"dangling node reference: {child}, sentence {sid}")
            categories = entry["categories"]
            if not isinstance(categories, list) or not all(
                isinstance(c, str) for c in categories
            ):
                raise ParseError(f"edge 'categories' must be a list of strings, sentence {sid}")
            try:
                label = CategorySet(tuple(categories))
            except ValueError as exc:
                raise ParseError(f"{exc}, sentence {sid}") from exc
            remote = entry.get("remote", False)
            if not isinstance(remote, bool):
                raise ParseError(f"edge 'remote' must be true or false, sentence {sid}")
            try:
                edge = Edge(parent, child, label, remote)
            except ValueError as exc:
                raise ParseError(f"{exc}, sentence {sid}") from exc
            if not remote:
                if child in primary_parents:
                    raise ParseError(f"multiple primary parents: {child}, sentence {sid}")
                primary_parents[child] = parent
            edges.append(edge)

        roots = [nid for nid in node_ids if nid not in primary_parents]
        if not roots:
            raise ParseError(f"no root candidate, sentence {sid}")
        if len(roots) > 1:
            raise ParseError(
                f"multiple root candidates: {', '.join(roots)}, sentence {sid}"
            )
        _check_primary_cycles(node_ids, primary_parents, sid)
        yield UCCAGraph(sid, tuple(tokens), tuple(node_ids), tuple(edges), roots[0])


def _known_child(child: str, node_ids: set[str], n_tokens: int) -> bool:
    if child in node_ids:
        return True
    match = TERMINAL_REF.match(child)
    return bool(match) and int(match.group(1)) <= n_tokens


def _check_primary_cycles(node_ids, primary_parents, sid):
    state = dict.fromkeys(node_ids, 0)
    for start in node_ids:
        path = []
        current = start
        while current in state and state[current] == 0:
            state[current] = 1
            path.append(current)
            current = primary_parents.get(current)
            if current is None:
                break
        if current is not None and state.get(current) == 1:
            raise ParseError(f"primary cycle, sentence {sid}")
        for nid in path:
            state[nid] = 2


def write_unified(dags: Iterable[UnifiedDAG]) -> str:
    """Serialize unified DAGs as JSON-lines; refuses structurally broken input."""
    return "".join(unified_line(dag) for dag in dags)


def unified_line(dag: UnifiedDAG) -> str:
    """One JSON-lines record of write_unified, newline included."""
    problems = validate(dag)
    if problems:
        raise StructureError(
            f"refusing to serialize {dag.sentence_id}: "
            + "; ".join(str(v) for v in problems)
        )
    nodes = []
    for node in dag.nodes:
        entry: dict = {"id": node.id, "kind": node.kind}
        if node.is_pre_terminal:
            entry["terminals"] = list(node.covered_terminals)
        nodes.append(entry)
    obj = {
        "id": dag.sentence_id,
        "tokens": [{"text": t.form, "punct": t.is_punct} for t in dag.terminals],
        "nodes": nodes,
        "edges": [
            {
                "parent": e.parent,
                "child": e.child,
                "categories": list(e.label.categories),
                "remote": e.remote,
            }
            for e in dag.edges
        ],
        "root": dag.root,
    }
    return json.dumps(obj, ensure_ascii=False) + "\n"


def read_unified(text: str | Iterable[str]) -> list[UnifiedDAG]:
    """Inverse of write_unified."""
    dags: list[UnifiedDAG] = []
    counter = 0
    for raw in _as_lines(text):
        if not raw.strip():
            continue
        counter += 1
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON, sentence {counter}: {exc}") from exc
        sid = str(obj.get("id", counter))
        terminals = tuple(
            Terminal(i, tok["text"], bool(tok.get("punct", False)))
            for i, tok in enumerate(obj.get("tokens", ()), 1)
        )
        try:
            nodes = tuple(
                Node(
                    str(node["id"]),
                    node["kind"],
                    tuple(node.get("terminals", ())),
                )
                for node in obj.get("nodes", ())
            )
            edges = tuple(
                Edge(
                    str(e["parent"]),
                    str(e["child"]),
                    CategorySet(tuple(e["categories"])),
                    bool(e.get("remote", False)),
                )
                for e in obj.get("edges", ())
            )
            dag = UnifiedDAG(sid, terminals, nodes, edges, str(obj["root"]))
        except (KeyError, ValueError) as exc:
            raise ParseError(f"{exc}, sentence {sid}") from exc
        dags.append(dag)
    return dags


_END = object()


class SentencePairs:
    """Lazy pairing of a first corpus with one or more parallel corpora.

    Iterating yields one tuple per sentence of the first corpus, holding it
    and its counterpart in each other corpus. by="index" pairs positionally
    and streams every corpus; by="id" matches on sentence ids, streaming
    the first corpus and indexing each other one whole. Ids must then be
    unique on every side and every first-corpus id present on the others.

    A sentence count mismatch is a hard error either way, and it is
    reported in preference to any pairing error. A caller whose work on a
    pair fails calls check_counts so that the same holds for its errors.
    """

    def __init__(self, first: Iterable, *others: Iterable, by: str = "index"):
        if by not in ("index", "id"):
            raise ValueError(f"unknown pairing mode: {by!r}")
        self.by = by
        self._streams = [iter(first), *(iter(other) for other in others)]
        self._counts = [0] * len(self._streams)

    def __iter__(self) -> Iterator[tuple]:
        return self._zip() if self.by == "index" else self._by_id()

    def check_counts(self):
        """Read every corpus to its end; raise ParseError if counts differ."""
        for i, stream in enumerate(self._streams):
            for _ in stream:
                self._counts[i] += 1
        first = self._counts[0]
        for count in self._counts[1:]:
            if count != first:
                raise ParseError(f"sentence count mismatch: left={first} right={count}")

    def _next(self, i: int):
        item = next(self._streams[i], _END)
        if item is not _END:
            self._counts[i] += 1
        return item

    def _fail(self, message: str):
        self.check_counts()
        raise ParseError(message)

    def _zip(self) -> Iterator[tuple]:
        while True:
            items = tuple(self._next(i) for i in range(len(self._streams)))
            if any(item is _END for item in items):
                self.check_counts()
                return
            yield items

    def _by_id(self) -> Iterator[tuple]:
        indexes = []
        for i in range(1, len(self._streams)):
            index: dict[str, object] = {}
            while (item := self._next(i)) is not _END:
                if item.sentence_id in index:
                    self._fail(f"duplicate sentence id: {item.sentence_id}")
                index[item.sentence_id] = item
            indexes.append(index)
        seen: set[str] = set()
        while (item := self._next(0)) is not _END:
            sid = item.sentence_id
            if sid in seen:
                self._fail(f"duplicate sentence id: {sid}")
            seen.add(sid)
            if any(sid not in index for index in indexes):
                self._fail(f"sentence id {sid} missing from second corpus")
            yield (item, *(index[sid] for index in indexes))
        self.check_counts()
