"""Seeded synthetic corpora for the benchmark, written with the standard
library only.

    python3 bench/corpora.py {short,long} SENTENCES SEED OUT_DIR [--shuffle-sides]

Nothing here imports synsem or the test helpers, so an edit to either can
never move the benchmark's inputs. Each corpus is a fixed pool of sentence
triples (CoNLL-U tree, gold semantic graph, predicted semantic graph) built
from per-sentence generators seeded by (family, index). The workload seed
only chooses the order in which the pool is written, so every seed yields
different input files whose aggregate outputs are the same, and one recorded
reference per corpus checks every seed.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

POOL_SEED = 1903

DEPRELS = [
    "nsubj", "obj", "iobj", "obl", "advmod", "amod", "det", "case", "nmod",
    "conj", "cc", "mark", "advcl", "acl", "compound", "aux", "cop", "xcomp",
    "ccomp", "nummod", "appos",
]
SUBTYPED = ["obl:tmod", "acl:relcl", "nmod:poss", "cc:preconj", "det:def"]
MWE = ["flat", "fixed", "goeswith"]
UNIT_CATEGORIES = "HAECDP"
TERMINAL_CATEGORIES = ["A", "C", "D", "E", "F", "G", "H", "L", "N", "P", "Q", "R", "S", "T"]

PUNCT_RATE = 0.1
MWE_RATE = 0.05
SUBTYPE_RATE = 0.15
MULTI_CATEGORY_RATE = 0.05
REMOTE_RATE = 0.45
RELABEL_RATE = 0.1
REATTACH_RATE = 0.1
REMOTE_DROP_RATE = 0.3

# Long sentences attach each token to the previous one with this
# probability; depth is capped so that the recursive yield computation stays
# under the interpreter's recursion limit (deeper trees are the job of the
# separate chain probe).
CHAIN_RATE = 0.9
MAX_DEPTH = 300
# In long sentences, the share of terminals attached to the unit at their
# position (unit i // 2), so that unit nesting follows token order.
POSITION_RATE = 0.8


@dataclass(frozen=True)
class Family:
    """How to draw one sentence: its length range and attachment shape."""

    name: str
    min_tokens: int
    max_tokens: int
    chain: bool  # False: shallow random trees; True: deep near-chains


SHORT = Family("short", 1, 40, chain=False)
LONG = Family("long", 200, 600, chain=True)
FAMILIES = {family.name: family for family in (SHORT, LONG)}


def _deprel(rng: random.Random) -> str:
    draw = rng.random()
    if draw < MWE_RATE:
        return rng.choice(MWE)
    if draw < MWE_RATE + SUBTYPE_RATE:
        return rng.choice(SUBTYPED)
    return rng.choice(DEPRELS)


def _attach(rng: random.Random, order: list[int], chain: bool, can_parent) -> dict[int, int]:
    """Parent of every item of order (-1 for order[0], the root).

    Each item attaches to an earlier item of order for which can_parent
    holds: a uniformly random one in shallow mode; in chain mode the latest
    one with probability CHAIN_RATE, else a random one. An item that would
    sit deeper than MAX_DEPTH attaches to the root instead.
    """
    root = order[0]
    parents = {root: -1}
    depth = {root: 0}
    placed = [root]
    for item in order[1:]:
        if chain and rng.random() < CHAIN_RATE:
            parent = placed[-1]
        else:
            parent = rng.choice(placed)
        if depth[parent] + 1 > MAX_DEPTH:
            parent = root
        parents[item] = parent
        depth[item] = depth[parent] + 1
        if can_parent(item):
            placed.append(item)
    return parents


def _tree(rng: random.Random, sid: str, family: Family):
    """CoNLL-U block plus the token forms and punctuation flags.

    Punctuation tokens are leaves. Shallow trees attach over a random token
    order; chains attach in sentence order.
    """
    n = rng.randint(family.min_tokens, family.max_tokens)
    punct = [i > 0 and rng.random() < PUNCT_RATE for i in range(n)]
    forms = [rng.choice(",.") if p else f"w{rng.randrange(1000)}" for p in punct]
    order = list(range(n)) if family.chain else [0] + rng.sample(range(1, n), n - 1)
    heads = _attach(rng, order, family.chain, lambda i: not punct[i])
    lines = [f"# sent_id = {sid}"]
    for i in range(n):
        if heads[i] < 0:
            deprel = "root"
        elif punct[i]:
            deprel = "punct"
        else:
            deprel = _deprel(rng)
        lines.append(
            f"{i + 1}\t{forms[i]}\t_\tX\t_\t_\t{heads[i] + 1}\t{deprel}\t_\t_"
        )
    return "\n".join(lines) + "\n\n", forms, punct


def _categories(rng: random.Random, pool) -> list[str]:
    if rng.random() < MULTI_CATEGORY_RATE:
        return sorted(rng.sample(pool, 2))
    return [rng.choice(pool)]


def _graphs(rng: random.Random, sid: str, family: Family, forms, punct):
    """Gold graph and a seeded perturbation of it, as JSON objects."""
    n = len(forms)
    n_units = max(1, n // 2) if family.chain else rng.randint(1, n // 2 + 1)
    units = [f"u{j}" for j in range(n_units)]
    unit_parent = _attach(rng, list(range(n_units)), family.chain, lambda j: True)
    edges = []
    for j in range(1, n_units):
        edges.append([units[unit_parent[j]], units[j], _categories(rng, UNIT_CATEGORIES), False])
    owners = []
    for i in range(n):
        if family.chain and rng.random() < POSITION_RATE:
            owners.append(min(n_units - 1, i // 2))
        else:
            owners.append(rng.randrange(n_units))
        cats = ["U"] if punct[i] else _categories(rng, TERMINAL_CATEGORIES)
        edges.append([units[owners[i]], f"t{i + 1}", cats, False])

    if rng.random() < REMOTE_RATE:
        # A remote child is any unit or terminal that is neither an ancestor
        # of the remote parent nor already its primary child.
        parent = rng.randrange(n_units)
        ancestors = {parent}
        current = parent
        while unit_parent[current] >= 0:
            current = unit_parent[current]
            ancestors.add(current)
        candidates = [
            units[j] for j in range(n_units) if j not in ancestors and unit_parent[j] != parent
        ]
        candidates += [f"t{i + 1}" for i in range(n) if owners[i] != parent]
        if candidates:
            edges.append([units[parent], rng.choice(candidates), [rng.choice("AP")], True])

    pred_edges = []
    remote_targets = {(e[0], e[1]) for e in edges if e[3]}
    for parent, child, cats, remote in edges:
        if remote and rng.random() < REMOTE_DROP_RATE:
            continue
        if not remote and child.startswith("t") and rng.random() < REATTACH_RATE:
            new_parent = units[rng.randrange(n_units)]
            if (new_parent, child) not in remote_targets:
                parent = new_parent
        if cats != ["U"] and rng.random() < RELABEL_RATE:
            pool = UNIT_CATEGORIES if child.startswith("u") else TERMINAL_CATEGORIES
            cats = [rng.choice(pool)]
        pred_edges.append([parent, child, cats, remote])

    tokens = [{"text": f, "punct": p} for f, p in zip(forms, punct)]
    nodes = [{"id": u} for u in units]

    def graph(edge_rows):
        return {
            "id": sid,
            "tokens": tokens,
            "nodes": nodes,
            "edges": [
                {"parent": p, "child": c, "categories": cats, "remote": r}
                for p, c, cats, r in edge_rows
            ],
        }

    return graph(edges), graph(pred_edges)


def sentence(family: Family, index: int):
    """(id, CoNLL-U block, gold JSON line, pred JSON line, token count)."""
    rng = random.Random(f"{POOL_SEED}:{family.name}:{index}")
    sid = f"{family.name}-{index:06d}"
    block, forms, punct = _tree(rng, sid, family)
    gold, pred = _graphs(rng, sid, family, forms, punct)
    return (
        sid,
        block,
        json.dumps(gold, ensure_ascii=False) + "\n",
        json.dumps(pred, ensure_ascii=False) + "\n",
        len(forms),
    )


def head_chain_conllu(n_tokens: int) -> str:
    """One sentence whose token k is headed by token k-1: depth n_tokens."""
    rows = [f"# sent_id = chain-{n_tokens}"]
    for k in range(1, n_tokens + 1):
        rows.append(f"{k}\tw{k}\t_\tX\t_\t_\t{k - 1}\t{'root' if k == 1 else 'obj'}\t_\t_")
    return "\n".join(rows) + "\n\n"


def head_chain_graph(n_tokens: int) -> str:
    """A semantic graph over the chain's tokens: one unit per token, nested."""
    units = [f"u{k}" for k in range(n_tokens)]
    edges = [
        {"parent": units[k - 1], "child": units[k], "categories": ["A"], "remote": False}
        for k in range(1, n_tokens)
    ]
    edges += [
        {"parent": units[k], "child": f"t{k + 1}", "categories": ["C"], "remote": False}
        for k in range(n_tokens)
    ]
    obj = {
        "id": f"chain-{n_tokens}",
        "tokens": [{"text": f"w{k}", "punct": False} for k in range(1, n_tokens + 1)],
        "nodes": [{"id": u} for u in units],
        "edges": edges,
    }
    return json.dumps(obj) + "\n"


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class Corpus:
    """Paths of one generated corpus, its sentence ids and its size."""

    ud: Path
    gold: Path
    pred: Path
    ids: list[str]  # pool order, the order references are hashed in
    file_ids: dict[str, list[str]]  # file name -> sentence ids in file order
    sentences: int
    tokens: int

    def manifest(self) -> dict:
        return {
            "sentences": self.sentences,
            "tokens": self.tokens,
            "sha256": {p.name: sha256_file(p) for p in (self.ud, self.gold, self.pred)},
        }


FILES = ("ud.conllu", "gold.jsonl", "pred.jsonl")
META = "corpus.json"


def write_corpus(
    family: Family, n_sentences: int, seed: int, out_dir: Path, shuffle_sides: bool = False
) -> Corpus:
    """Write ud.conllu, gold.jsonl, pred.jsonl and corpus.json under out_dir.

    The pool of n_sentences is written in an order drawn from seed. With
    shuffle_sides, gold and pred each get a further seeded permutation, so
    only pairing by sentence id lines them up.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    pool = [sentence(family, i) for i in range(n_sentences)]
    rng = random.Random(seed)
    order = rng.sample(range(n_sentences), n_sentences)
    orders = [
        order,
        rng.sample(order, n_sentences) if shuffle_sides else order,
        rng.sample(order, n_sentences) if shuffle_sides else order,
    ]
    for column, (name, column_order) in enumerate(zip(FILES, orders), 1):
        with open(out_dir / name, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(pool[i][column] for i in column_order)
    corpus = Corpus(
        *(out_dir / name for name in FILES),
        ids=[entry[0] for entry in pool],
        file_ids={name: [pool[i][0] for i in o] for name, o in zip(FILES, orders)},
        sentences=n_sentences,
        tokens=sum(entry[4] for entry in pool),
    )
    meta = {k: v for k, v in asdict(corpus).items() if k not in ("ud", "gold", "pred")}
    (out_dir / META).write_text(json.dumps(meta), encoding="utf-8")
    return corpus


def load_corpus(out_dir: Path) -> Corpus:
    """The Corpus that write_corpus (or this file's command line) left in out_dir."""
    meta = json.loads((out_dir / META).read_text(encoding="utf-8"))
    return Corpus(*(out_dir / name for name in FILES), **meta)


if __name__ == "__main__":
    family, sentences, seed, out = sys.argv[1:5]
    write_corpus(FAMILIES[family], int(sentences), int(seed), Path(out),
                 shuffle_sides="--shuffle-sides" in sys.argv[5:])
