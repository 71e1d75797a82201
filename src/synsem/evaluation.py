"""Scoring predicted semantic graphs against gold, overall and by relation.

Corpus-level scores count every edge of a class (primary or remote) as a
(punctuation-excluded yield, label) pair; a predicted unit is correct if a
gold unit matches it in yield, and in label too for labeled scores. The
fine-grained breakdown buckets top-category units by the syntactic
relation whose unit has the same yield, so each yield lands in at most
one bucket; units matching no relation land in a "(none)" pseudo-row.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field, fields

from .model import (
    ROOT_SENTINEL,
    EvalCounts,
    UnifiedDAG,
    all_yields,
    check_same_tokens,
    render_table,
)
from .normalization import top_category_index
from .ud_conversion import EXCLUDED_RELATIONS

UNBUCKETED = "(none)"


class EvaluationError(Exception):
    """Gold and prediction do not describe the same sentences."""


def _edge_units(dag: UnifiedDAG, edge_class: str, labeled: bool) -> Counter:
    """Multiset of units of one edge class; no deduplication, every edge
    counts. Units with punctuation-only yields are ignored."""
    yields = all_yields(dag, exclude_punct=True)
    want_remote = edge_class == "remote"
    units: Counter = Counter()
    for edge in dag.edges:
        if edge.remote != want_remote:
            continue
        y = yields[edge.child]
        if not y:
            continue
        units[(y, edge.label) if labeled else y] += 1
    return units


def evaluate_ucca(
    gold: UnifiedDAG,
    pred: UnifiedDAG,
    labeled: bool = True,
    edge_class: str = "primary",
) -> EvalCounts:
    """Score one predicted graph against gold for one edge class.

    For edge_class="remote" the inputs must be converted with remote edges
    kept. Correctness is the size of the largest multiset intersection of
    (yield, label) pairs, ignoring labels when labeled is false.
    """
    if edge_class not in ("primary", "remote"):
        raise ValueError(f"unknown edge class: {edge_class!r}")
    check_same_tokens(gold, pred, EvaluationError)
    gold_units = _edge_units(gold, edge_class, labeled)
    pred_units = _edge_units(pred, edge_class, labeled)
    n_correct = sum(
        min(count, pred_units[key]) for key, count in gold_units.items()
    )
    return EvalCounts(
        n_gold=sum(gold_units.values()),
        n_pred=sum(pred_units.values()),
        n_correct=n_correct,
    )


@dataclass(frozen=True)
class FineGrainedRow:
    relation: str
    total_in_ud: int
    match_gold: int
    match_pred: int
    labeled_correct: int
    unlabeled_correct: int
    labeled_f1: float
    unlabeled_f1: float
    labeled_over_unlabeled_pct: float
    mode_baseline_pct: float
    avg_words: float

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class _Bucket:
    total: int = 0
    match_gold: int = 0
    match_pred: int = 0
    labeled_correct: int = 0
    unlabeled_correct: int = 0
    gold_labels: Counter = field(default_factory=Counter)
    gold_words: int = 0


class FineGrainedScorer:
    """Accumulates per-relation unit matches over a corpus."""

    def __init__(self):
        self.buckets: dict[str, _Bucket] = {}

    def add(self, gold_ucca: UnifiedDAG, pred_ucca: UnifiedDAG, gold_ud: UnifiedDAG):
        check_same_tokens(gold_ud, gold_ucca, EvaluationError)
        check_same_tokens(gold_ud, pred_ucca, EvaluationError)
        relation_of = {}
        for y, label in top_category_index(gold_ud).items():
            if label == ROOT_SENTINEL:
                continue
            cats = label.categories
            if len(cats) == 1 and cats[0] in EXCLUDED_RELATIONS:
                continue
            relation_of[y] = label.render()
        gold_index = {
            y: label
            for y, label in top_category_index(gold_ucca).items()
            if label != ROOT_SENTINEL
        }
        pred_index = {
            y: label
            for y, label in top_category_index(pred_ucca).items()
            if label != ROOT_SENTINEL
        }

        for y, relation in relation_of.items():
            bucket = self.buckets.setdefault(relation, _Bucket())
            bucket.total += 1
            self._score_yield(bucket, y, gold_index, pred_index)
        for y in (set(gold_index) | set(pred_index)) - set(relation_of):
            bucket = self.buckets.setdefault(UNBUCKETED, _Bucket())
            self._score_yield(bucket, y, gold_index, pred_index)

    @staticmethod
    def _score_yield(bucket: _Bucket, y, gold_index, pred_index):
        in_gold = y in gold_index
        in_pred = y in pred_index
        if in_gold:
            bucket.match_gold += 1
            bucket.gold_labels[gold_index[y].render()] += 1
            bucket.gold_words += len(y)
        if in_pred:
            bucket.match_pred += 1
        if in_gold and in_pred:
            bucket.unlabeled_correct += 1
            if gold_index[y] == pred_index[y]:
                bucket.labeled_correct += 1

    def rows(self) -> list[FineGrainedRow]:
        rows = []
        for relation in sorted(self.buckets):
            b = self.buckets[relation]
            mode = max(b.gold_labels.values()) if b.gold_labels else 0
            labeled = EvalCounts(b.match_gold, b.match_pred, b.labeled_correct)
            unlabeled = EvalCounts(b.match_gold, b.match_pred, b.unlabeled_correct)
            rows.append(
                FineGrainedRow(
                    relation=relation,
                    total_in_ud=b.total,
                    match_gold=b.match_gold,
                    match_pred=b.match_pred,
                    labeled_correct=b.labeled_correct,
                    unlabeled_correct=b.unlabeled_correct,
                    labeled_f1=labeled.f1,
                    unlabeled_f1=unlabeled.f1,
                    labeled_over_unlabeled_pct=(
                        100 * b.labeled_correct / b.unlabeled_correct
                        if b.unlabeled_correct
                        else 0.0
                    ),
                    mode_baseline_pct=(
                        100 * mode / b.match_gold if b.match_gold else 0.0
                    ),
                    avg_words=b.gold_words / b.match_gold if b.match_gold else 0.0,
                )
            )
        return rows


def fine_grained(
    gold_ucca: UnifiedDAG, pred_ucca: UnifiedDAG, gold_ud: UnifiedDAG
) -> list[FineGrainedRow]:
    """Per-relation breakdown for a single sentence triple."""
    scorer = FineGrainedScorer()
    scorer.add(gold_ucca, pred_ucca, gold_ud)
    return scorer.rows()


REPORT_COLUMNS = tuple(f.name for f in fields(FineGrainedRow))


def _sorted_rows(rows: list[FineGrainedRow], sort: str) -> list[FineGrainedRow]:
    if sort == "relation":
        return sorted(rows, key=lambda r: r.relation)
    if sort == "labeled_f1":
        return sorted(rows, key=lambda r: (-r.labeled_f1, r.relation))
    raise ValueError(f"unknown sort key: {sort!r}")


def _row_cells(row: FineGrainedRow) -> list[str]:
    return [
        row.relation,
        str(row.total_in_ud),
        str(row.match_gold),
        str(row.match_pred),
        str(row.labeled_correct),
        str(row.unlabeled_correct),
        f"{100 * row.labeled_f1:.1f}",
        f"{100 * row.unlabeled_f1:.1f}",
        f"{row.labeled_over_unlabeled_pct:.1f}",
        f"{row.mode_baseline_pct:.1f}",
        f"{row.avg_words:.1f}",
    ]


def render_report(
    rows: list[FineGrainedRow], sort: str = "labeled_f1", fmt: str = "tsv"
) -> str:
    """Render the per-relation table as TSV or Markdown.

    F1 columns render as percentages with one decimal; labeled_f1 sorting
    is best-first with ties broken by relation name.
    """
    return render_table(REPORT_COLUMNS, map(_row_cells, _sorted_rows(rows, sort)), fmt)
