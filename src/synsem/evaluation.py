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

from .alignment import counted_index
from .model import (
    EvalCounts,
    SentenceUnits,
    UnifiedDAG,
    check_same_tokens,
    dag_units,
    render_table,
)
from .ud_conversion import EXCLUDED_RELATIONS

UNBUCKETED = "(none)"

#: The corpus rows of evaluate, as (edge class, labeled), in output order.
EVAL_ROWS = (("primary", True), ("primary", False), ("remote", True), ("remote", False))


class EvaluationError(Exception):
    """Gold and prediction do not describe the same sentences."""


def _edge_units(units: SentenceUnits) -> dict[tuple[str, bool], Counter]:
    """Multisets of units per row of EVAL_ROWS: (yield mask, categories)
    when labeled, else the mask alone. No deduplication, every edge counts;
    units with punctuation-only yields are ignored."""
    yields, parent, label = units.yields, units.parent, units.label
    rows: dict[tuple[str, bool], Counter] = {row: Counter() for row in EVAL_ROWS}
    primary = ((u, label[u]) for u in units.order if parent[u] >= 0)
    for edge_class, edges in (("primary", primary), ("remote", units.remotes)):
        labeled, unlabeled = rows[edge_class, True], rows[edge_class, False]
        for u, edge_label in edges:
            if yields[u]:
                labeled[yields[u], edge_label.categories] += 1
                unlabeled[yields[u]] += 1
    return rows


def evaluate_units(
    gold: SentenceUnits, pred: SentenceUnits
) -> dict[tuple[str, bool], EvalCounts]:
    """Score one predicted sentence against gold on every row of EVAL_ROWS.

    Correctness is the size of the largest multiset intersection of
    (yield, label) pairs, ignoring labels for the unlabeled rows.
    """
    check_same_tokens(gold, pred, EvaluationError)
    gold_rows, pred_rows = _edge_units(gold), _edge_units(pred)
    scores = {}
    for row in EVAL_ROWS:
        g, p = gold_rows[row], pred_rows[row]
        n_correct = sum(min(count, p[key]) for key, count in g.items())
        scores[row] = EvalCounts(sum(g.values()), sum(p.values()), n_correct)
    return scores


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
    return evaluate_units(dag_units(gold), dag_units(pred))[edge_class, labeled]


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
        self.add_units(dag_units(gold_ucca), dag_units(pred_ucca), dag_units(gold_ud))

    def add_units(self, gold: SentenceUnits, pred: SentenceUnits, ud: SentenceUnits):
        check_same_tokens(ud, gold, EvaluationError)
        check_same_tokens(ud, pred, EvaluationError)
        relation_of = {
            y: label.render() for y, label in counted_index(ud, EXCLUDED_RELATIONS).items()
        }
        gold_index = counted_index(gold)
        pred_index = counted_index(pred)

        for y, relation in relation_of.items():
            bucket = self.buckets.setdefault(relation, _Bucket())
            bucket.total += 1
            self._score_yield(bucket, y, gold_index, pred_index)
        for y in (gold_index.keys() | pred_index.keys()) - relation_of.keys():
            bucket = self.buckets.setdefault(UNBUCKETED, _Bucket())
            self._score_yield(bucket, y, gold_index, pred_index)

    @staticmethod
    def _score_yield(bucket: _Bucket, y, gold_index, pred_index):
        in_gold = y in gold_index
        in_pred = y in pred_index
        if in_gold:
            bucket.match_gold += 1
            bucket.gold_labels[gold_index[y].render()] += 1
            bucket.gold_words += y.bit_count()
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
