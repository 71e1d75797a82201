"""Matching units across schemes by terminal yield, and corpus statistics.

Every comparison runs over the two top-category indexes with punctuation
excluded: yields present on both sides become matched (yield, syntactic
label, semantic label) triples, the rest fill the No-Match margins of the
confusion matrix. Whole-sentence yields and units labeled with an
excluded relation are dropped before counting.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from .model import (
    HEAD_LABEL,
    ROOT_SENTINEL,
    CategorySet,
    EvalCounts,
    SentenceUnits,
    UnifiedDAG,
    check_same_tokens,
    dag_units,
    mask_tokens,
    render_table,
    token_mask,
)
from .ud_conversion import ARGUMENT_RELATIONS, EXCLUDED_RELATIONS

PARTICIPANT_CATEGORY = "A"

#: Semantic head categories: main relations, parallel scenes, and centers.
SEMANTIC_HEAD_CATEGORIES = frozenset({"P", "S", "H", "C"})


class AlignmentError(Exception):
    """The two sides do not describe the same sentences."""


@dataclass(frozen=True)
class SentenceAlignment:
    """Yield-level alignment of one sentence pair."""

    sentence_id: str
    matched: frozenset[tuple[frozenset[int], CategorySet, CategorySet]]
    unmatched_ud: frozenset[tuple[frozenset[int], CategorySet]]
    unmatched_ucca: frozenset[tuple[frozenset[int], CategorySet]]


class UnitAlignment(NamedTuple):
    """A SentenceAlignment keyed by yield masks, in lists: what the CLI folds."""

    matched: list[tuple[int, CategorySet, CategorySet]]
    unmatched_ud: list[tuple[int, CategorySet]]
    unmatched_ucca: list[tuple[int, CategorySet]]


def counted_index(units: SentenceUnits, excluded: frozenset[str] = frozenset()):
    """The top-category index without the ROOT sentinel and without units
    labeled with a single relation in excluded."""
    return {
        y: label
        for y, label in units.index().items()
        if label != ROOT_SENTINEL
        and not (len(label.categories) == 1 and label.categories[0] in excluded)
    }


def align_units(ud: SentenceUnits, ucca: SentenceUnits) -> UnitAlignment:
    """Match the units of one sentence pair by yield mask."""
    check_same_tokens(ud, ucca, AlignmentError)
    ud_index = counted_index(ud, EXCLUDED_RELATIONS)
    ucca_index = counted_index(ucca)
    return UnitAlignment(
        [(y, label, ucca_index[y]) for y, label in ud_index.items() if y in ucca_index],
        [(y, label) for y, label in ud_index.items() if y not in ucca_index],
        [(y, label) for y, label in ucca_index.items() if y not in ud_index],
    )


def align_sentence(ud_dag: UnifiedDAG, ucca_dag: UnifiedDAG) -> SentenceAlignment:
    """Match the units of one converted/normalized sentence pair by yield."""
    aligned = align_units(dag_units(ud_dag), dag_units(ucca_dag))
    return SentenceAlignment(
        ud_dag.sentence_id,
        frozenset((mask_tokens(y), a, b) for y, a, b in aligned.matched),
        frozenset((mask_tokens(y), a) for y, a in aligned.unmatched_ud),
        frozenset((mask_tokens(y), a) for y, a in aligned.unmatched_ucca),
    )


@dataclass
class ConfusionMatrix:
    """Counts of matched (relation, category set) pairs plus No-Match margins.

    Every count is a sum over sentences, so sentences may be added in any
    order without changing the result.
    """

    cells: Counter = field(default_factory=Counter)
    no_match_ud: Counter = field(default_factory=Counter)
    no_match_ucca: Counter = field(default_factory=Counter)

    def add(self, alignment: SentenceAlignment | UnitAlignment) -> "ConfusionMatrix":
        for _, ud_label, ucca_label in alignment.matched:
            self.cells[ud_label.render(), ucca_label.render()] += 1
        for _, ud_label in alignment.unmatched_ud:
            self.no_match_ud[ud_label.render()] += 1
        for _, ucca_label in alignment.unmatched_ucca:
            self.no_match_ucca[ucca_label.render()] += 1
        return self

    def row_labels(self) -> list[str]:
        rows = {r for r, _ in self.cells} | set(self.no_match_ud)
        ordered = sorted(r for r in rows if r != HEAD_LABEL)
        if HEAD_LABEL in rows:
            ordered.append(HEAD_LABEL)
        return ordered

    def column_labels(self) -> list[str]:
        return sorted({c for _, c in self.cells} | set(self.no_match_ucca))


def confusion_matrix(alignments: Iterable[SentenceAlignment]) -> ConfusionMatrix:
    matrix = ConfusionMatrix()
    for alignment in alignments:
        matrix.add(alignment)
    return matrix


@dataclass(frozen=True)
class OverlapScore:
    precision: float
    recall: float
    f1: float
    n_ud: int
    n_ucca: int
    n_common: int

    @classmethod
    def from_counts(cls, n_ud: int, n_ucca: int, n_common: int) -> "OverlapScore":
        # Precision is over UD units, recall over semantic units.
        c = EvalCounts(n_gold=n_ucca, n_pred=n_ud, n_correct=n_common)
        return cls(c.precision, c.recall, c.f1, n_ud, n_ucca, n_common)

    def summary(self) -> str:
        return (
            f"yields: n_ud={self.n_ud} n_ucca={self.n_ucca} n_common={self.n_common} "
            f"P={self.n_common}/{self.n_ud}={self.precision:.4f} "
            f"R={self.n_common}/{self.n_ucca}={self.recall:.4f} "
            f"F1={100 * self.f1:.2f}%"
        )


def overlap_f1(matrix: ConfusionMatrix) -> OverlapScore:
    """How much of one scheme's units the other accounts for."""
    n_common = sum(matrix.cells.values())
    n_ud = n_common + sum(matrix.no_match_ud.values())
    n_ucca = n_common + sum(matrix.no_match_ucca.values())
    return OverlapScore.from_counts(n_ud, n_ucca, n_common)


@dataclass(frozen=True)
class Ratio:
    """A share with explicit degenerate-denominator reporting."""

    numerator: int
    denominator: int

    @property
    def value(self) -> float:
        return self.numerator / self.denominator if self.denominator else 0.0

    @property
    def undefined(self) -> bool:
        return self.denominator == 0

    def render(self) -> str:
        flag = " (undefined)" if self.undefined else ""
        return f"{self.numerator}/{self.denominator}={100 * self.value:.1f}%{flag}"


@dataclass(frozen=True)
class StatReport:
    """Corpus-level divergence statistics between the two schemes."""

    argument_to_participant: Ratio
    participant_to_argument: Ratio
    predicate_to_scene: Ratio
    scene_to_predicate: Ratio
    head_semantic: Ratio
    head_unmatched: Ratio
    head_other: Ratio

    def rows(self) -> list[tuple[str, Ratio]]:
        return [
            ("argument_units_matched_to_participant", self.argument_to_participant),
            ("participant_units_matched_to_argument", self.participant_to_argument),
            ("predicates_corresponding_to_scenes", self.predicate_to_scene),
            ("scenes_corresponding_to_predicates", self.scene_to_predicate),
            ("head_units_matched_to_semantic_head", self.head_semantic),
            ("head_units_unmatched", self.head_unmatched),
            ("head_units_matched_to_other", self.head_other),
        ]

    def render(self) -> str:
        lines = [
            f"{key}\t{r.numerator}\t{r.denominator}\t{100 * r.value:.1f}"
            + ("\tundefined" if r.undefined else "")
            for key, r in self.rows()
        ]
        return "".join(line + "\n" for line in lines)


def _predicate_heads(ud: SentenceUnits) -> list[int]:
    """Head-word yield masks of units holding at least one argument relation."""
    parent, label = ud.parent, ud.label
    holders = set()
    head_child: dict[int, int] = {}
    for u in ud.order:
        p = parent[u]
        if p < 0:
            continue
        cats = label[u].categories
        if len(cats) == 1 and cats[0] in ARGUMENT_RELATIONS:
            holders.add(p)
        elif HEAD_LABEL in cats:
            head_child.setdefault(p, u)
    yields = ud.yields
    return [yields[head_child[p]] for p in holders if p in head_child and yields[head_child[p]]]


def _scene_yields(ucca: SentenceUnits) -> set[int]:
    """Non-empty yield masks of units with at least one Participant child."""
    parent, label, yields = ucca.parent, ucca.label, ucca.yields
    return {
        yields[parent[u]]
        for u in ucca.order
        if parent[u] >= 0 and PARTICIPANT_CATEGORY in label[u].categories and yields[parent[u]]
    }


@dataclass
class StatsAccumulator:
    """Raw counts behind StatReport, folded one aligned sentence at a time.

    Participant shares follow the matched triples directly. A predicate is
    a unit with at least one argument-labeled child; a scene is a unit with
    at least one Participant child; the two correspond when the scene's
    yield is matched in the alignment and contains the predicate's head
    word(s).
    """

    arg_total: int = 0
    arg_to_a: int = 0
    a_total: int = 0
    a_to_arg: int = 0
    pred_total: int = 0
    pred_matched: int = 0
    scene_total: int = 0
    scene_matched: int = 0
    head_total: int = 0
    head_semantic: int = 0
    head_unmatched: int = 0

    def add(
        self, alignment: SentenceAlignment, ud_dag: UnifiedDAG, ucca_dag: UnifiedDAG
    ) -> "StatsAccumulator":
        masked = UnitAlignment(
            [(token_mask(y), a, b) for y, a, b in alignment.matched],
            [(token_mask(y), a) for y, a in alignment.unmatched_ud],
            [(token_mask(y), a) for y, a in alignment.unmatched_ucca],
        )
        return self.add_units(masked, dag_units(ud_dag), dag_units(ucca_dag))

    def add_units(
        self, alignment: UnitAlignment, ud: SentenceUnits, ucca: SentenceUnits
    ) -> "StatsAccumulator":
        for _, ud_label, ucca_label in alignment.matched:
            r = ud_label.render()
            if r in ARGUMENT_RELATIONS:
                self.arg_total += 1
                if PARTICIPANT_CATEGORY in ucca_label:
                    self.arg_to_a += 1
            if PARTICIPANT_CATEGORY in ucca_label:
                self.a_total += 1
                if r in ARGUMENT_RELATIONS:
                    self.a_to_arg += 1
            if r == HEAD_LABEL:
                self.head_total += 1
                if set(ucca_label.categories) & SEMANTIC_HEAD_CATEGORIES:
                    self.head_semantic += 1
        for _, ud_label in alignment.unmatched_ud:
            r = ud_label.render()
            if r in ARGUMENT_RELATIONS:
                self.arg_total += 1
            if r == HEAD_LABEL:
                self.head_total += 1
                self.head_unmatched += 1
        for _, ucca_label in alignment.unmatched_ucca:
            if PARTICIPANT_CATEGORY in ucca_label:
                self.a_total += 1

        heads = _predicate_heads(ud)
        scenes = _scene_yields(ucca)
        matched = {y for y, _, _ in alignment.matched}
        matched_scenes = [y for y in scenes if y in matched]
        self.scene_total += len(scenes)
        self.scene_matched += sum(any(h & ~y == 0 for h in heads) for y in matched_scenes)
        self.pred_total += len(heads)
        self.pred_matched += sum(any(h & ~y == 0 for y in matched_scenes) for h in heads)
        return self

    def report(self) -> StatReport:
        return StatReport(
            argument_to_participant=Ratio(self.arg_to_a, self.arg_total),
            participant_to_argument=Ratio(self.a_to_arg, self.a_total),
            predicate_to_scene=Ratio(self.pred_matched, self.pred_total),
            scene_to_predicate=Ratio(self.scene_matched, self.scene_total),
            head_semantic=Ratio(self.head_semantic, self.head_total),
            head_unmatched=Ratio(self.head_unmatched, self.head_total),
            head_other=Ratio(
                self.head_total - self.head_semantic - self.head_unmatched,
                self.head_total,
            ),
        )


def render_matrix(matrix: ConfusionMatrix, fmt: str) -> str:
    """The matrix as TSV or Markdown; zero cells render as empty strings."""
    columns = matrix.column_labels()
    rows = [
        [row]
        + [_cell(matrix.cells.get((row, col), 0)) for col in columns]
        + [_cell(matrix.no_match_ud.get(row, 0))]
        for row in matrix.row_labels()
    ]
    rows.append(
        ["No Match"] + [_cell(matrix.no_match_ucca.get(col, 0)) for col in columns] + [""]
    )
    corner = "relation" if fmt == "md" else ""
    return render_table([corner] + columns + ["No Match"], rows, fmt)


def _cell(count: int) -> str:
    return str(count) if count else ""
