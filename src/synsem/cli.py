"""Command-line front end.

Subcommands:
  convert    rewrite a dependency treebank or semantic-graph corpus into
             unified DAG JSON-lines
  confusion  cross-scheme confusion matrix plus a yield-overlap summary
  stats      corpus-level divergence statistics
  evaluate   score predicted semantic graphs against gold, optionally with
             the per-relation fine-grained report

Every subcommand reads its inputs once, sentence by sentence, and folds
each sentence (or sentence pair) into a running total before reading the
next, so memory does not grow with corpus size. Under --pair-by id the
second input (and --ud for evaluate --fine-grained) is indexed whole.

Exit codes: 0 success, 1 usage error, 2 data error. A data error leaves
--out untouched. A parse error is reported where it is met; a sentence
count mismatch is reported in preference to an id-pairing or per-sentence
error. Set SYNSEM_LOG to debug/info/warning to control diagnostic
verbosity.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
from pathlib import Path
from typing import Iterable, Iterator

from .alignment import (
    AlignmentError,
    ConfusionMatrix,
    StatsAccumulator,
    align_units,
    overlap_f1,
    render_matrix,
)
from .evaluation import (
    EVAL_ROWS,
    EvaluationError,
    FineGrainedScorer,
    evaluate_units,
    render_report,
)
from .model import EvalCounts, StructureError, render_table
from .normalization import graph_units, normalize
from .treebanks import (
    ParseError,
    SentencePairs,
    iter_conllu,
    iter_ucca_json,
    unified_line,
)
from .ud_conversion import convert_extended, tree_units

log = logging.getLogger("synsem")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

DATA_ERRORS = (ParseError, StructureError, AlignmentError, EvaluationError, OSError)
# Errors raised while working on one sentence pair, as opposed to reading it.
PAIR_ERRORS = (StructureError, AlignmentError, EvaluationError)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for data
    # errors here.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _lines(path: str) -> Iterator[str]:
    """The lines of a UTF-8 file, read lazily and split at "\n" only."""
    with open(path, "rb") as handle:
        for line_no, raw in enumerate(handle, 1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(
                    f"invalid UTF-8 ({exc.reason}), {path} line {line_no}"
                ) from None
            yield line


def _write(path: str, text: str):
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def _write_lines(path: str, lines: Iterable[str]) -> int:
    """Stream lines into a temporary file beside path, then rename it over
    path, so that an error part-way leaves path as it was. Returns the
    number of lines written."""
    target = Path(path)
    partial = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    count = 0
    try:
        with open(partial, "w", encoding="utf-8", newline="\n") as handle:
            for line in lines:
                handle.write(line)
                count += 1
        os.replace(partial, target)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    return count


def _fold(pairs: SentencePairs, step) -> None:
    """Call step on each pair in turn; a count mismatch beats its errors."""
    try:
        for items in pairs:
            step(*items)
    except PAIR_ERRORS:
        pairs.check_counts()
        raise


def cmd_convert(args) -> int:
    if args.ud:
        join, promote = not args.no_mwe_join, not args.no_conj_promote
        dags = (
            convert_extended(tree, join_unanalyzable=join, promote=promote)
            for tree in iter_conllu(_lines(args.ud))
        )
    else:
        dags = map(normalize, iter_ucca_json(_lines(args.ucca)))
    count = _write_lines(args.out, map(unified_line, dags))
    log.info("converted %d sentences from %s", count, args.ud or args.ucca)
    return EXIT_OK


def _syntax_semantics_pairs(args) -> SentencePairs:
    return SentencePairs(
        iter_conllu(_lines(args.ud)), iter_ucca_json(_lines(args.ucca)), by=args.pair_by
    )


def _align_pair(tree, graph):
    """One sentence pair as unit arrays, aligned by yield mask. A structural
    error in the graph is raised before a token mismatch."""
    ucca = graph_units(graph)
    ud = tree_units(tree)
    return align_units(ud, ucca), ud, ucca


def cmd_confusion(args) -> int:
    matrix = ConfusionMatrix()
    _fold(_syntax_semantics_pairs(args),
          lambda tree, graph: matrix.add(_align_pair(tree, graph)[0]))
    score = overlap_f1(matrix)
    if args.format == "md":
        body = render_matrix(matrix, "md") + "\n" + score.summary() + "\n"
    else:
        body = render_matrix(matrix, "tsv") + "# " + score.summary() + "\n"
    _write(args.out, body)
    return EXIT_OK


def cmd_stats(args) -> int:
    stats = StatsAccumulator()
    _fold(_syntax_semantics_pairs(args),
          lambda tree, graph: stats.add_units(*_align_pair(tree, graph)))
    _write(args.out, stats.report().render())
    return EXIT_OK


def _evaluate_pair(totals: dict, scorer: FineGrainedScorer, gold_graph, pred_graph,
                   tree=None):
    """Fold one gold/pred pair, and its gold tree under --fine-grained.

    Token checks run gold against pred, then the tree against gold and
    against pred."""
    gold = graph_units(gold_graph)
    pred = graph_units(pred_graph)
    for row, counts in evaluate_units(gold, pred).items():
        totals[row] += counts
    if tree is not None:
        scorer.add_units(gold, pred, tree_units(tree))


def cmd_evaluate(args) -> int:
    streams = [iter_ucca_json(_lines(args.gold)), iter_ucca_json(_lines(args.pred))]
    if args.fine_grained:
        streams.append(iter_conllu(_lines(args.ud)))
    totals = dict.fromkeys(EVAL_ROWS, EvalCounts())
    scorer = FineGrainedScorer()
    _fold(SentencePairs(*streams, by=args.pair_by),
          functools.partial(_evaluate_pair, totals, scorer))
    rows = scorer.rows() if args.fine_grained else None
    _write(args.out, _format_evaluation(totals, rows, args.format))
    return EXIT_OK


def _format_evaluation(totals, rows, fmt: str) -> str:
    if fmt == "json":
        payload = {
            "corpus": {
                f"{edge_class}_{'labeled' if labeled else 'unlabeled'}": {
                    "n_gold": c.n_gold,
                    "n_pred": c.n_pred,
                    "n_correct": c.n_correct,
                    "precision": c.precision,
                    "recall": c.recall,
                    "f1": c.f1,
                }
                for (edge_class, labeled), c in totals.items()
            }
        }
        if rows is not None:
            payload["fine_grained"] = [row.as_dict() for row in rows]
        return json.dumps(payload, ensure_ascii=False, indent=2) + "\n"

    header = ["edges", "mode", "n_gold", "n_pred", "n_correct", "P", "R", "F1"]
    body_rows = [
        [
            edge_class,
            "labeled" if labeled else "unlabeled",
            str(c.n_gold),
            str(c.n_pred),
            str(c.n_correct),
            f"{100 * c.precision:.1f}",
            f"{100 * c.recall:.1f}",
            f"{100 * c.f1:.1f}",
        ]
        for (edge_class, labeled), c in totals.items()
    ]
    text = render_table(header, body_rows, fmt)
    if rows is not None:
        text += "\n" + render_report(rows, fmt=fmt)
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="synsem", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p):
        p.add_argument("--out", required=True, help="output file path")
        p.add_argument("--pair-by", choices=("index", "id"), default="index",
                       help="pair sentences positionally or by sentence id")

    p = sub.add_parser("convert", help="convert a corpus to unified JSON-lines")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--ud", help="CoNLL-U input path")
    source.add_argument("--ucca", help="semantic-graph JSON-lines input path")
    p.add_argument("--no-mwe-join", action="store_true",
                   help="keep flat/fixed/goeswith chains as separate tokens")
    p.add_argument("--no-conj-promote", action="store_true",
                   help="leave conjunctions inside their conjuncts")
    common(p)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("confusion", help="cross-scheme confusion matrix")
    p.add_argument("--ud", required=True, help="CoNLL-U input path")
    p.add_argument("--ucca", required=True, help="semantic-graph JSON-lines path")
    p.add_argument("--format", choices=("tsv", "md"), default="tsv")
    common(p)
    p.set_defaults(func=cmd_confusion)

    p = sub.add_parser("stats", help="corpus divergence statistics")
    p.add_argument("--ud", required=True, help="CoNLL-U input path")
    p.add_argument("--ucca", required=True, help="semantic-graph JSON-lines path")
    common(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("evaluate", help="score predicted graphs against gold")
    p.add_argument("--gold", required=True, help="gold JSON-lines path")
    p.add_argument("--pred", required=True, help="predicted JSON-lines path")
    p.add_argument("--ud", help="gold CoNLL-U path (for --fine-grained)")
    p.add_argument("--fine-grained", action="store_true",
                   help="add the per-relation breakdown (requires --ud)")
    p.add_argument("--format", choices=("tsv", "md", "json"), default="tsv")
    common(p)
    p.set_defaults(func=cmd_evaluate)
    return parser


def _configure_logging():
    level_name = os.environ.get("SYNSEM_LOG", "warning").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "evaluate" and args.fine_grained and not args.ud:
        parser.error("--fine-grained requires --ud")
    try:
        return args.func(args)
    except DATA_ERRORS as exc:
        print(f"synsem: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
