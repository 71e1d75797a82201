"""Unified comparison of syntactic dependency trees and semantic DAGs.

Converts CoNLL-U treebanks and semantic-graph corpora into one DAG format,
aligns units across schemes by terminal yield, aggregates confusion
matrices and divergence statistics, and scores semantic parser output
overall and per syntactic relation.
"""

from .alignment import (
    AlignmentError,
    ConfusionMatrix,
    OverlapScore,
    SentenceAlignment,
    StatReport,
    StatsAccumulator,
    align_sentence,
    confusion_matrix,
    overlap_f1,
)
from .evaluation import (
    EvaluationError,
    FineGrainedRow,
    FineGrainedScorer,
    evaluate_ucca,
    fine_grained,
    render_report,
)
from .model import (
    CategorySet,
    Edge,
    EvalCounts,
    Node,
    StructureError,
    Terminal,
    UnifiedDAG,
    validate,
)
from .normalization import normalize, top_category_index
from .treebanks import (
    ParseError,
    SentencePairs,
    UCCAGraph,
    UDTree,
    iter_conllu,
    iter_ucca_json,
    parse_conllu,
    parse_ucca_json,
    read_unified,
    unified_line,
    write_unified,
)
from .ud_conversion import (
    convert_basic,
    convert_extended,
    join_mwes,
    promote_conjunctions,
    strip_subtypes,
)

__version__ = "0.1.0"
