"""Adversarially matched multiple-choice dataset construction.

Converts a corpus of (query, gold-response) annotations into four-way
multiple-choice items: each gold response is recycled as a wrong answer
for exactly K other queries via maximum-weight bipartite matching over a
relevance/similarity tradeoff, with fold hygiene, bucketing, detection-tag
remapping, and bias diagnostics.
"""

from .assignment import Assignment, AssignmentError, WeightMatrix, solve_lap_max
from .bucketing import (Bucket, BucketKey, BucketingError, build_buckets,
                        cluster_embeddings, pronoun_class, question_type)
from .corpus import (CorpusError, FoldPlan, Record, Token, parse_records,
                     parse_token_stream, serialize_records, split_folds,
                     tokens_to_text, validate_record)
from .diagnostics import SweepRow, frequency_prior_probe, lambda_sweep
from .matcher import (MatchConfig, MatchingError, MCQItem, export_mcq,
                      parse_items, run_rounds, weight_matrix, write_items)
from .pipeline import PipelineError, RunResult, plan_buckets, run_match
from .remap import CandidateTable, RemapError
from .scoring import (ScoreMatrix, ScorerSpec, ScoringError, read_score_matrix,
                      score_bucket, write_score_matrix)

__version__ = "0.1.0"

__all__ = [
    "Assignment", "AssignmentError", "WeightMatrix", "solve_lap_max",
    "Bucket", "BucketKey", "BucketingError", "build_buckets",
    "cluster_embeddings", "pronoun_class", "question_type",
    "CorpusError", "FoldPlan", "Record", "Token",
    "parse_records", "parse_token_stream",
    "serialize_records", "split_folds", "tokens_to_text", "validate_record",
    "SweepRow", "frequency_prior_probe", "lambda_sweep",
    "MatchConfig", "MatchingError", "MCQItem",
    "export_mcq", "parse_items", "run_rounds", "weight_matrix",
    "write_items",
    "PipelineError", "RunResult", "plan_buckets", "run_match",
    "CandidateTable", "RemapError",
    "ScoreMatrix", "ScorerSpec", "ScoringError", "read_score_matrix",
    "score_bucket", "write_score_matrix",
    "__version__",
]
