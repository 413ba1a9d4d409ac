"""Evaluation metrics and the shared harness for the accuracy experiments."""

from repro.eval.perplexity import perplexity_full, perplexity_with_cache
from repro.eval.accuracy import (
    multiple_choice_accuracy,
    unigram_overlap_f1,
    summarization_overlap,
)
from repro.eval.harness import EvalModel, get_eval_model, evaluate_dataset

__all__ = [
    "perplexity_full",
    "perplexity_with_cache",
    "multiple_choice_accuracy",
    "unigram_overlap_f1",
    "summarization_overlap",
    "EvalModel",
    "get_eval_model",
    "evaluate_dataset",
]
