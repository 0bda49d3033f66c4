"""Discard confusion analysis: what a strategy got right and wrong.

Treats resolution as a binary classifier over the stream -- "discard"
(predicted corrupted) vs "keep" -- against the ground-truth corrupted
flags, yielding the standard confusion counts and derived scores.
``removal precision`` and ``survival rate`` from the paper's case
study are two cells of this matrix; the full matrix plus F1 makes
strategies comparable on one scale.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.resolver import ResolutionLog

__all__ = ["DiscardConfusion", "confusion_from_log", "format_confusion"]


@dataclass(frozen=True)
class DiscardConfusion:
    """Binary confusion counts for discard-as-corruption-detection."""

    true_positives: int  # corrupted and discarded
    false_positives: int  # expected but discarded
    false_negatives: int  # corrupted but kept
    true_negatives: int  # expected and kept

    @property
    def total(self) -> int:
        return (
            self.true_positives
            + self.false_positives
            + self.false_negatives
            + self.true_negatives
        )

    @property
    def precision(self) -> float:
        """The paper's removal precision."""
        denominator = self.true_positives + self.false_positives
        if denominator == 0:
            return 1.0
        return self.true_positives / denominator

    @property
    def recall(self) -> float:
        """Fraction of corrupted contexts actually removed."""
        denominator = self.true_positives + self.false_negatives
        if denominator == 0:
            return 1.0
        return self.true_positives / denominator

    @property
    def survival_rate(self) -> float:
        """The paper's context survival rate (expected kept)."""
        denominator = self.false_positives + self.true_negatives
        if denominator == 0:
            return 1.0
        return self.true_negatives / denominator

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        if p + r == 0:
            return 0.0
        return 2 * p * r / (p + r)

    @property
    def accuracy(self) -> float:
        if self.total == 0:
            return 1.0
        return (self.true_positives + self.true_negatives) / self.total


def confusion_from_log(log: ResolutionLog) -> DiscardConfusion:
    """Build the confusion matrix from a run's resolution log."""
    discarded_ids = {c.ctx_id for c in log.discarded}
    tp = fp = fn = tn = 0
    for ctx in log.added:
        discarded = ctx.ctx_id in discarded_ids
        if ctx.corrupted and discarded:
            tp += 1
        elif ctx.corrupted:
            fn += 1
        elif discarded:
            fp += 1
        else:
            tn += 1
    return DiscardConfusion(
        true_positives=tp,
        false_positives=fp,
        false_negatives=fn,
        true_negatives=tn,
    )


def format_confusion(confusion: DiscardConfusion) -> str:
    """A compact multi-line rendering of the matrix and scores."""
    return (
        f"                discarded   kept\n"
        f"  corrupted     {confusion.true_positives:9d}   {confusion.false_negatives:4d}\n"
        f"  expected      {confusion.false_positives:9d}   {confusion.true_negatives:4d}\n"
        f"  precision {confusion.precision:.3f}  recall {confusion.recall:.3f}  "
        f"F1 {confusion.f1:.3f}  survival {confusion.survival_rate:.3f}"
    )
