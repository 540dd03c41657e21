"""Machine-difficulty and bias measurement over exported MCQ items.

Two probes stand in for human evaluation at desk scale:

* lambda_sweep: rerun the whole pipeline across a tradeoff grid and
  report attacker accuracy plus the matched relevance/similarity means.
  The attacker is the overlap relevance scorer at the config's eps; its
  accuracy is how often it scores the gold strictly above every
  distractor.  Each bucket counts its hits in the worker that matched it,
  from the relevance matrix it scored (``BucketResult.attack_hits``), and
  the sweep divides their sum by the item count, so no item is parsed
  back in the parent;
* frequency_prior_probe: predict from per-response gold rates alone,
  without ever reading the query.  On well-matched output every response
  is gold once and a distractor K times, so the probe converges to
  chance at 1/(K+1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .matcher import MCQItem, MatchConfig
from .pipeline import RunResult, run_match
from .scoring import ScorerSpec
from .corpus import Token


class DiagnosticsError(ValueError):
    """Raised for unusable probe inputs."""


def canonical_choice_text(tokens: Sequence[Token]) -> str:
    """Choice text with tags collapsed to their class names."""
    return " ".join(t.tag_class if t.kind == "tag" else t.text for t in tokens)


def frequency_prior_probe(train_items: Sequence[MCQItem],
                          eval_items: Sequence[MCQItem],
                          feature: Callable[[Sequence[Token]], object] | None = None,
                          ) -> float:
    """Accuracy of predicting gold from per-response gold rates alone.

    Builds a (times gold / times appearing) table over the train items'
    choices, then on each eval item predicts the choice with the highest
    rate (unseen -> 0.0, ties -> first choice).  ``feature`` customizes how
    a choice is keyed; the default is its class-canonical text.
    """
    if not train_items or not eval_items:
        raise DiagnosticsError("probe needs non-empty train and eval items")
    key = feature or canonical_choice_text
    counts: dict[object, list[int]] = {}
    for item in train_items:
        for pos, choice in enumerate(item.choices):
            entry = counts.setdefault(key(choice), [0, 0])
            entry[0] += pos == item.gold_index
            entry[1] += 1
    rates = {k: g / s for k, (g, s) in counts.items()}
    hits = 0
    for item in eval_items:
        choice_rates = [rates.get(key(c), 0.0) for c in item.choices]
        if choice_rates.index(max(choice_rates)) == item.gold_index:
            hits += 1
    return hits / len(eval_items)


@dataclass(frozen=True)
class SweepRow:
    lambda_: float
    machine_accuracy: float
    mean_gold_distractor_similarity: float
    mean_distractor_relevance: float


def _matched_means(result: RunResult) -> tuple[float, float]:
    sim_sum = rel_sum = 0.0
    count = 0
    for br in result.buckets:
        # Python floats in pair order; numpy's pairwise sum would move
        # the means' last digits
        for rel, sim in br.matched.tolist():
            sim_sum += sim
            rel_sum += rel
            count += 1
    return sim_sum / count, rel_sum / count


def lambda_sweep(records, grid: Sequence[float], config: MatchConfig,
                 rel_spec: ScorerSpec | None = None,
                 sim_spec: ScorerSpec | None = None,
                 jobs: int = 1) -> list[SweepRow]:
    """Full pipeline rerun per lambda (same seed); one row per grid point.

    A row's accuracy is the sum of the run's ``attack_hits`` over its item
    count, for any ``rel_spec``.  A grid point's run is dropped before the
    next point runs, so only one run's texts are held at a time.
    """
    if not grid:
        raise DiagnosticsError("lambda grid is empty")
    rows = []
    for lam in grid:
        try:
            result = run_match(records, config.with_lambda(lam),
                               rel_spec=rel_spec, sim_spec=sim_spec, jobs=jobs)
        except ValueError as exc:
            raise DiagnosticsError(f"lambda={lam}: {exc}") from exc
        sim_mean, rel_mean = _matched_means(result)
        hits = sum(br.attack_hits for br in result.buckets)
        rows.append(SweepRow(
            lambda_=float(lam),
            machine_accuracy=hits / result.item_count,
            mean_gold_distractor_similarity=sim_mean,
            mean_distractor_relevance=rel_mean,
        ))
        del result
    return rows


SWEEP_COLUMNS = ("lambda", "machine_accuracy",
                 "mean_gold_distractor_similarity", "mean_distractor_relevance")


def _format_sweep(rows: Sequence[SweepRow], sep: str) -> str:
    lines = [sep.join(SWEEP_COLUMNS)]
    for r in rows:
        lines.append(sep.join([
            repr(r.lambda_), repr(r.machine_accuracy),
            repr(r.mean_gold_distractor_similarity),
            repr(r.mean_distractor_relevance)]))
    return "\n".join(lines) + "\n"


def format_sweep_table(rows: Sequence[SweepRow]) -> str:
    """Plain-text report, one row per sweep point."""
    return _format_sweep(rows, "\t")


def format_sweep_csv(rows: Sequence[SweepRow]) -> str:
    """The table's rows joined with ``,``; no cell needs CSV quoting."""
    return _format_sweep(rows, ",")
