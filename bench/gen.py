"""Seeded generator of VCR-shaped synthetic corpora.

A record looks like a Visual Commonsense Reasoning annotation: a movie
scene (``source_key``) with 1-3 people and a few other detected objects,
a question that refers to a person or object by an inline tag, and a gold
answer (``qa``) or rationale (``qar``) that mixes words, pronouns and tags.
Every knob the benchmark depends on is a field of :class:`CorpusShape`; the
same shape and seed always produce the same bytes.  Words are synthetic
consonant-vowel tokens ending in one of ``kptxz``, so none of them is a
stopword, a pronoun or a question-type cue of the program under test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

QTYPES = ("explanation", "activity", "temporal", "mental", "role", "scene",
          "hypothetical", "other")

# One template per question type.  {s} is the subject's tag, {t} a person
# tag, {w} a word;
# each template contains exactly one cue of its type and none of an earlier one.
_QUESTION_TEMPLATES = {
    "explanation": "why is {s} {w} {w} ?",
    "activity": "what is {s} doing with the {w} ?",
    "temporal": "what happened before {s} {w} {w} ?",
    "mental": "how is {s} feeling about the {w} ?",
    "role": "what is the relation between {s} and {t} {w} ?",
    "scene": "where is {s} {w} {w} ?",
    "hypothetical": "what would {s} do if {w} {w} ?",
    "other": "what is {s} {w} {w} ?",
}

PRONOUNS = {"neutral": ("they", "their"), "female": ("she", "her"),
            "male": ("he", "his")}

# Short stock answers that many records share, like VCR's "yes ." or
# "[person1] is happy ."; a share of golds is drawn from here.
_STOCK_GOLDS = ("yes .", "no , not really .", "{p} is happy .", "{p} is sad .",
                "{p} is angry .", "{p} is scared .")

# Embeddings scatter around this many topic centres, shifted by the offset
# of one of two groups: record i is in group i % 2.  The groups lie so far
# apart that k-means with k = 2 splits any set of records into its two
# groups, so qar bucket sizes, which set the cost of a run, are halves of
# the pronoun classes and do not change with the seed.
N_TOPICS = 32
EMBED_GROUPS = 2
GROUP_DISTANCE = 40.0

_ONSETS = "bdfgklmnprsv"
_VOWELS = "aeiou"
_CODAS = "kptxz"


@dataclass(frozen=True)
class CorpusShape:
    """Every property of a generated corpus that the benchmark varies."""

    n: int
    mode: str = "qa"
    # object classes, "person" included; records carry 1-4 non-person objects
    n_classes: int = 80
    # share of tags (question subject and gold) that name a non-person
    # object; remap fallbacks and relevance at the eps floor come from these
    nonperson_tag_rate: float = 0.5
    vocab_size: int = 400
    # chance that a gold content word is copied from its own query
    shared_word_rate: float = 0.3
    # chance that a gold is one of the few stock answers
    dup_gold_rate: float = 0.0
    # weights of neutral / female / male gold pronouns
    pronoun_mix: tuple[float, float, float] = (1.0, 0.0, 0.0)
    # weights over QTYPES
    qtype_mix: tuple[float, ...] = (1.0,) + (0.0,) * 7
    records_per_source: int = 20
    # 0 writes no embeddings
    embed_dim: int = 0


def vocabulary(size: int) -> list[str]:
    """``size`` distinct synthetic words, in a fixed order."""
    words = []
    for a in _ONSETS:
        for b in _VOWELS:
            for c in _ONSETS:
                for d in _VOWELS:
                    for e in _CODAS:
                        words.append(a + b + c + d + e)
    if size > len(words):
        raise ValueError(f"vocab_size is at most {len(words)}")
    return words[:size]


def _zipf_weights(size: int) -> np.ndarray:
    w = 1.0 / np.arange(1, size + 1)
    return w / w.sum()


def generate(shape: CorpusShape, seed: int) -> list[dict]:
    """The records of one corpus, as JSON-ready dicts in id order."""
    if shape.mode not in ("qa", "qar"):
        raise ValueError(f"mode must be qa or qar, got {shape.mode!r}")
    rng = np.random.default_rng([seed, shape.n])
    vocab = vocabulary(shape.vocab_size)
    word_p = _zipf_weights(shape.vocab_size)
    classes = [f"obj{c:02d}" for c in range(shape.n_classes - 1)]
    class_p = _zipf_weights(len(classes))
    pronoun_names = ("neutral", "female", "male")
    pronoun_p = np.asarray(shape.pronoun_mix, dtype=float)
    qtype_p = np.asarray(shape.qtype_mix, dtype=float)
    topics = rng.normal(size=(N_TOPICS, shape.embed_dim)) * 2.0
    if shape.embed_dim:
        offsets = rng.normal(size=(EMBED_GROUPS, shape.embed_dim))
        offsets *= GROUP_DISTANCE / np.linalg.norm(offsets, axis=1, keepdims=True)

    def words(k: int) -> list[str]:
        return [vocab[int(x)] for x in rng.choice(shape.vocab_size, size=k, p=word_p)]

    records = []
    for i in range(shape.n):
        n_person = int(rng.integers(1, 4))
        others = [classes[int(c)] for c in
                  rng.choice(len(classes), size=int(rng.integers(1, 5)), p=class_p)]
        objects = ["person"] * n_person + others
        persons = list(range(1, n_person + 1))

        def tag(idx: int) -> str:
            return f"[{objects[idx - 1]}:{idx}]"

        def some_tag() -> str:
            # a person, or with nonperson_tag_rate one of the other objects
            if rng.random() < shape.nonperson_tag_rate:
                return tag(n_person + 1 + int(rng.integers(len(others))))
            return tag(int(rng.choice(persons)))

        subject = some_tag()
        qtype = QTYPES[int(rng.choice(len(QTYPES), p=qtype_p / qtype_p.sum()))]
        query_words = words(2)
        question = _QUESTION_TEMPLATES[qtype]
        question = question.replace("{s}", subject).replace(
            "{t}", tag(int(rng.choice(persons))))
        for w in query_words:
            question = question.replace("{w}", w, 1)
        question = question.replace("{w}", query_words[0])

        pronoun = pronoun_names[int(rng.choice(3, p=pronoun_p / pronoun_p.sum()))]
        if rng.random() < shape.dup_gold_rate:
            stock = _STOCK_GOLDS[int(rng.integers(len(_STOCK_GOLDS)))]
            gold = stock.replace("{p}", tag(1))
        else:
            gold_words = [query_words[int(rng.integers(2))]
                          if rng.random() < shape.shared_word_rate else w
                          for w in words(int(rng.integers(3, 7)))]
            gold_tags = [some_tag() for _ in range(int(rng.integers(0, 3)))]
            subj, poss = PRONOUNS[pronoun]
            gold = " ".join([subject, gold_words[0], subj, *gold_words[1:2],
                             poss, *gold_words[2:], *gold_tags, "."])
        if shape.mode == "qar":
            query = question + " " + " ".join([subject, *words(3), "."])
        else:
            query = question

        record = {"id": f"r{i:06d}",
                  "source_key": f"movie{i // shape.records_per_source:05d}",
                  "task_mode": shape.mode, "query": query, "gold": gold,
                  "objects": objects}
        if shape.embed_dim:
            topic = int(rng.integers(N_TOPICS))
            vec = topics[topic] + offsets[i % EMBED_GROUPS] + rng.normal(size=shape.embed_dim)
            record["embedding"] = [round(float(x), 6) for x in vec]
        records.append(record)
    return records


def corpus_bytes(shape: CorpusShape, seed: int) -> bytes:
    """The corpus as JSONL bytes, ready for ``advmatch`` to read."""
    lines = [json.dumps(r, separators=(",", ":")) for r in generate(shape, seed)]
    return ("\n".join(lines) + "\n").encode("utf-8")
