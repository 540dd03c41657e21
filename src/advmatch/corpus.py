"""Data model, JSONL parsing/validation, and fold splitting for annotated corpora.

A record pairs a query with its gold response.  Both are token sequences
mixing plain words with inline detection tags written as ``[class:index]``,
where ``index`` is 1-based into the record's object list.  Records are
grouped by ``source_key`` (the unit of provenance, e.g. one film) and folds
never split a source group, so downstream train/eval splits cannot leak
near-duplicate material across the boundary.

Corpus files are UTF-8 JSON lines, one record per line, with fields
``id``, ``source_key``, ``query``, ``gold``, ``objects``, ``task_mode``
and optional ``embedding``.
"""

from __future__ import annotations

import functools
import json
import re
import sys
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, Sequence

from .seeding import derive_rng

TASK_MODES = ("qa", "qar")

_TAG_RE = re.compile(r"^\[([^\s\[\]:]+):([0-9]+)\]$")
_LABEL_BAD_RE = re.compile(r"[\s\[\]:]")


class CorpusError(ValueError):
    """Raised for malformed corpus input or invalid fold parameters."""


@dataclass(frozen=True)
class Token:
    """One element of a query/response stream: a word or a detection tag.

    Exactly one side is populated: words carry ``text``; tags carry
    ``tag_class`` and a 1-based ``tag_index`` into the owning record's
    object list.  ``display`` is the token as it is written in a stream,
    and ``pattern`` is the same as a piece of a ``%``-format template: a
    tag is the one conversion ``%s`` and a word keeps its text with every
    ``%`` doubled.  ``word_ok`` is True for a word that passes every rule
    :func:`validate_record` has for words on their own.  All three are
    derived once per token.

    ``Token.word`` and ``Token.tag`` return one shared instance per
    distinct value, and unpickling does the same, so a corpus holds as many
    token objects as it has distinct tokens and a pickled bucket carries
    each of them once.
    """

    kind: str  # "word" | "tag"
    text: str = ""
    tag_class: str = ""
    tag_index: int = 0
    display: str = field(init=False, repr=False, compare=False)
    pattern: str = field(init=False, repr=False, compare=False)
    word_ok: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind == "tag":
            display, pattern = f"[{self.tag_class}:{self.tag_index}]", "%s"
        else:
            display, pattern = self.text, self.text.replace("%", "%%")
        object.__setattr__(self, "display", display)
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "word_ok",
                           self.kind == "word" and _word_problem(self.text) is None)

    @staticmethod
    def word(text: str) -> "Token":
        return _interned("word", text.lower(), "", 0)

    @staticmethod
    def tag(tag_class: str, tag_index: int) -> "Token":
        return _interned("tag", "", tag_class, tag_index)

    def __reduce__(self):
        return _interned, (self.kind, self.text, self.tag_class, self.tag_index)

    @property
    def is_tag(self) -> bool:
        return self.kind == "tag"


# Every token value seen by this process; bounded by the vocabulary plus
# the (class, index) pairs of the corpus.
_TOKENS: dict[tuple[str, str, str, int], Token] = {}


def _interned(kind: str, text: str, tag_class: str, tag_index: int) -> Token:
    key = (kind, text, tag_class, tag_index)
    token = _TOKENS.get(key)
    if token is None:
        token = _TOKENS[key] = Token(kind, text, tag_class, tag_index)
    return token


def parse_token_stream(text: str) -> tuple[Token, ...]:
    """Split a whitespace-delimited stream into word/tag tokens.

    Anything matching ``[class:index]`` becomes a tag; everything else is a
    lowercased word.  The inverse of :func:`tokens_to_text`.
    """
    return tuple(map(_piece_token, text.split()))


# Unbounded like the token table: one entry per distinct piece of input.
@functools.lru_cache(maxsize=None)
def _piece_token(piece: str) -> Token:
    # tokens are interned, so one lookup per distinct piece is enough
    m = _TAG_RE.match(piece)
    if m:
        return Token.tag(m.group(1), int(m.group(2)))
    return Token.word(piece)


def tokens_to_text(tokens: Sequence[Token]) -> str:
    return " ".join([t.display for t in tokens])


@dataclass(frozen=True)
class Record:
    """One annotated example: query, gold response, and its object context."""

    id: str
    source_key: str
    query: tuple[Token, ...]
    gold: tuple[Token, ...]
    objects: tuple[str, ...]
    embedding: tuple[float, ...] | None = None
    task_mode: str = "qa"


def _word_problem(text: str) -> str | None:
    """What is wrong with a word's text (``Token.word_ok`` keeps the verdict)."""
    # words must survive the round trip: no whitespace, not tag-shaped
    if not text or any(c.isspace() for c in text) or _TAG_RE.match(text):
        return "malformed word"
    if text != text.lower():
        return "word not lowercase"
    return None


# Unbounded like the token table: one entry per distinct label.
@functools.lru_cache(maxsize=None)
def _label_problem(label: str) -> str | None:
    if not label or _LABEL_BAD_RE.search(label):
        return "malformed class label"
    if label != label.lower():
        # remapping spells a missing class out as a (lowercased) word
        return "class label not lowercase"
    return None


def _check_tokens(name: str, tokens: Sequence[Token], objects: Sequence[str],
                  out: list[str]) -> None:
    if not tokens:
        out.append(f"{name}: empty")
        return
    for pos, tok in enumerate(tokens):
        if tok.word_ok:
            continue
        if tok.kind == "word":
            out.append(f"{name}[{pos}]: {_word_problem(tok.text)} {tok.text!r}")
        elif tok.kind == "tag":
            if tok.tag_index < 1 or tok.tag_index > len(objects):
                out.append(
                    f"{name}[{pos}]: dangling tag index {tok.tag_index} "
                    f"(objects has {len(objects)} entries)")
            elif objects[tok.tag_index - 1] != tok.tag_class:
                out.append(
                    f"{name}[{pos}]: class mismatch (tag {tok.tag_class!r} vs "
                    f"objects[{tok.tag_index}]={objects[tok.tag_index - 1]!r})")
        else:
            out.append(f"{name}[{pos}]: unknown token kind {tok.kind!r}")


def validate_record(record: Record) -> list[str]:
    """Check every record invariant: the violations, each naming its field
    and rule, or ``[]``.  Violations are data, not exceptions."""
    v: list[str] = []
    if not record.id:
        v.append("id: empty")
    if not record.source_key:
        v.append("source_key: empty")
    if record.task_mode not in TASK_MODES:
        v.append(f"task_mode: must be one of {TASK_MODES}, got {record.task_mode!r}")
    for pos, label in enumerate(record.objects, start=1):
        problem = _label_problem(label)
        if problem is not None:
            v.append(f"objects[{pos}]: {problem} {label!r}")
    _check_tokens("query", record.query, record.objects, v)
    _check_tokens("gold", record.gold, record.objects, v)
    if record.embedding is not None:
        if len(record.embedding) == 0:
            v.append("embedding: empty vector")
        elif not all(x == x and abs(x) != float("inf") for x in record.embedding):
            v.append("embedding: non-finite entry")
    return v


_FIELDS = ("id", "source_key", "query", "gold", "objects", "task_mode")


def record_from_obj(obj: dict, lineno: int = 0, surrogates: bool = True) -> Record:
    """Build a Record from a decoded JSONL object; structural checks only.

    With ``surrogates``, a string field or class label holding a lone
    surrogate, which no output could encode as UTF-8, is refused.  A line
    decoded from UTF-8 can hold one only through a ``\\u`` escape.
    """
    if not isinstance(obj, dict):
        raise CorpusError(f"line {lineno}: expected a JSON object")
    for key in _FIELDS:
        if key not in obj:
            raise CorpusError(f"line {lineno}: missing field {key!r}")
        if key != "objects" and not isinstance(obj[key], str):
            raise CorpusError(f"line {lineno}: field {key!r} must be a string")
    objects = obj["objects"]
    try:
        # strings that many records repeat are held once, as tokens are
        objects = tuple(map(sys.intern, objects)) if isinstance(objects, list) else None
    except TypeError:  # a label that is not a str
        objects = None
    if objects is None:
        raise CorpusError(f"line {lineno}: objects must be a list of class labels")
    if surrogates:
        for key in _FIELDS:
            try:
                for text in objects if key == "objects" else (obj[key],):
                    text.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise CorpusError(f"line {lineno}: field {key!r} cannot be encoded "
                                  f"as UTF-8 ({exc.reason})") from None
    embedding = obj.get("embedding")
    if embedding is not None:
        if not isinstance(embedding, list) or not all(
                isinstance(x, (int, float)) for x in embedding):
            raise CorpusError(f"line {lineno}: embedding must be a list of numbers")
        embedding = tuple(float(x) for x in embedding)
    return Record(obj["id"], sys.intern(obj["source_key"]),
                  parse_token_stream(obj["query"]), parse_token_stream(obj["gold"]),
                  objects, embedding, sys.intern(obj["task_mode"].lower()))


def scan_records(stream: IO[bytes] | IO[str] | Iterable[bytes | str],
                 ) -> Iterator[tuple[Record | None, list[str]]]:
    """Check a JSONL stream line by line: ``(record, problems)`` per line.

    Blank lines are skipped.  ``record`` is None where the line does not
    build one (bad UTF-8, malformed JSON, not an object, missing or
    mistyped field, a lone surrogate); otherwise the problems are its
    invariant violations, a duplicate id, and an embedding length that
    differs from the first non-empty embedding's.  Every problem names the
    line and, once the record is built, its id.  A line's problems depend
    only on it and the lines before it.
    """
    seen: dict[str, int] = {}
    embed_len = embed_line = 0
    for lineno, raw in enumerate(stream, start=1):
        try:
            line = (raw.decode("utf-8") if isinstance(raw, bytes) else raw).strip()
            if not line:
                continue
            record = record_from_obj(json.loads(line), lineno,
                                     not isinstance(raw, bytes) or "\\u" in line)
        except UnicodeDecodeError as exc:
            yield None, [f"line {lineno}: not valid UTF-8 ({exc})"]
            continue
        except json.JSONDecodeError as exc:
            yield None, [f"line {lineno}: malformed JSON ({exc.msg})"]
            continue
        except CorpusError as exc:
            yield None, [str(exc)]
            continue
        problems = []
        violations = validate_record(record)
        if violations:
            problems.append("invalid record: " + "; ".join(violations))
        first = seen.setdefault(record.id, lineno)
        if first != lineno:
            problems.append(f"duplicate id, first seen on line {first}")
        if record.embedding:
            if not embed_len:
                embed_len, embed_line = len(record.embedding), lineno
            elif len(record.embedding) != embed_len:
                problems.append(
                    f"embedding length {len(record.embedding)} differs "
                    f"from length {embed_len} on line {embed_line}")
        if problems:
            problems = [f"line {lineno}: record {record.id!r}: {p}" for p in problems]
        yield record, problems


def parse_records(stream: IO[bytes] | IO[str] | Iterable[bytes | str]) -> list[Record]:
    """Parse a JSONL byte/text stream into validated records.

    Raises :class:`CorpusError` with the first problem
    :func:`scan_records` finds.  Input order is preserved.
    """
    records: list[Record] = []
    for record, problems in scan_records(stream):
        if problems:
            raise CorpusError(problems[0])
        records.append(record)
    return records


def serialize_records(records: Iterable[Record],
                      folds: dict[str, int] | None = None) -> str:
    """Records back to JSONL text, one line each; inverse of
    :func:`parse_records`.  With ``folds``, a record whose source key it
    maps also carries its ``fold``."""
    folds = folds or {}
    lines = []
    for r in records:
        obj: dict = {"id": r.id, "source_key": r.source_key, "task_mode": r.task_mode,
                     "query": tokens_to_text(r.query), "gold": tokens_to_text(r.gold),
                     "objects": list(r.objects)}
        if r.embedding is not None:
            obj["embedding"] = list(r.embedding)
        if (fold := folds.get(r.source_key)) is not None:
            obj["fold"] = fold
        lines.append(json.dumps(obj, ensure_ascii=False, separators=(",", ":")) + "\n")
    return "".join(lines)


@dataclass(frozen=True)
class FoldPlan:
    """Assignment of every source_key to exactly one fold."""

    assignment: dict[str, int]

    def fold_of(self, record: Record) -> int:
        return self.assignment[record.source_key]


def split_folds(records: Sequence[Record], n_folds: int, seed: int) -> FoldPlan:
    """Greedy balanced fold split that keeps each source group whole.

    Groups are placed largest-first into the currently smallest fold, with
    equal-size groups ordered by a seeded shuffle, so the plan is
    deterministic given the seed and independent of record order.
    """
    if n_folds < 1:
        raise CorpusError(f"n_folds must be >= 1, got {n_folds}")
    sizes: dict[str, int] = {}
    for r in records:
        sizes[r.source_key] = sizes.get(r.source_key, 0) + 1
    if len(sizes) < n_folds:
        raise CorpusError(
            f"need at least {n_folds} distinct source keys for {n_folds} folds, "
            f"got {len(sizes)}")
    keys = sorted(sizes)
    order = derive_rng(seed, "folds").permutation(len(keys))
    rank = {keys[int(k)]: pos for pos, k in enumerate(order)}
    placed = sorted(keys, key=lambda k: (-sizes[k], rank[k]))
    load = [0] * n_folds
    assignment: dict[str, int] = {}
    for key in placed:
        fold = min(range(n_folds), key=lambda f: (load[f], f))
        assignment[key] = fold
        load[fold] += sizes[key]
    return FoldPlan(assignment)
