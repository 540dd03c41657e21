"""Independent checks of ``advmatch`` MCQ items.

The checker reads items as JSON lines and does not use the program's own
parser, so a defect in the program's serializer cannot hide itself.  An
item fails when it breaks any of:

* one gold choice, ``rounds + 1`` choices, ``gold_index`` at the gold, and
  the gold choice equal to the record's gold text;
* no distractor taken from the item's own record;
* every distractor drawn from a record of the same fold and bucket;
* pairwise-distinct choices once tags are collapsed to their class
  (``[person:2] runs .`` and ``[person:1] runs .`` are the same choice);
* exact recycling: within its bucket every record is gold once and a
  distractor ``rounds`` times.  A record used the wrong number of times
  fails its own item.

Distinct choices is the one rule the program does not enforce yet (nothing
stops a distractor whose text equals the gold or another choice).  Items
that break it count as failed items like any other, but they do not make
the run incorrect: that is reserved for the guarantees the program makes
today, so that a change which breaks one of those cannot go unnoticed.
"""

from __future__ import annotations

import json
import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field

_TAG_RE = re.compile(r"\[([^\s\[\]:]+):[0-9]+\]")

# rules the program does not guarantee yet: failed items, but not incorrect
KNOWN_DEFECTS = frozenset({"duplicate_choice"})


def canonical(text: str) -> str:
    """Choice text with every ``[class:index]`` tag replaced by its class."""
    return " ".join(_TAG_RE.sub(r"\1", text).split())


@dataclass
class CheckResult:
    items: int = 0
    # item id -> names of the rules it broke
    failures: dict[str, list[str]] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def broken_guarantees(self) -> int:
        """Items that break a rule the program guarantees today."""
        return sum(1 for rules in self.failures.values()
                   if not KNOWN_DEFECTS.issuperset(rules))

    def fail(self, item_id: str, rule: str) -> None:
        self.failures.setdefault(item_id, []).append(rule)

    def summary(self, limit: int = 5) -> str:
        rules = Counter(r for rs in self.failures.values() for r in set(rs))
        shown = sorted(self.failures)[:limit]
        return (f"{self.failed}/{self.items} items failed; by rule {dict(rules)}; "
                f"first {shown}")


def check_items(lines: list[str], golds: dict[str, str], rounds: int) -> CheckResult:
    """Check one command's items against the corpus golds (record id -> text)."""
    items = [json.loads(line) for line in lines if line.strip()]
    result = CheckResult(items=len(items))
    by_id = {}
    for it in items:
        if it["id"] in by_id:
            result.fail(it["id"], "duplicate_item")
        by_id[it["id"]] = it
    missing = sorted(set(golds) - set(by_id))
    for rid in missing:
        result.fail(rid, "missing_item")

    used: dict[str, Counter] = defaultdict(Counter)  # bucket -> source -> times
    for it in items:
        iid = it["id"]
        prov = it["provenance"]
        choices = it["choices"]
        gold_pos = [k for k, p in enumerate(prov) if p["kind"] == "gold"]
        if len(choices) != rounds + 1 or len(prov) != rounds + 1:
            result.fail(iid, "choice_count")
        if gold_pos != [it["gold_index"]]:
            result.fail(iid, "gold_count")
        elif choices[gold_pos[0]] != golds.get(iid):
            result.fail(iid, "gold_text")
        for p in prov:
            if p["kind"] != "distractor":
                continue
            src = p["source"]
            used[it["bucket"]][src] += 1
            if src == iid:
                result.fail(iid, "self_distractor")
            other = by_id.get(src)
            if other is None or other["fold"] != it["fold"]:
                result.fail(iid, "fold_leak")
            elif other["bucket"] != it["bucket"]:
                result.fail(iid, "bucket_leak")
        texts = [canonical(c) for c in choices]
        if len(set(texts)) != len(texts):
            result.fail(iid, "duplicate_choice")

    for it in items:
        if used[it["bucket"]][it["id"]] != rounds:
            result.fail(it["id"], "recycling")
    return result


def corpus_golds(corpus: bytes) -> dict[str, str]:
    golds = {}
    for line in corpus.splitlines():
        if line.strip():
            rec = json.loads(line)
            golds[rec["id"]] = rec["gold"]
    return golds
