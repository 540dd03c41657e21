"""Tag remapping semantics, fallback chain, and determinism."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from advmatch.corpus import Record, Token, parse_token_stream as pts, tokens_to_text
from advmatch.remap import P_REUSE, CandidateTable, RemapError
from advmatch.scoring import content
from advmatch.seeding import derive_rng

from conftest import simple_bucket_corpus
from remap_oracle import remap_tags


def target(objects, query="why is [person:1] here ?", gold="[person:1] rests ."):
    return Record(id="t", source_key="m", query=pts(query), gold=pts(gold),
                  objects=tuple(objects))


class TestRemapTags:
    def test_zero_slots_rng_unconsumed(self):
        rng = derive_rng(0, "x")
        before = rng.bit_generator.state
        out = remap_tags(pts("no tags at all ."),
                         target(["person"]), 0.5, rng)
        assert out == pts("no tags at all .")
        assert rng.bit_generator.state == before

    def test_singleton_pools_ignore_p_reuse(self):
        # one person object, mentioned in the query: both pools = {1}
        tgt = target(["person"])
        # the response's own index is foreign anyway; only its class matters
        response = (Token.tag("person", 1), *pts("smiles ."))
        for p_reuse in (0.0, 0.37, 1.0):
            out = remap_tags(response, tgt, p_reuse, derive_rng(1, p_reuse))
            assert out[0] == Token.tag("person", 1)

    def test_reuse_only_draws_mentioned(self):
        # mentioned persons = {1}; objects add persons 2 and 3
        tgt = target(["person", "person", "person"])
        response = (Token.tag("person", 2), *pts("waves ."))
        rng = derive_rng(2, "mc")
        seen = set()
        for _ in range(10_000):
            out = remap_tags(response, tgt, 1.0, rng)
            seen.add(out[0].tag_index)
        assert seen == {1}

    def test_no_reuse_draws_uniformly_from_objects(self):
        tgt = target(["person", "person", "person"])
        response = (Token.tag("person", 2), *pts("waves ."))
        rng = derive_rng(3, "mc")
        counts = {1: 0, 2: 0, 3: 0}
        trials = 30_000
        for _ in range(trials):
            out = remap_tags(response, tgt, 0.0, rng)
            counts[out[0].tag_index] += 1
        for idx in counts:
            assert counts[idx] / trials == pytest.approx(1 / 3, abs=0.02)

    def test_fallback_to_person(self):
        # no cars anywhere, but persons exist
        tgt = target(["person", "person"])
        response = (Token.tag("car", 1), *pts("drives away ."))
        out = remap_tags(response, tgt, 0.5, derive_rng(4, "fb"))
        assert out[0].kind == "tag"
        assert out[0].tag_class == "person"

    def test_fallback_to_class_words(self):
        # no cars, no persons: tag dissolves into "the car"
        tgt = target(["dog"], query="why bark ?", gold="loud noise .")
        response = (Token.tag("car", 1), *pts("drives away ."))
        out = remap_tags(response, tgt, 0.5, derive_rng(5, "fb"))
        assert out[:2] == (Token.word("the"), Token.word("car"))
        assert len(out) == len(response) + 1

    def test_empty_objects_total_fallback(self):
        tgt = Record(id="t", source_key="m", query=pts("why quiet ?"),
                     gold=pts("no reason ."), objects=())
        response = (Token.tag("person", 1), *pts("waves ."))
        out = remap_tags(response, tgt, 0.5, derive_rng(6, "fb"))
        assert out[:2] == (Token.word("the"), Token.word("person"))

    def test_output_tags_exist_in_target(self):
        rng_master = np.random.default_rng(7)
        classes = ["person", "car", "dog", "cup"]
        for trial in range(200):
            objs = [classes[int(rng_master.integers(4))]
                    for _ in range(int(rng_master.integers(0, 5)))]
            mention = f"[{objs[0]}:1]" if objs else ""
            tgt = Record(id="t", source_key="m",
                         query=pts(f"why is {mention} here ?"),
                         gold=pts("something happens ."), objects=tuple(objs))
            response = tuple(
                Token.tag(classes[int(rng_master.integers(4))], 1)
                for _ in range(int(rng_master.integers(1, 4))))
            out = remap_tags(response, tgt, float(rng_master.random()),
                             derive_rng(8, trial))
            for tok in out:
                if tok.kind == "tag":
                    assert 1 <= tok.tag_index <= len(objs)
                    assert objs[tok.tag_index - 1] == tok.tag_class

    def test_p_reuse_validated(self):
        with pytest.raises(RemapError, match="p_reuse"):
            remap_tags(pts("x ."), target(["person"]), 1.5,
                       derive_rng(0))


def _all_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(n)]


class TestCandidateTable:
    def test_same_key_same_output(self):
        bucket = simple_bucket_corpus(6, seed=1)
        a = CandidateTable(bucket, seed=42)
        b = CandidateTable(bucket, seed=42)
        pairs = _all_pairs(6)
        assert a.get(pairs) == b.get(pairs)

    def test_text_independent_of_batching(self):
        # one pair per call, all pairs at once, and reversed order agree
        bucket = simple_bucket_corpus(6, seed=4)
        table = CandidateTable(bucket, seed=8)
        pairs = _all_pairs(6)
        together = table.get(pairs)
        assert [table.get([p])[0] for p in pairs] == together
        assert table.get(pairs[::-1]) == together[::-1]
        assert table.get([]) == []

    def test_self_pair_untouched(self):
        bucket = simple_bucket_corpus(4, seed=2)
        table = CandidateTable(bucket, seed=0)
        assert table.get([(i, i) for i in range(4)]) == [tokens_to_text(r.gold)
                                                          for r in bucket]

    def test_matches_remap_tags_substream(self):
        bucket = simple_bucket_corpus(5, seed=3)
        table = CandidateTable(bucket, seed=7)
        pairs = [(i, j) for i, j in _all_pairs(5) if i != j]
        for (i, j), got in zip(pairs, table.get(pairs)):
            rng = derive_rng(7, "remap", bucket[i].id, bucket[j].id)
            expected = remap_tags(bucket[j].gold, bucket[i], P_REUSE, rng)
            assert got == tokens_to_text(expected)

    # records built in code reach the table without validate_record
    def test_gold_tag_past_objects_names_record(self):
        bucket = simple_bucket_corpus(3, seed=1)
        bucket.append(Record(id="bad", source_key="m", query=pts("why ?"),
                             gold=pts("[car:1] drives ."), objects=()))
        with pytest.raises(RemapError, match=r"record bad: tag \[car:1\]"):
            CandidateTable(bucket, seed=0)
        bucket[-1] = Record(id="bad", source_key="m", query=pts("why ?"),
                            gold=pts("[car:1] passes [car:2] ."), objects=("car",))
        with pytest.raises(RemapError, match=r"record bad: tag \[car:2\]"):
            CandidateTable(bucket, seed=0)

    def test_query_tag_zero_names_record(self):
        # index 0 used to wrap to the previous record's last tag, so
        # "[dog:1] runs ." was served to "bad" as "[cat:1] runs ."
        bucket = [Record(id="a", source_key="m", query=pts("why ?"),
                         gold=pts("[cat:1] sits ."), objects=("cat",)),
                  Record(id="bad", source_key="m", query=pts("is [dog:0] ok ?"),
                         gold=pts("it rests ."), objects=("dog",)),
                  Record(id="c", source_key="m", query=pts("why ?"),
                         gold=pts("[dog:1] runs ."), objects=("dog",))]
        with pytest.raises(RemapError, match=r"record bad: tag \[dog:0\]"):
            CandidateTable(bucket, seed=0)

    def test_content_matches_materialized_tokens(self):
        # the content of a pair's text must not depend on the remapping's random
        # draws, fallback translations included: the overlap scorer relies
        # on it to score without materializing the table
        rng = np.random.default_rng(9)
        classes = ["person", "car", "dog", "own"]  # "own" is a stopword
        records = []
        for i in range(12):
            objs = tuple(classes[int(rng.integers(4))]
                         for _ in range(int(rng.integers(1, 4))))
            tagged = f"[{objs[0]}:1]"
            records.append(Record(
                id=f"r{i:02d}", source_key="m",
                query=pts(f"why is {tagged} busy b{i} ?"),
                gold=(Token.tag(objs[-1], len(objs)), *pts(f"acts a{i} .")),
                objects=objs))
        pairs = _all_pairs(12)
        reference = CandidateTable(records, seed=13).get(pairs)
        for seed in (14, 0, 7):
            table = CandidateTable(records, seed=seed)
            for got, ref in zip(table.get(pairs), reference):
                assert content(pts(got)) == content(pts(ref))


# Text the remap templates and the item quoting must pass through as it is:
# format directives, braces, escapes, a line separator and non-BMP text.
_ODD = ["%", "%s", "%%", "{}", "\\", '"', "\u2028", "\U0001f600"]
# Valid class labels that a served tag or a spelled-out class must pass
# through as they are: format directives, braces and a non-ASCII letter.
_LABELS = ["person", "car", "dog", "cup", "50%", "%s", "{}", "café"]


@st.composite
def _tagged_record(draw, i):
    """A record whose gold tags its own objects; some have no objects at all.

    Tokens are built directly, so a word may hold any of ``_ODD``, even the
    line separator that parsing would split on.
    """
    objects = tuple(draw(st.lists(st.sampled_from(_LABELS), max_size=4)))
    words = st.sampled_from(["w", "the", "own", ".", *_ODD]).map(Token.word)
    tags = [Token.tag(label, k) for k, label in enumerate(objects, 1)]
    pieces = st.one_of(words, st.sampled_from(tags)) if tags else words
    query = (Token.word("why"), *draw(st.lists(pieces, max_size=3)), Token.word("?"))
    gold = tuple(draw(st.lists(pieces, min_size=1, max_size=5)))
    rid = f"{draw(st.sampled_from(['r', *_ODD]))}{i}"
    return Record(id=rid, source_key="m", query=query, gold=gold, objects=objects)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_get_equals_oracle_text(data):
    # empty pools spell the class out, classes the target lacks fall back to
    # its persons
    n = data.draw(st.integers(1, 6))
    bucket = [data.draw(_tagged_record(i)) for i in range(n)]
    seed = data.draw(st.integers(0, 2 ** 16))
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                               unique=True, max_size=n * n))
    got = CandidateTable(bucket, seed).get(pairs)
    for (i, j), text in zip(pairs, got):
        rng = derive_rng(seed, "remap", bucket[i].id, bucket[j].id)
        want = bucket[j].gold if i == j else remap_tags(bucket[j].gold, bucket[i],
                                                        P_REUSE, rng)
        assert text == tokens_to_text(want)
