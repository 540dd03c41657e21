"""Corpus parsing, validation, serialization round-trips, and fold splitting."""

from __future__ import annotations

import io
import json
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from advmatch.corpus import (CorpusError, Record, Token, parse_records,
                             parse_token_stream, scan_records, serialize_records,
                             split_folds, tokens_to_text, validate_record)
from advmatch.matcher import MatchConfig
from advmatch.pipeline import run_match
from advmatch.remap import CandidateTable

from conftest import make_record, multi_fold_corpus


def _line(**kwargs) -> str:
    base = {"id": "a", "source_key": "m1", "task_mode": "qa",
            "query": "why is [person:1] running ?",
            "gold": "[person:2] chases the dog .",
            "objects": ["person", "person"]}
    base.update(kwargs)
    return json.dumps(base)


class TestParse:
    def test_empty_stream(self):
        assert parse_records(io.BytesIO(b"")) == []

    def test_single_line_with_tag(self):
        records = parse_records([_line()])
        assert len(records) == 1
        r = records[0]
        tag = r.query[2]
        assert tag.kind == "tag"
        assert tag.tag_class == "person"
        assert tag.tag_index == 1
        assert r.query[0].text == "why"

    def test_dangling_tag_is_an_error(self):
        line = _line(gold="[person:5] waves .")
        with pytest.raises(CorpusError, match="line 1.*dangling"):
            parse_records([line])

    def test_malformed_json_names_line(self):
        with pytest.raises(CorpusError, match="line 2"):
            parse_records([_line(), "{nope"])

    def test_duplicate_id_names_both_lines(self):
        with pytest.raises(CorpusError, match="line 3.*duplicate id.*line 1"):
            parse_records([_line(), "", _line()])

    def test_missing_field(self):
        obj = json.loads(_line())
        del obj["gold"]
        with pytest.raises(CorpusError, match="missing field 'gold'"):
            parse_records([json.dumps(obj)])

    @pytest.mark.parametrize("field, value", [
        ("query", None), ("gold", ["it", "rains"]), ("id", 7),
        ("source_key", 1.5), ("task_mode", {"qa": True}),
    ], ids=["query-null", "gold-list", "id-int", "source_key-float", "task_mode-object"])
    def test_text_fields_must_be_strings(self, field, value):
        line = _line(**{field: value})
        message = f"line 1: field '{field}' must be a string"
        assert list(scan_records([line])) == [(None, [message])]
        with pytest.raises(CorpusError, match=message):
            parse_records([line])

    @pytest.mark.parametrize("field", ["id", "source_key", "query", "gold",
                                       "task_mode", "objects"])
    def test_lone_surrogate_is_refused(self, field):
        # no output could encode it as UTF-8
        value = ["person", "\ud800"] if field == "objects" else "it \ud800 rains ."
        message = (f"line 1: field '{field}' cannot be encoded as UTF-8 "
                   "(surrogates not allowed)")
        escaped = _line(**{field: value})
        assert "\\ud800" in escaped  # json.dumps writes the JSON escape
        raw = json.dumps({**json.loads(escaped), field: value}, ensure_ascii=False)
        for stream in ([escaped], [escaped.encode("utf-8")], [raw]):
            assert list(scan_records(stream)) == [(None, [message])]
        with pytest.raises(CorpusError, match=re.escape(message)):
            parse_records([escaped])

    def test_embedding_length_mismatch(self):
        lines = [_line(id="a", embedding=[1.0, 2.0]),
                 _line(id="b", embedding=[1.0, 2.0, 3.0])]
        with pytest.raises(CorpusError, match="line 2.*length"):
            parse_records(lines)

    def test_input_order_preserved(self):
        lines = [_line(id=f"r{i}") for i in range(5)]
        assert [r.id for r in parse_records(lines)] == [f"r{i}" for i in range(5)]

    def test_byte_stream(self):
        data = (_line() + "\n").encode("utf-8")
        assert len(parse_records(io.BytesIO(data))) == 1


class TestValidate:
    def test_empty_gold(self):
        r = make_record(0, "m", "why run ?", "x .")
        r = Record(**{**r.__dict__, "gold": ()})
        violations = validate_record(r)
        assert violations
        assert any("gold" in v and "empty" in v for v in violations)

    def test_class_mismatch(self):
        r = Record(id="a", source_key="m", query=parse_token_stream("why go ?"),
                   gold=(Token.tag("car", 1),), objects=("person",))
        assert any("class mismatch" in v for v in validate_record(r))

    def test_uppercase_class_label(self):
        # remapping spells a class out as a lowercased word, so labels must
        # already be lowercase for scores to match the served text
        r = make_record(0, "m", "why is [Dog:1] loud ?", "[Dog:1] barks .",
                        objects=("Dog",))
        assert validate_record(r) == ["objects[1]: class label not lowercase 'Dog'"]
        line = _line(query="why is [Dog:1] loud ?", gold="[Dog:1] barks .",
                     objects=["Dog"])
        with pytest.raises(CorpusError, match="line 1.*not lowercase 'Dog'"):
            parse_records([line])

    def test_malformed_tokens_name_every_position(self):
        # word checks are decided once per distinct text; every occurrence
        # must still be reported at its own position, on every record
        bad = (Token("word", "a b"), Token.word("ok"), Token("word", "Big"),
               Token("word", "a b"), Token("word", ""), Token("word", "[dog:1]"),
               Token.tag("dog", 3), Token.tag("car", 1), Token("word", "Big"),
               Token("blob", "x"))
        r = Record(id="a", source_key="m", query=bad, gold=bad[:3],
                   objects=("dog",))
        expected = [
            "query[0]: malformed word 'a b'",
            "query[2]: word not lowercase 'Big'",
            "query[3]: malformed word 'a b'",
            "query[4]: malformed word ''",
            "query[5]: malformed word '[dog:1]'",
            "query[6]: dangling tag index 3 (objects has 1 entries)",
            "query[7]: class mismatch (tag 'car' vs objects[1]='dog')",
            "query[8]: word not lowercase 'Big'",
            "query[9]: unknown token kind 'blob'",
            "gold[0]: malformed word 'a b'",
            "gold[2]: word not lowercase 'Big'",
        ]
        assert validate_record(r) == expected
        assert validate_record(r) == expected
        line = _line(gold="[person:2] waves at [dog:3] and [dog:3] .")
        with pytest.raises(CorpusError) as exc:
            parse_records([_line(id="ok"), line])
        assert str(exc.value) == (
            "line 2: record 'a': invalid record: "
            "gold[3]: dangling tag index 3 (objects has 2 entries); "
            "gold[5]: dangling tag index 3 (objects has 2 entries)")

    def test_conforming_record_is_ok(self):
        r = make_record(0, "m", "why is [person:1] running ?", "[person:2] waves .")
        assert validate_record(r) == []


words = st.text(alphabet="abcdefgh", min_size=1, max_size=6)


@st.composite
def record_strategy(draw):
    objects = tuple(draw(st.lists(
        st.sampled_from(["person", "car", "dog", "cup"]), min_size=1, max_size=4)))

    def token_seq():
        toks = []
        for _ in range(draw(st.integers(1, 6))):
            if objects and draw(st.booleans()):
                idx = draw(st.integers(1, len(objects)))
                toks.append(Token.tag(objects[idx - 1], idx))
            else:
                toks.append(Token.word(draw(words)))
        return tuple(toks)

    embedding = draw(st.one_of(
        st.none(),
        st.lists(st.floats(-5, 5, allow_nan=False), min_size=3, max_size=3)
        .map(tuple)))
    return Record(id=draw(st.uuids()).hex, source_key=draw(words),
                  query=token_seq(), gold=token_seq(), objects=objects,
                  embedding=embedding,
                  task_mode=draw(st.sampled_from(["qa", "qar"])))


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(record_strategy())
    def test_parse_serialize_parse_identity(self, record):
        assert validate_record(record) == []
        text = serialize_records([record])
        parsed = parse_records(text.splitlines())
        assert parsed == [record]
        assert serialize_records(parsed) == text

    def test_tag_serialization_shape(self):
        toks = parse_token_stream("look at [car:2] now")
        assert tokens_to_text(toks) == "look at [car:2] now"


def _all_tokens(token_seqs):
    return [t for seq in token_seqs for t in seq]


class TestInterning:
    def test_constructors_return_one_instance_per_value(self):
        assert Token.word("Dog") is Token.word("dog")
        assert Token.tag("cup", 2) is Token.tag("cup", 2)
        assert Token.tag("cup", 2) is not Token.tag("cup", 3)

    def test_parse_yields_one_object_per_token_value(self):
        records = parse_records(
            serialize_records(multi_fold_corpus(n_keys=6, per_key=4, seed=1))
            .splitlines())
        tokens = _all_tokens(seq for r in records for seq in (r.query, r.gold))
        assert len({id(t) for t in tokens}) == len(set(tokens))

    def test_remapped_tokens_are_interned(self):
        records = [
            make_record(0, "m", "why is [person:1] near [dog:3] ?",
                        "[person:2] pets [dog:3] .", ("person", "person", "dog")),
            make_record(1, "m", "why is [person:1] by [cup:2] ?",
                        "[person:1] drinks from [cup:2] .", ("person", "cup")),
            make_record(2, "m", "why is [car:1] here ?", "[car:1] is parked .",
                        ("car",)),
        ]
        table = CandidateTable(records, p_reuse=0.5, seed=3)
        texts = table.get([(i, j) for i in range(3) for j in range(3)])
        remapped = _all_tokens(parse_token_stream(text) for text in texts)
        assert any(t.is_tag for t in remapped)
        for t in remapped:
            expected = (Token.tag(t.tag_class, t.tag_index) if t.is_tag
                        else Token.word(t.text))
            assert t is expected

    def test_parsed_records_share_repeated_strings(self):
        lines = [json.dumps({"id": f"r{i}", "source_key": "movie007",
                             "task_mode": "qa", "query": "why is [person:1] here ?",
                             "gold": "[person:1] waits .",
                             "objects": ["person", "umbrella"]})
                 for i in range(2)]
        a, b = parse_records(lines)
        assert a.source_key is b.source_key
        assert a.objects[1] is b.objects[1]
        assert a.task_mode is b.task_mode

    def test_items_survive_pickling_as_interned_tokens(self):
        records = multi_fold_corpus(n_keys=12, per_key=3, seed=2)
        items = run_match(records, MatchConfig(seed=5, n_folds=3)).items
        copy = pickle.loads(pickle.dumps(items))
        assert copy == items
        assert copy[0].choices[0][0] is items[0].choices[0][0]


class TestSplitFolds:
    def test_equal_keys_one_per_fold(self):
        records = [make_record(i, f"k{i}", "why go ?", "home .") for i in range(11)]
        plan = split_folds(records, 11, seed=1)
        assert sorted(plan.assignment.values()) == list(range(11))

    def test_big_group_alone(self):
        records = [make_record(i, "big", "why go ?", "home .") for i in range(100)]
        records.append(make_record(100, "small", "why go ?", "home ."))
        plan = split_folds(records, 2, seed=0)
        assert plan.assignment["big"] != plan.assignment["small"]

    def test_greedy_simulation(self):
        # Independent reimplementation of the stated rule.
        rng = np.random.default_rng(7)
        records = []
        for i in range(1000):
            records.append(make_record(i, f"k{int(rng.integers(40))}", "why go ?", "home ."))
        plan = split_folds(records, 11, seed=42)

        sizes = {}
        for r in records:
            sizes[r.source_key] = sizes.get(r.source_key, 0) + 1
        from advmatch.seeding import derive_rng
        keys = sorted(sizes)
        order = derive_rng(42, "folds").permutation(len(keys))
        rank = {keys[int(k)]: pos for pos, k in enumerate(order)}
        load = [0] * 11
        expected = {}
        for key in sorted(keys, key=lambda k: (-sizes[k], rank[k])):
            fold = load.index(min(load))
            expected[key] = fold
            load[fold] += sizes[key]
        assert plan.assignment == expected
        assert max(load) - min(load) <= max(sizes.values())

    def test_order_invariance(self):
        records = [make_record(i, f"k{i % 13}", "why go ?", "home .")
                   for i in range(200)]
        plan_a = split_folds(records, 5, seed=9)
        plan_b = split_folds(list(reversed(records)), 5, seed=9)
        assert plan_a == plan_b

    def test_no_key_spans_folds(self):
        records = [make_record(i, f"k{i % 7}", "why go ?", "home .")
                   for i in range(70)]
        plan = split_folds(records, 3, seed=0)
        folds_by_key = {}
        for r in records:
            folds_by_key.setdefault(r.source_key, set()).add(plan.fold_of(r))
        assert all(len(f) == 1 for f in folds_by_key.values())

    def test_too_few_keys(self):
        records = [make_record(i, "only", "why go ?", "home .") for i in range(5)]
        with pytest.raises(CorpusError, match="distinct source keys"):
            split_folds(records, 2, seed=0)
