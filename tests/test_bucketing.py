"""Pronoun/question-type classification, seeded k-means, bucket construction."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from advmatch import bucketing
from advmatch.bucketing import (QUESTION_TYPE_PATTERNS, BucketingError,
                                build_buckets, cluster_embeddings,
                                pronoun_class, question_type, squared_distances)
from advmatch.corpus import parse_token_stream as pts

from conftest import make_record
from oracles import question_type_ngrams


class TestPronounClass:
    def test_female(self):
        assert pronoun_class(pts("she is reading .")) == "female"

    def test_neutral(self):
        assert pronoun_class(pts("the dog barks .")) == "neutral"

    def test_both_present_goes_neutral(self):
        assert pronoun_class(pts("he hands her the book .")) == "neutral"

    def test_male(self):
        assert pronoun_class(pts("that jacket is his .")) == "male"

    def test_tags_never_count(self):
        assert pronoun_class(pts("[person:1] waves .")) == "neutral"


class TestQuestionType:
    def test_explanation(self):
        assert question_type(pts("why is [person:1] pointing ?")) == "explanation"

    def test_temporal(self):
        assert question_type(pts("what happened before this ?")) == "temporal"

    def test_scene(self):
        assert question_type(pts("where is the cup ?")) == "scene"

    def test_first_group_wins(self):
        # "why" (explanation) outranks "if" (hypothetical)
        assert question_type(pts("why would [person:1] leave if upset ?")) == "explanation"

    def test_multiword_pattern(self):
        assert question_type(pts("how come nobody moved ?")) == "explanation"

    def test_multiword_pattern_not_split_by_tags(self):
        assert question_type(pts("how [person:1] come here ?")) == "other"

    def test_no_match_is_other(self):
        assert question_type(pts("name the object on this table .")) == "other"

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(
        ["why", "how", "come", "does", "doing", "before", "feeling", "where",
         "married", "if", "may", "the", "is", "?", "[person:1]", "[cup:2]"]),
        max_size=10))
    def test_matches_the_pattern_scan(self, pieces):
        question = pts(" ".join(pieces))
        assert question_type(question) == _scan_question_type(question)


    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(
        sorted({w for _, pats in QUESTION_TYPE_PATTERNS for pat in pats for w in pat})
        + ["the", "is", "?", "nobody", "[person:1]", "[cup:2]", "[person:3]"]),
        max_size=12))
    def test_equals_the_ngram_version(self, pieces):
        # every pattern word, fillers and tags between words
        question = pts(" ".join(pieces))
        assert question_type(question) == question_type_ngrams(question)


def _scan_question_type(question):
    """Reference: scan every pattern at every position, groups in order."""
    words = [t.text if t.kind == "word" else None for t in question]
    for name, patterns in QUESTION_TYPE_PATTERNS:
        for pat in patterns:
            k = len(pat)
            for start in range(len(words) - k + 1):
                if tuple(words[start:start + k]) == pat:
                    return name
    return "other"


class TestClusterEmbeddings:
    def test_k1_all_zero_labels(self):
        vecs = np.random.default_rng(0).normal(size=(7, 3))
        assert cluster_embeddings(vecs, 1, seed=0).tolist() == [0] * 7

    def test_separated_clouds(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0.0, 0.1, size=(20, 2)) + [10, 0]
        b = rng.normal(0.0, 0.1, size=(20, 2)) + [-10, 0]
        labels = cluster_embeddings(np.vstack([a, b]), 2, seed=5)
        assert len(set(labels[:20])) == 1
        assert len(set(labels[20:])) == 1
        assert labels[0] != labels[20]

    def test_monte_carlo_objective_bound(self):
        # k-means labels must beat 100 random labelings, every time
        rng = np.random.default_rng(2)
        x = rng.normal(size=(50, 4))
        labels = cluster_embeddings(x, 5, seed=7)

        def objective(lab):
            total = 0.0
            for c in set(lab.tolist()):
                member = x[lab == c]
                total += ((member - member.mean(axis=0)) ** 2).sum()
            return total

        ours = objective(labels)
        for _ in range(100):
            random_labels = rng.integers(0, 5, size=50)
            # ensure all 5 clusters used so means exist
            random_labels[:5] = np.arange(5)
            assert ours <= objective(random_labels)

    def test_deterministic(self):
        x = np.random.default_rng(3).normal(size=(30, 3))
        a = cluster_embeddings(x, 4, seed=11)
        b = cluster_embeddings(x, 4, seed=11)
        assert np.array_equal(a, b)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 300), st.integers(1, 9), st.integers(1, 40),
           st.sampled_from([1, 7, 64, bucketing.KMEANS_BLOCK]),
           st.integers(0, 2 ** 32 - 1))
    def test_blocked_distances_equal_unblocked(self, n, k, d, block, seed):
        # blocks of one row, of a few rows, and the default all agree with
        # the n x k x d formula bit for bit, and so do the labels
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, d)) * rng.uniform(0.01, 100.0)
        centers = rng.normal(size=(k, d))
        want = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        with mock.patch.object(bucketing, "KMEANS_BLOCK", block):
            assert np.array_equal(squared_distances(x, centers), want)
            labels = cluster_embeddings(x, min(k, n), seed=seed)
        assert np.array_equal(labels, cluster_embeddings(x, min(k, n), seed=seed))

    def test_errors(self):
        with pytest.raises(BucketingError, match="empty"):
            cluster_embeddings(np.zeros((0, 2)), 1, seed=0)
        with pytest.raises(BucketingError, match="k must be"):
            cluster_embeddings(np.zeros((3, 2)), 4, seed=0)

    def test_ragged_vectors_refused(self):
        with pytest.raises(BucketingError, match="same length"):
            cluster_embeddings([[1.0, 2.0], [1.0], [3.0, 4.0]], 1, seed=0)

    def test_repeated_embeddings_use_every_cluster(self):
        # every fit is 0: each empty cluster takes a point of its own, not
        # the one an earlier empty cluster took
        labels = cluster_embeddings([[1.0, 2.0]] * 10, 3, seed=7)
        assert sorted(set(labels.tolist())) == [0, 1, 2]

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.lists(st.integers(-2, 2), min_size=2, max_size=2),
                    min_size=1, max_size=4),
           st.data(), st.integers(0, 2 ** 32 - 1))
    def test_every_label_is_used(self, points, data, seed):
        # a few distinct points, each repeated, and any k <= n
        picks = data.draw(st.lists(st.integers(0, len(points) - 1),
                                   min_size=1, max_size=12))
        k = data.draw(st.integers(1, len(picks)))
        labels = cluster_embeddings([points[i] for i in picks], k, seed)
        assert sorted(set(labels.tolist())) == list(range(k))


def _qa_records(n, qword="why", start=0):
    return [make_record(start + i, "m", f"{qword} is [person:1] waving w{start + i} ?",
                        f"[person:2] holds w{start + i} .")
            for i in range(n)]


class TestBuildBuckets:
    def test_small_fold_single_bucket(self):
        buckets = build_buckets(_qa_records(10), "qa", 3000, seed=0)
        assert len(buckets) == 1
        assert len(buckets[0].members) == 10
        assert buckets[0].key.label == "neutral/explanation"

    def test_chunk_sizes_balanced(self):
        buckets = build_buckets(_qa_records(6500, qword="doing"), "qa", 3000, seed=1)
        sizes = sorted((len(b.members) for b in buckets), reverse=True)
        assert sizes == [2167, 2167, 2166]
        ids = [r.id for b in buckets for r in b.members]
        assert len(ids) == len(set(ids)) == 6500

    def test_small_group_merged_into_sibling(self):
        records = _qa_records(10)  # explanation group
        records += [make_record(100 + i, "m", f"where is item{i} ?", f"[person:1] sees it{i} .")
                    for i in range(2)]  # scene group of 2 < K+1
        buckets = build_buckets(records, "qa", 3000, seed=0, n_distractors=3)
        assert len(buckets) == 1
        assert len(buckets[0].members) == 12
        assert all(len(b.members) >= 4 for b in buckets)

    def test_merge_prefers_same_pronoun(self):
        records = _qa_records(8)  # neutral/explanation
        records += [make_record(50 + i, "m", f"why is [person:1] glad g{i} ?",
                                f"she smiles warmly s{i} .") for i in range(6)]
        # two female "scene" stragglers must join the female bucket
        records += [make_record(70 + i, "m", f"where is [person:1] resting x{i} ?",
                                f"she naps near it n{i} .") for i in range(2)]
        buckets = build_buckets(records, "qa", 3000, seed=0)
        by_label = {b.key.label: b for b in buckets}
        assert len(by_label["female/explanation"].members) == 8
        assert len(by_label["neutral/explanation"].members) == 8

    def test_fold_too_small(self):
        with pytest.raises(BucketingError, match="at least 4"):
            build_buckets(_qa_records(3), "qa", 3000, seed=0)

    def test_fold_too_small_names_the_fold(self):
        with pytest.raises(BucketingError,
                           match=r"fold 2 \(ids r0000, r0001, r0002\) has 3 records"):
            build_buckets(_qa_records(3), "qa", 3000, seed=0, fold=2)

    def test_target_size_validates(self):
        with pytest.raises(BucketingError, match="target_size"):
            build_buckets(_qa_records(10), "qa", 3, seed=0)

    def test_every_record_in_exactly_one_bucket(self):
        rng = np.random.default_rng(4)
        records = []
        for i in range(60):
            qword = ["why", "doing", "happened", "where", "if", "name"][int(rng.integers(6))]
            pron = ["she waves", "he waves", "they wave"][int(rng.integers(3))]
            records.append(make_record(i, "m", f"{qword} is [person:1] here h{i} ?",
                                       f"{pron} warmly w{i} ."))
        buckets = build_buckets(records, "qa", 20, seed=5)
        ids = sorted(r.id for b in buckets for r in b.members)
        assert ids == sorted(r.id for r in records)
        assert all(len(b.members) >= 4 for b in buckets)

    def test_input_order_invariance(self):
        records = _qa_records(30) + _qa_records(10, qword="doing", start=30)
        a = build_buckets(records, "qa", 12, seed=9)
        b = build_buckets(list(reversed(records)), "qa", 12, seed=9)
        assert [(x.bucket_id, tuple(r.id for r in x.members)) for x in a] == \
               [(x.bucket_id, tuple(r.id for r in x.members)) for x in b]

    def test_qar_clusters_by_embedding(self):
        rng = np.random.default_rng(6)
        records = []
        for i in range(40):
            side = 1.0 if i % 2 else -1.0
            emb = rng.normal(0, 0.05, size=3) + [8 * side, 0, 0]
            records.append(make_record(i, "m", f"why is [person:1] set s{i} ?",
                                       f"[person:2] said words w{i} .",
                                       embedding=emb, mode="qar"))
        buckets = build_buckets(records, "qar", 20, seed=3)
        assert len(buckets) == 2
        for b in buckets:
            parity = {int(r.id[1:]) % 2 for r in b.members}
            assert len(parity) == 1

    def test_qar_missing_embeddings_named(self):
        records = [make_record(i, "m", f"why is [person:1] set s{i} ?",
                               f"[person:2] said words w{i} .", mode="qar")
                   for i in range(5)]
        with pytest.raises(BucketingError, match="r0000"):
            build_buckets(records, "qar", 20, seed=0)

    def test_qar_ragged_embeddings_named(self):
        records = [make_record(i, "m", f"why is [person:1] set s{i} ?",
                               f"[person:2] said words w{i} .",
                               embedding=[1.0] if i == 3 else [1.0, float(i)],
                               mode="qar")
                   for i in range(5)]
        with pytest.raises(BucketingError, match="record r0003: embedding length 1 "
                           "differs from length 2 of record r0000"):
            build_buckets(records, "qar", 20, seed=0)
