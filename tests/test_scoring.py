"""Built-in scorers, symmetrization, bucket scoring, and matrix file I/O."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from advmatch.corpus import Record, Token, parse_token_stream as pts
from advmatch.remap import CandidateTable
from advmatch.scoring import (ExternalMatrixStore, ScoreMatrix, ScorerSpec,
                              ScoringError, content, read_score_matrix, score_bucket,
                              symmetrize_entailment, write_score_matrix)

from conftest import make_record, simple_bucket_corpus
from oracles import clamp_prob, relevance_overlap, similarity_cosine

EPS = 1e-6


class TestClamp:
    def test_interior_point_unchanged(self):
        assert clamp_prob(0.5, EPS) == 0.5

    def test_lower_clamp(self):
        assert clamp_prob(0.0, EPS) == EPS

    def test_upper_clamp(self):
        assert clamp_prob(1.0, EPS) == 1.0 - EPS

    def test_not_a_probability(self):
        with pytest.raises(ScoringError, match="not a probability"):
            clamp_prob(1.0 + 1e-6, EPS)
        with pytest.raises(ScoringError, match="not a probability"):
            clamp_prob(-0.2, EPS)

    def test_tolerates_float_noise(self):
        assert clamp_prob(1.0 + 5e-10, EPS) == 1.0 - EPS

    def test_bad_eps(self):
        with pytest.raises(ScoringError, match="eps"):
            clamp_prob(0.5, 0.7)


class TestOverlap:
    def test_identical_single_content_token(self):
        q = pts("running")
        assert relevance_overlap(q, q, EPS) == 1.0 - EPS

    def test_disjoint_vocabulary(self):
        assert relevance_overlap(pts("red"), pts("blue"), EPS) == EPS

    def test_hand_evaluated_partial_overlap(self):
        # |{red,blue} & {red,blue,green,gold}| / sqrt(4*2), evaluated by hand
        q = pts("red blue green gold")
        r = pts("red blue")
        expected = 2 / math.sqrt(4 * 2)
        assert relevance_overlap(q, r, EPS) == pytest.approx(expected, abs=0)
        assert round(expected, 4) == 0.7071

    def test_stopwords_and_tags(self):
        # stopwords (incl. question words) drop out; tags count as their class
        q = pts("why is the [person:1] running ?")
        assert content(q) == frozenset({"person", "running", "?"})

    def test_empty_sequences_rejected(self):
        with pytest.raises(ScoringError):
            relevance_overlap((), pts("x"), EPS)


class TestCosine:
    def test_equal_vectors(self):
        assert similarity_cosine([1.0, 2.0], [1.0, 2.0], EPS) == 1.0 - EPS

    def test_opposite_vectors(self):
        assert similarity_cosine([1.0, 2.0], [-1.0, -2.0], EPS) == EPS

    def test_orthogonal_vectors(self):
        assert similarity_cosine([1.0, 0.0], [0.0, 3.0], EPS) == 0.5

    def test_zero_vector(self):
        with pytest.raises(ScoringError, match="zero"):
            similarity_cosine([0.0, 0.0], [1.0, 0.0], EPS)


class TestSymmetrize:
    def test_symmetric_input_unchanged_off_diagonal(self):
        d = np.array([[0.2, 0.4], [0.4, 0.9]])
        out = symmetrize_entailment(d, EPS)
        assert out.values[0, 1] == 0.4
        assert out.values[1, 0] == 0.4
        assert out.values[0, 0] == 1.0 and out.values[1, 1] == 1.0

    def test_max_of_two_orderings(self):
        d = np.array([[0.0, 0.9], [0.2, 0.0]])
        out = symmetrize_entailment(d, EPS)
        assert out.values[0, 1] == 0.9
        assert out.values[1, 0] == 0.9

    def test_random_matches_elementwise_brute_force(self):
        rng = np.random.default_rng(5)
        d = rng.uniform(0.001, 0.999, size=(6, 6))
        out = symmetrize_entailment(d, EPS)
        for i in range(6):
            for j in range(6):
                expected = 1.0 if i == j else max(d[i, j], d[j, i])
                assert out.values[i, j] == expected

    def test_symmetry_property(self):
        rng = np.random.default_rng(6)
        d = rng.uniform(0, 1, size=(9, 9))
        out = symmetrize_entailment(d, EPS).values
        assert np.array_equal(out, out.T)

    def test_non_square_rejected(self):
        with pytest.raises(ScoringError, match="square"):
            symmetrize_entailment(np.zeros((2, 3)), EPS)


def _specs(rel="overlap", sim="overlap"):
    return ScorerSpec(rel, eps=EPS), ScorerSpec(sim, eps=EPS)


def _mixed_class_corpus(n, seed=9):
    """Records over person/car/dog and the stopword class "own", some
    without a person, so remapped slots take every fallback."""
    rng = np.random.default_rng(seed)
    classes = ["person", "car", "dog", "own"]
    records = []
    for i in range(n):
        objs = tuple(classes[int(rng.integers(4))]
                     for _ in range(int(rng.integers(1, 4))))
        records.append(Record(
            id=f"r{i:02d}", source_key="m",
            query=pts(f"why is [{objs[0]}:1] busy b{i} ?"),
            gold=(Token.tag(objs[-1], len(objs)), *pts(f"acts a{i} .")),
            objects=objs))
    return records


# "own" is a stopword; "dog" also appears as a plain word
_CLASSES = ("person", "dog", "car", "own")
_WORDS = ("dog", "person", "runs", "own", "the", "car", "fast")


@st.composite
def _scored_record(draw, i):
    objects = tuple(draw(st.lists(st.sampled_from(_CLASSES), min_size=0,
                                  max_size=3)))

    def stream(min_size):
        toks = []
        for _ in range(draw(st.integers(min_size, 4))):
            if objects and draw(st.booleans()):
                idx = draw(st.integers(1, len(objects)))
                toks.append(Token.tag(objects[idx - 1], idx))
            else:
                toks.append(Token.word(draw(st.sampled_from(_WORDS))))
        return tuple(toks)

    return Record(id=f"r{i}", source_key="m", query=stream(1), gold=stream(1),
                  objects=objects)


class TestScoreBucket:
    def test_bucket_of_one(self):
        bucket = [make_record(0, "m", "why run ?", "away .")]
        rel, sim = score_bucket(bucket, *_specs())
        assert rel.values.shape == (1, 1)
        assert sim.values.tolist() == [[1.0]]

    def test_identical_records_degenerate(self):
        # query and gold share one content set -> relevance pinned at 1-eps
        bucket = [make_record(i, "m", "crowd cheers", "crowd cheers")
                  for i in range(3)]
        rel, sim = score_bucket(bucket, *_specs())
        assert (rel.values == 1.0 - EPS).all()
        off = ~np.eye(3, dtype=bool)
        assert (sim.values[off] == 1.0 - EPS).all()
        assert (np.diag(sim.values) == 1.0).all()

    def test_entrywise_recomputation_overlap(self):
        for bucket in (simple_bucket_corpus(10, seed=12), _mixed_class_corpus(12)):
            n = len(bucket)
            candidates = CandidateTable(bucket, p_reuse=0.5, seed=99)
            rel, sim = score_bucket(bucket, *_specs())
            pairs = [(i, j) for i in range(n) for j in range(n)]
            for (i, j), text in zip(pairs, candidates.get(pairs)):
                expected = relevance_overlap(bucket[i].query, pts(text), EPS)
                assert rel.values[i, j] == expected
            for i in range(n):
                for j in range(n):
                    if i == j:
                        assert sim.values[i, j] == 1.0
                    else:
                        expected = relevance_overlap(bucket[i].gold,
                                                     bucket[j].gold, EPS)
                        assert sim.values[i, j] == expected

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_relevance_scores_remapped_text(self, data):
        # every remapping branch: class kept, replaced by a person, spelled
        # out as a word, spelled out as a stopword that drops out, and a
        # class that is also a word of the gold
        n = data.draw(st.integers(1, 7))
        bucket = [data.draw(_scored_record(i)) for i in range(n)]
        candidates = CandidateTable(bucket, p_reuse=data.draw(st.floats(0, 1)),
                                    seed=data.draw(st.integers(0, 2 ** 16)))
        rel, _ = score_bucket(bucket, *_specs())
        pairs = [(i, j) for i in range(n) for j in range(n)]
        for (i, j), text in zip(pairs, candidates.get(pairs)):
            expected = relevance_overlap(bucket[i].query, pts(text), EPS)
            assert rel.values[i, j] == expected

    def test_entrywise_recomputation_cosine(self):
        bucket = simple_bucket_corpus(10, seed=13)
        rel, sim = score_bucket(bucket, *_specs("embedding_cosine", "embedding_cosine"))
        for i in range(10):
            for j in range(10):
                expected = similarity_cosine(bucket[i].embedding,
                                             bucket[j].embedding, EPS)
                assert rel.values[i, j] == pytest.approx(expected, abs=1e-12)
                if i == j:
                    assert sim.values[i, j] == 1.0
                else:
                    assert sim.values[i, j] == pytest.approx(expected, abs=1e-12)

    def test_missing_embeddings_named(self):
        bucket = [make_record(0, "m", "why run ?", "away ."),
                  make_record(1, "m", "why sit ?", "down .")]
        with pytest.raises(ScoringError, match="r0000, r0001"):
            score_bucket(bucket, *_specs("embedding_cosine", "overlap"))

    def test_range_invariant(self):
        bucket = simple_bucket_corpus(12, seed=14)
        rel, sim = score_bucket(bucket, *_specs())
        assert (rel.values >= EPS).all() and (rel.values <= 1 - EPS).all()
        off = ~np.eye(12, dtype=bool)
        assert (sim.values[off] >= EPS).all() and (sim.values[off] <= 1 - EPS).all()
        assert (np.diag(sim.values) == 1.0).all()

    def test_repeated_calls_bit_identical(self):
        bucket = simple_bucket_corpus(9, seed=15)
        rel1, sim1 = score_bucket(bucket, *_specs())
        rel2, sim2 = score_bucket(bucket, *_specs())
        assert np.array_equal(rel1.values, rel2.values)
        assert np.array_equal(sim1.values, sim2.values)

    def test_empty_bucket_rejected(self):
        with pytest.raises(ScoringError, match="empty"):
            score_bucket([], *_specs())


class TestScoreMatrixType:
    def test_rejects_out_of_range(self):
        with pytest.raises(ScoringError, match="outside"):
            ScoreMatrix("relevance", np.array([[1.5]]))

    def test_rejects_asymmetric_similarity(self):
        v = np.array([[1.0, 0.2], [0.3, 1.0]])
        with pytest.raises(ScoringError, match="symmetric"):
            ScoreMatrix("similarity", v)

    def test_rejects_bad_diagonal(self):
        v = np.array([[0.9, 0.2], [0.2, 0.9]])
        with pytest.raises(ScoringError, match="diagonal"):
            ScoreMatrix("similarity", v)


class TestMatrixFiles:
    def _matrix(self, n=5, seed=0):
        rng = np.random.default_rng(seed)
        vals = rng.uniform(0.01, 0.99, size=(n, n))
        ids = [f"r{i:04d}" for i in range(n)]
        return vals, ids

    def test_binary_round_trip(self, tmp_path):
        vals, ids = self._matrix()
        path = tmp_path / "m.scm"
        write_score_matrix(path, "relevance", vals, ids)
        role, got, got_ids = read_score_matrix(path)
        assert role == "relevance"
        assert got_ids == ids
        assert np.array_equal(got, vals.astype(np.float32).astype(np.float64))

    @staticmethod
    def _write_tsv(path, role, ids, body):
        # the program writes binary only; TSV bodies come from outside it
        header = json.dumps({"role": role, "n": len(ids), "dtype": "float32",
                             "layout": "row-major", "ids": ids})
        path.write_text(header + "\n" + body, encoding="utf-8")

    def test_tsv_round_trip(self, tmp_path):
        vals, ids = self._matrix(4, seed=1)
        path = tmp_path / "m.tsv"
        body = "".join("\t".join(repr(float(x)) for x in row) + "\n"
                       for row in vals.astype("<f4"))
        self._write_tsv(path, "similarity", ids, body)
        role, got, got_ids = read_score_matrix(path)
        assert role == "similarity"
        assert got_ids == ids
        assert np.array_equal(got, vals.astype(np.float32).astype(np.float64))

    def test_tsv_body_of_binary_length(self, tmp_path):
        # 16 bytes, 4 * n * n for n = 2: still TSV, not float32
        path = tmp_path / "m.tsv"
        self._write_tsv(path, "relevance", ["a", "b"], "0.5\t0.5\n0.5\t1.0\n")
        _, got, _ = read_score_matrix(path)
        assert np.array_equal(got, [[0.5, 0.5], [0.5, 1.0]])

    def test_tsv_size_cap(self, tmp_path):
        path = tmp_path / "m.tsv"
        self._write_tsv(path, "relevance", [str(i) for i in range(1001)], "0.5\n")
        with pytest.raises(ScoringError, match="1000"):
            read_score_matrix(path)

    def test_header_errors(self, tmp_path):
        path = tmp_path / "bad.scm"
        path.write_bytes(b'{"role":"relevance"}\n')
        with pytest.raises(ScoringError, match="missing field"):
            read_score_matrix(path)

    def test_values_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "m.scm"
        write_score_matrix(path, "relevance", np.full((2, 2), 0.5), ["a", "b"])
        raw = path.read_bytes()
        header, body = raw.split(b"\n", 1)
        bad = np.frombuffer(body, dtype="<f4").copy()
        bad[0] = 1.75
        path.write_bytes(header + b"\n" + bad.tobytes())
        with pytest.raises(ScoringError, match="outside"):
            read_score_matrix(path)

    def test_external_store_and_dimension_mismatch(self, tmp_path):
        bucket = simple_bucket_corpus(6, seed=2)
        ids = [r.id for r in bucket]
        rel_vals = np.full((6, 6), 0.25)
        sim_vals = np.full((6, 6), 0.125)
        write_score_matrix(tmp_path / "rel.scm", "relevance", rel_vals, ids)
        write_score_matrix(tmp_path / "sim.scm", "similarity", sim_vals, ids)
        rel_spec = ScorerSpec("external_matrix", eps=EPS, path=str(tmp_path))
        sim_spec = ScorerSpec("external_matrix", eps=EPS, path=str(tmp_path))
        rel, sim = score_bucket(bucket, rel_spec, sim_spec)
        assert (rel.values == 0.25).all()
        # directed entailment symmetrized, diagonal forced
        assert (np.diag(sim.values) == 1.0).all()
        off = ~np.eye(6, dtype=bool)
        assert (sim.values[off] == 0.125).all()

        with pytest.raises(ScoringError, match="no external relevance matrix"):
            score_bucket(bucket[:4], rel_spec, sim_spec)

    def test_two_files_for_one_role_and_ids_name_both(self, tmp_path):
        ids = [r.id for r in simple_bucket_corpus(4, seed=2)]
        first, second = tmp_path / "a.scm", tmp_path / "b.scm"
        write_score_matrix(first, "relevance", np.full((4, 4), 0.25), ids)
        write_score_matrix(second, "relevance", np.full((4, 4), 0.5), ids)
        with pytest.raises(ScoringError) as exc:
            ExternalMatrixStore(tmp_path)
        assert str(first) in str(exc.value) and str(second) in str(exc.value)
        # one file reached through its directory and by name is no clash
        second.unlink()
        store = ExternalMatrixStore([tmp_path, first])
        assert (store.for_bucket("relevance", tuple(ids)) == 0.25).all()

    @pytest.mark.parametrize("kind", ["overlap", "embedding_cosine"])
    def test_builtin_scorer_takes_no_path(self, kind):
        with pytest.raises(ScoringError, match=f"{kind} scorer takes no path"):
            ScorerSpec(kind, path="scores")
