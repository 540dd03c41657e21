"""Built-in scorers, the similarity fold, bucket scoring, and matrix file I/O."""

from __future__ import annotations

import json
import math
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from advmatch.corpus import Record, Token, parse_token_stream as pts
from advmatch.matcher import MatchConfig
from advmatch.remap import CandidateTable
from advmatch.scoring import (ExternalMatrixStore, ScorerSpec, ScoringError,
                              _intersections, content, matrix_files, read_score_matrix,
                              score_bucket, write_score_matrix)

from conftest import make_record, simple_bucket_corpus
from oracles import (clamp_prob, relevance_overlap, similarity_cosine,
                     sparse_intersections)

EPS = 1e-6
CONFIG = MatchConfig(seed=0, eps=EPS)


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


def _external_similarity(tmp_path, values):
    """The similarity ``score_bucket`` makes of ``values`` in a file."""
    bucket = simple_bucket_corpus(len(values), seed=3)
    write_score_matrix(tmp_path / "sim.scm", "similarity", np.array(values),
                       [r.id for r in bucket])
    _, sim = score_bucket(bucket, CONFIG, ScorerSpec("overlap"),
                          ScorerSpec("external_matrix", str(tmp_path)))
    return sim.values


class TestSymmetrize:
    """A directed similarity on file is folded where it is scored:
    ``max(d[i][j], d[j][i])`` off the diagonal, 1.0 on it."""

    def test_symmetric_input_unchanged_off_diagonal(self, tmp_path):
        out = _external_similarity(tmp_path, [[0.25, 0.375], [0.375, 0.875]])
        assert out[0, 1] == 0.375
        assert out[1, 0] == 0.375
        assert out[0, 0] == 1.0 and out[1, 1] == 1.0

    def test_max_of_two_orderings(self, tmp_path):
        out = _external_similarity(tmp_path, [[0.0, 0.875], [0.25, 0.0]])
        assert out[0, 1] == 0.875
        assert out[1, 0] == 0.875

    def test_random_matches_elementwise_brute_force(self, tmp_path):
        rng = np.random.default_rng(5)
        # values a score file stores exactly
        d = rng.uniform(0.001, 0.999, size=(6, 6)).astype(np.float32).astype(np.float64)
        out = _external_similarity(tmp_path, d)
        for i in range(6):
            for j in range(6):
                expected = 1.0 if i == j else max(d[i, j], d[j, i])
                assert out[i, j] == expected

    def test_symmetry_property(self, tmp_path):
        rng = np.random.default_rng(6)
        out = _external_similarity(tmp_path, rng.uniform(0, 1, size=(9, 9)))
        assert np.array_equal(out, out.T)

    def test_non_square_rejected(self, tmp_path):
        # a 2 x 3 body under a header of n = 2
        bucket = simple_bucket_corpus(2, seed=3)
        path = tmp_path / "sim.scm"
        write_score_matrix(path, "similarity", np.full((2, 2), 0.5),
                           [r.id for r in bucket])
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(ScoringError, match="body has 24 bytes, expected 16"):
            score_bucket(bucket, CONFIG, ScorerSpec("overlap"),
                         ScorerSpec("external_matrix", str(tmp_path)))

    @pytest.mark.parametrize("bad", [1.5, -0.25, float("nan"), float("inf")])
    def test_non_probability_rejected(self, tmp_path, bad):
        d = np.full((3, 3), 0.5)
        d[0, 2] = bad
        with pytest.raises(ScoringError, match=r"values outside \[0, 1\]"):
            _external_similarity(tmp_path, d)


def _scoring_args(rel="overlap", sim="overlap"):
    return CONFIG, ScorerSpec(rel), ScorerSpec(sim)


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


_contents = st.lists(st.frozensets(st.sampled_from(_WORDS + ("a", "b", "c"))),
                    max_size=8)


class TestIntersections:
    @settings(max_examples=200, deadline=None)
    @given(_contents, _contents)
    def test_equals_sparse_product(self, rows, cols):
        # empty sets and empty sides included
        got = _intersections(rows, cols)
        assert got.dtype == np.float64
        assert got.shape == (len(rows), len(cols))
        assert np.array_equal(got, sparse_intersections(rows, cols))

    def test_no_shared_word(self):
        # an (n, 0) @ (0, m) product
        rows = [frozenset({"a", "b"}), frozenset()]
        cols = [frozenset({"c"}), frozenset({"d", "e"}), frozenset()]
        got = _intersections(rows, cols)
        assert got.shape == (2, 3)
        assert np.array_equal(got, sparse_intersections(rows, cols))
        assert not got.any()

    def test_counts_shared_words(self):
        rows = [frozenset({"a", "b", "c"}), frozenset({"b"})]
        cols = [frozenset({"b", "c", "d"}), frozenset({"a"})]
        assert _intersections(rows, cols).tolist() == [[2.0, 1.0], [1.0, 0.0]]


class TestScoreBucket:
    def test_bucket_of_one(self):
        bucket = [make_record(0, "m", "why run ?", "away .")]
        rel, sim = score_bucket(bucket, *_scoring_args())
        assert rel.values.shape == (1, 1)
        assert sim.values.tolist() == [[1.0]]

    def test_identical_records_degenerate(self):
        # query and gold share one content set -> relevance pinned at 1-eps
        bucket = [make_record(i, "m", "crowd cheers", "crowd cheers")
                  for i in range(3)]
        rel, sim = score_bucket(bucket, *_scoring_args())
        assert (rel.values == 1.0 - EPS).all()
        off = ~np.eye(3, dtype=bool)
        assert (sim.values[off] == 1.0 - EPS).all()
        assert (np.diag(sim.values) == 1.0).all()

    def test_entrywise_recomputation_overlap(self):
        for bucket in (simple_bucket_corpus(10, seed=12), _mixed_class_corpus(12)):
            n = len(bucket)
            candidates = CandidateTable(bucket, seed=99)
            rel, sim = score_bucket(bucket, *_scoring_args())
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
        candidates = CandidateTable(bucket, seed=data.draw(st.integers(0, 2 ** 16)))
        rel, _ = score_bucket(bucket, *_scoring_args())
        pairs = [(i, j) for i in range(n) for j in range(n)]
        for (i, j), text in zip(pairs, candidates.get(pairs)):
            expected = relevance_overlap(bucket[i].query, pts(text), EPS)
            assert rel.values[i, j] == expected

    def test_entrywise_recomputation_cosine(self):
        bucket = simple_bucket_corpus(10, seed=13)
        rel, sim = score_bucket(bucket, *_scoring_args("embedding_cosine", "embedding_cosine"))
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
            score_bucket(bucket, *_scoring_args("embedding_cosine", "overlap"))

    def test_ragged_embeddings_named(self):
        bucket = [make_record(i, "m", f"why run {i} ?", f"away {i} .",
                              embedding=[1.0] if i == 2 else [1.0, 0.5])
                  for i in range(4)]
        with pytest.raises(ScoringError, match="record r0002: embedding length 1 "
                           "differs from length 2 of record r0000"):
            score_bucket(bucket, *_scoring_args("overlap", "embedding_cosine"))

    def test_range_invariant(self):
        bucket = simple_bucket_corpus(12, seed=14)
        rel, sim = score_bucket(bucket, *_scoring_args())
        assert (rel.values >= EPS).all() and (rel.values <= 1 - EPS).all()
        off = ~np.eye(12, dtype=bool)
        assert (sim.values[off] >= EPS).all() and (sim.values[off] <= 1 - EPS).all()
        assert (np.diag(sim.values) == 1.0).all()

    def test_repeated_calls_bit_identical(self):
        bucket = simple_bucket_corpus(9, seed=15)
        rel1, sim1 = score_bucket(bucket, *_scoring_args())
        rel2, sim2 = score_bucket(bucket, *_scoring_args())
        assert np.array_equal(rel1.values, rel2.values)
        assert np.array_equal(sim1.values, sim2.values)

    def test_empty_bucket_rejected(self):
        with pytest.raises(ScoringError, match="empty"):
            score_bucket([], *_scoring_args())


def _assert_relevance(rel, eps):
    """What matching relies on and nothing re-checks: in [eps, 1 - eps]."""
    assert rel.ndim == 2 and rel.shape[0] == rel.shape[1]
    assert ((rel >= eps) & (rel <= 1 - eps)).all()


def _assert_similarity(sim, eps):
    """What matching relies on and nothing re-checks: symmetric, exactly 1.0
    on the diagonal and in [eps, 1 - eps] off it."""
    assert np.array_equal(sim, sim.T)
    assert (np.diag(sim) == 1.0).all()
    off = sim[~np.eye(len(sim), dtype=bool)]
    assert ((off >= eps) & (off <= 1 - eps)).all()


_eps = st.floats(1e-12, 0.49)
_probabilities = st.floats(0.0, 1.0)


class TestScorerGuarantees:
    """Each scorer kind keeps the invariants by construction, for any input."""

    @settings(max_examples=80, deadline=None)
    @given(st.data(), _eps)
    def test_overlap_guarantees(self, data, eps):
        n = data.draw(st.integers(1, 7))
        bucket = [data.draw(_scored_record(i)) for i in range(n)]
        rel, sim = score_bucket(bucket, MatchConfig(seed=0, eps=eps),
                                ScorerSpec("overlap"), ScorerSpec("overlap"))
        _assert_relevance(rel.values, eps)
        _assert_similarity(sim.values, eps)

    @settings(max_examples=80, deadline=None)
    @given(st.data(), _eps)
    def test_embedding_cosine_guarantees(self, data, eps):
        n = data.draw(st.integers(1, 7))
        dim = data.draw(st.integers(1, 5))
        vector = st.lists(st.floats(-1e3, 1e3), min_size=dim, max_size=dim).filter(
            lambda v: np.linalg.norm(v) > 0.0)
        bucket = [make_record(i, "m", "why run ?", "away .",
                              embedding=data.draw(vector)) for i in range(n)]
        rel, sim = score_bucket(bucket, MatchConfig(seed=0, eps=eps),
                                ScorerSpec("embedding_cosine"),
                                ScorerSpec("embedding_cosine"))
        _assert_relevance(rel.values, eps)
        _assert_similarity(sim.values, eps)

    @settings(max_examples=50, deadline=None)
    @given(st.data(), _eps)
    def test_external_guarantees(self, data, eps):
        # any probabilities on file, directed similarity included: not
        # symmetric, and any diagonal
        n = data.draw(st.integers(1, 6))
        matrix = st.lists(_probabilities, min_size=n * n, max_size=n * n)
        bucket = simple_bucket_corpus(n, seed=3)
        ids = [r.id for r in bucket]
        with tempfile.TemporaryDirectory() as tmp:
            for role in ("relevance", "similarity"):
                values = np.reshape(data.draw(matrix), (n, n))
                write_score_matrix(f"{tmp}/{role}.scm", role, values, ids)
            rel, sim = score_bucket(
                bucket, MatchConfig(seed=0, eps=eps),
                ScorerSpec("external_matrix", tmp), ScorerSpec("external_matrix", tmp))
        _assert_relevance(rel.values, eps)
        _assert_similarity(sim.values, eps)


class TestScoreMatrixType:
    """A ``ScoreMatrix`` checks nothing itself: bad scores from outside are
    stopped or folded where they enter, before they become its values."""

    def test_rejects_out_of_range(self, tmp_path):
        # the writer checks no values, so the reader is the one to refuse it
        path = tmp_path / "m.scm"
        write_score_matrix(path, "relevance", np.array([[1.5]]), ["a"])
        with pytest.raises(ScoringError, match="outside"):
            read_score_matrix(path)

    def test_asymmetric_similarity_file_folded(self, tmp_path):
        sim = _external_similarity(tmp_path, [[1.0, 0.25], [0.375, 1.0]])
        assert np.array_equal(sim, [[1.0, 0.375], [0.375, 1.0]])

    def test_similarity_file_diagonal_forced(self, tmp_path):
        sim = _external_similarity(tmp_path, [[0.875, 0.25], [0.25, 0.875]])
        assert np.array_equal(sim, [[1.0, 0.25], [0.25, 1.0]])


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

    HEADER = {"role": "relevance", "n": 2, "dtype": "float32",
              "layout": "row-major", "ids": ["a", "b"]}

    def test_tsv_body_of_binary_length(self, tmp_path):
        # 16 bytes, 4 * n * n for n = 2, would decode to float32 near 1e-33
        path = tmp_path / "m.tsv"
        path.write_bytes(json.dumps(self.HEADER).encode() + b"\n0.5\t0.5\n0.5\t1.0\n")
        with pytest.raises(ScoringError, match=re.escape(f"{path}: body of 16 bytes is text")):
            read_score_matrix(path)

    def test_body_of_wrong_length_names_both_sizes(self, tmp_path):
        path = tmp_path / "m.scm"
        write_score_matrix(path, "relevance", np.full((2, 2), 0.5), ["a", "b"])
        path.write_bytes(path.read_bytes()[:-1])
        message = f"{path}: body has 15 bytes, expected 16"
        with pytest.raises(ScoringError, match=re.escape(message)):
            read_score_matrix(path)

    def test_header_errors(self, tmp_path):
        path = tmp_path / "bad.scm"
        path.write_bytes(b'{"role":"relevance"}\n')
        with pytest.raises(ScoringError, match="missing field"):
            read_score_matrix(path)

    @pytest.mark.parametrize("header, message", [
        (["role", "n", "dtype", "layout", "ids"], "is not a JSON object"),
        ({"n": "x"}, "n='x' must be"),
        ({"n": None}, "n=None must be"),
        ({"n": 2.5}, "n=2.5 must be"),
        ({"n": True, "ids": ["a"]}, "n=True must be"),
        ({"n": 3}, "n=3 must be"),
        ({"ids": 5}, "n=2 must be the length of a list"),
        ({"ids": "ab"}, "n=2 must be the length of a list"),
        # read as text, these would silently match records "1" and "None"
        ({"ids": [1, None]}, "ids must be strings, got 1"),
        ({"ids": ["a", None]}, "ids must be strings, got None"),
    ], ids=["list", "n-text", "n-null", "n-float", "n-bool", "n-not-len", "ids-int",
            "ids-text", "ids-not-text", "ids-null"])
    def test_malformed_header_is_a_scoring_error(self, tmp_path, header, message):
        if isinstance(header, dict):
            header = {**self.HEADER, **header}
        path = tmp_path / "bad.scm"
        path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(16))
        with pytest.raises(ScoringError, match=re.escape(f"{path}: header {message}")):
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
        rel_spec = ScorerSpec("external_matrix", str(tmp_path))
        sim_spec = ScorerSpec("external_matrix", str(tmp_path))
        rel, sim = score_bucket(bucket, CONFIG, rel_spec, sim_spec)
        assert (rel.values == 0.25).all()
        # directed entailment symmetrized, diagonal forced
        assert (np.diag(sim.values) == 1.0).all()
        off = ~np.eye(6, dtype=bool)
        assert (sim.values[off] == 0.125).all()

        with pytest.raises(ScoringError, match="no external relevance matrix"):
            score_bucket(bucket[:4], CONFIG, rel_spec, sim_spec)

    def test_two_files_for_one_role_and_ids_name_both(self, tmp_path):
        ids = [r.id for r in simple_bucket_corpus(4, seed=2)]
        first, second = tmp_path / "a.scm", tmp_path / "b.scm"
        write_score_matrix(first, "relevance", np.full((4, 4), 0.25), ids)
        write_score_matrix(second, "relevance", np.full((4, 4), 0.5), ids)
        with pytest.raises(ScoringError) as exc:
            ExternalMatrixStore([tmp_path])
        assert str(first) in str(exc.value) and str(second) in str(exc.value)
        # one file reached through its directory and by name is no clash
        second.unlink()
        store = ExternalMatrixStore([tmp_path, first])
        assert (store.for_bucket("relevance", tuple(ids)) == 0.25).all()

    @pytest.mark.parametrize("lone", [str, lambda p: p], ids=["str", "path"])
    @pytest.mark.parametrize("reader", [matrix_files, ExternalMatrixStore])
    def test_a_lone_path_is_refused(self, tmp_path, lone, reader):
        # iterated, "<dir>/scores" would name "/" and list its files
        ids = [r.id for r in simple_bucket_corpus(4, seed=2)]
        write_score_matrix(tmp_path / "a.scm", "relevance", np.full((4, 4), 0.25), ids)
        with pytest.raises(TypeError, match="paths must be a list of paths, not the lone"):
            reader(lone(tmp_path))
        assert matrix_files([lone(tmp_path)]) == [tmp_path / "a.scm"]

    @pytest.mark.parametrize("kind", ["overlap", "embedding_cosine"])
    def test_builtin_scorer_takes_no_path(self, kind):
        with pytest.raises(ScoringError, match=f"{kind} scorer takes no path"):
            ScorerSpec(kind, path="scores")
