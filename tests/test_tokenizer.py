"""k-means codebooks: clustering correctness against an independent oracle,
assignment rules, and file round trips."""

import hashlib
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lorm import tokenizer
from lorm.tokenizer import (
    CodebookSet,
    codebook_file_hash,
    fit_codebook_set,
    kmeans_plusplus_init,
    lloyd_kmeans,
    load_codebooks,
    save_codebooks,
    tokenize_window,
)


def naive_lloyd(points, centroids, max_iter=100):
    """Reference Lloyd iteration written with plain loops: argmin assignment
    (lowest index wins ties), mean update, run until assignments stabilise."""
    points = np.asarray(points, dtype=np.float64)
    centroids = np.array(centroids, dtype=np.float64, copy=True)
    k = centroids.shape[0]
    prev = None
    for _ in range(max_iter):
        labels = []
        for p in points:
            dists = [float(np.sum((p - c) ** 2)) for c in centroids]
            best = 0
            for j in range(1, k):
                if dists[j] < dists[best]:
                    best = j
            labels.append(best)
        labels = np.asarray(labels)
        if prev is not None and np.array_equal(labels, prev):
            break
        prev = labels
        for j in range(k):
            members = points[labels == j]
            if len(members):
                centroids[j] = members.mean(axis=0)
    inertia = 0.0
    for p, l in zip(points, labels):
        inertia += float(np.sum((p - centroids[l]) ** 2))
    return centroids, labels, inertia


def blob_points(seed, n=60, dim=1, k=3, spread=0.05):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-5, 5, size=(k, dim))
    return centers[rng.integers(0, k, size=n)] + rng.normal(0, spread, size=(n, dim))


class TestKMeansPlusPlus:
    def test_deterministic(self):
        pts = blob_points(1)
        a = kmeans_plusplus_init(pts, 3, seed=7)
        b = kmeans_plusplus_init(pts, 3, seed=7)
        assert np.array_equal(a, b)
        c = kmeans_plusplus_init(pts, 3, seed=8)
        assert not np.array_equal(a, c)

    def test_centroids_are_data_points(self):
        pts = blob_points(2, n=40)
        init = kmeans_plusplus_init(pts, 4, seed=0)
        for c in init:
            assert any(np.array_equal(c, p) for p in pts)


class TestLloyd:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_independent_oracle(self, seed):
        # acceptance-grade check: <=64 points, K<=4, shared seeded init
        k = 2 + seed % 3
        pts = blob_points(seed, n=48 + seed, dim=1 + seed % 2, k=k)
        result = lloyd_kmeans(pts, k, seed=seed)
        init = kmeans_plusplus_init(pts, k, seed=seed)
        _, _, oracle_inertia = naive_lloyd(pts, init)
        assert result.inertia == pytest.approx(oracle_inertia, abs=1e-9)

    def test_k1_centroid_is_mean(self):
        pts = blob_points(5, n=33, dim=2)
        result = lloyd_kmeans(pts, 1, seed=0)
        assert np.allclose(result.centroids[0], pts.mean(axis=0), atol=1e-12)

    def test_inertia_never_increases(self):
        pts = blob_points(9, n=64, k=4, spread=0.5)
        result = lloyd_kmeans(pts, 4, seed=3)
        hist = result.inertia_history
        assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))

    def test_empty_cluster_repaired(self):
        # with two distinct values, k-means++ seeds one of them twice, and the
        # second copy's cluster starts empty
        pts = np.array([[0.0], [0.0], [0.0], [10.0], [10.0]])
        assert np.unique(kmeans_plusplus_init(pts, 3, seed=0)).size == 2
        result = lloyd_kmeans(pts, 3, seed=0)
        assert len(set(result.labels.tolist())) == 3
        assert np.all(np.bincount(result.labels, minlength=3) > 0)

    def test_one_distance_matrix_per_iteration(self, monkeypatch):
        """The inertia's distance matrix is also the next assignment's."""
        calls = []
        counted = tokenizer._sq_distances
        monkeypatch.setattr(tokenizer, "_sq_distances", lambda *a: calls.append(1) or counted(*a))
        result = lloyd_kmeans(blob_points(7, n=64, k=4, spread=0.5), 4, seed=1)
        assert result.n_iter > 1
        assert len(calls) == result.n_iter + 1

    def test_determinism(self):
        pts = blob_points(11, n=50, k=3)
        a = lloyd_kmeans(pts, 3, seed=2)
        b = lloyd_kmeans(pts, 3, seed=2)
        assert np.array_equal(a.centroids, b.centroids)
        assert a.inertia == b.inertia


def nearest_centroid(target, centroids):
    """Index of the nearest centroid by a plain loop; ties go to the lowest index."""
    best, best_d2 = 0, None
    for j, centroid in enumerate(centroids):
        d2 = sum((float(a) - float(b)) ** 2 for a, b in zip(target, centroid))
        if best_d2 is None or d2 < best_d2:
            best, best_d2 = j, d2
    return best


def single_channel(centroids):
    return CodebookSet(np.array(centroids)[None], ["ch0"])


class TestAssignment:
    def test_nearest_centroid(self):
        books = single_channel([[0.0], [1.0], [2.0]])
        assert tokenize_window(np.array([[1.9]]), books).tolist() == [2]
        assert tokenize_window(np.array([[0.2]]), books).tolist() == [0]

    def test_tie_goes_to_lowest_index(self):
        books = single_channel([[0.0], [2.0]])
        assert tokenize_window(np.array([[1.0]]), books).tolist() == [0]  # equidistant

    def test_dimension_mismatch(self):
        books = single_channel([[0.0, 0.0]])
        with pytest.raises(ValueError, match="dimension"):
            tokenize_window(np.array([[1.0]]), books)

    def test_tokenize_window_per_channel(self):
        books = CodebookSet(np.array([[[0.0], [5.0]], [[-3.0], [3.0]]]), channel_names=["a", "b"])
        target = np.array([[4.4, -2.0]])  # (target_dim=1, C=2)
        assert tokenize_window(target, books).tolist() == [1, 0]

    @pytest.mark.parametrize("dim", [1, 3, 9, 20])
    def test_assign_tokens_matches_per_channel_loop(self, dim):
        """Tokens for leading shapes (), (n,) and (n, m) equal a per-channel
        nearest-centroid loop on every target, ties included."""
        rng = np.random.default_rng(dim)
        books = CodebookSet(rng.normal(size=(3, 6, dim)), ["a", "b", "c"])
        targets = rng.normal(size=(8, 5, dim, 3))
        targets[0, 0] = books.centroids[0, 2][:, None]  # exact hit
        targets[1, 0, :, 1] = 0.5 * (books.centroids[1, 0] + books.centroids[1, 3])  # tie
        for batch in [targets[0, 0], targets[:, 0], targets]:
            lead = batch.shape[:-2]
            got = tokenize_window(batch, books)
            assert got.shape == lead + (3,) and got.dtype == np.int64
            for index in np.ndindex(*lead):
                want = [
                    nearest_centroid(batch[index][:, c], books.centroids[c])
                    for c in range(3)
                ]
                assert got[index].tolist() == want

    def test_assign_tokens_tie_goes_to_lowest_index(self):
        books = single_channel([[0.0], [2.0]])
        assert tokenize_window(np.ones((2, 1, 1)), books).tolist() == [[0], [0]]

    def test_assign_tokens_shape_checks(self):
        books = single_channel(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="dimension"):
            tokenize_window(np.zeros((4, 2, 1)), books)
        with pytest.raises(ValueError, match="channels"):
            tokenize_window(np.zeros((4, 3, 2)), books)
        with pytest.raises(ValueError, match="target_dim"):
            tokenize_window(np.zeros(3), books)

    def test_tokens_in_range_property(self):
        pts = blob_points(13, n=100, dim=1, k=4)
        books = fit_codebook_set(pts[:, :, None], 4, seed=1, channel_names=["ch0"])
        tokens = tokenize_window(pts[:, :, None], books)
        assert tokens.shape == (100, 1)
        assert np.all((0 <= tokens) & (tokens < 4))


class TestFitCodebook:
    def test_insufficient_samples_names_count_and_k(self):
        with pytest.raises(ValueError, match="^insufficient samples: 3 points for k=4$"):
            lloyd_kmeans(np.zeros((3, 2)), 4, seed=0)
        with pytest.raises(ValueError, match="^insufficient samples: 0 points for k=2$"):
            fit_codebook_set(np.zeros((0, 1, 2)), 2, seed=0, channel_names=["a", "b"])

    def test_insufficient_samples(self):
        with pytest.raises(ValueError, match="insufficient samples"):
            fit_codebook_set(np.zeros((3, 1, 2)), 4, seed=0, channel_names=["a", "b"])

    def test_fit_codebook_set_shapes(self):
        rng = np.random.default_rng(0)
        targets = [rng.normal(size=(1, 3)) for _ in range(40)]
        books = fit_codebook_set(targets, k=5, seed=0, channel_names=["x", "y", "z"])
        assert books.num_channels == 3
        assert books.K == 5
        assert books.target_dim == 1

    def test_same_seed_same_books(self):
        rng = np.random.default_rng(1)
        targets = [rng.normal(size=(1, 2)) for _ in range(30)]
        a = fit_codebook_set(targets, k=3, seed=9, channel_names=["a", "b"])
        b = fit_codebook_set(targets, k=3, seed=9, channel_names=["a", "b"])
        assert a.centroids.tobytes() == b.centroids.tobytes()


class TestCodebookFiles:
    def _books(self):
        rng = np.random.default_rng(3)
        targets = [rng.normal(size=(1, 2)) for _ in range(25)]
        return fit_codebook_set(targets, k=4, seed=2, channel_names=["left", "right"])

    def test_round_trip_exact(self, tmp_path):
        books = self._books()
        path = str(tmp_path / "books.json")
        save_codebooks(books, path)
        back = load_codebooks(path)
        assert back.channel_names == ("left", "right")
        assert back.centroids.tobytes() == books.centroids.tobytes()

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 99, "K": 1, "target_dim": 1, "channels": []}))
        with pytest.raises(ValueError, match="version"):
            load_codebooks(str(path))

    def _doc(self):
        return {
            "version": 1,
            "K": 2,
            "target_dim": 1,
            "channels": [
                {"name": "left", "centroids": [[0.0], [1.0]]},
                {"name": "right", "centroids": [[-1.0], [2.0]]},
            ],
        }

    def _load_broken(self, tmp_path, text):
        path = tmp_path / "codebooks.json"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            load_codebooks(str(path))
        assert str(path) in str(err.value)
        return str(err.value)

    def test_valid_doc_loads(self, tmp_path):
        path = tmp_path / "codebooks.json"
        path.write_text(json.dumps(self._doc()))
        assert load_codebooks(str(path)).channel_names == ("left", "right")

    def test_malformed_json_names_file(self, tmp_path):
        assert "not a codebooks JSON document" in self._load_broken(tmp_path, '{"version": 1,')

    def test_not_an_object_names_file(self, tmp_path):
        assert "JSON object" in self._load_broken(tmp_path, "[1, 2]")

    def test_wrong_version_names_file(self, tmp_path):
        doc = self._doc()
        doc["version"] = 2
        assert "version: 2" in self._load_broken(tmp_path, json.dumps(doc))

    @pytest.mark.parametrize("key", ["channels", "K", "target_dim"])
    def test_missing_top_level_key_names_file(self, tmp_path, key):
        doc = self._doc()
        del doc[key]
        assert f"'{key}'" in self._load_broken(tmp_path, json.dumps(doc))

    @pytest.mark.parametrize("key", ["name", "centroids"])
    def test_missing_channel_key_names_file(self, tmp_path, key):
        doc = self._doc()
        del doc["channels"][1][key]
        assert f"'{key}'" in self._load_broken(tmp_path, json.dumps(doc))

    def test_centroid_shape_mismatch_names_file(self, tmp_path):
        doc = self._doc()
        doc["channels"][0]["centroids"] = [[0.0, 1.0], [1.0, 2.0]]
        message = self._load_broken(tmp_path, json.dumps(doc))
        assert "channel 0: centroid shape mismatch" in message

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc.update(channels=[1, 2]), "channel 0: must be an object, got int"),
            (lambda doc: doc.update(channels={"a": 1}), "channels must be a non-empty list of channel objects"),
            (lambda doc: doc.update(channels=[]), "channels must be a non-empty list of channel objects"),
            (lambda doc: doc["channels"][0].update(centroids=[[0.0], [1.0, 2.0]]),
             "channel 0: centroids must be a 2 x 1 array of numbers"),
            (lambda doc: doc["channels"][1].update(centroids=[["x"], [1.0]]),
             "channel 1: centroids must be a 2 x 1 array of numbers"),
            (lambda doc: doc["channels"][1].update(centroids=[[10**400], [1.0]]),
             "channel 1: centroids must be a 2 x 1 array of numbers"),
            (lambda doc: doc["channels"][0].update(centroids=[[None], [1.0]]),
             "centroids contain non-finite values"),
        ],
    )
    def test_malformed_channel_names_field(self, tmp_path, edit, message):
        doc = self._doc()
        edit(doc)
        assert self._load_broken(tmp_path, json.dumps(doc)) == f"{tmp_path / 'codebooks.json'}: {message}"

    def test_file_hash_is_sha256(self, tmp_path):
        books = self._books()
        path = str(tmp_path / "books.json")
        save_codebooks(books, path)
        with open(path, "rb") as fh:
            data = fh.read()
        expected = hashlib.sha256(data).hexdigest()
        assert codebook_file_hash(data) == expected
        assert load_codebooks(path).file_hash == expected
        assert books.file_hash == ""  # built in memory
        with pytest.raises(TypeError):
            codebook_file_hash(path)  # hashes bytes, never opens a file

    @pytest.mark.parametrize("data", [b'{"version": 1, "K": \xff}', b"\xef\xbb\xbf{}"],
                             ids=["non_utf8", "utf8_bom"])
    def test_undecodable_bytes_name_file(self, tmp_path, data):
        path = tmp_path / "codebooks.json"
        path.write_bytes(data)
        with pytest.raises(ValueError) as err:
            load_codebooks(str(path))
        assert str(err.value).startswith(f"{path}: not a codebooks JSON document (")

    def test_set_validation(self):
        with pytest.raises(ValueError):
            CodebookSet([np.zeros((2, 1)), np.zeros((3, 1))], channel_names=["a", "b"])  # K differs


def reference_save_codebooks(books, path):
    """The per-channel writer that codebooks.json bytes are pinned to: one
    list of Python floats per centroid row, channel by channel."""
    doc = {
        "version": 1,
        "K": books.K,
        "target_dim": books.target_dim,
        "channels": [
            {
                "name": books.channel_names[c],
                "centroids": [[float(v) for v in row] for row in books.centroids[c]],
            }
            for c in range(books.num_channels)
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


@st.composite
def codebook_sets(draw):
    """(centroids, names): C, K and target_dim in 1-4, 1-10 and 1-4, any
    finite float64 values, any channel names."""
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 10)), draw(st.integers(1, 4)))
    centroids = draw(arrays(np.float64, shape, elements=st.floats(allow_nan=False, allow_infinity=False)))
    names = draw(st.lists(st.text(max_size=4), min_size=shape[0], max_size=shape[0]))
    return centroids, names


class TestCodebookSet:
    """One read-only (C, K, target_dim) array per set, checked when built."""

    @settings(max_examples=100, deadline=None)
    @given(case=codebook_sets())
    def test_file_round_trip(self, case):
        centroids, names = case
        books = CodebookSet(centroids, names)
        with tempfile.TemporaryDirectory() as tmp:
            path, reference = os.path.join(tmp, "books.json"), os.path.join(tmp, "reference.json")
            save_codebooks(books, path)
            reference_save_codebooks(books, reference)
            back = load_codebooks(path)
            with open(path, "rb") as got, open(reference, "rb") as want:
                assert got.read() == want.read()
        assert back.centroids.dtype == np.float64 and back.centroids.shape == centroids.shape
        assert back.centroids.tobytes() == centroids.tobytes()
        assert back.channel_names == tuple(names)
        assert (back.num_channels, back.K, back.target_dim) == centroids.shape

    def test_later_edits_reach_neither_tokens_nor_file(self, tmp_path):
        centroids = np.array([[[0.0], [1.0]]])
        books = CodebookSet(centroids, ["ch0"])
        before = tmp_path / "before.json"
        save_codebooks(books, str(before))
        centroids[0, 1, 0] = 5.0
        assert tokenize_window(np.array([[0.9]]), books).tolist() == [1]
        after = tmp_path / "after.json"
        save_codebooks(books, str(after))
        assert after.read_bytes() == before.read_bytes()
        with pytest.raises(ValueError, match="read-only"):
            books.centroids[0, 1, 0] = 5.0

    def test_equality_is_identity(self):
        books = CodebookSet(np.zeros((2, 3, 1)), ["a", "b"])
        assert books == books
        assert books != CodebookSet(np.zeros((2, 3, 1)), ["a", "b"])

    def test_names_are_a_tuple_of_str(self, tmp_path):
        """Names are kept as a tuple, so an edit after construction cannot
        make save_codebooks write a file that load_codebooks rejects."""
        names = ["a", "b"]
        books = CodebookSet(np.zeros((2, 2, 1)), names)
        names[0] = 5
        assert books.channel_names == ("a", "b")
        with pytest.raises(TypeError):
            books.channel_names[0] = 5
        path = tmp_path / "books.json"
        save_codebooks(books, str(path))
        assert load_codebooks(str(path)).channel_names == ("a", "b")

    @pytest.mark.parametrize(
        "centroids, names, message",
        [
            (np.zeros((2, 1)), ["a"], "must be 3-D"),
            (np.zeros((1, 0, 1)), ["a"], "K >= 1"),
            (np.zeros((0, 2, 1)), [], "C >= 1"),
            (np.array([[[0.0], [np.inf]]]), ["a"], "non-finite"),
            (np.array([[[0.0], [np.nan]]]), ["a"], "non-finite"),
            (np.zeros((2, 2, 1)), ["a"], "one channel name per codebook"),
            (np.zeros((1, 2, 1)), ["a", "b"], "one channel name per codebook"),
            (np.zeros((2, 2, 1)), ["a", 5], "channel 1: name must be a string, got 5"),
            (np.zeros((1, 2, 1)), [b"a"], "channel 0: name must be a string"),
        ],
    )
    def test_rejects(self, centroids, names, message):
        with pytest.raises(ValueError, match=message):
            CodebookSet(centroids, names)
