"""Streamed evaluation against the unchunked formulas it replaced.

Each reference below is the whole-matrix version of a metric: it builds the
full pair list, Gram matrix or logits block at once. The streamed functions
must agree with them for any chunk size, so the tests shrink the chunk to
one row and to three rows (whose last chunk is ragged for most N).
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_batch

from dystress import harness, numeric, synthetic
from dystress import encoder as enc
from dystress.errors import BatchTooSmallError, NumericError
from dystress.geometry import EmbeddingBatch, PairKind, build_logits_block, classify_pairs, l2_normalize
from dystress.loss import forward, forward_from_block, loss_on_embeddings
from dystress.metrics import HISTOGRAM_BINS, _nearest, knn_probe, pair_histograms, tolerance, uniformity
from dystress.numeric import Rng
from dystress.temperature import TemperatureProfile

ALL_VARIANTS = [
    TemperatureProfile.constant(0.15),
    TemperatureProfile.cosine_vanilla(0.1, 0.2),
    TemperatureProfile.cosine_shifted(0.1, 0.2, -0.4, 0.7),
    TemperatureProfile.linear(0.1, 0.3),
    TemperatureProfile.exponential(0.1, 0.3, sharpness=2.0),
    TemperatureProfile.monotonic_cosine(0.1, 0.2),
]
SIZES = [2, 3, 7, 64, 257]
CHUNK_ROWS = [1, 3]


# -- the unchunked references --------------------------------------------------


def reference_uniformity(points):
    gram = points @ points.T
    sq_norms = np.diag(gram)
    i, j = np.triu_indices(points.shape[0], k=1)
    sq_dists = np.maximum(sq_norms[i] + sq_norms[j] - 2.0 * gram[i, j], 0.0)
    return float(np.log(np.mean(np.exp(-2.0 * sq_dists))))


def reference_tolerance(points, labels):
    i, j = np.triu_indices(points.shape[0], k=1)
    same = labels[i] == labels[j]
    sims = np.clip(np.einsum("pd,pd->p", points[i[same]], points[j[same]]), -1.0, 1.0)
    return float(np.mean(sims))


def reference_knn(train_points, train_labels, test_points, test_labels, k, weight_temperature):
    classes = np.unique(train_labels)
    class_of = {c: idx for idx, c in enumerate(classes)}
    sims = np.clip(test_points @ train_points.T, -1.0, 1.0)
    correct = 0
    for t in range(test_points.shape[0]):
        order = np.argsort(-sims[t], kind="stable")[:k]
        votes = np.zeros(classes.size)
        for idx in order:
            votes[class_of[int(train_labels[idx])]] += np.exp(sims[t, idx] / weight_temperature)
        correct += int(classes[int(np.argmax(votes))] == test_labels[t])
    return correct / test_points.shape[0]


def reference_histogram_counts(batch, bins):
    block = build_logits_block(batch, TemperatureProfile.constant(1.0))
    kinds = classify_pairs(batch)
    edges = np.linspace(-1.0, 1.0, bins + 1)
    return {kind: np.histogram(block.s[kinds == kind], bins=edges)[0] for kind in PairKind}


def set_chunk_rows(monkeypatch, rows, width):
    """Make `row_chunks` cut `rows` rows per chunk of a matrix `width` wide."""
    monkeypatch.setattr(numeric, "CHUNK_ENTRIES", rows * width)


def relative(value, reference):
    return abs(value - reference) / abs(reference)


# -- parity --------------------------------------------------------------------


@pytest.mark.parametrize("rows", CHUNK_ROWS)
@pytest.mark.parametrize("n", SIZES)
def test_loss_matches_block_reference(monkeypatch, rng, n, rows):
    batch = random_batch(rng, n, 8)
    set_chunk_rows(monkeypatch, rows, n)
    for profile in ALL_VARIANTS:
        reference = forward_from_block(build_logits_block(batch, profile))
        assert relative(forward(batch, profile), reference) < 1e-12, profile.variant


# repr of forward, and of loss_on_embeddings with frozen_at = z, at N=257 in
# 3-row chunks (86 chunks, the last one ragged), one pair per ALL_VARIANTS entry
MANY_CHUNK_BITS = [
    ("8.627218840030512", "8.627218840030512"),
    ("8.358364218284922", "8.358364218284922"),
    ("8.163553694327685", "8.163553694327685"),
    ("7.603822454905353", "7.603822454905353"),
    ("8.179446437512542", "8.179446437512542"),
    ("8.280831070017873", "8.280831070017873"),
]


@pytest.mark.parametrize(
    "profile, bits", [pytest.param(p, b, id=p.variant) for p, b in zip(ALL_VARIANTS, MANY_CHUNK_BITS)]
)
def test_many_chunk_walk_keeps_its_bits(monkeypatch, profile, bits):
    batch = random_batch(Rng(257), 257, 8)
    set_chunk_rows(monkeypatch, 3, 257)
    z = batch.stacked()
    assert (repr(forward(batch, profile)), repr(loss_on_embeddings(z, profile, frozen_at=z))) == bits


@pytest.mark.parametrize("rows", CHUNK_ROWS)
@pytest.mark.parametrize("n", SIZES)
def test_uniformity_and_tolerance_match_pair_lists(monkeypatch, rng, n, rows):
    # points gather around their class direction, as trained embeddings do
    labels = np.arange(n) % 3
    centers = l2_normalize(rng.normal((3, 8)))
    points = l2_normalize(centers[labels] + 0.5 * rng.normal((n, 8)))
    set_chunk_rows(monkeypatch, rows, n)
    assert relative(uniformity(points), reference_uniformity(points)) < 1e-12
    if n > 3:  # with fewer points every label is unique
        assert relative(tolerance(points, labels), reference_tolerance(points, labels)) < 1e-12


@pytest.mark.parametrize("rows", CHUNK_ROWS)
@pytest.mark.parametrize("n", SIZES)
def test_histogram_counts_match_block_reference(monkeypatch, rng, n, rows):
    batch = random_batch(rng, n, 5, labels=np.arange(n) % 3)
    set_chunk_rows(monkeypatch, rows, n)
    counts = pair_histograms(batch).counts
    expected = reference_histogram_counts(batch, HISTOGRAM_BINS)
    for kind in PairKind:
        assert np.array_equal(counts[kind], expected[kind]), kind


@pytest.mark.parametrize("rows", CHUNK_ROWS)
@pytest.mark.parametrize("n", SIZES)
def test_knn_matches_loop_reference(monkeypatch, rng, n, rows):
    train = l2_normalize(rng.normal((n, 6)))
    train_labels = np.arange(n) % 4
    test = l2_normalize(train[rng.permutation(n)] + 0.3 * rng.normal((n, 6)))
    test_labels = (np.arange(n) + 1) % 4
    set_chunk_rows(monkeypatch, rows, n)
    for k in sorted({1, min(3, n), n}):
        expected = reference_knn(train, train_labels, test, test_labels, k, 0.07)
        assert knn_probe(train, train_labels, test, test_labels, k=k) == expected, k


# Unit vectors in 4-D with coordinates 0, +-1/2 or +-1: every dot product is a
# multiple of 1/4 and exact in floating point, so similarities tie exactly.
TIED_DIRECTIONS = np.array(
    [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.5, 0.5, 0.5, 0.5], [0.5, -0.5, 0.5, -0.5],
     [-0.5, 0.5, 0.5, 0.5], [0.0, 0.0, -1.0, 0.0]]
)


@pytest.mark.parametrize("rows", CHUNK_ROWS)
def test_knn_tied_similarities_at_kth_neighbour(monkeypatch, rows):
    rng = Rng(5)
    train = TIED_DIRECTIONS[rng.permutation(60) % 6]
    train_labels = (np.arange(60) * 7) % 5
    test = TIED_DIRECTIONS[np.arange(30) % 6]
    test_labels = np.arange(30) % 5
    set_chunk_rows(monkeypatch, rows, 60)
    for k in (1, 4, 9, 10, 11, 25):
        expected = reference_knn(train, train_labels, test, test_labels, k, 0.07)
        assert knn_probe(train, train_labels, test, test_labels, k=k) == expected, k


# points with coordinates on a coarse grid: dot products are exact multiples of
# 1/4, many tie, and the clamp to [-1, 1] ties more of them at +-1
def grid_points(max_size):
    point = st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]), min_size=3, max_size=3)
    return st.lists(point, min_size=1, max_size=max_size)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(grid_points(12), grid_points(7))
def test_knn_selection_is_a_stable_sort_on_ties(train, test):
    train, test = np.array(train), np.array(test)
    sims = np.clip(test @ train.T, -1.0, 1.0)
    for rows in CHUNK_ROWS:
        with pytest.MonkeyPatch.context() as patch:
            set_chunk_rows(patch, rows, train.shape[0])
            for k in range(1, train.shape[0] + 1):
                chunks = list(_nearest(test, train, k))
                nearest = np.vstack([chunk[1] for chunk in chunks])
                assert np.array_equal(nearest, np.argsort(-sims, axis=1, kind="stable")[:, :k]), (rows, k)
                assert np.array_equal(np.vstack([chunk[2] for chunk in chunks]), np.take_along_axis(sims, nearest, 1))


def test_knn_tie_at_kth_neighbour_takes_lower_train_index():
    train = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    query = np.array([[0.0, 1.0]])
    # rows 1 and 2 tie at similarity 1; with k = 1 row 1 alone votes
    assert knn_probe(train, np.array([0, 2, 1]), query, np.array([2]), k=1) == 1.0
    assert knn_probe(train, np.array([0, 1, 2]), query, np.array([1]), k=1) == 1.0
    # 857 rows tie at similarity 1, large enough that an unstable sort
    # reorders them; only the five lowest-indexed tied rows carry label 1
    train = np.tile([[0.0, 1.0]], (1000, 1))
    train[::7] = [1.0, 0.0]
    labels = np.full(1000, 2)
    labels[1:6] = 1
    assert knn_probe(train, labels, query, np.array([1]), k=5) == 1.0


def test_loss_checks_kept():
    with pytest.raises(BatchTooSmallError):
        forward(EmbeddingBatch(np.eye(2)[:1], np.eye(2)[1:], ["a"]), ALL_VARIANTS[1])
    va = l2_normalize(np.eye(3))
    vb = va.copy()
    batch = EmbeddingBatch(va, vb, ["a", "b", "c"])
    batch.view_b[1, 0] = np.nan  # after validation, as a corrupted buffer would be
    with np.errstate(invalid="ignore"), pytest.raises(NumericError):
        forward(batch, ALL_VARIANTS[1])


# -- memory --------------------------------------------------------------------


def eval_peak(config):
    """tracemalloc peak of one eval with histograms, epoch 0, of `config`."""
    root_rng = Rng(config.seed)
    train_set = synthetic.generate(config.synthetic, config.seed)
    test_set = synthetic.generate_eval_split(
        config.synthetic, train_set.class_centers, root_rng.substream("testdata")
    )
    params = enc.init_params(config.encoder, root_rng.substream("init"))
    args = config, params, train_set, test_set, root_rng
    harness._eval_state(*args, epoch=0, with_histogram=True)  # warm up: np.unique imports numpy.ma once
    tracemalloc.start()
    try:
        harness._eval_state(*args, epoch=0, with_histogram=True)
        return tracemalloc.get_traced_memory()[1], train_set.size
    finally:
        tracemalloc.stop()


def test_eval_memory_stays_linear_at_n_1500():
    config = harness.ExperimentConfig(synthetic=synthetic.SyntheticSpec(samples_per_class=150), epochs=0)
    peak, n = eval_peak(config)
    assert n == 1500
    # 5.1 MiB measured, with two 174x1500 tiles live in the loss; the bound leaves 20%
    assert peak < 6.1 * 2**20, f"eval peak {peak / 2**20:.2f} MiB"


def test_small_eval_histogram_takes_tiles_of_a_quarter_budget():
    # the sweep-ablation train set: its 360x360 stacked Gram fits one full
    # budget, which is four times the loss's 180x180 tile
    config = harness.ExperimentConfig(
        synthetic=synthetic.SyntheticSpec(num_classes=6, samples_per_class=30, ambient_dim=16),
        encoder=enc.EncoderSpec(layer_widths=(16, 32, 8)),
        epochs=0,
    )
    peak, n = eval_peak(config)
    assert n == 180
    # 1.5 MiB measured (2.5 with the histogram in one 360x360 tile); the bound leaves 20%
    assert peak < 1.8 * 2**20, f"eval peak {peak / 2**20:.2f} MiB"


def test_histograms_hold_linear_memory_at_n_2000(rng):
    n = 2000
    batch = random_batch(rng, n, 16, labels=np.arange(n) % 10)
    pair_histograms(batch)  # warm up any one-off allocation
    tracemalloc.start()
    try:
        pair_histograms(batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 2.2 MiB measured: one 16x4000 Gram tile, its largest masked copy and
    # np.histogram's blocks; the bound leaves 20%
    assert peak < 2.65 * 2**20, f"histogram peak {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("profile", ALL_VARIANTS, ids=lambda p: p.variant)
def test_loss_holds_two_tiles_per_chunk(monkeypatch, rng, profile):
    n, rows = 512, 64
    batch = random_batch(rng, n, 16)
    set_chunk_rows(monkeypatch, rows, n)
    tile = rows * n * 8
    forward(batch, profile)  # warm up any one-off allocation
    tracemalloc.start()
    try:
        forward(batch, profile)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the similarity tile, exponentiated in place, and its 1/tau tile (b.b^T
    # while the packed tile is built, e_b at the end), beside bool masks of an
    # eighth of a tile each; the exponential tau holds one more tile of its own
    tiles = 3 if profile.variant == "exponential" else 2
    assert peak < tiles * tile + 3 * tile / 8 + 2**16, f"loss peaked at {peak / tile:.2f} tiles"
