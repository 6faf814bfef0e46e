"""`sample_pairs` against the list-based sampler it replaced, above the
enumeration limit, and at any run length: the sample is the same whether
the pairs are read in one run or in many."""
import hashlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tagfusion.learning as learning
from tagfusion.collection import SyntheticConfig, SyntheticFeature, generate_collection
from tagfusion.evalkit import Qrels
from tagfusion.learning import (
    learn_distance_weights_per_concept,
    sample_pairs,
)
from tagfusion.neighbors import DistanceNormalizer, WeightVector

from conftest import LabeledPair, labeled_sample, make_collection


def list_sample_pairs(qrels, c, n_pairs, seed=0):
    """Reference: every pair listed in Python, lexicographic by image id."""
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    labels = {}
    for tag in qrels.tags():
        for image_id, rel in qrels.judgments[tag].items():
            if image_id in c:
                labels.setdefault(image_id, set())
                if rel == 1:
                    labels[image_id].add(tag)
    universe = sorted(labels)
    n = len(universe)
    if n < 2:
        raise ValueError("need at least 2 judged training images")
    assert n * (n - 1) // 2 <= 5_000_000, "the reference lists every pair"
    rng = np.random.default_rng(seed)
    pos, neg = [], []
    for a in range(n):
        la = labels[universe[a]]
        for b in range(a + 1, n):
            if la & labels[universe[b]]:
                pos.append((universe[a], universe[b]))
            else:
                neg.append((universe[a], universe[b]))
    if not pos:
        raise ValueError("no positive pairs available")
    if not neg:
        raise ValueError("no negative pairs available")
    want_pos = min(n_pairs // 2, len(pos))
    want_neg = min(n_pairs - want_pos, len(neg))
    if want_neg < n_pairs - want_pos:
        want_pos = min(n_pairs - want_neg, len(pos))
    pos_idx = rng.choice(len(pos), want_pos, replace=False, shuffle=False)
    neg_idx = rng.choice(len(neg), want_neg, replace=False, shuffle=False)
    out = [LabeledPair(a, b, 1) for a, b in (pos[i] for i in sorted(pos_idx))]
    out += [LabeledPair(a, b, 0) for a, b in (neg[i] for i in sorted(neg_idx))]
    return out


def outcome(sampler, qrels, c, n_pairs, seed):
    try:
        return sampler(qrels, c, n_pairs, seed)
    except ValueError as e:
        return f"ValueError: {e}"


def assert_matches_reference(qrels, c, n_pairs, seed):
    got = outcome(labeled_sample, qrels, c, n_pairs, seed)
    assert got == outcome(list_sample_pairs, qrels, c, n_pairs, seed)
    return got


def build(world):
    """world = (ids in the collection, {tag: {image_id: rel}})."""
    ids, judgments = world
    c = make_collection([(i, "u", []) for i in ids])
    return c, Qrels(judgments={t: dict(j) for t, j in judgments.items()})


def concept_view(qrels, c, tag):
    """The one-concept qrels `learn_distance_weights_per_concept` samples from."""
    judged = sorted({i for t in qrels.tags() for i in qrels.judgments[t] if i in c})
    relevant = qrels.relevant(tag)
    return Qrels(judgments={tag: {i: 1 if i in relevant else 0 for i in judged}})


@st.composite
def label_worlds(draw):
    numbers = draw(st.lists(st.integers(0, 120), min_size=2, max_size=30, unique=True))
    ids = [f"x{v}" for v in numbers]  # string order differs from numeric order
    in_c = draw(st.lists(st.sampled_from([True, True, True, False]), min_size=len(ids), max_size=len(ids)))
    tags = [f"c{k}" for k in range(draw(st.integers(1, 4)))]
    rel = st.sampled_from([None, 0, 0, 1, 1])
    judgments = {}
    for t in tags:
        marks = draw(st.lists(rel, min_size=len(ids), max_size=len(ids)))
        judgments[t] = {i: r for i, r in zip(ids, marks) if r is not None}
    world = ([i for i, keep in zip(ids, in_c) if keep or len(ids) == 2], judgments)
    if draw(st.booleans()):
        c, q = build(world)
        view = concept_view(q, c, draw(st.sampled_from(tags)))
        world = (world[0], view.judgments)
    return world


MULTI_LABEL = (
    ["a", "b", "c", "d", "e", "f"],
    {"c1": {"a": 1, "b": 1, "c": 1}, "c2": {"c": 1, "d": 1, "a": 0}, "c3": {"e": 1, "f": 0}},
)
ONLY_ZERO = (
    ["a", "b", "c", "d", "e"],
    {"c1": {"a": 1, "b": 1, "c": 0}, "c2": {"d": 0, "e": 0, "c": 0}},
)
MISSING_FROM_C = (
    ["a", "c", "e", "g"],
    {"c1": {"a": 1, "b": 1, "c": 1, "d": 1}, "c2": {"e": 1, "f": 1, "g": 0, "h": 1}},
)
SCARCE_POSITIVES = (
    [f"x{i}" for i in range(10)],
    {"c1": {"x0": 1, "x1": 1}, **{f"z{i}": {f"x{i}": 1} for i in range(2, 10)}},
)
SCARCE_NEGATIVES = (
    [f"x{i}" for i in range(7)],
    {"c1": {**{f"x{i}": 1 for i in range(6)}, "x6": 0}},
)
TWO_POSITIVE = (["a", "b"], {"c1": {"a": 1, "b": 1}})
TWO_NEGATIVE = (["a", "b"], {"c1": {"a": 1, "b": 0}})


@settings(max_examples=300)
@given(world=label_worlds(), n_pairs=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
@example(world=MULTI_LABEL, n_pairs=8, seed=0)
@example(world=ONLY_ZERO, n_pairs=6, seed=1)
@example(world=MISSING_FROM_C, n_pairs=4, seed=2)
@example(world=SCARCE_POSITIVES, n_pairs=20, seed=4)  # one positive pair exists
@example(world=SCARCE_NEGATIVES, n_pairs=14, seed=5)  # 6 negatives; positives top up
@example(world=SCARCE_NEGATIVES, n_pairs=21, seed=6)  # n_pairs = every pair
@example(world=MULTI_LABEL, n_pairs=40, seed=7)  # n_pairs > every pair
@example(world=TWO_POSITIVE, n_pairs=1, seed=8)
@example(world=TWO_NEGATIVE, n_pairs=1, seed=9)
@example(world=(["a", "b", "c"], {"c1": {"a": 1, "b": 1, "c": 1}, "c2": {"b": 0}}), n_pairs=2, seed=0)
def test_matches_list_reference(world, n_pairs, seed):
    c, q = build(world)
    assert_matches_reference(q, c, n_pairs, seed)


def test_named_cases_take_the_intended_branches():
    c, q = build(SCARCE_NEGATIVES)
    got = assert_matches_reference(q, c, 14, 5)
    assert [p.label for p in got].count(0) == 6 and len(got) == 14
    c, q = build(SCARCE_POSITIVES)
    assert [p.label for p in assert_matches_reference(q, c, 20, 4)].count(1) == 1
    c, q = build(TWO_NEGATIVE)
    assert assert_matches_reference(q, c, 1, 9) == "ValueError: no positive pairs available"


def test_per_concept_views_match_reference(monkeypatch):
    """Every pair sample that per-concept metric learning draws on a seeded world."""
    cfg = SyntheticConfig(
        n_images=300, n_tags=8, n_users=5,
        features=(SyntheticFeature("visa", 4), SyntheticFeature("visb", 4)),
        q_correct=0.9, q_incorrect=0.05, seed=3,
    )
    c, truth = generate_collection(cfg)
    q = Qrels.from_ground_truth(truth)
    for k, rec in enumerate(c.images[:40]):  # images judged only 0
        q.add(f"zero{k % 3}", rec.image_id, 0)
    rows, labels = learning._label_matrix(q, c)
    ids = [c.images[r].image_id for r in rows.tolist()]
    calls = []

    def checked(view_labels, n_pairs, seed=0):
        # the qrels these labels stand for: every judged image, per column
        view = Qrels(judgments={
            f"v{j:03d}": dict(zip(ids, col.astype(int).tolist()))
            for j, col in enumerate(view_labels.T)
        })
        assert np.array_equal(learning._label_matrix(view, c)[1], view_labels)
        if view_labels.shape[1] == 1:  # concept k samples with seed 11 + k + 1
            tag = q.tags()[seed - 12]
            assert view.judgments["v000"] == concept_view(q, c, tag).judgments[tag]
        calls.append(assert_matches_reference(view, c, n_pairs, seed))
        return sample_pairs(view_labels, n_pairs, seed)

    monkeypatch.setattr(learning, "sample_pairs", checked)
    result = learn_distance_weights_per_concept(
        c, q.tags(), rows, labels, ["visa", "visb"], None, n_pairs=400, seed=11
    )
    assert len(calls) == 1 + len(q.tags()) - len(result.fallbacks)
    assert sum(isinstance(r, list) for r in calls) > len(truth) // 2


def test_per_concept_fallbacks():
    """A concept with fewer than two relevant images, or whose column holds
    no negative pair (every judged image relevant), takes the global
    weights; an error of the fit itself is not taken for a fallback."""
    c = make_collection(
        [(f"x{i}", "u", []) for i in range(6)],
        {"f": [[float(i)] for i in range(6)], "g": [[float(i % 2)] for i in range(6)]},
    )
    q = Qrels(judgments={
        "all": {f"x{i}": 1 for i in range(6)},
        "one": {"x0": 1, "x1": 0},
        "two": {"x0": 1, "x1": 1, "x5": 0},
    })
    rows, labels = learning._label_matrix(q, c)
    gw = WeightVector.normalized(("f", "g"), (0.25, 0.75))
    args = (c, q.tags(), rows, labels, ["f", "g"])
    result = learn_distance_weights_per_concept(*args, None, n_pairs=10, global_weights=gw)
    assert result.fallbacks == {"all", "one"}
    assert result.per_concept["all"] is gw and result.per_concept["one"] is gw
    assert result.per_concept["two"] is not gw
    with pytest.raises(ValueError, match="rankmax"):
        learn_distance_weights_per_concept(
            *args, {"f": DistanceNormalizer("rankmax")}, n_pairs=10, global_weights=gw
        )


# ---------------------------------------------------------------------------
# above the enumeration limit: 3200 judged images hold 5,118,400 pairs
# ---------------------------------------------------------------------------

N_LARGE = 3200


def large_world(groups, n=N_LARGE):
    """Featureless collection of n images; groups = {tag: range of relevant
    image numbers}, every other image judged 0 for the first tag."""
    ids = [f"i{v:04d}" for v in range(n)]
    c = make_collection([(i, "u", []) for i in ids])
    q = Qrels()
    first = next(iter(groups))
    for i in ids:
        q.add(first, i, 0)
    for tag, members in groups.items():
        for v in members:
            q.add(tag, ids[v], 1)
    return c, q


def check_sample(pairs, q):
    concepts = {}
    for t in q.tags():
        for i in q.relevant(t):
            concepts.setdefault(i, set()).add(t)
    for p in pairs:
        assert p.x < p.x_other
        assert p.label == int(bool(concepts.get(p.x, set()) & concepts.get(p.x_other, set())))
    assert len({(p.x, p.x_other) for p in pairs}) == len(pairs)


LISTED = {"c0": range(0, 40), "c1": range(30, 90), "c2": range(2000, 2500)}  # 127,255 positive pairs
DRAWN = {"c0": range(0, 3180), "c1": range(3180, 3200)}  # 5,054,800 positive pairs: two runs


def test_scarce_positives_above_limit_stay_balanced():
    c, q = large_world({"c0": range(40)})  # 780 positive pairs
    pairs = labeled_sample(q, c, 1000, seed=0)
    assert [p.label for p in pairs] == [1] * 500 + [0] * 500
    check_sample(pairs, q)


@pytest.mark.parametrize("groups", [LISTED, DRAWN], ids=["positives-listed", "positives-drawn"])
def test_sample_above_limit(groups):
    c, q = large_world(groups)
    pairs = labeled_sample(q, c, 600, seed=1)
    assert [p.label for p in pairs] == [1] * 300 + [0] * 300
    check_sample(pairs, q)
    for label in (0, 1):
        keys = [(p.x, p.x_other) for p in pairs if p.label == label]
        assert keys == sorted(keys)
    assert labeled_sample(q, c, 600, seed=1) == pairs
    assert labeled_sample(q, c, 600, seed=2) != pairs


def test_no_negatives_above_limit_raises():
    c, q = large_world({"c0": range(N_LARGE)})
    with pytest.raises(ValueError, match="negative"):
        labeled_sample(q, c, 10, seed=0)


# ---------------------------------------------------------------------------
# overlap extremes and memory of a single run
# ---------------------------------------------------------------------------

HEAVY_OVERLAP = (  # the concepts hold 57 pairs between them; only 45 pairs exist
    [f"x{i}" for i in range(10)],
    {
        "c1": {f"x{i}": 1 for i in range(7)},
        "c2": {f"x{i}": 1 for i in range(2, 9)},
        "c3": {**{f"x{i}": 1 for i in (0, 1, 2, 3, 7, 8)}, "x9": 0},
    },
)
ALL_BUT_ONE_POSITIVE = (  # (a, f) is the only pair sharing no concept
    ["a", "b", "c", "d", "e", "f"],
    {"c1": {i: 1 for i in "abcde"}, "c2": {i: 1 for i in "bcdef"}},
)


@pytest.mark.parametrize("n_pairs", [1, 2, 7, 14, 15, 40])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("world", [HEAVY_OVERLAP, ALL_BUT_ONE_POSITIVE], ids=["heavy-overlap", "all-but-one"])
def test_overlap_extremes_match_reference(world, n_pairs, seed):
    c, q = build(world)
    n = len(world[0])
    got = assert_matches_reference(q, c, n_pairs, seed)
    if world is HEAVY_OVERLAP:
        sizes = [len(q.relevant(t)) for t in q.tags()]
        assert sum(m * (m - 1) // 2 for m in sizes) > n * (n - 1) // 2
    else:
        assert [p for p in got if p.label == 0] == [LabeledPair("a", "f", 0)]
    assert len(got) == min(n_pairs, n * (n - 1) // 2)


def traced_peak(fn):
    """fn()'s result and the traced peak of the bytes it allocated."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def traced_sample_peak():
    """Traced peak bytes per listed pair of one 2000-pair sample from 2000
    images in 20 disjoint concepts (1,999,000 pairs, 99,000 positive)."""
    n = 2000
    ids = [f"i{v:04d}" for v in range(n)]
    c = make_collection([(i, "u", []) for i in ids])
    q = Qrels()
    for v, i in enumerate(ids):
        q.add(f"c{v % 20}", i, 1)
    total = n * (n - 1) // 2
    assert total <= learning._ENUMERATE_LIMIT
    pairs, peak = traced_peak(lambda: labeled_sample(q, c, 2000, seed=0))
    assert [p.label for p in pairs] == [1] * 1000 + [0] * 1000
    return peak / total


def test_enumerated_sample_memory_per_pair():
    """No (n x n) array: the traced peak stays near the one-byte mask of
    pairs sharing a concept."""
    assert traced_sample_peak() <= 10


def test_enumerated_sample_draws_without_listing_each_class():
    """The draw costs memory in proportion to the sample, not to the class:
    a permutation of the 1,900,000 negative ordinals alone would add eight
    bytes per pair."""
    assert traced_sample_peak() <= 3


UNIFORM_WORLD = (  # 20 positive and 25 negative pairs; 11 pairs take 5 and 6
    [f"x{i}" for i in range(10)],
    {"c1": {f"x{i}": 1 for i in range(5)}, "c2": {f"x{i}": 1 for i in range(5, 10)}},
)


def test_draw_is_uniform_without_replacement():
    """Over 2000 seeds every pair of a class is drawn about equally often,
    no sample repeats a pair, and the class sizes are `_sample_sizes`', in
    one run and in runs of at most seven pairs."""
    c, q = build(UNIFORM_WORLD)
    seeds, n_pairs = 2000, 11
    want = dict(zip((1, 0), learning._sample_sizes(20, 25, n_pairs)))
    for limit in (learning._ENUMERATE_LIMIT, 7):
        counts = {}
        with mock.patch.object(learning, "_ENUMERATE_LIMIT", limit):
            for seed in range(seeds):
                pairs = labeled_sample(q, c, n_pairs, seed)
                assert len(set(pairs)) == len(pairs)
                for label, size in want.items():
                    assert sum(p.label == label for p in pairs) == size
                for p in pairs:
                    counts[p] = counts.get(p, 0) + 1
        for label, size in want.items():
            seen = [k for p, k in counts.items() if p.label == label]
            n_class = 20 if label else 25
            assert len(seen) == n_class
            share = size / n_class
            mean, sigma = seeds * share, np.sqrt(seeds * share * (1 - share))
            assert all(abs(k - mean) <= 5 * sigma for k in seen), (limit, label, sorted(seen))


# ---------------------------------------------------------------------------
# every run length, against np.unique
# ---------------------------------------------------------------------------


def triu_codes(labels):
    """Reference: the sorted distinct codes a * n + b (a < b) of the pairs
    sharing a concept, from per-concept `np.triu_indices`."""
    n = len(labels)
    codes = [np.empty(0, dtype=np.intp)]
    for col in labels.T:
        m = np.flatnonzero(col)
        a, b = np.triu_indices(len(m), 1)
        codes.append(m[a] * n + m[b])
    return np.unique(np.concatenate(codes))


def group_labels(groups):
    """(N_LARGE x concepts) relevance of `large_world(groups)`'s images."""
    labels = np.zeros((N_LARGE, len(groups)), dtype=bool)
    for j, members in enumerate(groups.values()):
        labels[list(members), j] = True
    return labels


def positive_codes(labels):
    """Codes a * n + b of the positives of a sample of 2 * positives + 1
    pairs, which takes every positive pair."""
    pairs = sample_pairs(labels, 2 * len(triu_codes(labels)) + 1, seed=0)
    a, b, _ = pairs[pairs[:, 2] == 1].T
    return a * len(labels) + b


@pytest.mark.parametrize("groups", [LISTED, {"c0": range(0, 60), "c1": range(0, 60)}])
def test_positive_codes_match_np_unique(groups):
    labels = group_labels(groups)
    assert np.array_equal(positive_codes(labels), triu_codes(labels))


@st.composite
def label_matrices(draw):
    """Small (images x concepts) relevance with overlapping concepts, empty
    rows and, often, the last row set."""
    n = draw(st.integers(2, 30))
    k = draw(st.integers(1, 4))
    cells = draw(st.lists(st.booleans(), min_size=n * k, max_size=n * k))
    labels = np.array(cells, dtype=bool).reshape(n, k)
    if draw(st.booleans()):
        labels[-1, draw(st.integers(0, k - 1))] = True
    for row in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        labels[row] = False
    return labels


RUN_LIMITS = (1, 2, 3, 7, 45, 10**9)


@settings(max_examples=400)
@given(labels=label_matrices())
def test_lister_runs_match_np_unique(labels):
    """Any run length, down to one pair, puts the same sorted positives in
    a sample that takes them all."""
    want = triu_codes(labels)
    n = len(labels)
    for limit in RUN_LIMITS:
        with mock.patch.object(learning, "_ENUMERATE_LIMIT", limit):
            if 0 < len(want) < n * (n - 1) // 2:
                assert np.array_equal(positive_codes(labels), want), limit
            else:
                with pytest.raises(learning.PairSampleError, match="no (positive|negative) pairs"):
                    positive_codes(labels)


def sample_or_error(labels, n_pairs, seed):
    try:
        return sample_pairs(labels, n_pairs, seed)
    except learning.PairSampleError as e:
        return str(e)


@settings(max_examples=300)
@given(labels=label_matrices(), n_pairs=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
def test_sample_is_the_same_at_any_run_length(labels, n_pairs, seed):
    """Runs of any length, down to one pair, give the same sample (or the
    same error), with the class sizes `_sample_sizes` asks for."""
    samples = []
    for limit in RUN_LIMITS:
        with mock.patch.object(learning, "_ENUMERATE_LIMIT", limit):
            samples.append(sample_or_error(labels, n_pairs, seed))
    want = samples[-1]
    if isinstance(want, str):
        assert samples == [want] * len(samples)
        return
    assert all(np.array_equal(got, want) for got in samples), [type(got) for got in samples]
    n, n_pos = len(labels), len(triu_codes(labels))
    sizes = learning._sample_sizes(n_pos, n * (n - 1) // 2 - n_pos, n_pairs)
    assert (np.count_nonzero(want[:, 2] == 1), np.count_nonzero(want[:, 2] == 0)) == sizes


# ---------------------------------------------------------------------------
# pinned samples (sha256 of repr(labeled_sample(...)), seeds 0-2); the four
# 3200-image worlds hold 5,118,400 pairs, more than one run
# ---------------------------------------------------------------------------

BIG_CONCEPT = {"c0": range(0, 3100), "c1": range(3100, 3200)}  # 4,808,400 positive pairs
PINNED = {  # name: (groups, images, n_pairs, sha256 at seeds 0-2)
    # 4,498,500 pairs in all, 8,407,100 in the concepts: one run
    "overlap-below-limit": ({"c0": range(0, 2900), "c1": range(100, 3000)}, 3000, 600, (
        "b8e9698fb8a98543cbcfb63727ed251e64d858f9d861cdbef0f57029cd730bbc",
        "824f3fd0498f1a1361ddc4aca78356a6536ffd77cf49b04b85a241837ae5e472",
        "c2934666e73480c8700bae3c68c10cef8335aadd6bfd43bbaaa1ac19360c6dee",
    )),
    "listed": (LISTED, N_LARGE, 600, (
        "6e58b8904f6695344407ccabc0dfe2bb9342a37c53b127ab1aa6158eb43c0f52",
        "fd206a19ad88c274117bbb9fbb2e336a2a9619b41a254642f81fb3bbc8baf080",
        "aaa053036d3ff73eb4015ac34e67ca65eb8729748f6c409a3b1ebe36e12bb11b",
    )),
    "drawn": (DRAWN, N_LARGE, 600, (
        "5b9019412003797d62cb295990c365fea5d3c77b4055ef6f8524044b1f458243",
        "cd56cd24272c0968142611d43091cb954f63e00b830224acf4137dbf5275113a",
        "6191fc3d19eb5aaff922cce04f7b9d147481db5ccb282ea7c452667edabcc319",
    )),
    "scarce": ({"c0": range(40)}, N_LARGE, 1000, (
        "1c2f671d5de81234c730cd63f1f0649e4685297425a2e231c85ca567733af269",
        "84730683644f42aea64085894a735306d5463da2343e8470c15135511e8f98ed",
        "a57b4c34a602170d062632bfdfc7a8fd8a7fab94880342ab3d6e260129cf241e",
    )),
    "big-concept": (BIG_CONCEPT, N_LARGE, 600, (
        "3bd171bf7f0cf1a5222cd5cd1ad490d4b9db48678a685f3aa281b279dabe67ba",
        "9fa274284a7bd8a20ef576b7d13e3d57c58b30f9fb6fd9f81403bacb71b56e17",
        "b8ce7e46a1613384290f03d6b519a4ebe732593a9c400fe1417181a575231fa0",
    )),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_samples_match_pinned_hashes(name):
    """Each pinned sample is also the sample of one run over every pair."""
    groups, n, n_pairs, hashes = PINNED[name]
    c, q = large_world(groups, n)
    for seed, want in enumerate(hashes):
        pairs = labeled_sample(q, c, n_pairs, seed=seed)
        assert hashlib.sha256(repr(pairs).encode()).hexdigest() == want, (name, seed)
        with mock.patch.object(learning, "_ENUMERATE_LIMIT", 10**9):
            assert labeled_sample(q, c, n_pairs, seed=seed) == pairs, (name, seed)


def test_lister_runs_bound_the_mask(monkeypatch):
    """The mask spans one run of at most _ENUMERATE_LIMIT pairs, not every
    pair: sampling 600 of 5,118,400 pairs in runs of 10,000 pairs keeps the
    traced peak within 1 MiB of the sample, where one mask over every pair
    would add 5,118,400 bytes."""
    labels = group_labels(LISTED)
    monkeypatch.setattr(learning, "_ENUMERATE_LIMIT", 10_000)
    pairs, peak = traced_peak(lambda: sample_pairs(labels, 600, seed=0))
    assert len(triu_codes(labels)) == 127_255
    assert len(pairs) == 600
    assert peak <= pairs.nbytes + (1 << 20)


def test_lister_memory_per_positive_pair():
    """Above 5M pairs the positives are listed in runs of at most 5M pairs:
    the traced peak stays near eight bytes per positive for the listed
    ordinals, plus one mask; the bound allows twelve bytes more."""
    c, q = large_world(BIG_CONCEPT)
    n_pos = 3100 * 3099 // 2 + 100 * 99 // 2
    pairs, peak = traced_peak(lambda: labeled_sample(q, c, 600, seed=0))
    assert [p.label for p in pairs] == [1] * 300 + [0] * 300
    assert peak / n_pos <= 20


def test_lister_fills_one_array():
    """One run's positives are listed at a time, and the negatives before
    each are counted into that list in place, so the traced peak of a
    sample from the 3100+100 world's 4,808,400 positives in two runs is at
    most eight bytes per positive plus one run's mask (at most
    _ENUMERATE_LIMIT bytes) and a chunk of counts, with no copy of the
    ordinals to join the runs or to count the negatives."""
    labels = group_labels(BIG_CONCEPT)
    pairs, peak = traced_peak(lambda: sample_pairs(labels, 600, seed=0))
    n_pos = 3100 * 3099 // 2 + 100 * 99 // 2
    assert len(pairs) == 600
    assert peak <= 8 * n_pos + learning._ENUMERATE_LIMIT + (2 << 20)


@settings(max_examples=200)
@given(labels=label_matrices(), n_pairs=st.integers(1, 200), seed=st.integers(0, 2**32 - 1))
def test_sample_length_is_its_pair_count(labels, n_pairs, seed):
    """`len()` of a sample is its number of pairs: `n_pairs` whenever each
    class holds its half, which the per-layer `learning.pairs` count of the
    benchmark reads."""
    n = len(labels)
    n_pos = len(triu_codes(labels))
    n_neg = n * (n - 1) // 2 - n_pos
    if min(n_pos, n_neg) < 1 or n_pos < n_pairs // 2 or n_neg < n_pairs - n_pairs // 2:
        return
    pairs = sample_pairs(labels, n_pairs, seed)
    assert pairs.shape == (n_pairs, 3) and len(pairs) == n_pairs


@pytest.mark.parametrize("groups", [LISTED, DRAWN], ids=["positives-listed", "positives-drawn"])
def test_sample_length_above_limit(groups):
    assert len(sample_pairs(group_labels(groups), 600, seed=3)) == 600
