import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from tagfusion.collection import Collection, FeatureMatrix, ImageRecord
from tagfusion.learning import _label_matrix, sample_pairs

# Hypothesis caches the constants it reads from local modules in its storage
# directory, which defaults to `.hypothesis/` in the working directory; keep
# it with pytest's own cache instead.
os.environ.setdefault(
    "HYPOTHESIS_STORAGE_DIRECTORY",
    str(Path(__file__).resolve().parent.parent / ".pytest_cache" / "hypothesis"),
)

# Every property test runs the same examples on every run and machine, with
# no example database and no per-example deadline; tests set only how many.
settings.register_profile("tagfusion", derandomize=True, database=None, deadline=None)
settings.load_profile("tagfusion")


@st.composite
def distance_arrays(draw, max_size=3000):
    """1..max_size nonnegative float64 values: spread, constant, heavily
    tied (four distinct values) or log-uniform over 1e-300..1e300."""
    n = draw(st.integers(1, max_size))
    kind = draw(st.sampled_from(("spread", "constant", "ties", "log-uniform")))
    scale = 10.0 ** draw(st.integers(-300, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "spread":
        return rng.random(n) * scale
    if kind == "constant":
        return np.full(n, rng.random() * scale)
    if kind == "ties":
        return rng.integers(0, 4, size=n) * scale
    return np.exp(rng.uniform(math.log(1e-300), math.log(1e300), size=n))


def make_collection(records, features=None):
    """records: [(image_id, user_id, [tags...])]; features: {name: 2-D array}."""
    recs = [ImageRecord(i, u, tuple(tags)) for i, u, tags in records]
    fms = {}
    for name, rows in (features or {}).items():
        arr = np.asarray(rows, dtype=np.float64)
        fms[name] = FeatureMatrix(name=name, dim=arr.shape[1], matrix=arr)
    return Collection(recs, fms)


@dataclass(frozen=True)
class LabeledPair:
    """A sampled training pair by image id; label 1 iff the images share a concept."""

    x: str
    x_other: str
    label: int


def labeled_sample(qrels, c, n_pairs, seed=0):
    """`sample_pairs` on the label matrix of `qrels` over `c`, each pair's
    label-matrix rows mapped back to image ids."""
    rows, labels = _label_matrix(qrels, c)
    ids = [c.images[r].image_id for r in rows.tolist()]
    pairs = sample_pairs(labels, n_pairs, seed).tolist()
    return [LabeledPair(ids[a], ids[b], label) for a, b, label in pairs]


def line_collection(coords, tags_per_image=None, feature="f"):
    """Images on a 1-D line; optional per-image tag lists."""
    n = len(coords)
    tags_per_image = tags_per_image or [[] for _ in range(n)]
    records = [(f"x{i:03d}", "u0", tags_per_image[i]) for i in range(n)]
    return make_collection(records, {feature: [[c] for c in coords]})


@pytest.fixture
def prior_collection():
    """1000 images, tag 'w' on the first 100: prior |S_w|/|S| = 0.1."""
    records = [
        (f"img{i:04d}", "u0", ["w"] if i < 100 else [])
        for i in range(1000)
    ]
    return make_collection(records)
