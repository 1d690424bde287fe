"""Tests for the caching provider and the model-summary helper."""

import numpy as np

from repro import nn
from repro.service import RandomProvider, WordEmbeddingProvider
from repro.serving import EmbeddingStore, PersistentProvider


class CountingProvider(WordEmbeddingProvider):
    """Test double that counts encode calls."""

    def __init__(self):
        super().__init__(dim=4, seed=0)
        self.calls = 0
        self.names_encoded = 0

    def encode_names(self, names):
        self.calls += 1
        self.names_encoded += len(names)
        return super().encode_names(names)


def memory_cached(inner):
    """``inner`` behind a memory-only (no directory) embedding store."""
    return PersistentProvider(inner, EmbeddingStore(None))


class TestCachedProvider:
    """The no-``store_dir`` cache: PersistentProvider, memory-only store."""

    def test_results_match_inner(self):
        inner = RandomProvider(dim=8, seed=0)
        cached = memory_cached(RandomProvider(dim=8, seed=0))
        names = ["a", "b", "c"]
        expected = inner.encode_names(names)
        out = cached.encode_names(names)
        assert out.dtype == expected.dtype
        assert np.array_equal(out, expected)
        assert np.array_equal(cached.encode_names(names), expected)

    def test_inner_called_once_per_distinct_name(self):
        inner = CountingProvider()
        cached = memory_cached(inner)
        cached.encode_names(["x", "y"])
        cached.encode_names(["x", "y", "x"])
        assert inner.names_encoded == 2
        # The store counts one lookup per distinct name per call.
        assert cached.stats()["hits"] == 2
        assert cached.stats()["misses"] == 2
        assert cached.stats()["hit_rate"] == 0.5

    def test_duplicates_within_one_call(self):
        inner = CountingProvider()
        cached = memory_cached(inner)
        out = cached.encode_names(["x", "x", "x"])
        assert inner.names_encoded == 1
        assert out.shape == (3, 4)
        assert np.allclose(out[0], out[1])

    def test_label_and_dim_forwarded(self):
        cached = memory_cached(RandomProvider(dim=8, seed=0))
        assert cached.label == "Random"
        assert cached.dim == 8


class TestSummary:
    def test_breakdown_sums_to_total(self):
        rng = np.random.default_rng(0)
        model = nn.TransformerEncoderLayer(8, 2, 16, rng)
        breakdown = nn.parameter_breakdown(model)
        total = breakdown.pop("(total)")
        assert sum(breakdown.values()) == total
        assert total == model.num_parameters()

    def test_direct_parameters_reported(self):
        class WithDirect(nn.Module):
            def __init__(self):
                super().__init__()
                self.weight = nn.Parameter(np.zeros((3, 3)))
                self.child = nn.LayerNorm(3)

        breakdown = nn.parameter_breakdown(WithDirect())
        assert breakdown["(direct)"] == 9
        assert breakdown["child"] == 6

    def test_summarize_renders(self):
        rng = np.random.default_rng(0)
        text = nn.summarize(nn.Linear(4, 2, rng), title="demo")
        assert text.startswith("demo")
        assert "(total)" in text
        assert "10" in text  # 4*2 + 2
