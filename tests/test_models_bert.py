"""Tests for the BERT backbone, MLM head, and embedding overrides."""

import numpy as np
import pytest

from repro.models import BertConfig, BertEncoder, BertForMaskedLM
from repro.models.inference import cls_forward
from repro.nn import Adam
from repro.tensor import Tensor, no_grad


def _config(vocab=50, max_len=12):
    return BertConfig(vocab_size=vocab, d_model=16, num_layers=2,
                      num_heads=2, d_ff=32, max_len=max_len, dropout=0.0)


def rng():
    return np.random.default_rng(33)


class TestBertConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BertConfig(vocab_size=3)
        with pytest.raises(ValueError):
            BertConfig(vocab_size=50, d_model=10, num_heads=4)


class TestBertEncoder:
    def test_forward_shape(self):
        enc = BertEncoder(_config(), rng())
        ids = np.zeros((2, 8), dtype=np.int64)
        out = enc(ids)
        assert out.shape == (2, 8, 16)

    def test_sequence_too_long_raises(self):
        enc = BertEncoder(_config(max_len=4), rng())
        with pytest.raises(ValueError):
            enc(np.zeros((1, 5), dtype=np.int64))

    def test_cls_embeddings(self):
        enc = BertEncoder(_config(), rng())
        out = enc.cls_embeddings(np.zeros((3, 6), dtype=np.int64))
        assert out.shape == (3, 16)

    def test_position_sensitivity(self):
        enc = BertEncoder(_config(), rng()).eval()
        a = enc(np.array([[7, 8, 9]])).data
        b = enc(np.array([[9, 8, 7]])).data
        assert not np.allclose(a, b)

    def test_override_replaces_embedding(self):
        enc = BertEncoder(_config(), rng()).eval()
        ids = np.array([[5, 6, 7]])
        positions = np.array([[0, 1]])
        vectors = Tensor(np.full((1, 16), 2.5))
        plain = enc.embed(ids).data
        overridden = enc.embed(ids, embedding_overrides=(positions, vectors)).data
        assert not np.allclose(plain[0, 1], overridden[0, 1])
        assert np.allclose(plain[0, 0], overridden[0, 0])
        assert np.allclose(plain[0, 2], overridden[0, 2])

    def test_empty_override_is_noop(self):
        enc = BertEncoder(_config(), rng()).eval()
        ids = np.array([[5, 6, 7]])
        plain = enc.embed(ids).data
        same = enc.embed(ids, embedding_overrides=(
            np.zeros((0, 2), dtype=np.int64), Tensor(np.zeros((0, 16))))).data
        assert np.allclose(plain, same)

    def test_override_shape_validation(self):
        enc = BertEncoder(_config(), rng())
        with pytest.raises(ValueError):
            enc.embed(np.zeros((1, 3), dtype=np.int64),
                      embedding_overrides=(np.array([[0, 1, 2]]),
                                           Tensor(np.zeros((1, 16)))))

    def test_gradient_flows_through_override(self):
        enc = BertEncoder(_config(), rng())
        ids = np.array([[5, 6, 7]])
        vectors = Tensor(np.ones((1, 16)), requires_grad=True)
        out = enc(ids, embedding_overrides=(np.array([[0, 1]]), vectors))
        out.sum().backward()
        assert vectors.grad is not None
        assert np.abs(vectors.grad).sum() > 0


def _tape_cls(enc, ids, mask, overrides=None):
    """The eval-mode autograd forward: the reference for ``cls_forward``."""
    was_training = enc.training
    enc.eval()
    try:
        with no_grad():
            if overrides is not None:
                overrides = (overrides[0], Tensor(overrides[1]))
            return enc.cls_embeddings(ids, mask,
                                      embedding_overrides=overrides).data
    finally:
        enc.train(was_training)


def _padded_batch(generator, vocab=50, batch=5, seq=9):
    ids = generator.integers(0, vocab, size=(batch, seq))
    mask = np.ones_like(ids)
    for row, length in enumerate(generator.integers(2, seq + 1, size=batch)):
        mask[row, length:] = 0
        ids[row, length:] = 0
    return ids, mask


class TestClsForward:
    @pytest.mark.parametrize("num_layers", [0, 1, 3])
    def test_matches_tape_forward(self, num_layers):
        config = BertConfig(vocab_size=50, d_model=16, num_layers=num_layers,
                            num_heads=4, d_ff=32, max_len=12)
        enc = BertEncoder(config, rng())
        ids, mask = _padded_batch(np.random.default_rng(num_layers))
        np.testing.assert_allclose(cls_forward(enc, ids, mask),
                                   _tape_cls(enc, ids, mask),
                                   rtol=0, atol=1e-12)

    def test_overrides_match_tape_forward(self):
        enc = BertEncoder(_config(), rng())
        ids, mask = _padded_batch(np.random.default_rng(1))
        overrides = (np.array([[0, 1], [3, 0], [4, 1]]),
                     np.random.default_rng(2).normal(size=(3, 16)))
        out = cls_forward(enc, ids, mask, overrides=overrides)
        np.testing.assert_allclose(out, _tape_cls(enc, ids, mask, overrides),
                                   rtol=0, atol=1e-12)
        assert not np.allclose(out, cls_forward(enc, ids, mask))

    def test_padding_does_not_leak(self):
        enc = BertEncoder(_config(), rng())
        ids = np.array([[5, 6, 7, 0, 0]])
        mask = np.array([[1, 1, 1, 0, 0]])
        padded = cls_forward(enc, ids, mask)
        other_padding = cls_forward(enc, np.array([[5, 6, 7, 9, 9]]), mask)
        np.testing.assert_allclose(padded, other_padding, rtol=0, atol=1e-12)
        np.testing.assert_allclose(padded, cls_forward(enc, ids[:, :3],
                                                       mask[:, :3]),
                                   rtol=0, atol=1e-12)

    def test_reads_live_weights(self):
        enc = BertEncoder(_config(), rng())
        ids, mask = _padded_batch(np.random.default_rng(3))
        before = cls_forward(enc, ids, mask)
        optimizer = Adam(enc.parameters(), lr=0.05)
        optimizer.zero_grad()
        (enc.cls_embeddings(ids, mask) ** 2).sum().backward()
        optimizer.step()
        after = cls_forward(enc, ids, mask)
        assert not np.allclose(before, after)
        np.testing.assert_allclose(after, _tape_cls(enc, ids, mask),
                                   rtol=0, atol=1e-12)

    def test_leaves_mode_and_weights_alone(self):
        enc = BertEncoder(_config(), rng())
        state = enc.state_dict()
        ids, mask = _padded_batch(np.random.default_rng(4))
        first = cls_forward(enc, ids, mask)
        assert all(m.training for m in enc.modules())
        np.testing.assert_array_equal(first, cls_forward(enc, ids, mask))
        for name, value in enc.state_dict().items():
            np.testing.assert_array_equal(value, state[name])

    def test_validation(self):
        enc = BertEncoder(_config(max_len=4), rng())
        with pytest.raises(ValueError):
            cls_forward(enc, np.zeros((1, 5), dtype=np.int64),
                        np.ones((1, 5)))
        with pytest.raises(IndexError):
            cls_forward(enc, np.array([[1, 50]]), np.ones((1, 2)))
        with pytest.raises(ValueError):
            cls_forward(enc, np.zeros(3, dtype=np.int64), np.ones(3))


class TestMaskedLM:
    def test_logits_shape(self):
        model = BertForMaskedLM(_config(vocab=30), rng())
        logits = model(np.zeros((2, 5), dtype=np.int64))
        assert logits.shape == (2, 5, 30)

    def test_loss_ignores_unmasked(self):
        model = BertForMaskedLM(_config(vocab=30), rng())
        ids = np.array([[2, 7, 8, 3]])
        labels = np.full_like(ids, model.IGNORE_INDEX)
        loss = model.mlm_loss(ids, labels)
        assert loss.data == 0.0

    def test_loss_positive_when_masked(self):
        model = BertForMaskedLM(_config(vocab=30), rng())
        ids = np.array([[2, 4, 8, 3]])
        labels = np.full_like(ids, model.IGNORE_INDEX)
        labels[0, 1] = 7
        loss = model.mlm_loss(ids, labels)
        assert loss.data > 0

    def test_training_learns_simple_pattern(self):
        """The model must learn to fill a fixed masked position."""
        from repro import nn
        config = _config(vocab=20, max_len=6)
        model = BertForMaskedLM(config, rng())
        # Pattern: sentence [2, 10, MASK(4), 12, 3] with answer always 11.
        ids = np.array([[2, 10, 4, 12, 3]] * 4)
        labels = np.full_like(ids, model.IGNORE_INDEX)
        labels[:, 2] = 11
        opt = nn.Adam(model.parameters(), lr=5e-3)
        first = None
        for _ in range(40):
            opt.zero_grad()
            loss = model.mlm_loss(ids, labels)
            if first is None:
                first = float(loss.data)
            loss.backward()
            opt.step()
        assert float(loss.data) < first * 0.2
        pred = model(ids[:1]).data[0, 2].argmax()
        assert pred == 11

    def test_grow_vocab(self):
        model = BertForMaskedLM(_config(vocab=30), rng())
        model.grow_vocab(5, rng())
        assert model.config.vocab_size == 35
        logits = model(np.zeros((1, 4), dtype=np.int64))
        assert logits.shape[-1] == 35

    def test_grow_vocab_zero_noop(self):
        model = BertForMaskedLM(_config(vocab=30), rng())
        model.grow_vocab(0, rng())
        assert model.config.vocab_size == 30
