"""End-to-end tests for KTeleBERT stage-2: data assembly, model, retraining."""

import sys
import threading

import numpy as np
import pytest

from repro.corpus import build_tele_corpus
from repro.kg import build_tele_kg
import repro.models.inference as inference
from repro.models import (
    KTeleBert,
    KTeleBertConfig,
    NumericRow,
    TeleBertTrainer,
    TextRow,
    TripleRow,
)
from repro.nn import Adam
from repro.service import KTeleBertProvider
from repro.tensor import no_grad
from repro.tokenization import mine_special_tokens, basic_tokenize
from repro.training import build_strategy
from repro.training.retrainer import KTeleBertRetrainer
from repro.training.stage2 import build_stage2_data
from repro.world import TelecomWorld


@pytest.fixture(scope="module")
def setup():
    """A miniature full pipeline shared by the tests in this module."""
    world = TelecomWorld.generate(seed=11, alarms_per_theme=2,
                                  kpis_per_theme=2, topology_nodes=8)
    corpus = build_tele_corpus(world, seed=11)
    kg = build_tele_kg(world)
    episodes = world.simulate_episodes(4)
    trainer = TeleBertTrainer(corpus.sentences, seed=11, d_model=16,
                              num_layers=1, num_heads=2, d_ff=32, max_len=24,
                              batch_size=8)
    trainer.train(steps=5)
    data = build_stage2_data(corpus, episodes, kg, seed=11, ke_negatives=3)
    model = KTeleBert.from_telebert(
        trainer, KTeleBertConfig(anenc_layers=1, anenc_meta=2, lora_rank=2,
                                 ke_negatives=3),
        tag_names=data.tag_names, normalizer=data.normalizer,
        extra_vocabulary=data.vocabulary(), seed=11)
    return world, corpus, kg, episodes, data, model


class TestStage2Data:
    def test_three_datasets_nonempty(self, setup):
        _, _, _, _, data, _ = setup
        stats = data.describe()
        assert stats["causal_sentences"] > 0
        assert stats["machine_logs"] > 0
        assert stats["knowledge_triples"] > 0

    def test_numeric_rows_present(self, setup):
        _, _, _, _, data, _ = setup
        numeric = [r for r in data.log_rows if isinstance(r, NumericRow)]
        assert numeric
        for row in numeric[:10]:
            assert "[NUM]" in row.text
            assert data.normalizer.knows(row.tag) or True  # tag seen or global

    def test_normalizer_fitted_on_all_tags(self, setup):
        _, _, _, _, data, _ = setup
        numeric = [r for r in data.log_rows if isinstance(r, NumericRow)]
        for row in numeric:
            assert data.normalizer.knows(row.tag)

    def test_triples_have_negatives(self, setup):
        _, _, _, _, data, _ = setup
        for row in data.triple_rows[:20]:
            assert len(row.negatives) == 3

    def test_max_limits_respected(self, setup):
        world, corpus, kg, episodes, _, _ = setup
        data = build_stage2_data(corpus, episodes, kg, seed=0,
                                 ke_negatives=2, max_logs=10, max_triples=15)
        assert len(data.log_rows) == 10
        assert len(data.triple_rows) == 15

    def test_vocabulary_covers_rows(self, setup):
        _, _, _, _, data, _ = setup
        vocab = set(data.vocabulary())
        for row in data.mask_rows[:20]:
            for token in basic_tokenize(row.text):
                assert token in vocab


class TestKTeleBertModel:
    def test_prompt_tokens_are_specials(self, setup):
        _, _, _, _, _, model = setup
        vocab = model.tokenizer.vocab
        for token in ("[ALM]", "[KPI]", "[NUM]", "[ENT]", "[REL]"):
            assert vocab.is_special(token)

    def test_weights_copied_from_telebert(self, setup):
        _, _, _, _, _, model = setup
        # Encoder attention weights must be pre-trained (non-default) values:
        # compare against a fresh random init magnitude check is flaky, so we
        # verify the vocab grew but layer shapes match.
        assert model.mlm_model.config.vocab_size == len(model.tokenizer.vocab)

    def test_encode_texts_shape(self, setup):
        _, _, _, _, _, model = setup
        out = model.encode_texts(["[ALM] The link is down", "[DOC] hello"])
        assert out.shape == (2, 16)

    def test_encode_numeric_rows_uses_anenc(self, setup):
        _, _, _, _, data, model = setup
        numeric = [r for r in data.log_rows if isinstance(r, NumericRow)][:2]
        with_anenc = model.encode(numeric)
        model.config.use_anenc = False
        without = model.encode(numeric)
        model.config.use_anenc = True
        assert not np.allclose(with_anenc, without)

    def test_different_values_change_encoding(self, setup):
        _, _, _, _, data, model = setup
        base = [r for r in data.log_rows if isinstance(r, NumericRow)][0]
        low = NumericRow(text=base.text, tag=base.tag, value=0.0)
        high = NumericRow(text=base.text, tag=base.tag, value=1e6)
        out = model.encode([low, high])
        assert not np.allclose(out[0], out[1])

    def test_masked_lm_loss_with_numeric(self, setup):
        _, _, _, _, data, model = setup
        from repro.training import DynamicMasker
        masker = DynamicMasker(model.tokenizer.vocab,
                               np.random.default_rng(0), masking_rate=0.4)
        rows = data.mask_rows[:6]
        loss, numeric = model.masked_lm_loss(rows, masker)
        assert np.isfinite(loss.data)

    def test_ke_loss_finite(self, setup):
        _, _, _, _, data, model = setup
        loss = model.ke_loss(data.triple_rows[:4])
        assert np.isfinite(loss.data)

    def test_ke_loss_validation(self, setup):
        _, _, _, _, data, model = setup
        with pytest.raises(ValueError):
            model.ke_loss([])
        bad = TripleRow(head="a", relation="r", tail="b", negatives=())
        with pytest.raises(ValueError):
            model.ke_loss([bad])


class TestRetrainer:
    @pytest.mark.parametrize("strategy_name", ["stl", "pmtl", "imtl"])
    def test_strategies_run(self, setup, strategy_name):
        _, _, _, _, data, model = setup
        strategy = build_strategy(strategy_name, 6)
        retrainer = KTeleBertRetrainer(model, data, strategy, seed=0,
                                       batch_size=4, ke_batch_size=2)
        log = retrainer.train()
        assert len(log.total) == 6
        assert all(np.isfinite(v) for v in log.total)

    def test_schedule_exhaustion_raises(self, setup):
        _, _, _, _, data, model = setup
        strategy = build_strategy("stl", 1)
        retrainer = KTeleBertRetrainer(model, data, strategy, seed=0,
                                       batch_size=2)
        retrainer.train()
        with pytest.raises(RuntimeError):
            retrainer.train_step()

    def test_stl_never_touches_ke(self, setup):
        _, _, _, _, data, model = setup
        strategy = build_strategy("stl", 3)
        retrainer = KTeleBertRetrainer(model, data, strategy, seed=0,
                                       batch_size=2)
        log = retrainer.train()
        assert all(v == 0.0 for v in log.ke)


class TestSpecialTokenMining:
    def test_mining_from_tele_corpus(self, setup):
        _, corpus, _, _, _, _ = setup
        tokenised = [basic_tokenize(s) for s in corpus.sentences]
        mined = mine_special_tokens(tokenised, base_vocabulary={"the", "of"},
                                    min_frequency=5, num_merges=300)
        # NE type abbreviations should be among the mined tokens.
        assert any(t.isupper() and 2 <= len(t) <= 4 for t in mined)


class TestEncodeConcurrency:
    """``encode`` must not flip the shared model's train/eval mode."""

    TEXTS = ["[ALM] The link is down", "[DOC] routine check completed",
             "[ALM] NF destination service unreachable"]

    def test_mode_unchanged_after_encode(self, setup):
        model = setup[-1]
        model.eval()
        try:
            reference = model.encode_texts(self.TEXTS)
            assert not model.mlm_model.training
        finally:
            model.train()
        out = model.encode_texts(self.TEXTS)
        assert model.mlm_model.training
        assert all(m.training for m in model.mlm_model.modules())
        # dropout-free in either mode
        np.testing.assert_array_equal(out, reference)

    def test_encode_isolated_from_a_concurrent_encode(self, setup,
                                                      monkeypatch):
        # One encode pauses mid-forward (inside the serve forward's
        # LayerNorm) while another runs start to end; the paused one must
        # still finish with the serial result.
        model = setup[-1]
        reference = model.encode_texts(self.TEXTS)
        original = inference._layer_norm
        paused, resume = threading.Event(), threading.Event()

        def pausing_layer_norm(x, norm):
            original(x, norm)
            if threading.current_thread().name == "paused-encode":
                paused.set()
                resume.wait(10)

        result = {}
        worker = threading.Thread(
            name="paused-encode",
            target=lambda: result.update(out=model.encode_texts(self.TEXTS)))
        monkeypatch.setattr(inference, "_layer_norm", pausing_layer_norm)
        try:
            worker.start()
            assert paused.wait(10)
            model.encode_texts(["[DOC] another request's batch"])
        finally:
            resume.set()
            worker.join(10)
        assert not worker.is_alive()
        np.testing.assert_array_equal(result["out"], reference)

    def test_threads_match_serial_bit_for_bit(self, setup):
        model = setup[-1]
        batches = [self.TEXTS[i:] + self.TEXTS[:i] for i in range(3)]
        serial = [model.encode_texts(b) for b in batches]
        threads, per_thread = 4, 8
        results = [[None] * per_thread for _ in range(threads)]

        def run(slot):
            for j in range(per_thread):
                results[slot][j] = model.encode_texts(
                    batches[(slot + j) % len(batches)])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)      # surface interleavings
        try:
            workers = [threading.Thread(target=run, args=(i,))
                       for i in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(60)
        finally:
            sys.setswitchinterval(interval)
        for slot in range(threads):
            for j in range(per_thread):
                np.testing.assert_array_equal(
                    results[slot][j], serial[(slot + j) % len(batches)])
        assert model.mlm_model.training


def _tape_encode(model, rows):
    """The eval-mode autograd forward: the reference for ``encode``."""
    prep = model._prepare(rows)
    model.eval()
    try:
        with no_grad():
            overrides, _ = model._numeric_overrides(prep)
            return model.mlm_model.bert.cls_embeddings(
                prep["ids"], prep["mask"],
                embedding_overrides=overrides).data
    finally:
        model.train()


@pytest.fixture(scope="module")
def two_layer(setup):
    """A two-layer stage-2 model of its own, free to be trained further."""
    world, corpus, kg, _, data, _ = setup
    trainer = TeleBertTrainer(corpus.sentences, seed=12, d_model=16,
                              num_layers=2, num_heads=2, d_ff=32, max_len=24,
                              batch_size=8)
    trainer.train(steps=2)
    model = KTeleBert.from_telebert(
        trainer, KTeleBertConfig(anenc_layers=1, anenc_meta=2, lora_rank=2,
                                 ke_negatives=3),
        tag_names=data.tag_names, normalizer=data.normalizer,
        extra_vocabulary=data.vocabulary(), seed=12)
    return world, kg, data, trainer, model


class TestTapeFreeEncode:
    """``encode`` runs the tape-free forward; the tape forward is the oracle."""

    @pytest.mark.parametrize("use_anenc", [True, False])
    @pytest.mark.parametrize("mode", ["name", "entity", "entity_attr"])
    def test_provider_modes_match_tape_forward(self, two_layer, mode,
                                               use_anenc):
        world, kg, _, _, model = two_layer
        names = ([k.name for k in world.ontology.kpis[:3]]
                 + [a.name for a in world.ontology.alarms[:2]]
                 + ["unknown target name"])
        provider = KTeleBertProvider(model, kg, mode=mode)
        rows = [provider._row_for(n) for n in names]
        assert (mode == "entity_attr") == any(
            isinstance(r, NumericRow) for r in rows)
        model.config.use_anenc = use_anenc
        try:
            out = provider.encode_names(names)
            reference = _tape_encode(model, rows)
        finally:
            model.config.use_anenc = True
        np.testing.assert_allclose(out, reference, rtol=0, atol=1e-12)

    def test_numeric_log_rows_match_tape_forward(self, two_layer):
        _, _, data, _, model = two_layer
        rows = [r for r in data.log_rows if isinstance(r, NumericRow)][:4]
        rows += [TextRow("[ALM] The link is down")]
        np.testing.assert_allclose(model.encode(rows),
                                   _tape_encode(model, rows),
                                   rtol=0, atol=1e-12)

    def test_encode_sentences_after_stage2_grew_the_vocab(self, two_layer):
        _, _, _, trainer, _ = two_layer
        texts = ["[ALM] The link is down", "[ENT] link | [NUM] 3.5",
                 "the link failure leads to drops"]
        ids, mask = trainer.tokenizer.encode_batch(texts)
        table_size = trainer.encoder.token_embedding.num_embeddings
        assert ids.max() >= table_size  # prompt tokens the encoder never saw
        clamped = np.where(ids < table_size, ids,
                           trainer.tokenizer.vocab.unk_id)
        trainer.encoder.eval()
        try:
            with no_grad():
                reference = trainer.encoder.cls_embeddings(clamped, mask).data
        finally:
            trainer.encoder.train()
        np.testing.assert_allclose(trainer.encode_sentences(texts), reference,
                                   rtol=0, atol=1e-12)

    def test_reads_live_weights(self, two_layer):
        _, _, data, _, model = two_layer
        rows = [r for r in data.log_rows if isinstance(r, NumericRow)][:2]
        rows += [TextRow("[ALM] The link is down")]

        def check_changed(before):
            after = model.encode(rows)
            assert not np.allclose(before, after)
            np.testing.assert_allclose(after, _tape_encode(model, rows),
                                       rtol=0, atol=1e-12)
            return after

        # An optimizer step updates param.data in place.
        encoded = model.encode(rows)
        prep = model._prepare(rows)
        optimizer = Adam(model.mlm_model.parameters(), lr=0.05)
        optimizer.zero_grad()
        (model.mlm_model.bert.cls_embeddings(prep["ids"], prep["mask"])
         ** 2).sum().backward()
        optimizer.step()
        encoded = check_changed(encoded)
        # load_state_dict overwrites it.
        noise = np.random.default_rng(5)
        model.mlm_model.load_state_dict({
            name: value + noise.normal(0.0, 0.05, size=value.shape)
            for name, value in model.mlm_model.state_dict().items()})
        encoded = check_changed(encoded)
        # grow_vocab replaces the token table; a new token must resolve.
        model.tokenizer.vocab.add_tokens(["brandnewtoken"])
        model.mlm_model.grow_vocab(1, np.random.default_rng(6))
        rows = rows + [TextRow("[ALM] brandnewtoken is down")]
        check_changed(np.zeros((len(rows), model.bert_config.d_model)))
