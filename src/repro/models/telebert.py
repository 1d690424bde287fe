"""Stage-1 pre-training: TeleBERT (Sec. III).

Drives ELECTRA + SimCSE over the Tele-Corpus with whole-word masking against
the tele phrase vocabulary.  The product is a :class:`TeleBertTrainer` whose
``encoder`` (the ELECTRA discriminator) plus ``tokenizer`` are the TeleBERT
artifact handed to stage 2 and to the downstream tasks.

The same driver pre-trains the MacBERT stand-in when fed the generic corpus —
identical recipe, domain-free data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.models.bert import BertConfig, BertEncoder
from repro.models.electra import ElectraPretrainer
from repro.models.inference import cls_forward
from repro.nn.losses import info_nce
from repro.nn.optim import Adam, clip_grad_norm
from repro.tokenization.tokenizer import WordTokenizer, basic_tokenize
from repro.tokenization.wwm import WholeWordSegmenter
from repro.training.batching import BatchIterator
from repro.training.masking import DynamicMasker


@dataclass
class TeleBertTrainingLog:
    """Per-step loss history of a pre-training run."""

    total: list[float] = field(default_factory=list)
    generator: list[float] = field(default_factory=list)
    discriminator: list[float] = field(default_factory=list)
    simcse: list[float] = field(default_factory=list)


class TeleBertTrainer:
    """Owns the tokenizer, ELECTRA pretrainer, optimizer, and corpus."""

    def __init__(self, sentences: list[str], seed: int = 0,
                 d_model: int = 32, num_layers: int = 2, num_heads: int = 2,
                 d_ff: int = 64, max_len: int = 32, dropout: float = 0.1,
                 masking_rate: float = 0.15,
                 simcse_weight: float = 0.1, simcse_temperature: float = 0.05,
                 learning_rate: float = 1e-3, batch_size: int = 16,
                 min_token_freq: int = 1,
                 wwm_phrases: list[str] | None = None):
        if not sentences:
            raise ValueError("empty pre-training corpus")
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.tokenizer = WordTokenizer.from_corpus(
            sentences, min_freq=min_token_freq, max_length=max_len)
        self.config = BertConfig(
            vocab_size=len(self.tokenizer.vocab), d_model=d_model,
            num_layers=num_layers, num_heads=num_heads, d_ff=d_ff,
            max_len=max_len, dropout=dropout)
        self.pretrainer = ElectraPretrainer(self.config, self.rng)
        segmenter = None
        if wwm_phrases:
            segmenter = WholeWordSegmenter(
                basic_tokenize(p) for p in wwm_phrases)
        self.masker = DynamicMasker(self.tokenizer.vocab, self.rng,
                                    masking_rate=masking_rate,
                                    segmenter=segmenter)
        self.simcse_weight = simcse_weight
        self.simcse_temperature = simcse_temperature
        self.optimizer = Adam(self.pretrainer.parameters(), lr=learning_rate)
        self.batches = BatchIterator(sentences, batch_size, self.rng)
        self.log = TeleBertTrainingLog()

    # ------------------------------------------------------------------
    @property
    def encoder(self) -> BertEncoder:
        """The pre-trained discriminator encoder (the TeleBERT model)."""
        return self.pretrainer.discriminator

    def train_step(self) -> float:
        """One optimization step: ELECTRA losses + SimCSE contrastive."""
        sentences = self.batches.next_batch()
        ids, mask, tokens = self.tokenizer.encode_batch_with_tokens(sentences)
        self.optimizer.zero_grad()

        out = self.pretrainer.step(ids, mask, self.masker, tokens=tokens)
        total = out.total

        simcse_value = 0.0
        if self.simcse_weight > 0 and len(sentences) >= 2:
            # Two dropout passes of the same batch are positives (SimCSE).
            first = self.pretrainer.discriminator.cls_embeddings(ids, mask)
            second = self.pretrainer.discriminator.cls_embeddings(ids, mask)
            simcse = info_nce(first, second,
                              temperature=self.simcse_temperature)
            total = total + simcse * self.simcse_weight
            simcse_value = float(simcse.data)

        total.backward()
        clip_grad_norm(self.optimizer.parameters, 5.0)
        self.optimizer.step()

        self.log.total.append(float(total.data))
        self.log.generator.append(out.generator_loss)
        self.log.discriminator.append(out.discriminator_loss)
        self.log.simcse.append(simcse_value)
        return float(total.data)

    def train(self, steps: int) -> TeleBertTrainingLog:
        """Run ``steps`` optimization steps."""
        self.pretrainer.train()
        for _ in range(steps):
            self.train_step()
        return self.log

    # ------------------------------------------------------------------
    def encode_sentences(self, sentences: list[str]) -> np.ndarray:
        """Service embeddings: deterministic [CLS] vectors for raw sentences.

        Runs the tape-free :func:`~repro.models.inference.cls_forward`;
        the shared modules' train/eval flags are never touched.
        """
        ids, mask = self.tokenizer.encode_batch(sentences)
        # Stage 2 may have grown the shared vocabulary after this encoder was
        # trained; map tokens it never saw to [UNK].
        table_size = self.encoder.token_embedding.num_embeddings
        ids = np.where(ids < table_size, ids, self.tokenizer.vocab.unk_id)
        return cls_forward(self.encoder, ids, mask)

    def evaluate_mlm_accuracy(self, sentences: list[str],
                              masking_rate: float = 0.15,
                              seed: int = 0) -> float:
        """Generator masked-token prediction accuracy on held-out sentences.

        A quick intrinsic quality probe for the pre-training run: mask the
        sentences once (deterministically via ``seed``) and measure the
        fraction of masked tokens the ELECTRA generator recovers exactly.
        """
        from repro.tensor import no_grad
        from repro.training.masking import DynamicMasker, IGNORE_INDEX

        if not sentences:
            raise ValueError("no evaluation sentences")
        self.pretrainer.eval()
        masker = DynamicMasker(self.tokenizer.vocab,
                               np.random.default_rng(seed),
                               masking_rate=masking_rate)
        ids, mask = self.tokenizer.encode_batch(sentences)
        masked = masker.mask_batch(ids, mask)
        with no_grad():
            logits = self.pretrainer.generator(masked.ids,
                                               attention_mask=mask)
        predictions = logits.data.argmax(axis=-1)
        targets = masked.labels
        keep = targets != IGNORE_INDEX
        self.pretrainer.train()
        if not keep.any():
            return 0.0
        return float((predictions[keep] == targets[keep]).mean())


def pretrain_telebert(sentences: list[str], steps: int = 200, seed: int = 0,
                      **kwargs) -> TeleBertTrainer:
    """Convenience one-call pre-training (build trainer, run, return it)."""
    trainer = TeleBertTrainer(sentences, seed=seed, **kwargs)
    trainer.train(steps)
    return trainer
