"""BERT-lite encoder with a SQuAD-style span extraction head.

The paper's question-answering task fine-tunes a *pre-trained* BERT-Base
(12 Transformer blocks) on SQuAD 1.0 (§6.2, Figure 8d).  Here we provide:

* :class:`BertLite` — an encoder-only Transformer with the BERT block
  structure (token + position embeddings, 12 encoder layers at default
  configuration, GELU feed-forward) at reduced width, and
* :func:`pretrain_bert_lite` — a short masked-token pre-training pass that
  produces the "pre-trained" checkpoint fine-tuning starts from, so the
  reproduction keeps the fine-tuning-vs-from-scratch distinction that makes
  AutoFreeze competitive on this task only.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .. import nn
from ..optim import Adam
from .chain import ChainModel

__all__ = ["BertLite", "BertForQuestionAnswering", "pretrain_bert_lite"]


class BertEncoderLayer(nn.Module):
    """Post-norm BERT encoder block: self-attention + GELU feed-forward."""

    def __init__(self, d_model: int, num_heads: int, d_ff: int, dropout: float = 0.0,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.attention = nn.MultiHeadAttention(d_model, num_heads, dropout=dropout, rng=rng)
        self.norm1 = nn.LayerNorm(d_model)
        self.fc1 = nn.Linear(d_model, d_ff, rng=rng)
        self.fc2 = nn.Linear(d_ff, d_model, rng=rng)
        self.gelu = nn.GELU()
        self.norm2 = nn.LayerNorm(d_model)
        self.dropout = nn.Dropout(dropout)

    def forward(self, x: nn.Tensor) -> nn.Tensor:
        x = self.norm1(x + self.dropout(self.attention(x)))
        ff = self.fc2(self.gelu(self.fc1(x)))
        return self.norm2(x + self.dropout(ff))


class LearnedPositions(nn.Embedding):
    """Learned position table, added to the token embeddings it is called on."""

    def forward(self, x: nn.Tensor) -> nn.Tensor:
        positions = np.broadcast_to(np.arange(x.shape[1]), x.shape[:2])
        return x + super().forward(positions)


class BertLite(ChainModel):
    """Encoder-only Transformer with BERT's embedding + block structure."""

    def __init__(self, vocab_size: int = 128, d_model: int = 32, num_heads: int = 4, d_ff: int = 64,
                 num_layers: int = 12, max_len: int = 64, dropout: float = 0.0, seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.vocab_size = vocab_size
        self.d_model = d_model
        self.num_layers = num_layers

        self.token_embed = nn.Embedding(vocab_size, d_model, rng=rng)
        self.position_embed = LearnedPositions(max_len, d_model, rng=rng)
        self.embed_norm = nn.LayerNorm(d_model)
        self.layers = nn.Sequential(
            *[BertEncoderLayer(d_model, num_heads, d_ff, dropout=dropout, rng=rng) for _ in range(num_layers)]
        )

        # Position embeddings and the embedding LayerNorm run on the way into the first layer.
        self.set_stages(["token_embed", ("layers", ["position_embed", "embed_norm"])])


class BertForQuestionAnswering(ChainModel):
    """BERT encoder plus a two-logit span head (start / end positions)."""

    def __init__(self, encoder: Optional[BertLite] = None, seed: int = 0, **encoder_kwargs):
        super().__init__()
        rng = np.random.default_rng(seed + 1)
        self.encoder = encoder if encoder is not None else BertLite(seed=seed, **encoder_kwargs)
        self.qa_head = nn.Linear(self.encoder.d_model, 2, rng=rng)
        self.set_stages(self.encoder.stage_specs("encoder.") + ["qa_head"])

    def forward_from(self, tail_path, hidden, *inputs) -> Tuple[nn.Tensor, nn.Tensor]:
        """Return ``(start_logits, end_logits)``, each of shape ``(N, S)``."""
        logits = super().forward_from(tail_path, hidden)
        return logits[:, :, 0], logits[:, :, 1]


def pretrain_bert_lite(model: BertLite, num_steps: int = 30, batch_size: int = 8, seq_len: int = 16,
                       lr: float = 5e-3, seed: int = 0) -> BertLite:
    """Run a short masked-token prediction pass to produce a "pre-trained" BERT.

    The QA experiment in the paper is a *fine-tuning* workload; starting from
    randomly initialised weights would make it a from-scratch workload and
    change which baselines look good (AutoFreeze is competitive only for
    fine-tuning).  This cheap pre-training pass preserves that distinction.

    Under :func:`repro.nn.init.skip_random_init` (a model built only to
    receive a snapshot, such as Egeria's reference model) it does nothing:
    the weights are uninitialised memory about to be overwritten.
    """
    if nn.init.random_init_skipped():
        return model
    rng = np.random.default_rng(seed)
    head = nn.Linear(model.d_model, model.vocab_size, rng=rng)
    optimizer = Adam(list(model.parameters()) + list(head.parameters()), lr=lr)
    for _ in range(num_steps):
        tokens = rng.integers(0, model.vocab_size, size=(batch_size, seq_len))
        targets = tokens.copy()
        mask = rng.random(tokens.shape) < 0.15
        corrupted = tokens.copy()
        corrupted[mask] = rng.integers(0, model.vocab_size, size=int(mask.sum()))
        hidden = model(corrupted)
        logits = head(hidden)
        loss = nn.cross_entropy(logits, targets)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
    return model
