"""In-batch softmax loss over signatures, built from public autodiff ops.

For anchor i the other signatures in the batch are candidates; the loss is
-log of the softmax mass that cosine similarity over a temperature puts on
candidates with the anchor's label, averaged over anchors. Every anchor must
have at least one same-label partner in the batch.
"""

from __future__ import annotations

import numpy as np

TEMPERATURE = 0.1
_SELF_LOGIT = -1e9


def in_batch_softmax_loss(ad, sigs, labels, temperature: float = TEMPERATURE):
    """Scalar loss for (B, s) unit-norm signatures ``sigs`` with ``labels``."""
    labels = np.asarray(labels)
    b = labels.size
    same = labels[:, None] == labels[None, :]
    positive = same & ~np.eye(b, dtype=bool)
    if not positive.any(axis=1).all():
        raise ValueError("every anchor needs a same-label partner in the batch")
    sims = ad.matmul(sigs, ad.transpose(sigs, (1, 0)))
    logits = ad.add(
        ad.mul(sims, ad.constant(np.array(1.0 / temperature))),
        ad.constant(np.where(np.eye(b, dtype=bool), _SELF_LOGIT, 0.0)),
    )
    prob = ad.softmax_axis(logits, axis=1)
    mass = ad.mul(
        ad.mean_axis(ad.mul(prob, ad.constant(positive.astype(np.float64))), axis=1),
        ad.constant(np.array(float(b))),
    )
    return ad.mul(ad.mean_axis(ad.log(mass), axis=0), ad.constant(np.array(-1.0)))
