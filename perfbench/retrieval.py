"""Vectorised rank-k and mean average precision for cosine retrieval.

Candidates are ranked by descending similarity with ties kept in candidate
order (a stable sort), and queries without any same-label candidate are left
out of every average, as in the exhaustive reference scorer.
"""

from __future__ import annotations

import numpy as np

KS = (1, 3, 5)


def leave_one_out(signatures: np.ndarray, labels, ks=KS):
    """Every sample queries all the others, in index order."""
    labels = np.asarray(labels)
    n = labels.size
    j = np.arange(n - 1)[None, :]
    cand = j + (j >= np.arange(n)[:, None])
    sims = np.take_along_axis(signatures @ signatures.T, cand, axis=1)
    return _score(sims, labels[cand], labels, ks)


def query_gallery(queries: np.ndarray, q_labels, gallery: np.ndarray, g_labels, ks=KS):
    """Each query ranks the whole gallery, in gallery order."""
    q_labels = np.asarray(q_labels)
    g_labels = np.asarray(g_labels)
    cand_labels = np.broadcast_to(g_labels, (q_labels.size, g_labels.size))
    return _score(queries @ gallery.T, cand_labels, q_labels, ks)


def _score(sims: np.ndarray, cand_labels: np.ndarray, q_labels: np.ndarray, ks):
    order = np.argsort(-sims, axis=1, kind="stable")
    relevant = np.take_along_axis(cand_labels, order, axis=1) == q_labels[:, None]
    relevant = relevant[relevant.any(axis=1)]
    if relevant.shape[0] == 0:
        raise ValueError("no query has a same-label candidate")
    first = relevant.argmax(axis=1)
    rank_at_k = {k: float(np.mean(first < k)) for k in ks}
    precision = np.cumsum(relevant, axis=1) / np.arange(1, relevant.shape[1] + 1)
    # per-query means over their own relevant positions, summed in the same
    # order as the reference so results match bit for bit
    ap = np.array([precision[q, relevant[q]].mean() for q in range(relevant.shape[0])])
    return rank_at_k, float(np.mean(ap))
