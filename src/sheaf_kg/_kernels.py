"""Hot training kernels: margin-loss gradients and the orthogonality penalty.

One numpy backend, sequential and run-to-run deterministic: einsum and
``np.add.at`` for scores, entity and translation gradients, one matrix product
per relation for map gradients. ``margin_grads`` takes the (B*k, 3) negatives
and then the (B, 3) positives they corrupt, and scores each positive once
rather than once per negative. The kernels work on stacked parameter arrays in
which every stalk is zero-padded to the largest dimension of the schema:

    X  (n_entities, d, m)   entity sections, ``SectionMatrix.X``, d = max vertex dim
    RH (n_relations, de, d) head restriction maps, ``KnowledgeSheaf.RH``, de = max edge dim
    RT (n_relations, de, d) tail restriction maps, ``KnowledgeSheaf.RT``
    T  (n_relations, de, m) translations, ``KnowledgeSheaf.T``, or None

``model.SectionMatrix`` documents the sections' padding invariant and
``model.KnowledgeSheaf`` the maps'; relation ``r`` occupies
``RH[r, :de_r, :d_head]``, ``RT[r, :de_r, :d_tail]`` and ``T[r, :de_r]``.
Padding changes no score and gets no gradient. A padded
row of RH, RT and T gives a zero row of the score residual, and a padded
column of RH or RT only ever multiplies a padded (zero) row of X, so the
residual's true block is the unpadded residual. Every gradient entry in a
padded position is a sum of products with a zero factor, which is exactly
zero; zero rows of X leave the section Gram matrices, and so the
orthogonality penalty, unchanged. On a schema with uniform dimensions there
is no padding. No kernel reads constraint tags: training re-imposes them, and tells
``margin_grads`` which maps step, as one bool array per side, and whether every map
is a square identity, in which case each residual is ``x_h - x_t (+ t_r)``
unmultiplied (ShVT with identity maps is TransE).
"""

from __future__ import annotations

import numpy as np


def active_backend() -> str:
    return "numpy"


def _scores(X, RH, RT, T, h, r, t, identity):
    if identity:
        diff = X[h] - X[t]
    else:
        diff = np.einsum("bij,bjm->bim", RH[r], X[h]) - np.einsum("bij,bjm->bim", RT[r], X[t])
    if T is not None:
        diff = diff + T[r]
    return np.einsum("bim,bim->b", diff, diff), diff


def margin_grads(X, RH, RT, T, neg, pos, gamma, gX, gRH, gRT, gT, head_steps, tail_steps, identity):
    """Accumulate margin-loss gradients for B positives and their k negatives each.

    ``neg`` is a (B*k, 3) index array that holds the k negatives of each
    positive together, in the order of the (B, 3) positives ``pos``. Each
    positive is scored once and its score broadcast to its k pairs; its
    gradient is weighted by its number of active pairs. Returns
    (loss_sum, n_active) over the B*k pairs. Gradients are added into the
    ``g*`` accumulators in place. Only the maps that step get one:
    ``head_steps``/``tail_steps`` are per-relation bool arrays, and a
    ``gRH``/``gRT`` of None means no map on that side steps. Each stepping
    map's gradient is one matrix product over its relation's active rows.
    ``identity`` says, as the caller vouches, that every map is exactly the
    identity and de == d, padding included. Then no map is gathered or
    multiplied: the residual is ``X[h] - X[t] (+ T[r])`` and the entity
    gradients are ``±d``. An exact identity only adds exact zeros to a
    product, so each result equals the multiplied one to the bit.
    """
    k = len(neg) // len(pos)
    s_pos, d_pos = _scores(X, RH, RT, T, pos[:, 0], pos[:, 1], pos[:, 2], identity)
    s_neg, d_neg = _scores(X, RH, RT, T, neg[:, 0], neg[:, 1], neg[:, 2], identity)
    if not (np.all(np.isfinite(s_pos)) and np.all(np.isfinite(s_neg))):
        return float("nan"), 0
    margins = np.repeat(s_pos, k) + gamma - s_neg
    active = margins > 0.0
    loss = float(np.sum(np.where(active, margins, 0.0)))
    if not np.any(active):
        return loss, 0

    weight = np.count_nonzero(active.reshape(-1, k), axis=1)
    hit = weight > 0
    h, r, t = np.concatenate([pos[hit], neg[active]]).T
    d = np.concatenate([d_pos[hit] * (2.0 * weight[hit])[:, None, None], d_neg[active] * -2.0])
    # entity and translation gradients
    np.add.at(gX, h, d if identity else np.einsum("bij,bim->bjm", RH[r], d))
    np.add.at(gX, t, -d if identity else -np.einsum("bij,bim->bjm", RT[r], d))
    if gT is not None:
        np.add.at(gT, r, d)
    # map gradients: the columns of D and E hold the rows grouped by relation, m per row
    if gRH is not None or gRT is not None:
        order = np.argsort(r, kind="stable")
        counts = np.bincount(r, minlength=len(RH))
        ends = np.cumsum(counts) * X.shape[2]
        D = d.transpose(1, 0, 2)[:, order].reshape(d.shape[1], -1)
        for grad, steps, ent, sign in ((gRH, head_steps, h, 1.0), (gRT, tail_steps, t, -1.0)):
            if grad is not None:
                E = X.transpose(1, 0, 2)[:, ent[order]].reshape(X.shape[1], -1)
                for rel in np.flatnonzero(counts * steps):
                    cols = slice(ends[rel] - counts[rel] * X.shape[2], ends[rel])
                    grad[rel] += sign * (D[:, cols] @ E[:, cols].T)
    return loss, int(np.count_nonzero(active))


def orthogonality_grad_numpy(X, gX, alpha):
    """Add alpha * grad of sum_v |X_v^T X_v - I|_F^2 to gX; returns the penalty.

    With alpha 0 only the penalty is computed and ``gX`` may be None.
    """
    m = X.shape[2]
    gram = np.einsum("ndm,ndk->nmk", X, X) - np.eye(m)
    penalty = float(np.sum(gram * gram))
    if alpha != 0.0:
        gX += (4.0 * alpha) * np.einsum("ndm,nmk->ndk", X, gram)
    return penalty
