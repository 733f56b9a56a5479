import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import batch_scores, stacked_scores
from sheaf_kg import _kernels
from sheaf_kg.kgdata import Schema, default_schema
from sheaf_kg.model import (
    CONSTRAINTS, MAP_STEPS, Model, ModelConfig, init_for_kg, init_model, triple_score,
)
from sheaf_kg.synth import generate_planted_kg
from sheaf_kg.training import TrainConfig, _StackedParams, train


def stacked_instance(rng, n=8, d=4, de=3, n_rel=2, m=2, translational=True):
    X = rng.normal(size=(n, d, m))
    RH = rng.normal(size=(n_rel, de, d))
    RT = rng.normal(size=(n_rel, de, d))
    T = rng.normal(size=(n_rel, de, m)) if translational else None
    return X, RH, RT, T


def margin_grads_oracle(X, RH, RT, T, pos, neg, gamma, gX, gRH, gRT, gT):
    """The kernel as it was before it scored each positive once.

    ``pos`` and ``neg`` are paired (B, 3) index arrays, so a positive with k
    negatives appears k times in ``pos`` and is scored and differentiated k
    times. Returns (loss_sum, n_active) and adds into the ``g*`` arrays.
    """
    hp, rp, tp = pos[:, 0], pos[:, 1], pos[:, 2]
    hn, rn, tn = neg[:, 0], neg[:, 1], neg[:, 2]
    s_pos, d_pos = stacked_scores(X, RH, RT, T, hp, rp, tp)
    s_neg, d_neg = stacked_scores(X, RH, RT, T, hn, rn, tn)
    if not (np.all(np.isfinite(s_pos)) and np.all(np.isfinite(s_neg))):
        return float("nan"), 0
    margins = s_pos + gamma - s_neg
    active = margins > 0.0
    loss = float(np.sum(np.where(active, margins, 0.0)))
    if not np.any(active):
        return loss, 0
    for sign, idx, diff in ((1.0, (hp, rp, tp), d_pos), (-1.0, (hn, rn, tn), d_neg)):
        h, r, t = (a[active] for a in idx)
        d = diff[active] * (2.0 * sign)
        np.add.at(gX, h, np.einsum("bij,bim->bjm", RH[r], d))
        np.add.at(gX, t, -np.einsum("bij,bim->bjm", RT[r], d))
        np.add.at(gRH, r, np.einsum("bim,bjm->bij", d, X[h]))
        np.add.at(gRT, r, -np.einsum("bim,bjm->bij", d, X[t]))
        if gT is not None:
            np.add.at(gT, r, d)
    return loss, int(np.count_nonzero(active))


def active_rows(X, RH, RT, T, neg, pos, gamma):
    """Loss, active pair count and the rows ``margin_grads`` differentiates.

    The rows are the positives with an active pair, then the active
    negatives, as index arrays ``(h, r, t)`` and each row's edge residual
    times its loss weight ``d``; None when no pair is active or a score is
    not finite.
    """
    k = len(neg) // len(pos)
    s_pos, d_pos = stacked_scores(X, RH, RT, T, *pos.T)
    s_neg, d_neg = stacked_scores(X, RH, RT, T, *neg.T)
    if not (np.all(np.isfinite(s_pos)) and np.all(np.isfinite(s_neg))):
        return float("nan"), 0, None
    margins = np.repeat(s_pos, k) + gamma - s_neg
    active = margins > 0.0
    loss = float(np.sum(np.where(active, margins, 0.0)))
    if not np.any(active):
        return loss, 0, None
    weight = np.count_nonzero(active.reshape(-1, k), axis=1)
    hit = weight > 0
    h, r, t = np.concatenate([pos[hit], neg[active]]).T
    d = np.concatenate([d_pos[hit] * (2.0 * weight[hit])[:, None, None], d_neg[active] * -2.0])
    return loss, int(np.count_nonzero(active)), (h, r, t, d)


def map_grads_oracle(X, h, r, t, d, gRH, gRT):
    """The map gradients as the kernel took them before it grouped rows by relation.

    One (de, d) outer product per row and side, scattered into its
    relation's slot with ``np.add.at``.
    """
    np.add.at(gRH, r, np.einsum("bim,bjm->bij", d, X[h]))
    np.add.at(gRT, r, -np.einsum("bim,bjm->bij", d, X[t]))


def abs_terms(X, RH, RT, T, rows):
    """Each gradient ``[gX, gRH, gRT, gT]`` with its terms summed in absolute value.

    ``rows`` is ``active_rows``' last item. A gradient's rounding error is
    bounded by a small multiple of this sum, which is never 0 unless the
    error is, even where the terms cancel.
    """
    scale = [None if p is None else np.zeros_like(p) for p in (X, RH, RT, T)]
    if rows is None:
        return scale
    h, r, t, d = rows
    d = np.abs(d)
    np.add.at(scale[0], h, np.einsum("bij,bim->bjm", np.abs(RH[r]), d))
    np.add.at(scale[0], t, np.einsum("bij,bim->bjm", np.abs(RT[r]), d))
    map_grads_oracle(np.abs(X), h, r, t, d, scale[1], scale[2])
    if T is not None:
        np.add.at(scale[3], r, d)
    return scale


def margin_grads_all_maps(X, RH, RT, T, neg, pos, gamma, gX, gRH, gRT, gT):
    """The kernel as it was before it skipped the maps that do not step.

    Every map of every active row gets its gradient, whatever its relation's
    constraint tag.
    """
    loss, n_active, rows = active_rows(X, RH, RT, T, neg, pos, gamma)
    if rows is None:
        return loss, n_active
    h, r, t, d = rows
    np.add.at(gX, h, np.einsum("bij,bim->bjm", RH[r], d))
    np.add.at(gX, t, -np.einsum("bij,bim->bjm", RT[r], d))
    map_grads_oracle(X, h, r, t, d, gRH, gRT)
    if gT is not None:
        np.add.at(gT, r, d)
    return loss, n_active


def mixed_tag_schema(rng, tags=None):
    """Three entity types of random dims and one relation per tag plus two random-tag ones.

    ``tags``, if given, replaces the relations' drawn tags. Each relation's
    endpoint types and edge dim are drawn so that its tag admits them.
    Returns the schema and the relation-to-tag overrides.
    """
    vertex_dim = [int(d) for d in rng.integers(1, 6, 3)]
    if tags is None:
        tags = [str(c) for c in rng.permutation([*CONSTRAINTS, *rng.choice(CONSTRAINTS, 2)])]
    head_type, tail_type, edge_dim = [], [], []
    for tag in tags:
        h = int(rng.integers(0, 3))
        t = h if tag in ("shared", "antisymmetric", "identity") else int(rng.integers(0, 3))
        if tag == "identity":
            de = vertex_dim[h]
        elif tag == "orthogonal":
            de = max(vertex_dim[h], vertex_dim[t]) + int(rng.integers(0, 3))
        else:
            de = int(rng.integers(1, 7))
        head_type.append(h)
        tail_type.append(t)
        edge_dim.append(de)
    names = tuple(f"r{r}" for r in range(len(tags)))
    schema = Schema(("a", "b", "c"), names, tuple(head_type), tuple(tail_type),
                    tuple(vertex_dim), tuple(edge_dim))
    return schema, dict(zip(names, tags))


def ragged_instance(rng, m, translational, n=12, n_types=3, n_rel=4):
    """Zero-padded parameters of a random ragged schema, with the padding masks.

    Returns the arrays ``X, RH, RT, T``, each parameter's mask of true
    (unpadded) entries, the entity types and each relation's head and tail
    types.
    """
    vdim = rng.integers(1, 6, n_types)
    edim = rng.integers(1, 6, n_rel)
    head_type, tail_type = rng.integers(0, n_types, n_rel), rng.integers(0, n_types, n_rel)
    entity_type = np.arange(n) % n_types
    d, de = int(vdim.max()), int(edim.max())
    true_x = np.arange(d)[None, :, None] < vdim[entity_type][:, None, None]
    rows = np.arange(de)[None, :, None] < edim[:, None, None]
    true_rh = rows & (np.arange(d)[None, None, :] < vdim[head_type][:, None, None])
    true_rt = rows & (np.arange(d)[None, None, :] < vdim[tail_type][:, None, None])
    masks = [np.broadcast_to(true_x, (n, d, m)), true_rh, true_rt]
    if translational:
        masks.append(np.broadcast_to(rows, (n_rel, de, m)))
    params = [np.where(mask, rng.normal(size=mask.shape), 0.0) for mask in masks]
    if not translational:
        params.append(None)
    return params, masks, entity_type, head_type, tail_type


class TestPositivesOnce:
    @given(
        seed=st.integers(0, 2**32 - 1),
        translational=st.booleans(),
        m=st.sampled_from([1, 3]),
        k=st.sampled_from([1, 3, 12]),
    )
    @settings(max_examples=60, deadline=None)
    def test_kernel_matches_repeated_positive_oracle(self, seed, translational, m, k):
        rng = np.random.default_rng(seed)
        params, masks, entity_type, head_type, tail_type = ragged_instance(rng, m, translational)
        X, RH, RT, T = params
        B = int(rng.integers(1, 20))
        r = rng.integers(0, len(head_type), B)
        pos = np.stack([
            [rng.choice(np.flatnonzero(entity_type == head_type[j])) for j in r],
            r,
            [rng.choice(np.flatnonzero(entity_type == tail_type[j])) for j in r],
        ], axis=1)
        neg = np.repeat(pos, k, axis=0)
        for row in neg:  # corrupt one endpoint with another entity of its type
            slot = 0 if rng.integers(0, 2) else 2
            pool = np.flatnonzero(entity_type == entity_type[row[slot]])
            row[slot] = rng.choice(pool[pool != row[slot]])
        gaps = batch_scores(X, RH, RT, T, *neg.T) - np.repeat(
            batch_scores(X, RH, RT, T, *pos.T), k
        )
        gamma = max(float(np.median(gaps)), 0.1)  # about half the pairs active

        grads = [None if p is None else np.zeros_like(p) for p in params]
        oracle = [None if p is None else np.zeros_like(p) for p in params]
        every = np.ones(len(RH), dtype=bool)
        loss, n_active = _kernels.margin_grads(X, RH, RT, T, neg, pos, gamma, *grads, every, every, False)
        ref_loss, ref_active = margin_grads_oracle(
            X, RH, RT, T, np.repeat(pos, k, axis=0), neg, gamma, *oracle
        )

        scale = abs_terms(X, RH, RT, T, active_rows(X, RH, RT, T, neg, pos, gamma)[2])
        assert n_active == ref_active
        assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0.0)
        for grad, ref, size, mask in zip(grads, oracle, scale, masks):
            assert np.linalg.norm(grad - ref) <= 1e-12 * np.linalg.norm(size)
            assert np.all(grad[~mask] == 0.0)


def mixed_tag_case(seed, variant, m, k, rows="random", tags=None):
    """A random-init model on ``mixed_tag_schema``, its training state and one batch.

    ``rows`` picks the positives' relations: "random" draws each one,
    "one relation missing" moves a drawn relation's rows to the next
    relation, and "last relation only" gives every row the last relation.
    Each positive has k negatives, each with one endpoint replaced by an
    entity of the same type (possibly itself). ``tags`` goes to
    ``mixed_tag_schema``. Returns the state, the positives, the negatives
    and a margin that leaves about half the pairs active.
    """
    rng = np.random.default_rng(seed)
    schema, overrides = mixed_tag_schema(rng, tags)
    entity_type = np.arange(12) % 3
    cfg = ModelConfig(variant=variant, sections=m, constraint_overrides=overrides)
    sheaf, sections = init_model(cfg, schema, entity_type, seed=seed % 1000)
    for i, d in enumerate(sections.dims):
        sections.X[i, :d] = rng.normal(size=(d, m))
    model = Model(schema, tuple(f"e{i}" for i in range(12)), entity_type, sheaf, sections)
    state = _StackedParams(model, TrainConfig())
    r = rng.integers(0, schema.n_relations, int(rng.integers(1, 24)))
    if rows == "one relation missing":
        missing = int(rng.integers(0, schema.n_relations))
        r[r == missing] = (missing + 1) % schema.n_relations
    elif rows == "last relation only":
        r[:] = schema.n_relations - 1
    pos = np.stack([
        [rng.choice(np.flatnonzero(entity_type == schema.head_type[j])) for j in r],
        r,
        [rng.choice(np.flatnonzero(entity_type == schema.tail_type[j])) for j in r],
    ], axis=1)
    neg = np.repeat(pos, k, axis=0)
    for row in neg:  # corrupt one endpoint with a same-type entity
        slot = 0 if rng.integers(0, 2) else 2
        row[slot] = rng.choice(np.flatnonzero(entity_type == entity_type[row[slot]]))
    gaps = batch_scores(state.X, state.RH, state.RT, state.T, *neg.T) - np.repeat(
        batch_scores(state.X, state.RH, state.RT, state.T, *pos.T), k
    )
    gamma = max(float(np.median(gaps)), 0.1)  # about half the pairs active
    return state, pos, neg, gamma


def check_against_all_maps_oracle(state, pos, neg, gamma):
    """``margin_grads`` against ``margin_grads_all_maps`` on the maps that step.

    Loss, active count, entity and translation gradients are equal; the
    maps that step match the oracle to 1e-12 of their terms summed in
    absolute value (``abs_terms``); the maps that do not step and every
    padded map entry get exactly 0.
    """
    X, RH, RT, T = state.X, state.RH, state.RT, state.T
    ref = [None if p is None else np.zeros_like(p) for p in (X, RH, RT, T)]
    ref_loss, ref_active = margin_grads_all_maps(X, RH, RT, T, neg, pos, gamma, *ref)
    scale = abs_terms(X, RH, RT, T, active_rows(X, RH, RT, T, neg, pos, gamma)[2])[1:3]
    grads = [None if g is None else np.zeros_like(g)
             for g in (state.gX, state.gRH, state.gRT, state.gT)]
    loss, n_active = _kernels.margin_grads(
        X, RH, RT, T, neg, pos, gamma, *grads, state.head_steps, state.tail_steps, state.identity
    )

    assert (loss, n_active) == (ref_loss, ref_active)
    np.testing.assert_array_equal(grads[0], ref[0])
    if T is not None:
        np.testing.assert_array_equal(grads[3], ref[3])
    schema = state.sheaf.schema
    for side, grad, oracle in ((0, grads[1], ref[1]), (1, grads[2], ref[2])):
        steps = np.array([MAP_STEPS[tag][side] for tag in state.sheaf.constraints])
        assert (grad is None) == (not steps.any())
        if grad is None:
            continue
        assert np.all(grad[~steps] == 0.0)
        err = np.linalg.norm(grad[steps] - oracle[steps])
        assert err <= 1e-12 * np.linalg.norm(scale[side][steps])
        for j in range(schema.n_relations):
            width = schema.head_dim(j) if side == 0 else schema.tail_dim(j)
            assert not grad[j, schema.edge_dim[j]:].any() and not grad[j, :, width:].any()


class TestSkippedMaps:
    @given(
        seed=st.integers(0, 2**32 - 1),
        variant=st.sampled_from(["shv", "shvt"]),
        m=st.sampled_from([1, 3]),
        k=st.sampled_from([1, 4]),
    )
    @settings(max_examples=60, deadline=None)
    def test_kernel_matches_all_maps_oracle(self, seed, variant, m, k):
        check_against_all_maps_oracle(*mixed_tag_case(seed, variant, m, k))


class TestMapGradsByRelation:
    @given(
        seed=st.integers(0, 2**32 - 1),
        variant=st.sampled_from(["shv", "shvt"]),
        m=st.sampled_from([1, 3]),
        k=st.sampled_from([1, 4]),
        rows=st.sampled_from(["one relation missing", "last relation only"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_grouped_products_match_the_scatter_oracle(self, seed, variant, m, k, rows):
        check_against_all_maps_oracle(*mixed_tag_case(seed, variant, m, k, rows))


ALL_IDENTITY = ("identity",) * 5


def check_identity_flag_changes_nothing(state, pos, neg, gamma):
    """``margin_grads`` with the identity flag equals it without, to the bit."""
    outs = []
    for identity in (True, False):
        grads = [None if g is None else np.zeros_like(g)
                 for g in (state.gX, state.gRH, state.gRT, state.gT)]
        result = _kernels.margin_grads(
            state.X, state.RH, state.RT, state.T, neg, pos, gamma, *grads,
            state.head_steps, state.tail_steps, identity,
        )
        outs.append((result, grads))
    (result, grads), (ref_result, ref_grads) = outs
    assert result == ref_result
    for grad, ref in zip(grads, ref_grads):
        assert (grad is None) == (ref is None)
        if grad is not None:
            np.testing.assert_array_equal(grad, ref)


class TestIdentityMaps:
    @given(
        seed=st.integers(0, 2**32 - 1),
        variant=st.sampled_from(["shv", "shvt"]),
        m=st.sampled_from([1, 3]),
        k=st.sampled_from([1, 4]),
        rows=st.sampled_from(["random", "last relation only"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_unmultiplied_identity_equals_the_multiplied_path(self, seed, variant, m, k, rows):
        """Ragged all-identity models: edge and vertex stalks of several dims, padded alike."""
        case = mixed_tag_case(seed, variant, m, k, rows, tags=ALL_IDENTITY)
        assume(case[0].identity)
        check_identity_flag_changes_nothing(*case)

    def test_flag_only_when_every_map_is_a_square_identity(self):
        assert not mixed_tag_case(0, "shv", 1, 1)[0].identity
        seen = set()
        for seed in range(50):
            state = mixed_tag_case(seed, "shvt", 1, 1, tags=ALL_IDENTITY)[0]
            de_max, d_max = state.RH.shape[1:]
            assert state.identity == (de_max == d_max)
            seen.add(state.identity)
        assert seen == {True, False}

    def test_projection_skips_identity_relations(self):
        state = mixed_tag_case(0, "shv", 1, 1)[0]
        tags = state.sheaf.constraints
        assert "identity" in tags
        assert [tags[r] for r in state.projected] == [c for c in tags if c != "identity"]

    @pytest.mark.parametrize("optimizer", ["sgd", "adagrad"])
    def test_identity_shvt_training_with_and_without_the_flag(self, monkeypatch, optimizer):
        ds = generate_planted_kg(60, 3, 4, 0.0, seed=0, variant="shvt")
        cfg = ModelConfig(variant="shvt", sections=2, constraint="identity")
        config = TrainConfig(epochs=4, batch_size=16, learning_rate=0.05, optimizer=optimizer,
                             negatives_per_positive=3, seed=1, max_entity_norm=2.0)
        assert _StackedParams(init_for_kg(cfg, ds.kg, seed=0), config).identity
        flagged, _ = train(ds.kg, config, init_for_kg(cfg, ds.kg, seed=0))
        kernel = _kernels.margin_grads
        monkeypatch.setattr(_kernels, "margin_grads", lambda *args: kernel(*args[:13], False))
        multiplied, _ = train(ds.kg, config, init_for_kg(cfg, ds.kg, seed=0))
        np.testing.assert_array_equal(flagged.sections.X, multiplied.sections.X)
        for name in ("RH", "RT", "T"):
            np.testing.assert_array_equal(getattr(flagged.sheaf, name),
                                          getattr(multiplied.sheaf, name))


class TestScores:
    @pytest.mark.parametrize("translational", [False, True])
    def test_backends_agree_with_reference_scoring(self, rng, translational):
        X, RH, RT, T = stacked_instance(rng, translational=translational)
        B = 16
        h = rng.integers(0, 8, B)
        r = rng.integers(0, 2, B)
        t = rng.integers(0, 8, B)
        stacked = _kernels._scores(X, RH, RT, T, h, r, t, False)[0]
        # reference: the per-triple scoring functions on unstacked parameters
        schema = default_schema(2, 4, 3)
        cfg = ModelConfig(
            variant="shvt" if translational else "shv",
            sections=2, entity_dim=4, relation_dim=3,
        )
        sheaf, sections = init_model(cfg, schema, np.zeros(8, dtype=np.int64), seed=0)
        for i in range(8):
            sections.block(i)[...] = X[i]
        for j in range(2):
            sheaf.head_maps[j][...] = RH[j]
            sheaf.tail_maps[j][...] = RT[j]
            if translational:
                sheaf.translations[j][...] = T[j]
        ref = [triple_score(sheaf, sections, int(h[b]), int(r[b]), int(t[b])) for b in range(B)]
        np.testing.assert_allclose(stacked, ref, rtol=1e-12)


class TestMarginGrads:
    @pytest.mark.parametrize("translational", [False, True])
    def test_identity_maps_exact_after_a_step(self, rng, translational):
        schema = default_schema(2, 4, 4)
        cfg = ModelConfig(variant="shvt" if translational else "shv", sections=2,
                          constraint_overrides={"r1": "identity"})
        sheaf, sections = init_model(cfg, schema, np.zeros(8, dtype=np.int64), seed=0)
        sections.X[...] = rng.normal(size=sections.X.shape)
        model = Model(schema, tuple(f"e{i}" for i in range(8)), np.zeros(8, dtype=np.int64),
                      sheaf, sections)
        config = TrainConfig(optimizer="sgd", margin=50.0)  # every pair active
        state = _StackedParams(model, config)
        B = 32
        pos = np.stack([rng.integers(0, 8, B), np.arange(B) % 2, rng.integers(0, 8, B)], axis=1)
        neg = np.stack([rng.integers(0, 8, B), pos[:, 1], rng.integers(0, 8, B)], axis=1)
        free_head = sheaf.head_maps[0].copy()
        _, n_active = state.step(pos, neg, config)
        assert n_active == B
        # the kernel skips the identity relation's map gradients ...
        assert np.all(state.gRH[1] == 0.0) and np.all(state.gRT[1] == 0.0)
        assert np.any(state.gRH[0] != 0.0) and np.any(state.gRT[0] != 0.0)
        assert not np.array_equal(sheaf.head_maps[0], free_head)
        # ... and the step's projection puts its maps back exactly
        np.testing.assert_array_equal(sheaf.head_maps[1], np.eye(4))
        np.testing.assert_array_equal(sheaf.tail_maps[1], np.eye(4))

    def test_numpy_grads_match_finite_differences(self, rng):
        X, RH, RT, T = stacked_instance(rng, n=5, d=3, de=3, m=1)
        pos = np.array([[0, 0, 1]], dtype=np.int64)
        neg = np.array([[2, 0, 1]], dtype=np.int64)

        def loss_value():
            s_pos = batch_scores(X, RH, RT, T, pos[:, 0], pos[:, 1], pos[:, 2])
            s_neg = batch_scores(X, RH, RT, T, neg[:, 0], neg[:, 1], neg[:, 2])
            return float(np.maximum(0.0, s_pos + 1.0 - s_neg).sum())

        if loss_value() == 0.0:
            X *= 3.0  # make sure the pair is active
        gX, gRH, gRT, gT = (np.zeros_like(a) for a in (X, RH, RT, T))
        every = np.ones(len(RH), dtype=bool)
        _kernels.margin_grads(X, RH, RT, T, neg, pos, 1.0, gX, gRH, gRT, gT, every, every, False)
        h = 1e-6
        for param, grad in ((X, gX), (RH, gRH), (RT, gRT), (T, gT)):
            it = np.nditer(param, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                old = param[idx]
                param[idx] = old + h
                up = loss_value()
                param[idx] = old - h
                down = loss_value()
                param[idx] = old
                fd = (up - down) / (2 * h)
                assert grad[idx] == pytest.approx(fd, rel=1e-4, abs=1e-6)
                it.iternext()

    def test_active_backend_is_numpy(self):
        assert _kernels.active_backend() == "numpy"


class TestOrthogonalityKernel:
    def test_penalty_and_gradient(self, rng):
        X = rng.normal(size=(4, 5, 3))
        gX = np.zeros_like(X)
        penalty = _kernels.orthogonality_grad_numpy(X, gX, alpha=0.25)
        ref = 0.0
        for i in range(4):
            gram = X[i].T @ X[i] - np.eye(3)
            ref += float(np.sum(gram * gram))
        assert penalty == pytest.approx(ref, rel=1e-12)
        h = 1e-6
        it = np.nditer(X, flags=["multi_index"])
        count = 0
        while not it.finished and count < 30:
            idx = it.multi_index
            old = X[idx]
            X[idx] = old + h
            up = 0.25 * sum(
                float(np.sum((X[i].T @ X[i] - np.eye(3)) ** 2)) for i in range(4)
            )
            X[idx] = old - h
            down = 0.25 * sum(
                float(np.sum((X[i].T @ X[i] - np.eye(3)) ** 2)) for i in range(4)
            )
            X[idx] = old
            assert gX[idx] == pytest.approx((up - down) / (2 * h), rel=1e-5, abs=1e-8)
            it.iternext()
            count += 1
