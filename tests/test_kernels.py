import numpy as np
import pytest

from sheaf_kg import _kernels
from sheaf_kg.kgdata import default_schema
from sheaf_kg.model import ModelConfig, init_model, score_shv, score_shvt


def stacked_instance(rng, n=8, d=4, de=3, n_rel=2, m=2, translational=True):
    X = rng.normal(size=(n, d, m))
    RH = rng.normal(size=(n_rel, de, d))
    RT = rng.normal(size=(n_rel, de, d))
    T = rng.normal(size=(n_rel, de, m)) if translational else None
    return X, RH, RT, T


class TestScores:
    @pytest.mark.parametrize("translational", [False, True])
    def test_backends_agree_with_reference_scoring(self, rng, translational):
        X, RH, RT, T = stacked_instance(rng, translational=translational)
        B = 16
        h = rng.integers(0, 8, B)
        r = rng.integers(0, 2, B)
        t = rng.integers(0, 8, B)
        stacked = _kernels.batch_scores(X, RH, RT, T, h, r, t)
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
        score = score_shvt if translational else score_shv
        ref = [score(sheaf, sections, int(h[b]), int(r[b]), int(t[b])) for b in range(B)]
        np.testing.assert_allclose(stacked, ref, rtol=1e-12)


class TestMarginGrads:
    @pytest.mark.parametrize("translational", [False, True])
    def test_frozen_relation_gets_no_map_gradient(self, rng, translational):
        X, RH, RT, T = stacked_instance(rng, translational=translational)
        B = 32
        pos = np.stack([rng.integers(0, 8, B), rng.integers(0, 2, B), rng.integers(0, 8, B)], axis=1)
        neg = np.stack([rng.integers(0, 8, B), pos[:, 1], rng.integers(0, 8, B)], axis=1)
        trainable = np.array([1.0, 0.0])  # second relation frozen
        gX, gRH, gRT = np.zeros_like(X), np.zeros_like(RH), np.zeros_like(RT)
        gT = None if T is None else np.zeros_like(T)
        _, n_active = _kernels.margin_grads(
            X, RH, RT, T, pos, neg, 1.0, gX, gRH, gRT, gT, trainable
        )
        margins = (
            _kernels.batch_scores(X, RH, RT, T, *pos.T) + 1.0
            - _kernels.batch_scores(X, RH, RT, T, *neg.T)
        )
        assert n_active == np.count_nonzero(margins > 0)
        assert np.any((margins > 0) & (pos[:, 1] == 1))  # the frozen relation is active
        np.testing.assert_array_equal(gRH[1], np.zeros_like(gRH[1]))
        np.testing.assert_array_equal(gRT[1], np.zeros_like(gRT[1]))
        assert np.any(gRH[0] != 0.0) and np.any(gRT[0] != 0.0)

    def test_numpy_grads_match_finite_differences(self, rng):
        X, RH, RT, T = stacked_instance(rng, n=5, d=3, de=3, m=1)
        pos = np.array([[0, 0, 1]], dtype=np.int64)
        neg = np.array([[2, 0, 1]], dtype=np.int64)
        trainable = np.ones(2)

        def loss_value():
            s_pos = _kernels.batch_scores(X, RH, RT, T, pos[:, 0], pos[:, 1], pos[:, 2])
            s_neg = _kernels.batch_scores(X, RH, RT, T, neg[:, 0], neg[:, 1], neg[:, 2])
            return float(np.maximum(0.0, s_pos + 1.0 - s_neg).sum())

        if loss_value() == 0.0:
            X *= 3.0  # make sure the pair is active
        gX, gRH, gRT, gT = (np.zeros_like(a) for a in (X, RH, RT, T))
        _kernels.margin_grads(X, RH, RT, T, pos, neg, 1.0, gX, gRH, gRT, gT, trainable)
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
