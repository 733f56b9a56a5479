"""Margin-ranking training: negative sampling, analytic gradients, optimizers.

Training minimizes, per batch,

    sum over (positive, corrupted) pairs of max(0, s_pos + margin - s_neg)
    + alpha * orthogonality penalty of the section matrices,

taking an SGD or Adagrad step followed by exact constraint re-projection.
Runs are bitwise deterministic for a fixed seed in single-threaded mode.
"""

from __future__ import annotations

import logging
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import (
    ConfigError, SamplingError, ShapeError, TrainingAbortError, ValidationError, as_id, check_types,
)
from .kgdata import TRAIN, KnowledgeGraph, TripleIndex, build_index
from .model import (
    MAP_STEPS,
    Model,
    SectionMatrix,
    KnowledgeSheaf,
    edge_residual,
    logger as model_logger,
    orthogonality_penalty,
    project_constraints_inplace,
    relation_discrepancy,
)
from .seeds import substream

logger = logging.getLogger(__name__)

OPTIMIZERS = ("sgd", "adagrad")
ADAGRAD_EPS = 1e-10
LOSS_BLOWUP = 1e3  # a batch's mean pair loss over this multiple aborts training (see ``train``)


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 512
    learning_rate: float = 0.1
    negatives_per_positive: int = 1
    margin: float = 1.0
    alpha: float = 0.0
    seed: int = 0
    optimizer: str = "adagrad"
    # Optional cap on entity column norms, re-projected after each step.
    # Squared-distance scores satisfy the margin under any global inflation
    # of the embedding, so unbounded training can trade structure for scale;
    # the cap removes that escape without pinning norms exactly.
    max_entity_norm: float | None = None

    def __post_init__(self):
        check_types(self)
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not 0 < self.learning_rate < np.inf:
            raise ConfigError("learning_rate must be finite and > 0")
        if self.negatives_per_positive < 1:
            raise ConfigError("negatives_per_positive must be >= 1")
        if not 0 < self.margin < np.inf:
            raise ConfigError("margin must be finite and > 0")
        if not 0 <= self.alpha < np.inf:
            raise ConfigError("alpha must be finite and >= 0")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"optimizer must be one of {OPTIMIZERS}")
        if self.max_entity_norm is not None and not 0 < self.max_entity_norm < np.inf:
            raise ConfigError("max_entity_norm must be finite and > 0 when set")


@dataclass
class TrainReport:
    epoch_mean_loss: list[float] = field(default_factory=list)
    epoch_orthogonality: list[float] = field(default_factory=list)
    # margin-violating (active) pairs / pairs, per epoch
    epoch_active_fraction: list[float] = field(default_factory=list)
    wall_time: float = 0.0
    relation_discrepancy: dict[str, float] = field(default_factory=dict)


def triple_grads(sheaf: KnowledgeSheaf, sections: SectionMatrix, h: int, r: int, t: int):
    """Analytic gradients of ``triple_score`` for one triple.

    Returns a dict with blocks ``x_h``, ``x_t``, ``head_map``, ``tail_map``,
    and ``translation`` for a translational sheaf. For a self-loop triple
    (h == t) the two entity blocks must be summed by the caller.
    """
    x_h, x_t = sections.block(h), sections.block(t)
    diff = edge_residual(sheaf, r, x_h, x_t)
    grads = {
        "x_h": 2.0 * sheaf.head_maps[r].T @ diff,
        "x_t": -2.0 * sheaf.tail_maps[r].T @ diff,
        "head_map": 2.0 * diff @ x_h.T,
        "tail_map": -2.0 * diff @ x_t.T,
    }
    if sheaf.translational:
        grads["translation"] = 2.0 * diff
    return grads


def sample_negatives(
    kg: KnowledgeGraph,
    index: TripleIndex,
    triples,
    k: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Corrupt head or tail (fair coin) of each row with a uniform same-type entity.

    ``triples`` is a (B, 3) batch; the result is a (B*k, 3) int64 array that
    holds the k negatives of each row together, in batch order. A single
    ``(h, r, t)`` triple is a batch of one.
    All B*k coins are drawn at once, then one uniform offset per negative
    into its type's pool (``KnowledgeGraph.slot_pools``). Draws that
    reproduce a triple of ``index`` are redrawn, up to 100 draws in all,
    after which the last draw is kept. If the chosen slot's type has a single
    entity the other slot is corrupted instead; if both types do, sampling
    fails.
    """
    if as_id(k, ConfigError, "k must be an integer") < 1:
        raise ConfigError("need k >= 1 negatives")
    batch = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    order, start, size = kg.slot_pools
    # slot 2r corrupts relation r's head, 2r + 1 its tail; a singleton pool
    # hands the corruption to the other slot
    slot = 2 * batch[:, 1].repeat(k) + (rng.random(len(batch) * k) >= 0.5)
    slot ^= size[slot] <= 1
    pool_start, pool_size = start[slot], size[slot]
    stuck = pool_size <= 1
    if stuck.any():
        h, r, t = (int(x) for x in batch[np.argmax(stuck) // k])
        raise SamplingError(
            f"cannot corrupt triple ({h},{r},{t}): both endpoint types are singletons"
        )
    out = batch.repeat(k, axis=0)
    column = 2 * (slot & 1)
    todo = np.arange(len(out))
    for _attempt in range(100):
        offset = (rng.random(len(todo)) * pool_size[todo]).astype(np.int64)
        out[todo, column[todo]] = order[pool_start[todo] + offset]
        todo = todo[index.contains(out[todo])]
        if not todo.size:
            break
    return out


def _sgd_update(param, grad, _acc, lr):
    param -= lr * grad


def _adagrad_update(param, grad, acc, lr):
    acc += grad * grad
    param -= lr * grad / (np.sqrt(acc) + ADAGRAD_EPS)


class _StackedParams:
    """Training state: gradients and accumulators for the model's padded arrays.

    The sections ``X`` and the sheaf's maps ``RH``/``RT`` and translations
    ``T`` are the model's own arrays, updated in place; constraints are
    re-projected on each relation's true block through the sheaf's views.
    Only the maps that step under their tag (``MAP_STEPS``) get gradients
    and updates: the bool arrays ``head_steps``/``tail_steps`` mark the relations
    whose map steps; a side where none does has no slot at all. A step
    re-projects only the relations ``projected``; ``identity`` is true when every
    map is a square identity, which the kernel then never multiplies.
    """

    def __init__(self, model: Model, config: TrainConfig):
        self.sheaf = sheaf = model.sheaf
        self.X, self.RH, self.RT, self.T = model.sections.X, sheaf.RH, sheaf.RT, sheaf.T
        if self.X.shape[1] != self.RH.shape[2]:
            raise ShapeError(
                f"sections are padded to {self.X.shape[1]} rows, the schema needs {self.RH.shape[2]}"
            )
        steps = np.array([MAP_STEPS[c] for c in sheaf.constraints], dtype=bool).reshape(-1, 2)
        self.head_steps, self.tail_steps = steps.T
        self.projected = np.flatnonzero(steps.any(axis=1))
        square = self.RH.shape[1] == self.RH.shape[2]
        self.identity = square and set(sheaf.constraints) == {"identity"}
        sheaf.check_constraints()  # the kernel trusts the identity tag, not the maps
        self.gX = np.zeros_like(self.X)
        self.gRH, self.gRT = (
            np.zeros_like(param) if side.any() else None
            for param, side in ((self.RH, self.head_steps), (self.RT, self.tail_steps))
        )
        self.gT = None if self.T is None else np.zeros_like(self.T)
        adagrad = config.optimizer == "adagrad"
        self.update = _adagrad_update if adagrad else _sgd_update
        # (parameter, gradient, Adagrad accumulator or None under SGD), updated in this order
        self.slots = [
            (param, grad, np.zeros_like(param) if adagrad else None)
            for param, grad in ((self.X, self.gX), (self.RH, self.gRH),
                                (self.RT, self.gRT), (self.T, self.gT))
            if grad is not None
        ]

    def step(self, pos, neg, config: TrainConfig):
        """One optimizer step on (B, 3) positives and their (B*k, 3) negatives."""
        for _, grad, _ in self.slots:
            grad[...] = 0.0
        loss, n_active = _kernels.margin_grads(
            self.X, self.RH, self.RT, self.T, neg, pos, config.margin,
            self.gX, self.gRH, self.gRT, self.gT, self.head_steps, self.tail_steps, self.identity,
        )
        if not np.isfinite(loss):
            return loss, n_active
        if config.alpha != 0.0:
            _kernels.orthogonality_grad_numpy(self.X, self.gX, config.alpha)
        for param, grad, acc in self.slots:
            self.update(param, grad, acc, config.learning_rate)
        project_constraints_inplace(self.sheaf, self.projected)
        return loss, n_active

    def cap_entity_norms(self, cap: float):
        """Shrink section columns longer than ``cap``."""
        norms = np.linalg.norm(self.X, axis=1, keepdims=True)
        np.maximum(norms, cap, out=norms)
        self.X *= cap / norms


def _worst_relation(model: Model, kg: KnowledgeGraph) -> str:
    """The relation of largest mean training score (``relation_discrepancy``), a NaN mean first."""
    means = relation_discrepancy(model.sheaf, model.sections, kg)
    return max(means, key=lambda name: (np.isnan(means[name]), means[name]))


@contextmanager
def _abort_on_overflow(model, kg, epoch, batch=None):
    """Run the block with numpy overflow and invalid operations raised as a TrainingAbortError."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as err:
        raise TrainingAbortError(epoch, batch, _worst_relation(model, kg), str(err)) from err


@contextmanager
def _each_message_once(log: logging.Logger):
    """Within the block, let each distinct message through ``log`` only the first time."""
    seen = set()

    def first_time(record):
        return record.msg not in seen and not seen.add(record.msg)

    log.addFilter(first_time)
    try:
        yield
    finally:
        log.removeFilter(first_time)


def train(kg: KnowledgeGraph, config: TrainConfig, model: Model) -> tuple[Model, TrainReport]:
    """Run the optimizer loop on ``model`` in place and return it with a report.

    Every schema, ragged or uniform, trains through one path. The model's
    padded arrays, the sections ``SectionMatrix.X`` and the maps and
    translations ``KnowledgeSheaf.RH``/``RT``/``T``, are updated in place
    from the first step, and a :class:`TrainingAbortError` leaves the model
    holding the parameters reached when training stopped. Padded entries stay
    exactly zero (see ``_kernels``). Only the maps that projection keeps
    take the optimizer step (``model.MAP_STEPS``): no identity map, and no
    shared or antisymmetric tail. Each relation with a stepping map is then
    re-projected exactly on its true block; a projection warning is logged
    once per call. Before any step, a model built for another schema or
    ``entity_type`` is a :class:`ValidationError`, and one whose maps break
    their tags a :class:`ConfigError`. When every map is a square identity,
    none is multiplied (TransE, see ``_kernels``).

    A diverging run raises :class:`TrainingAbortError` naming the epoch, on
    a numpy overflow or invalid operation in the epoch's orthogonality penalty
    or in a batch's step and ``max_entity_norm`` cap, or on a batch mean pair
    loss that is non-finite or over ``LOSS_BLOWUP`` (1e3) times the larger of
    the margin and the first batch's, taken before any step. A batch's checks
    share one ``np.errstate`` scope and name the batch. Every abort blames
    the relation of largest mean training score where training stopped, a
    NaN mean first. Projected maps stay bounded, so diverging sections can
    keep the loss finite for tens of epochs; scores are quadratic, so 1e3
    means sections about 32 times their first scale, which no run that
    learns reaches. The checks change no other run.

    Each batch of B positives gets its B*k negatives from one
    ``sample_negatives`` call, and the kernel scores each positive once.
    The report's ``epoch_active_fraction`` is the share of an epoch's B*k
    pairs that violated the margin.
    """
    if model.schema != kg.schema or not np.array_equal(model.entity_type, kg.entity_type):
        differs = "schema" if model.schema != kg.schema else "entity_type"
        raise ValidationError(f"the model was built for another graph: its {differs} is not the graph's")
    triples = kg.triples_of(TRAIN)
    if len(triples) == 0:
        raise ConfigError("training split is empty")
    index = build_index(kg, splits=(TRAIN,))
    shuffle_rng = substream(config.seed, "shuffle")
    neg_rng = substream(config.seed, "negatives")
    k = config.negatives_per_positive

    state = _StackedParams(model, config)
    report = TrainReport()
    start = time.perf_counter()
    n = len(triples)
    limit = None  # LOSS_BLOWUP times the reference, set by the first batch
    with _each_message_once(model_logger):
        for epoch in range(config.epochs):
            perm = shuffle_rng.permutation(n)
            epoch_loss = 0.0
            n_pairs = n_active_pairs = 0
            for batch_no, lo in enumerate(range(0, n, config.batch_size)):
                pos = triples[perm[lo:lo + config.batch_size]]
                neg = sample_negatives(kg, index, pos, k, neg_rng)
                with _abort_on_overflow(model, kg, epoch, batch_no):
                    loss, n_active = state.step(pos, neg, config)
                    if not np.isfinite(loss):
                        raise TrainingAbortError(epoch, batch_no, _worst_relation(model, kg))
                    if limit is None:
                        limit = LOSS_BLOWUP * max(loss / len(neg), config.margin)
                    if loss / len(neg) > limit:
                        raise TrainingAbortError(epoch, batch_no, _worst_relation(model, kg), (
                            f"mean pair loss {loss / len(neg):.3g} is over {LOSS_BLOWUP:g} times"
                            " the first batch's"
                        ))
                    if config.max_entity_norm is not None:
                        state.cap_entity_norms(config.max_entity_norm)
                epoch_loss += loss
                n_pairs += len(neg)
                n_active_pairs += n_active
            report.epoch_mean_loss.append(epoch_loss / n_pairs)
            report.epoch_active_fraction.append(n_active_pairs / n_pairs)
            with _abort_on_overflow(model, kg, epoch):
                report.epoch_orthogonality.append(orthogonality_penalty(model.sections))
    report.wall_time = time.perf_counter() - start
    report.relation_discrepancy = relation_discrepancy(model.sheaf, model.sections, kg)
    logger.info(
        "trained %d epochs on %d triples in %.2fs (final mean loss %.6f)",
        config.epochs, n, report.wall_time, report.epoch_mean_loss[-1],
    )
    return model, report
