"""Command-line pipeline: synth, train, eval, query, inspect.

Exit codes: 0 success, 1 runtime/numeric failure, 2 usage or input error.
The group's ``invoke`` is the one error boundary: it prints one ``error: ...``
line for a ``SheafKGError`` or ``OSError`` and exits 2 for the input errors
(``ConfigError``, ``QueryError``, ``SchemaError``, ``TripleParseError``,
``ValidationError``), 1 for the rest (checkpoint, sampling, training-abort
and file-write errors). No command raises a click error: a bad value is one
of the input errors above, and a flag that click itself refuses (a bad choice, a
missing or unknown option) prints the same way, exit 2, with no usage banner.
Every run logs the fully resolved configuration so results are reproducible
from the log alone. ``train``'s setting flags are built from the config keys
(``config.VALID_KEYS``, typed by ``config.KEY_TYPES``); ``config.build_settings``
turns the config file and those flags into a ``ModelConfig`` and a ``TrainConfig``.
"""

from __future__ import annotations

import logging
import sys
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from . import checkpoint as ckpt
from . import evaluation, kgdata, synth
from .config import KEY_TYPES, VALID_KEYS, build_settings, describe, read_config_file
from .errors import INPUT_ERRORS, ConfigError, SchemaError, SheafKGError, ValidationError
from .model import VARIANTS, init_for_kg, relation_discrepancy
from .query import STRUCTURES, Query, answer_query, read_queries, resolve_names, write_queries
from .seeds import substream
from .training import OPTIMIZERS, train

logger = logging.getLogger("sheaf_kg")


def _setup_logging():
    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
        stream=sys.stderr,
    )


class _Main(click.Group):
    def make_context(self, info_name, args, parent=None, **extra):
        try:  # the group parses its own options here, before invoke runs
            return super().make_context(info_name, args, parent, **extra)
        except (click.NoSuchOption, click.BadOptionUsage) as exc:
            click.echo(f"error: {exc.format_message()}", err=True)
            sys.exit(2)

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (SheafKGError, OSError) as exc:
            named = isinstance(exc, OSError) and exc.filename is not None
            click.echo(f"error: {exc.filename}: {exc.strerror}" if named else f"error: {exc}", err=True)
            ctx.exit(2 if isinstance(exc, INPUT_ERRORS) else 1)
        except click.UsageError as exc:
            click.echo(f"error: {exc.format_message()}", err=True)
            ctx.exit(2)


def _parse_seeds(text: str) -> list[int]:
    try:
        seeds = [int(s) for s in text.split(",") if s.strip() != ""]
    except ValueError:
        seeds = []
    if not seeds or min(seeds) < 0 or len(set(seeds)) < len(seeds):
        raise ConfigError(f"--seeds must be comma-separated distinct integers >= 0, got {text!r}")
    return seeds


def _load_kg(model_config, train_path, valid_path, test_path, type_path):
    paths = (train_path, valid_path, test_path)
    labels = kgdata.read_type_labels(type_path) if type_path else None
    dims = model_config.entity_dim, model_config.relation_dim
    schema = _infer_relation_typing(labels, *dims, *paths)
    return kgdata.load_dataset(schema, *paths, labels)


def _infer_relation_typing(labels, entity_dim, relation_dim, *paths) -> kgdata.Schema:
    """Schema read from the triple files in one pass.

    Entity types come from the type-file ``labels``, or are the single type
    ``entity`` when ``labels`` is None. Relations come from the files; both
    are in order of first appearance. Each relation takes its head and tail
    types from its first triple.
    """
    type_names = ("entity",) if labels is None else dict.fromkeys(labels.values())
    type_index = {name: i for i, name in enumerate(type_names)}
    typing: dict[str, tuple[int, int]] = {}
    for path in paths:
        if path is None:
            continue
        for lineno, (h, rel, t) in kgdata.tsv_rows(path, 3):
            if labels is not None:
                for name in (h, t):
                    if name not in labels:
                        raise SchemaError(f"{path}:{lineno}: entity {name!r} has no type-file entry")
            if rel not in typing:
                typing[rel] = (0, 0) if labels is None else (type_index[labels[h]], type_index[labels[t]])
    return kgdata.Schema(
        entity_types=tuple(type_index),
        relation_types=tuple(typing),
        head_type=tuple(h for h, _ in typing.values()),
        tail_type=tuple(t for _, t in typing.values()),
        vertex_dim=(entity_dim,) * len(type_index),
        edge_dim=(relation_dim,) * len(typing),
    )


@click.group(cls=_Main)
def main():
    """Sheaf-based knowledge graph embedding and complex query answering."""
    _setup_logging()


def _setting_flags(fn):
    """A flag per config key but ``seed``: ``--<key>``, typed by its parse type, bar the cases below."""
    names = {"negatives_per_positive": "--negatives"}
    choices = {"variant": VARIANTS, "optimizer": OPTIMIZERS}
    helps = {"max_entity_norm": "cap on entity section column norms (default: no cap)"}
    for key in reversed(VALID_KEYS):
        if key != "seed":
            kind = click.Choice(choices[key]) if key in choices else KEY_TYPES[key]
            flag = names.get(key, "--" + key.replace("_", "-"))
            fn = click.option(flag, key, type=kind, default=None, help=helps.get(key))(fn)
    return fn


@main.command("train")
@click.option("--config", "config_path", type=click.Path(), default=None, help="key=value config file")
@_setting_flags
@click.option("--train", "train_path", type=click.Path(), required=True)
@click.option("--valid", "valid_path", type=click.Path(), default=None)
@click.option("--test", "test_path", type=click.Path(), default=None)
@click.option("--type-file", "type_path", type=click.Path(), default=None)
@click.option("--seeds", default=None,
              help="comma-separated seed list; one checkpoint each (default: the seed setting)")
@click.option("--out", "out_dir", type=click.Path(), required=True)
def cmd_train(config_path, train_path, valid_path, test_path, type_path, seeds, out_dir, **flags):
    """Train one model per seed and write checkpoints plus a report."""
    file_values = None if config_path is None else read_config_file(config_path)
    model_config, train_config = build_settings(file_values, flags)
    seed_list = [train_config.seed] if seeds is None else _parse_seeds(seeds)
    logger.info("resolved config: %s seeds=%s", describe(model_config, train_config), seed_list)
    kg = _load_kg(model_config, train_path, valid_path, test_path, type_path)
    out = Path(out_dir)
    lines = []
    for seed in seed_list:
        model = init_for_kg(model_config, kg, seed)
        model, report = train(kg, replace(train_config, seed=seed), model)
        prefix = out / f"model_seed{seed}"
        ckpt.save_model(model, prefix)
        lines.append(
            f"seed={seed} final_loss={report.epoch_mean_loss[-1]!r} "
            f"orthogonality={report.epoch_orthogonality[-1]!r} "
            f"wall_time={report.wall_time:.2f}s checkpoint={prefix}"
        )
        logger.info(lines[-1])
    (out / "train_report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    click.echo("\n".join(lines))


@main.command("eval")
@click.option("--checkpoint", "checkpoints", type=click.Path(), multiple=True, required=True,
              help="checkpoint prefix; repeat for multi-seed aggregation")
@click.option("--queries", "queries_path", type=click.Path(), required=True)
@click.option("--method", type=click.Choice(list(evaluation.METHODS)), default="harmonic")
@click.option("--out", "out_path", type=click.Path(), default=None)
def cmd_eval(checkpoints, queries_path, method, out_path):
    """Evaluate checkpoints on a query file; report MRR and Hits@K per structure."""
    reports = []
    counts = None
    for prefix in checkpoints:
        model = ckpt.load_model(prefix)
        queries = read_queries(queries_path, model.entity_index(), model.schema)
        report = evaluation.evaluate(model, queries, method=method)
        reports.append(report)
        counts = {tag: report.per_structure[tag].n_queries for tag in report.per_structure}
        logger.info("evaluated %s on %d queries", prefix, len(queries))
    aggregated = evaluation.aggregate_reports(reports)
    click.echo(evaluation.format_report_table(aggregated))
    if out_path:
        evaluation.write_report(aggregated, out_path, counts)
        logger.info("wrote report to %s", out_path)


@main.command("query")
@click.option("--checkpoint", "prefix", type=click.Path(), required=True)
@click.option("--structure", type=click.Choice(STRUCTURES), required=True)
@click.option("--anchors", required=True, help="comma-separated anchor entity names")
@click.option("--relations", required=True, help="comma-separated relation names")
@click.option("--top-k", "top_k", type=click.IntRange(min=1), default=10)
def cmd_query(prefix, structure, anchors, relations, top_k):
    """Answer one query and print the best candidates, ascending by cost."""
    model = ckpt.load_model(prefix)
    query = Query(structure, resolve_names(anchors, model.entity_index(), "entity"),
                  resolve_names(relations, model.schema.relation_ids, "relation"))
    ranking = answer_query(query, model)
    for entity, value in ranking.top(top_k):
        click.echo(f"{model.entities[entity]}\t{value!r}")


@main.command("inspect")
@click.option("--checkpoint", "prefix", type=click.Path(), required=True)
@click.option("--train", "train_path", type=click.Path(), default=None,
              help="triple file for per-relation discrepancy")
def cmd_inspect(prefix, train_path):
    """Print a checkpoint's variant, shapes, constraints, and parameter norms."""
    model = ckpt.load_model(prefix)
    click.echo(f"variant={model.sheaf.variant} sections={model.sections.columns} seed={model.seed}")
    click.echo(f"entities={model.n_entities} relations={model.schema.n_relations} "
               f"entity_types={model.schema.n_entity_types}")
    for r, name in enumerate(model.schema.relation_types):
        head, tail = model.sheaf.head_maps[r], model.sheaf.tail_maps[r]
        with np.errstate(over="ignore"):  # a finite but huge parameter prints its norm as inf
            line = (
                f"relation {name}: constraint={model.sheaf.constraints[r]} "
                f"maps {head.shape[0]}x{head.shape[1]} "
                f"|head|={np.linalg.norm(head):.4f} |tail|={np.linalg.norm(tail):.4f}"
            )
            if model.sheaf.translations is not None:
                line += f" |translation|={np.linalg.norm(model.sheaf.translations[r]):.4f}"
        click.echo(line)
    if train_path:
        # interned in the checkpoint's own ids, so a new entity makes the vocabulary grow
        vocab = kgdata.VocabBuilder()
        for name, type_idx in zip(model.entities, model.entity_type.tolist()):
            vocab.intern(name, type_idx)
        labels = {name: model.schema.entity_types[t] for name, t in zip(vocab.names, vocab.types)}
        triples = kgdata.load_triples(train_path, model.schema, vocab, labels)
        if len(vocab) > model.n_entities:
            raise ValidationError(f"{train_path}: mentions {len(vocab) - model.n_entities} "
                                  "entities absent from the checkpoint")
        kg = kgdata.assemble_kg(model.schema, vocab, {kgdata.TRAIN: triples})
        for name, value in relation_discrepancy(model.sheaf, model.sections, kg).items():
            click.echo(f"discrepancy {name}\t{value!r}")


@main.command("synth")
@click.option("--entities", "n_entities", type=int, default=200)
@click.option("--relations", "n_relations", type=int, default=5)
@click.option("--dim", type=int, default=16)
@click.option("--noise", type=float, default=0.0)
@click.option("--seed", type=int, default=0)
@click.option("--variant", type=click.Choice(VARIANTS), default="shvt")
@click.option("--sections", type=int, default=1)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--easy-queries", "easy", default="",
              help="comma-separated structures to also emit as easy test queries")
@click.option("--queries-per-structure", "per_structure", type=click.IntRange(min=1), default=50)
def cmd_synth(n_entities, n_relations, dim, noise, seed, variant, sections, out_dir, easy, per_structure):
    """Generate a planted-sheaf dataset (triple files + generating checkpoint)."""
    dataset = synth.generate_planted_kg(
        n_entities, n_relations, dim, noise, seed, variant=variant, sections=sections
    )
    queries = []  # built before any write, so a bad structure name leaves no files
    if easy:
        index = kgdata.build_index(dataset.kg)
        rng = substream(seed, "queries")
        for structure in [s for s in easy.split(",") if s]:
            queries.extend(
                evaluation.build_easy_queries(dataset.kg, index, structure, per_structure, rng)
            )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for split in kgdata.SPLITS:
        kgdata.write_triples(dataset.kg, out / f"{split}.tsv", split)
    ckpt.save_model(dataset.generator, out / "generator")
    if easy:
        write_queries(
            queries, out / "queries.tsv", dataset.kg.entities, dataset.kg.schema.relation_types
        )
        logger.info("wrote %d easy queries", len(queries))
    counts = {s: int(np.sum(dataset.kg.split_mask(s))) for s in kgdata.SPLITS}
    click.echo(
        f"wrote {dataset.kg.n_entities} entities, "
        f"{counts['train']}/{counts['valid']}/{counts['test']} train/valid/test triples to {out}"
    )


if __name__ == "__main__":
    main()
