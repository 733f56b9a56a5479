import logging
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheaf_kg.errors import SchemaError, TripleParseError, ValidationError
from sheaf_kg.kgdata import (
    KnowledgeGraph,
    Schema,
    VocabBuilder,
    assemble_kg,
    build_index,
    default_schema,
    load_dataset,
    load_triples,
    read_type_labels,
    write_triples,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadTriples:
    def test_minimal_file(self, tmp_path):
        path = write(tmp_path / "t.tsv", "a\tr0\tb\n")
        schema = default_schema(1, 4, 4)
        vocab = VocabBuilder()
        triples = load_triples(path, schema, vocab)
        assert triples == [(0, 0, 1)]
        assert vocab.names == ["a", "b"]

    def test_empty_file(self, tmp_path):
        path = write(tmp_path / "t.tsv", "")
        schema = default_schema(1, 4, 4)
        vocab = VocabBuilder()
        assert load_triples(path, schema, vocab) == []
        assert len(vocab) == 0

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = write(tmp_path / "t.tsv", "a\tr0\n")
        schema = default_schema(1, 4, 4)
        with pytest.raises(TripleParseError) as err:
            load_triples(path, schema, VocabBuilder())
        assert str(err.value) == f"{path}:1: expected 3 tab-separated fields, got 2"

    def test_unknown_relation_is_schema_error(self, tmp_path):
        path = write(tmp_path / "t.tsv", "a\thates\tb\n")
        schema = default_schema(1, 4, 4)
        with pytest.raises(SchemaError):
            load_triples(path, schema, VocabBuilder())

    def test_unknown_relation_names_file_and_line(self, tmp_path):
        path = write(tmp_path / "t.tsv", "a\tr0\tb\nb\tzz\ta\n")
        with pytest.raises(SchemaError) as err:
            load_triples(path, default_schema(1, 4, 4), VocabBuilder())
        assert str(err.value) == f"{path}:2: relation 'zz' absent from schema"

    def test_type_inconsistent_triple_is_identified(self, tmp_path):
        schema = Schema(
            entity_types=("person", "city"),
            relation_types=("lives_in",),
            head_type=(0,),
            tail_type=(1,),
            vertex_dim=(4, 3),
            edge_dim=(3,),
        )
        path = write(tmp_path / "t.tsv", "alice\tlives_in\tparis\nparis\tlives_in\talice\n")
        labels = {"alice": "person", "paris": "city"}
        with pytest.raises(ValidationError) as err:
            load_triples(path, schema, VocabBuilder(), labels)
        assert "paris" in str(err.value)

    def test_multi_type_requires_sidecar(self, tmp_path):
        schema = Schema(
            entity_types=("person", "city"),
            relation_types=("lives_in",),
            head_type=(0,),
            tail_type=(1,),
            vertex_dim=(4, 3),
            edge_dim=(3,),
        )
        path = write(tmp_path / "t.tsv", "alice\tlives_in\tparis\n")
        with pytest.raises(ValidationError):
            load_triples(path, schema, VocabBuilder(), None)

    @pytest.mark.parametrize("line, labels, error, message", [
        ("bob\thates\tparis", {}, SchemaError, "relation 'hates' absent from schema"),
        ("bob\tlives_in\trome", {}, ValidationError,
         "entity 'rome' needs a type label (multi-type schema without sidecar entry)"),
        ("paris\tlives_in\tbob", {}, ValidationError,
         "triple (paris, lives_in, bob) violates the schema's head/tail typing"),
        ("carol\tlives_in\tparis", {}, ValidationError,
         "entity 'carol' seen with conflicting types 1 and 0"),
        ("bob\tlives_in\toslo", {"oslo": "country"}, SchemaError,
         "entity type 'country' absent from schema"),
    ], ids=["unknown-relation", "no-type-label", "typing", "conflicting-type", "unknown-type-name"])
    def test_each_malformed_line_names_file_and_line(self, tmp_path, line, labels, error, message):
        schema = Schema(
            entity_types=("person", "city"),
            relation_types=("lives_in",),
            head_type=(0,),
            tail_type=(1,),
            vertex_dim=(4, 3),
            edge_dim=(3,),
        )
        vocab = VocabBuilder()
        vocab.intern("carol", 1)  # a city in an earlier file
        path = write(tmp_path / "t.tsv", f"alice\tlives_in\tparis\n{line}\n")
        labels = {"alice": "person", "bob": "person", "carol": "person", "paris": "city", **labels}
        with pytest.raises(error) as err:
            load_triples(path, schema, vocab, labels)
        assert type(err.value) is error
        assert str(err.value) == f"{path}:2: {message}"

    def test_type_label_file(self, tmp_path):
        path = write(tmp_path / "types.tsv", "alice\tperson\nparis\tcity\n")
        assert read_type_labels(path) == {"alice": "person", "paris": "city"}

    def test_type_label_file_allows_an_identical_repeat(self, tmp_path):
        path = write(tmp_path / "types.tsv", "alice\tperson\nparis\tcity\nalice\tperson\n")
        assert read_type_labels(path) == {"alice": "person", "paris": "city"}

    # the "triples" lines once loaded the entities ('a', 'b', '', 'c,d'), and '' cannot be named in a
    # query; the "typing" line "a<TAB><TAB>b" once gave the CLI's schema a relation named ''
    @pytest.mark.parametrize("reader, text, message", [
        ("triples", "a\tr0\tb\n\tr0\tb\nc,d\tr0\ta\n", "field 1 of 3 is empty"),
        ("types", "alice\tperson\nparis\t\n", "field 2 of 2 is empty"),
        ("typing", "a\tr0\tb\na\t\tb\n", "field 2 of 3 is empty"),
    ])
    def test_an_empty_field_is_refused_at_its_line(self, tmp_path, reader, text, message):
        from sheaf_kg.cli import _infer_relation_typing

        path = write(tmp_path / "t.tsv", text)
        read = {"triples": lambda: load_triples(path, default_schema(1, 4, 4), VocabBuilder()),
                "types": lambda: read_type_labels(path),
                "typing": lambda: _infer_relation_typing(None, 4, 4, path)}[reader]
        with pytest.raises(TripleParseError) as err:
            read()
        assert str(err.value) == f"{path}:2: {message}"

    def test_type_label_file_rejects_a_conflicting_repeat(self, tmp_path):
        path = write(tmp_path / "types.tsv", "alice\tperson\nparis\tcity\nalice\tcity\n")
        with pytest.raises(ValidationError, match=f"{path}:3: entity 'alice' is 'city' here, 'person'"):
            read_type_labels(path)


class TestDefaultSchema:
    def test_benchmark_style_dims(self):
        schema = default_schema(2, 64, 64)
        assert schema.n_entity_types == 1
        assert schema.n_relations == 2
        assert schema.vertex_dim == (64,)
        assert schema.edge_dim == (64, 64)

    def test_smallest_legal(self):
        schema = default_schema(1, 1, 1)
        assert schema.vertex_dim == (1,) and schema.edge_dim == (1,)

    def test_nell_style_dims(self):
        schema = default_schema(5, 32, 32)
        assert all(d == 32 for d in schema.edge_dim)

    def test_dims_must_be_positive(self):
        with pytest.raises(SchemaError):
            default_schema(1, 0, 4)


# two types (person: dim 2, city: dim 3); lives_in: person -> city, knows: person -> person
PEOPLE_AND_CITIES = Schema(("person", "city"), ("lives_in", "knows"), (0, 0), (1, 0), (2, 3), (2, 2))


class TestSchemaValidation:
    @pytest.mark.parametrize("field, value, match", [
        ("entity_types", (), "at least one entity type"),
        ("entity_types", ("person", "person"), "duplicate entity type names"),
        ("relation_types", ("knows", "knows"), "duplicate relation names"),
        ("head_type", (0,), "head_type must have one entry per relation"),
        ("tail_type", (1, 2), "tail_type references unknown entity type index 2"),
        ("vertex_dim", (2,), "dimension tables must match type/relation counts"),
        ("edge_dim", (2, 0), "all stalk dimensions must be >= 1"),
    ], ids=["no-types", "duplicate-type", "duplicate-relation", "short-head-type",
            "unknown-tail-type", "short-vertex-dim", "edge-dim-0"])
    def test_each_rejection_is_a_schema_error(self, field, value, match):
        with pytest.raises(SchemaError, match=match):
            replace(PEOPLE_AND_CITIES, **{field: value})

    def test_unknown_entity_type_name_is_a_schema_error(self):
        assert PEOPLE_AND_CITIES.entity_type_index("city") == 1
        with pytest.raises(SchemaError, match="entity type 'country' absent from schema"):
            PEOPLE_AND_CITIES.entity_type_index("country")


class TestGraphValidation:
    @staticmethod
    def graph(**fields):
        """ann and bob (people) and oslo (a city): ann lives in oslo and knows bob."""
        values = dict(schema=PEOPLE_AND_CITIES, entities=("ann", "bob", "oslo"),
                      entity_type=np.array([0, 0, 1]), triples=np.array([[0, 0, 2], [0, 1, 1]]),
                      split=np.zeros(2, dtype=np.int8))
        return KnowledgeGraph(**(values | fields))

    def test_the_graph_is_valid(self):
        assert self.graph().n_entities == 3

    @pytest.mark.parametrize("fields, match", [
        ({"entities": ("ann", "oslo", "oslo")}, "^duplicate entity name 'oslo'$"),
        ({"entity_type": np.array([0, 0])}, "entity_type must align with entities"),
        ({"entity_type": np.array([0, 0, 2])}, "entity type index out of range"),
        ({"triples": np.array([0, 0, 2])}, r"triples must be an \(n, 3\) array"),
        ({"split": np.zeros(1, dtype=np.int8)}, "split must align with triples"),
        ({"triples": np.array([[0, 0, 2], [0, 1, 3]])}, "entity index out of range"),
        ({"triples": np.array([[0, 0, 2], [0, 2, 1]])}, "relation index out of range"),
        ({"triples": np.array([[0, 0, 2], [2, 1, 1]])},
         r"type-inconsistent triple #1: \(oslo, knows, bob\)"),
    ], ids=["repeated-entity", "short-entity-type", "unknown-entity-type", "flat-triples", "short-split",
            "unknown-entity", "unknown-relation", "mistyped-triple"])
    def test_each_rejection_is_a_validation_error(self, fields, match):
        with pytest.raises(ValidationError, match=match):
            self.graph(**fields)


class TestNameRule:
    """A name that no file format can hold fails where it is made, naming it.

    Before, ``save_model`` wrote entity ``'a\\nb'`` or relation ``'r\\nx'`` and
    ``load_model`` then refused its own file.
    """

    BAD = ["a\nb", "a\tb", "a\rb", ""]

    @staticmethod
    def message(kind, name):
        return f"^{kind} name {re.escape(repr(name))} is empty or holds a TAB, LF or CR$"

    @pytest.mark.parametrize("name", BAD)
    def test_an_entity_name(self, name):
        with pytest.raises(ValidationError, match=self.message("entity", name)):
            TestGraphValidation.graph(entities=("ann", name, "oslo"))

    @pytest.mark.parametrize("name", BAD)
    def test_a_relation_name(self, name):
        with pytest.raises(SchemaError, match=self.message("relation", name)):
            replace(PEOPLE_AND_CITIES, relation_types=("lives_in", name))

    @pytest.mark.parametrize("name", BAD)
    def test_an_entity_type_name(self, name):
        with pytest.raises(SchemaError, match=self.message("entity type", name)):
            replace(PEOPLE_AND_CITIES, entity_types=(name, "city"))


class TestTripleIndex:
    def _kg(self, triples, n_entities=3, n_relations=1):
        schema = default_schema(n_relations, 2, 2)
        return KnowledgeGraph(
            schema=schema,
            entities=tuple(f"e{i}" for i in range(n_entities)),
            entity_type=np.zeros(n_entities, dtype=np.int64),
            triples=np.asarray(triples, dtype=np.int64).reshape(len(triples), 3),
            split=np.zeros(len(triples), dtype=np.int8),
        )

    def test_single_triple(self):
        index = build_index(self._kg([(0, 0, 1)]))
        assert index.tails(0, 0) == (1,)
        assert index.heads(1, 0) == (0,)
        assert (0, 0, 1) in index

    def test_empty(self):
        index = build_index(self._kg([]))
        assert index.tails(0, 0) == ()
        assert (0, 0, 1) not in index

    def test_multiple_tails(self):
        index = build_index(self._kg([(0, 0, 1), (0, 0, 2)]))
        assert index.tails(0, 0) == (1, 2)

    def test_membership_matches_scan_on_large_graph(self, rng):
        n, m = 300, 10_000
        triples = np.stack(
            [rng.integers(0, n, m), rng.integers(0, 4, m), rng.integers(0, n, m)], axis=1
        )
        kg = self._kg(triples.tolist(), n_entities=n, n_relations=4)
        index = build_index(kg)
        scan = {tuple(row) for row in triples.tolist()}
        probes = np.stack(
            [rng.integers(0, n, 2000), rng.integers(0, 4, 2000), rng.integers(0, n, 2000)],
            axis=1,
        )
        for row in probes.tolist():
            assert (tuple(row) in index) == (tuple(row) in scan)

    @given(
        n_entities=st.integers(1, 7),
        n_relations=st.integers(1, 3),
        data=st.data(),
        as_numpy=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_in_is_contains_in_range_and_false_out_of_range(self, n_entities, n_relations, data, as_numpy):
        entity, relation = st.integers(0, n_entities - 1), st.integers(0, n_relations - 1)
        triples = list(dict.fromkeys(data.draw(st.lists(st.tuples(entity, relation, entity), max_size=30))))
        index = build_index(self._kg(triples, n_entities, n_relations))
        cast = np.int64 if as_numpy else int
        for triple in data.draw(st.lists(st.tuples(entity, relation, entity), max_size=20)) + triples:
            triple = tuple(map(cast, triple))
            assert (triple in index) == bool(index.contains(np.array([triple]))[0]) == (triple in set(triples))
        # out of range: contains may alias such a key onto a stored triple, ``in`` may not
        h, r, t = triples[0] if triples else (0, 0, 0)
        for triple in [(-1, r, t), (h, -1, t), (h, r, -1), (h + n_entities, r, t),
                       (h, r + n_relations, t), (h, r, t + n_entities), (h - n_entities, r + 1, t)]:
            assert tuple(map(cast, triple)) not in index

    def test_out_of_range_keys_alias_in_contains_but_not_in(self):
        # (0, 1, 0) and (1, 0, 0) share key 1 * n_entities + 0 when n_relations is 1
        index = build_index(self._kg([(1, 0, 0)], n_entities=3, n_relations=1))
        assert index.contains(np.array([(0, 1, 0)])).tolist() == [True]
        assert (0, 1, 0) not in index and (np.int64(0), np.int64(1), np.int64(0)) not in index

    @given(
        triples=st.lists(
            st.tuples(
                st.integers(0, 5), st.integers(0, 2), st.integers(0, 5)
            ),
            max_size=40,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_neighbor_queries_match_scan(self, triples):
        triples = list(dict.fromkeys(triples))
        kg = self._kg(triples, n_entities=6, n_relations=3)
        index = build_index(kg)
        for e in range(6):
            for r in range(3):
                assert index.tails(e, r) == tuple(sorted(t for h, rr, t in triples if h == e and rr == r))
                assert index.heads(e, r) == tuple(sorted(h for h, rr, t in triples if t == e and rr == r))


class TestAssembly:
    def test_duplicates_are_dropped_with_warning(self, caplog):
        schema = default_schema(1, 2, 2)
        vocab = VocabBuilder()
        a = vocab.intern("a", 0)
        b = vocab.intern("b", 0)
        with caplog.at_level(logging.WARNING):
            kg = assemble_kg(schema, vocab, {"train": [(a, 0, b), (a, 0, b)], "test": [(a, 0, b)]})
        assert len(kg.triples) == 1
        assert kg.split[0] == 0  # first occurrence (train) wins
        assert any("duplicate" in rec.message for rec in caplog.records)

    def test_first_occurrences_keep_split_then_file_order(self):
        schema = default_schema(2, 2, 2)
        vocab = VocabBuilder()
        a, b, c = (vocab.intern(name, 0) for name in "abc")
        kg = assemble_kg(schema, vocab, {
            "test": [(c, 0, a), (a, 1, b)],
            "train": [(b, 0, c), (a, 1, b), (b, 0, c)],
            "valid": [(c, 0, a), (a, 0, a)],
        })
        assert kg.triples.tolist() == [[b, 0, c], [a, 1, b], [c, 0, a], [a, 0, a]]
        assert kg.split.tolist() == [0, 0, 1, 1]

    def test_round_trip_preserves_index_sets(self, tmp_path, rng):
        schema = default_schema(3, 4, 4)
        n = 40
        rows = {(int(rng.integers(0, 12)), int(rng.integers(0, 3)), int(rng.integers(0, 12)))
                for _ in range(n)}
        vocab = VocabBuilder()
        triples = [(vocab.intern(f"e{h}", 0), r, vocab.intern(f"e{t}", 0)) for h, r, t in rows]
        kg = assemble_kg(schema, vocab, {"train": triples})
        path = tmp_path / "out.tsv"
        write_triples(kg, path, "train")
        reloaded = load_dataset(schema, path)
        index, expected = build_index(kg), {tuple(map(int, row)) for row in kg.triples}
        assert np.array_equal(build_index(reloaded).keys, index.keys)
        assert len(index.keys) == len(expected) and all(triple in index for triple in expected)

    def test_loaded_graphs_are_type_consistent(self, tmp_path, rng):
        lines = []
        for _ in range(60):
            lines.append(f"e{rng.integers(0, 20)}\tr{rng.integers(0, 2)}\te{rng.integers(0, 20)}")
        path = write(tmp_path / "t.tsv", "\n".join(lines) + "\n")
        schema = default_schema(2, 4, 4)
        kg = load_dataset(schema, path)
        kg.validate()  # would raise on any inconsistency

    def test_interning_follows_first_appearance(self, tmp_path):
        path = write(tmp_path / "t.tsv", "z\tr0\ta\na\tr0\tz\nb\tr0\tz\n")
        kg = load_dataset(default_schema(1, 2, 2), path)
        assert kg.entities == ("z", "a", "b")
