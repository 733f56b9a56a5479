"""The planted generator against its per-entity form: the same graph, splits and parameters."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sheaf_kg.errors import ConfigError
from sheaf_kg.seeds import substream
from sheaf_kg.synth import _commuting_rotation, _lattice_codes, generate_planted_kg


def planted_per_entity(n_entities, n_relations, dim, noise, seed, variant, sections):
    """``generate_planted_kg`` as written with one section and one lattice lookup per entity.

    Returns ``(triples, split, blocks, codes)``.
    """
    rng = substream(seed, "synth")
    side = 2
    while side**n_relations < max(n_entities + 1, int(1.2 * n_entities)):
        side += 1
    codes = _lattice_codes(n_entities, n_relations, side, rng)
    m = sections
    if variant == "shvt":
        translations = [rng.normal(size=(dim, m)) / np.sqrt(dim) for _ in range(n_relations)]
        base = rng.normal(size=(dim, m)) / np.sqrt(dim)
        blocks = [
            base + sum(int(c) * translations[i] for i, c in enumerate(code))
            for code in codes
        ]
    else:
        angle_sets = [rng.uniform(0.3, 2.8, size=dim // 2) for _ in range(n_relations)]
        transitions = [_commuting_rotation(dim, a) for a in angle_sets]
        for _ in range(n_relations):
            np.linalg.qr(rng.normal(size=(dim, dim)))  # the wrappers' draws
        base = rng.normal(size=(dim, m))
        base /= np.linalg.norm(base, axis=0, keepdims=True)
        blocks = []
        for code in codes:
            x = base
            for i, c in enumerate(code):
                x = np.linalg.matrix_power(transitions[i], int(c)) @ x
            blocks.append(x)
    if noise > 0:
        radius = np.sqrt(noise) / 2.0
        for i, blk in enumerate(blocks):
            bump = rng.normal(size=blk.shape)
            norm = np.linalg.norm(bump)
            if norm > 0:
                blocks[i] = blk + bump * (radius * float(rng.uniform(0, 1)) / norm)
    code_index = {tuple(int(x) for x in c): i for i, c in enumerate(codes)}
    triples = []
    for u, code in enumerate(codes):
        for r in range(n_relations):
            nxt = tuple(int(c) + (1 if i == r else 0) for i, c in enumerate(code))
            v = code_index.get(nxt)
            if v is not None:
                triples.append((u, r, v))
    if len(triples) < 3:
        return None
    triples = np.asarray(triples, dtype=np.int64)[rng.permutation(len(triples))]
    n = len(triples)
    n_held = max(1, n // 10)
    split = np.repeat(np.array([0, 1, 2], dtype=np.int8), [n - 2 * n_held, n_held, n_held])
    return triples, split, blocks, codes


def assert_same_as_per_entity(n_entities, n_relations, dim, noise, seed, variant, sections):
    expected = planted_per_entity(n_entities, n_relations, dim, noise, seed, variant, sections)
    if expected is None:
        with pytest.raises(ConfigError, match="too few triples"):
            generate_planted_kg(n_entities, n_relations, dim, noise, seed, variant, sections)
        return
    triples, split, blocks, codes = expected
    ds = generate_planted_kg(n_entities, n_relations, dim, noise, seed, variant, sections)
    np.testing.assert_array_equal(ds.kg.triples, triples, strict=True)
    np.testing.assert_array_equal(ds.kg.split, split, strict=True)
    np.testing.assert_array_equal(ds.codes, codes, strict=True)
    assert ds.generator.sections.X.tobytes() == np.stack(blocks).tobytes()
    np.testing.assert_array_equal(ds.generator.sections.dims, np.full(n_entities, dim), strict=True)


@given(
    n_entities=st.integers(2, 120),
    n_relations=st.integers(1, 5),
    dim=st.integers(2, 6),
    noise=st.sampled_from([0.0, 0.3]),
    seed=st.integers(0, 2**32 - 1),
    variant=st.sampled_from(["shv", "shvt"]),
    sections=st.sampled_from([1, 3]),
)
# the benchmark's planted shapes: d=16 may take other BLAS paths than the drawn d <= 6
@example(n_entities=2000, n_relations=5, dim=16, noise=0.0, seed=1, variant="shv", sections=1)
@example(n_entities=2000, n_relations=5, dim=16, noise=0.3, seed=1, variant="shv", sections=4)
@example(n_entities=2500, n_relations=5, dim=16, noise=0.0, seed=1, variant="shvt", sections=1)
@settings(max_examples=40, deadline=None)
def test_generator_matches_per_entity_form(n_entities, n_relations, dim, noise, seed, variant, sections):
    assert_same_as_per_entity(n_entities, n_relations, dim, noise, seed, variant, sections)


@pytest.mark.parametrize("args, message", [
    ((50.5, 3, 4, 0.0, 1), "n_entities must be an integer, got 50.5"),
    ((50, 3.0, 4, 0.0, 1), "n_relations must be an integer, got 3.0"),
    ((50, 3, 4.0, 0.0, 1), "dim must be an integer, got 4.0"),
    ((50, 3, 4, 0.0, 1.5), "seed must be an integer, got 1.5"),
    ((50, 3, 4, 0.0, 1, "shvt", True), "sections must be an integer, got True"),
])
def test_non_integer_sizes_and_seed_rejected(args, message):
    # the four floats once ended in a builtins TypeError
    with pytest.raises(ConfigError, match=message):
        generate_planted_kg(*args)


@pytest.mark.parametrize("noise", ["x", None, True, np.float32(0.0)])
def test_non_float_noise_rejected(noise):
    # noise="x" once ended in a builtins TypeError from the range check
    with pytest.raises(ConfigError, match=re.escape(f"noise must be a float, got {noise!r}")):
        generate_planted_kg(50, 3, 4, noise, 1)


def test_integer_noise_is_its_float():
    ds, want = generate_planted_kg(50, 3, 4, 0, 1), generate_planted_kg(50, 3, 4, 0.0, 1)
    np.testing.assert_array_equal(ds.kg.triples, want.kg.triples)


@pytest.mark.parametrize("n_relations", [63, 70])
def test_lattice_wider_than_an_int64_key(n_relations):
    # 2 ** n_relations lattice points: no key of the codes fits in 64 bits
    assert_same_as_per_entity(40, n_relations, 2, 0.0, 3, "shvt", 1)
