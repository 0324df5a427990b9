import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

import planeforge.embedding as embedding_module
from planeforge import (
    PreconditionError,
    are_isomorphic,
    build_generic,
    embeddings,
    enumerate_planes,
    find_embedding,
    make_plane,
    restrict,
)

from .conftest import random_plane
from .oracles import oracle_embeddings, oracle_placement_order
from .test_predim import AG23


def count(it):
    return sum(1 for _ in it)


def test_pair_embeds_everywhere(fano):
    pair = make_plane("xy")
    assert count(embeddings(pair, fano)) == 7 * 6


def test_line_onto_lines(fano):
    tri = make_plane("abc", ["abc"])
    assert count(embeddings(tri, fano)) == 7 * 6  # 7 lines, 3! orderings


def test_free_triangle_avoids_lines(fano):
    free = make_plane("abc")
    # ordered non-collinear triples
    assert count(embeddings(free, fano)) == 7 * 6 * 5 - 7 * 6


def test_induced_means_no_extra_collinearity():
    sup = make_plane("abcd", [["a", "b", "c"]])
    free = make_plane("xyz")
    images = {frozenset(m.values()) for m in embeddings(free, sup)}
    assert frozenset("abc") not in images
    assert frozenset("abd") in images


def test_automorphism_counts(fano, fig2):
    assert count(embeddings(fano, fano)) == 168
    assert count(embeddings(fig2, fig2)) == 6
    assert count(embeddings(AG23, AG23)) == 432


def test_fixed_prefix(fig2):
    # automorphisms of fig2 permute the three private points a, b, c
    hits = list(embeddings(fig2, fig2, fixed={"a": "c"}))
    assert len(hits) == 2
    for m in hits:
        assert m["a"] == "c"

    # contradictory fixture yields nothing, quietly
    assert count(embeddings(fig2, fig2, fixed={"a": "a", "b": "a"})) == 0


def test_fixed_guards(fig2):
    with pytest.raises(PreconditionError):
        next(embeddings(fig2, fig2, fixed={"zz": "a"}))
    with pytest.raises(PreconditionError):
        next(embeddings(fig2, fig2, fixed={"a": "zz"}))


def test_no_embedding_cases(fano, fig2, nd10):
    assert find_embedding(fano, fig2) is None        # too big
    assert find_embedding(fano, AG23) is None        # not enough surviving lines
    assert find_embedding(make_plane("abc", ["abc"]), make_plane("xyz")) is None


def test_fixed_embedding_succeeds(nd10):
    p = sorted(nd10.points)[0]
    m = find_embedding(nd10, nd10, fixed={p: p})
    assert m is not None and m[p] == p


def test_are_isomorphic_basics(fano, fig2):
    assert are_isomorphic(fano, fano)
    assert not are_isomorphic(fano, fig2)
    assert not are_isomorphic(make_plane("abc"), make_plane("abc", ["abc"]))
    assert not are_isomorphic(make_plane("ab"), make_plane("abc"))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_isomorphism_survives_relabelling(seed):
    rng = random.Random(seed)
    plane = random_plane(rng, max_points=8)
    names = sorted(plane.points)
    perm = names[:]
    rng.shuffle(perm)
    rho = dict(zip(names, perm))
    other = make_plane(
        [rho[p] for p in names],
        [[rho[p] for p in line] for line in plane.lines],
    )
    assert are_isomorphic(plane, other)
    assert are_isomorphic(other, plane)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_embeddings_are_induced(seed):
    rng = random.Random(seed)
    sup = random_plane(rng, max_points=8)
    sub_pts = frozenset(p for p in sorted(sup.points) if rng.random() < 0.5)
    sub = restrict(sup, sub_pts)
    seen = 0
    for m in embeddings(sub, sup):
        seen += 1
        image = frozenset(m.values())
        assert restrict(sup, image).lines == frozenset(
            frozenset(m[p] for p in line) for line in sub.lines
        )
        if seen >= 20:
            break
    assert seen >= 1  # the identity embedding always exists


def _seeded_cases():
    """(sub, sup, fixed) triples small enough for the brute-force oracle.

    Census planes of at most four points go into seeded census targets of
    five to seven points; then come seeded random pairs, half of them an
    induced subplane and its host, each followed by fixed prefixes that are
    drawn at random (often contradictory), map two points to one target
    (never injective) or agree with the identity.
    """
    rng = random.Random(5)
    targets = rng.sample([p for p in enumerate_planes(7) if p.n_points >= 5], 6)
    for sub in enumerate_planes(4):
        for sup in targets:
            yield sub, sup, None
    for _ in range(100):
        sup = random_plane(rng, max_points=7)
        if rng.random() < 0.5:
            pts = sorted(sup.points)
            sub = restrict(sup, rng.sample(pts, rng.randint(0, min(5, len(pts)))))
        else:
            sub = random_plane(rng, max_points=5)
        yield sub, sup, None
        if not sub.points or sub.n_points > sup.n_points:
            continue
        images = sorted(sup.points)
        keys = rng.sample(sorted(sub.points), rng.randint(1, min(3, sub.n_points)))
        yield sub, sup, {p: rng.choice(images) for p in keys}
        if len(keys) >= 2:
            yield sub, sup, {keys[0]: images[0], keys[1]: images[0]}
        if sub.points <= sup.points:
            yield sub, sup, {p: p for p in keys}


def _as_items(mappings):
    return [sorted(m.items()) for m in mappings]


def test_embeddings_match_oracle():
    for sub, sup, fixed in _seeded_cases():
        got = _as_items(embeddings(sub, sup, fixed))
        want = _as_items(oracle_embeddings(sub, sup, fixed))
        assert sorted(got) == sorted(want), (sub, sup, fixed)


def test_enumeration_order_is_pinned():
    # The digest fixes which embedding comes first, and so what
    # find_embedding returns and what `planeforge embed` prints.
    digest = hashlib.sha256()
    for sub, sup, fixed in _seeded_cases():
        digest.update(repr(_as_items(embeddings(sub, sup, fixed))).encode())
        digest.update(b"\n")
    assert digest.hexdigest() == "3f1acd1ce8fedcea4d6a510f10534df19ade604203c6f5173e89486c871c854c"


def test_placement_order_matches_pair_count_oracle():
    rng = random.Random(30)
    planes = [random_plane(rng) for _ in range(150)]
    planes += list(enumerate_planes(5)) + [build_generic(40, 2).final]
    for sub in planes:
        pts = sorted(sub.points)
        for size in {0, rng.randint(0, len(pts)), rng.randint(0, len(pts))}:
            fixed = frozenset(rng.sample(pts, size))
            got = embedding_module._placement_order(sub, fixed)
            assert got == oracle_placement_order(sub, fixed), (sub, fixed)


def test_search_prunes_dense_targets(monkeypatch, fano):
    # Every pair of AG(2,3) lies on a line, so pair tests alone never prune.
    calls = 0
    consistent = embedding_module._consistent

    def counted(*args):
        nonlocal calls
        calls += 1
        return consistent(*args)

    monkeypatch.setattr(embedding_module, "_consistent", counted)
    assert find_embedding(fano, AG23) is None
    assert calls <= 20_000
    calls = 0
    assert count(embeddings(AG23, AG23)) == 432
    assert calls <= 20_000
