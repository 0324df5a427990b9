import copy
import hashlib
import inspect
import pickle
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from itertools import combinations

import pytest

import planeforge.amalgam as amalgam_mod
import planeforge.generic as generic_mod
import planeforge.plane as plane_mod
import planeforge.predim as predim_mod
import planeforge.step as step_mod
from planeforge import (
    BudgetExceeded,
    InvalidPlaneError,
    NotStrong,
    PlaneError,
    PreconditionError,
    WITNESSES,
    are_isomorphic,
    build_generic,
    check_genericity,
    delta,
    enumerate_planes,
    figure2_plane,
    find_embedding,
    in_K0,
    is_strong,
    iterated_amalgam,
    make_plane,
    morley_chain,
    non_desarguesian_plane,
    restrict,
    validate,
    witness_non_desarguesian,
    witness_not_one_based,
    witness_weak_ei,
)
from planeforge.census import CENSUS_CAP, EXTENSION_CAP, canonical_labeling
from planeforge.generic import plane_label
from planeforge.plane import Plane
from planeforge.planefile import serialize_plane

from .conftest import library_env, random_lines
from .test_predim import AG23


def test_plane_label(fig2):
    assert plane_label(make_plane(())) == "0p"
    assert plane_label(make_plane("ab")) == "2p"
    assert plane_label(fig2) == "6p[a d f;b e f;c d e]"


# --- builder ------------------------------------------------------------------


def test_build_zero_steps():
    chain = build_generic(0, 2)
    assert chain.steps == ()
    assert chain.stages == (make_plane(()),)
    assert chain.final.points == frozenset()


def test_build_guards():
    with pytest.raises(PreconditionError):
        build_generic(-1, 2)
    with pytest.raises(PreconditionError):
        build_generic(1, 0)
    with pytest.raises(BudgetExceeded):
        build_generic(1, 5)


def test_build_is_deterministic():
    a = build_generic(8, 2)
    b = build_generic(8, 2)
    assert a.stages == b.stages
    assert [r.base for r in a.steps] == [r.base for r in b.steps]
    assert [r.added for r in a.steps] == [r.added for r in b.steps]


def test_build_chain_shape():
    chain = build_generic(10, 2)
    assert len(chain.steps) == 10
    assert len(chain.stages) == 11
    for i, record in enumerate(chain.steps):
        assert record.index == i
        before, after = chain.stages[i], chain.stages[i + 1]
        assert before.points < after.points
        assert record.base <= before.points
        assert record.added == after.points - before.points
        assert all(p.startswith("x") for p in record.added)
        assert record.template_label == plane_label(record.template)
        # the glued copy sits inside the new stage exactly as the template says
        assert are_isomorphic(
            restrict(after, record.base | record.added), record.template
        )


def test_build_stages_stay_strong_and_nonnegative():
    chain = build_generic(10, 2)
    final = chain.final
    assert in_K0(final)
    deltas = [delta(stage) for stage in chain.stages]
    assert deltas == sorted(deltas)  # strong steps never lower delta
    for stage in chain.stages:
        assert is_strong(final, stage.points)


def test_build_first_step_is_single_point():
    chain = build_generic(1, 1)
    assert chain.final.points == frozenset({"x1"})
    assert chain.final.lines == frozenset()


def test_build_with_seed(nd10):
    chain = build_generic(1, 2, seeds=[nd10])
    assert are_isomorphic(chain.final, nd10)
    assert chain.steps[0].base == frozenset()
    assert len(chain.steps[0].added) == 10


def test_build_seed_validation():
    with pytest.raises(PreconditionError):
        build_generic(1, 2, seeds=[AG23])  # delta-negative seed
    broken = make_plane("ab", [["a", "b"]])
    with pytest.raises(InvalidPlaneError):
        build_generic(1, 2, seeds=[broken])


def test_build_seed_respects_step_budget(nd10):
    chain = build_generic(0, 2, seeds=[nd10])
    assert chain.steps == ()


def _chain_digest(chain) -> str:
    h = hashlib.sha256()
    for i, stage in enumerate(chain.stages):
        h.update(serialize_plane(f"s{i}", stage).encode())
    for step in chain.steps:
        h.update(
            repr((sorted(step.base), sorted(step.added), step.template_label)).encode()
        )
    return h.hexdigest()


@pytest.mark.parametrize(
    "steps, ext_bound, digest",
    [
        # (base size, new size) up to (4, 2): several bases and new sizes interleave
        (60, 2, "cb6e491778eb8579dad019551bbeb9c45cc2df74e2edac450768afac99df1263"),
        # (base size, new size) through (0, 3) ... (3, 3)
        (120, 3, "d489acff3ec263063565743d98ad4f9c4f1f3aba784e54a2286ef1ac5cca3356"),
    ],
)
def test_build_firing_order_is_pinned(steps, ext_bound, digest):
    # Every stage and every (base, added, template) step, in firing order.
    assert _chain_digest(build_generic(steps, ext_bound)) == digest


def test_seeded_build_firing_order_is_pinned(nd10):
    # The 10-point seed, then on into tier 6: an 886-point, 222-line stage.
    chain = build_generic(500, 2, seeds=[nd10])
    assert (len(chain.final.points), len(chain.final.lines)) == (886, 222)
    assert _chain_digest(chain) == (
        "566c5b6c3add28a57bb1f103b6e71b626f8c5350632ca358b1a419b2e88e598f"
    )


def test_build_ends_when_the_tiers_run_out():
    # With ext_bound 1 the sweep goes through tier CENSUS_CAP = 7, the last
    # tier the census can list, and ends when a round past it fires
    # nothing: 412 of the 487 pairs fire, and the 75 whose base type (one of
    # 7) no glued copy has stay pushed back.
    chain = build_generic(100_000, 1)
    assert len(chain.steps) == 412
    assert _chain_digest(chain) == (
        "af42c34f9bef7b0c3b7017138b1cf34bb1b12cdceb6955cb0c1691168a380112"
    )


def test_budget_errors_inside_a_tier_propagate(monkeypatch):
    # The sweep stops at the census cap by count, not on an exception, so a
    # tier that runs out of budget fails the build instead of ending it.
    exactly = generic_mod._strong_extensions_exactly

    def capped(base, m):
        if len(base.points) == 3:
            raise BudgetExceeded("tier 3 over budget")
        return exactly(base, m)

    monkeypatch.setattr(generic_mod, "_strong_extensions_exactly", capped)
    with pytest.raises(BudgetExceeded, match="tier 3 over budget"):
        build_generic(100, 1)


def test_tiers_are_enumerated_lazily(monkeypatch, nd10):
    # This build stops inside tier 6's (base size 6, new size 1) group, so
    # the 2-point extensions of 6-point bases are never needed.  Each
    # (base, new size) group enumerates its own size only, once.
    calls = []
    exactly = generic_mod._strong_extensions_exactly

    def counted(base, m):
        calls.append((base, m))
        for template in exactly(base, m):
            assert len(template.points) == len(base.points) + m
            yield template

    monkeypatch.setattr(generic_mod, "_strong_extensions_exactly", counted)
    build_generic(470, 2, seeds=[nd10])
    sizes = [(len(base.points), m) for base, m in calls]
    assert (6, 1) in sizes
    assert (6, 2) not in sizes
    assert len(set(calls)) == len(calls)


def test_tiers_solve_no_flow(monkeypatch):
    # Census bases are valid and in K0 by construction, and the templates'
    # strength is decided while they are generated.
    enumerate_planes(CENSUS_CAP)
    solves = []
    min_delta = predim_mod._min_delta

    def counted(*args, **kwargs):
        solves.append(args)
        return min_delta(*args, **kwargs)

    monkeypatch.setattr(predim_mod, "_min_delta", counted)
    pairs = sum(1 for t in range(CENSUS_CAP + 1) for _ in generic_mod._tier_pairs(t, 2))
    assert pairs == 6090
    assert solves == []


def test_tier_steps_solve_no_min_cut(monkeypatch, nd10):
    # A tier step adds at most ext_bound points, so its strength takes the
    # slack test; only a seed's step of more than EXTENSION_CAP points, and
    # the seed's in_K0 check, solve a min-cut.
    enumerate_planes(CENSUS_CAP)
    solves = []
    min_delta = predim_mod._min_delta

    def counted(*args, **kwargs):
        solves.append(args)
        return min_delta(*args, **kwargs)

    monkeypatch.setattr(predim_mod, "_min_delta", counted)
    build_generic(500, 2)
    assert solves == []
    build_generic(500, 2, seeds=[nd10])
    assert len(nd10.points) > EXTENSION_CAP
    assert len(solves) == 2


def test_build_never_rechecks_a_stage(monkeypatch, nd10):
    # Each stage is a canonical amalgam, valid by proof: the build keeps its
    # stage as sets, never as a plane to check, and the replayed stages are
    # marked valid.  The full structural check runs once per seed and glued
    # copy, and reading the stages runs it on none.
    checked = []
    check = plane_mod._check_structure

    def counted(plane):
        checked.append(plane)  # held, so no id is reused
        check(plane)

    monkeypatch.setattr(plane_mod, "_check_structure", counted)
    chain = build_generic(200, 2, seeds=[nd10])
    assert len(checked) == 1 + 200  # seed, one copy per step
    ids = [id(p) for p in checked]
    assert len(set(ids)) == len(ids)  # no plane checked twice
    stages = chain.stages
    assert len(stages) == 1 + 200
    assert len(checked) == 1 + 200  # the replay checks nothing
    assert all(stage.__dict__.get("_valid") for stage in (*stages, chain.final))


# A two-step build (the ten-point seed, then two free points) whose second
# step is corrupted after the glue (step._glued, as generic calls it): each
# case adds new lines and (old line, gain) extensions to the step data.  fire
# must reject it with the message given.  A case marked as on the seed step
# corrupts the first step instead, whose ten new points take the min-cut.
CORRUPTED_SUCCESSORS = """
from planeforge import PlaneError, build_generic, generic, make_plane
from planeforge import non_desarguesian_plane

ND10 = non_desarguesian_plane()
# fire names the seed's points x1 ... x10 in sorted order
X = {p: f"x{i}" for i, p in enumerate(sorted(ND10.points), 1)}
AXIS = frozenset(X[p] for p in ("c12", "c13", "c23"))  # on no old line
OLD = frozenset(X[p] for p in ("a1", "a2", "c12"))  # an old line
NOT_INDUCED = "stage not induced in successor"
CASES = {  # name: (message, new lines also added, (old line, gain) also extended)
    # x11 on two new lines through old pairs: delta drops by one
    "not-strong": (
        "stage not strong in successor",
        (
            frozenset({X["c12"], X["c13"], "x11"}),
            frozenset({X["c23"], X["o"], "x11"}),
        ),
        (),
    ),
    # the seed with the line o c12 c13 c23 has delta -1, so the empty
    # stage is not strong in it
    "not-strong-on-the-seed-step": (
        "stage not strong in successor",
        (AXIS | {X["o"]},),
        (),
        True,
    ),
    "line-on-three-old-points": (NOT_INDUCED, (AXIS,), ()),
    "two-lines-extend-an-old-line": (
        NOT_INDUCED,
        (),
        ((OLD, {"x11"}), (OLD, {"x12"})),
    ),
    "gains-an-old-point": (NOT_INDUCED, (), ((OLD, {X["o"]}),)),
}

REAL_GLUE = generic._glued


def corrupting(new_lines, extended, seed_step=False):
    def glue(old, lines, meeting, copy, c):
        added, new, grown = REAL_GLUE(old, lines, meeting, copy, c)
        if bool(old) == seed_step:  # the step not corrupted: keep it
            return added, new, grown
        more = tuple((lines.index(line), frozenset(gain)) for line, gain in extended)
        return added, new + new_lines, grown + more

    return glue


def build():
    build_generic(2, 2, seeds=[ND10, make_plane(["y", "z"])])


if __name__ == "__main__":
    for name, (message, *corruption) in CASES.items():
        generic._glued = corrupting(*corruption)
        try:
            build()
        except PlaneError as exc:
            print(f"{name}: {exc}")
"""

_CORRUPTED = {"__name__": "corrupted_successors"}  # not __main__: defines only
exec(CORRUPTED_SUCCESSORS, _CORRUPTED)


@pytest.mark.parametrize("case", sorted(_CORRUPTED["CASES"]))
def test_fire_rejects_a_successor_not_strong_or_not_induced(monkeypatch, case):
    message, *corruption = _CORRUPTED["CASES"][case]
    monkeypatch.setattr(generic_mod, "_glued", _CORRUPTED["corrupting"](*corruption))
    with pytest.raises(PlaneError, match=f"^builder invariant broken: {message}$"):
        _CORRUPTED["build"]()


def test_fire_rejects_corrupted_successors_under_optimize():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", CORRUPTED_SUCCESSORS],
        capture_output=True, text=True, env=library_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"{name}: builder invariant broken: {message}"
        for name, (message, *_) in _CORRUPTED["CASES"].items()
    ]


def test_build_stages_keep_no_incidence_index(nd10):
    chain = build_generic(200, 2, seeds=[nd10])
    assert not any("lines_through" in stage.__dict__ for stage in chain.stages)


def test_fire_rejects_a_successor_that_drops_stage_points(monkeypatch):
    # A free point, then two more; the second step lists x1, a stage point,
    # as new, so the copy would take it over.  x1 is on no line, so neither
    # the strength nor the inducedness check sees it.
    glue = generic_mod._glued

    def dropping(old, lines, meeting, copy, c):
        added, new_lines, extended = glue(old, lines, meeting, copy, c)
        return added | frozenset(old), new_lines, extended

    monkeypatch.setattr(generic_mod, "_glued", dropping)
    with pytest.raises(
        PlaneError, match="^builder invariant broken: successor drops stage points$"
    ):
        build_generic(2, 1, seeds=[make_plane(["a"]), make_plane(["y", "z"])])


@pytest.mark.parametrize(
    "steps, ext_bound, seeded", [(200, 2, True), (120, 3, False), (500, 2, True)]
)
def test_strength_on_the_steps_lines_matches_the_whole_stage(
    monkeypatch, steps, ext_bound, seeded, nd10
):
    # The builder's own verdict on each step, from its new lines and the
    # old lines it extends, against each stage in its successor; and the
    # stage less the step's base, which is mostly not strong there, from
    # whole lines.
    strong_over, builder = generic_mod._strong_over, []

    def spied(*args):
        builder.append(strong_over(*args))
        return builder[-1]

    monkeypatch.setattr(generic_mod, "_strong_over", spied)
    chain = build_generic(steps, ext_bound, seeds=[nd10] if seeded else [])
    assert len(builder) == steps
    verdicts = Counter()
    for old, new, step, local in zip(chain.stages, chain.stages[1:], chain.steps, builder):
        assert local == is_strong(new, old.points), step.index
        verdicts[local] += 1
        sub = old.points - step.base
        local = strong_over(sub, new.points - sub, tuple(new.lines - restrict(new, sub).lines))
        assert local == is_strong(new, sub), step.index
        verdicts[local] += 1
    assert verdicts[True] >= steps and verdicts[False] > 0


def test_strength_on_added_lines_matches_on_random_subplanes():
    # Any old plane on a subset will do, lines or not: a line the two share
    # lies inside the subset.
    rng = random.Random(20)
    verdicts = Counter()
    for _ in range(200):
        points = [f"p{i}" for i in range(rng.randint(3, 10))]
        plane = make_plane(points, random_lines(rng, points, 12))
        subset = frozenset(p for p in points if rng.random() < 0.7)
        for old in (restrict(plane, subset), make_plane(subset)):
            added = tuple(plane.lines - old.lines)
            local = generic_mod._strong_over(subset, plane.points - subset, added)
            assert local == is_strong(plane, subset), (plane, subset)
            verdicts[local] += 1
    assert min(verdicts[True], verdicts[False]) >= 50


def _random_step(rng, m):
    """A random valid step adding the new points n0 ... n(m-1) to a plane
    with two old lines of 30-60 points: (old points, new plane, added lines,
    (old line, gain) pairs for the long lines that gained new points).

    Each long line may take up to two new points; n0 is on up to 150 added
    lines through pairs of free old points, more than 128 in about one step
    of six; a few short lines mix new and old points.  A candidate that
    would put a pair on two lines is skipped.
    """
    k1, k2 = rng.randint(30, 60), rng.randint(30, 60)
    old = [f"o{i}" for i in range(k1 + k2 + 300)]
    new = [f"n{i}" for i in range(m)]
    covered = set()  # the pairs on some line

    def put(line, kept=frozenset()):
        """Add ``line`` if its pairs outside ``kept`` are on no line yet."""
        pairs = {frozenset(pq) for pq in combinations(line, 2)} - {
            frozenset(pq) for pq in combinations(kept, 2)
        }
        if covered.isdisjoint(pairs):
            covered.update(pairs)
            return frozenset(line)
        return None

    long_lines = [put(old[:k1]), put(old[k1 - 1 : k1 - 1 + k2])]
    free = old[k1 - 1 + k2 :]  # on no old line
    lines = set(long_lines)
    added, extended = [], []
    for line in long_lines:
        grown = put(line | set(rng.sample(new, rng.randint(0, 2))), kept=line)
        if grown is not None and grown != line:
            lines.remove(line)
            added.append(grown)
            extended.append((line, grown - line))
    for i in range(rng.choice([0, 0, 1, 2, rng.randint(3, 20), rng.randint(129, 150)])):
        added.append(put({new[0], free[2 * i], free[2 * i + 1]}))  # all fresh pairs
    for _ in range(rng.randint(0, 4)):
        pts = rng.sample(new, rng.randint(1, m)) + rng.sample(old, rng.randint(0, 2))
        line = put(pts) if len(pts) >= 3 else None
        if line is not None:
            added.append(line)
    plane = make_plane(old + new, [*lines, *added])
    return frozenset(old), plane, tuple(added), extended


@pytest.mark.parametrize("m", [EXTENSION_CAP, EXTENSION_CAP + 1])
def test_slack_strength_matches_is_strong_at_its_edges(m):
    # EXTENSION_CAP new points take the slack test, one more the min-cut.
    # More than 128 added lines through one new point lose more than a
    # packed byte field holds, so the slack must be checked line by line.
    # The long lines that gained new points count alike as whole added
    # lines and as (old line, gain) pairs, as the builder passes them.
    rng = random.Random(4000 + m)
    verdicts = Counter()
    for _ in range(60):
        old, plane, added, extended = _random_step(rng, m)
        validate(plane)
        new = plane.points - old
        local = generic_mod._strong_over(old, new, added)
        assert local == is_strong(plane, old), sorted(map(sorted, added))
        whole = {line | gain for line, gain in extended}
        rest = tuple(line for line in added if line not in whole)
        assert generic_mod._strong_over(old, new, rest, extended) == local
        verdicts[local] += 1
    assert min(verdicts[True], verdicts[False]) >= 10, verdicts


def test_registry_labels_lazily_and_keeps_the_first_copy_of_each_type(monkeypatch, nd10):
    builders, offered = [], []
    init, register = generic_mod._Builder.__init__, generic_mod._Builder._register

    def capture(builder, ext_bound):
        builders.append(builder)
        init(builder, ext_bound)

    def record(builder, copy):
        offered.append(copy)
        register(builder, copy)

    monkeypatch.setattr(generic_mod._Builder, "__init__", capture)
    monkeypatch.setattr(generic_mod._Builder, "_register", record)
    build_generic(500, 2, seeds=[nd10])
    (builder,) = builders
    eager = {}  # every offered copy labelled when offered, first of each key kept
    for copy in offered:
        if len(copy.points) <= CENSUS_CAP:
            key, label = canonical_labeling(copy)
            eager.setdefault(key, (copy.points, {i: p for p, i in label.items()}))
    assert builder.instances.items() <= eager.items()
    assert len(builder.instances) < len(eager)
    for key, value in eager.items():
        assert builder.instance(key) == value
    assert builder.instances == eager


def test_seeded_build_labels_no_seven_point_plane(monkeypatch, nd10):
    # The build stops inside tier 6, so no 7-point base is ever asked for.
    sizes = Counter()
    labeling = generic_mod.canonical_labeling

    def counted(plane):
        sizes[len(plane.points)] += 1
        return labeling(plane)

    monkeypatch.setattr(generic_mod, "canonical_labeling", counted)
    build_generic(500, 2, seeds=[nd10])
    assert sizes[6] > 0
    assert sizes[7] == 0


def test_seeded_build_labels_only_copies_of_the_asked_shape(monkeypatch, nd10):
    # A key fixes its point count and line sizes, so only queued copies of
    # that shape are labelled: 23 here, against 142 when every queued copy
    # of the key's point count could be.
    offered, labelled = {}, []  # held, so no id is reused
    register, labeling = generic_mod._Builder._register, generic_mod.canonical_labeling

    def record(builder, copy):
        offered[id(copy)] = copy
        register(builder, copy)

    def counted(plane):
        labelled.append(plane)
        return labeling(plane)

    monkeypatch.setattr(generic_mod._Builder, "_register", record)
    monkeypatch.setattr(generic_mod, "canonical_labeling", counted)
    build_generic(500, 2, seeds=[nd10])
    copies = [plane for plane in labelled if id(plane) in offered]
    assert 0 < len(copies) <= 25


@pytest.mark.parametrize(
    "steps, ext_bound, seeded", [(200, 2, True), (120, 3, False), (500, 2, True)]
)
def test_index_fed_glue_matches_a_pass_over_the_stage(
    monkeypatch, steps, ext_bound, seeded, nd10
):
    # The builder hands the glue the ids of the stage lines through the base
    # from its own index; they, their traces and the wedge verdict must be
    # those of a pass over every stage line.
    glue = generic_mod._glued
    based = Counter()

    def checked(old, lines, meeting, copy, c):
        every = [frozenset(line) for line in lines]
        assert meeting == {i for i, line in enumerate(every) if len(line & c) >= 2}
        local = {c & lines[i]: i for i in meeting}
        traces, wedge = amalgam_mod._based_among(every, c)
        assert local.keys() == traces.keys()
        assert step_mod._wedge(local, lines) == wedge
        based[len(local)] += 1
        return glue(old, lines, meeting, copy, c)

    monkeypatch.setattr(generic_mod, "_glued", checked)
    build_generic(steps, ext_bound, seeds=[nd10] if seeded else [])
    assert sum(based.values()) == steps
    assert based[0] < steps and max(based) >= 3


def test_pairwise_wedge_matches_the_pass_over_every_line():
    # step._wedge walks only the pairs of lines meeting C twice whose traces on C
    # are disjoint; on valid planes it must agree with the union pass.
    rng = random.Random(47)
    verdicts = Counter()
    for _ in range(400):
        points = [f"p{i}" for i in range(rng.randint(4, 12))]
        lines = random_lines(rng, points, 16)
        c = frozenset(rng.sample(points, rng.randint(2, len(points) - 1)))
        based = {c & line: i for i, line in enumerate(lines) if len(c & line) >= 2}
        local = step_mod._wedge(based, lines)
        assert local == amalgam_mod._based_among(lines, c)[1], (lines, c)
        verdicts[local] += 1
    assert min(verdicts.values()) >= 50, verdicts


def _lines_digest(chain) -> str:
    h = hashlib.sha256()
    for step in chain.changes():
        h.update(
            repr(
                (
                    sorted(map(sorted, step.added_lines)),
                    sorted(map(sorted, step.dropped_lines)),
                    sorted((sorted(x), sorted(y)) for x, y in step.identified),
                )
            ).encode()
        )
    return h.hexdigest()


def test_step_lines_replay_as_pinned():
    # Every step's added, dropped and identified lines, replayed from the
    # records, as the builder stored them whole before the records kept
    # line ids.
    assert _lines_digest(build_generic(2000, 3)) == (
        "2a6f28fc42a43507f161e788a2160e0c4d125b6258be6e181a85d6554833dd76"
    )


@pytest.mark.parametrize("steps, ext_bound, incidences", [(5000, 3, 19575), (1000, 2, 2438)])
def test_records_hold_each_incidence_once(steps, ext_bound, incidences):
    # A record holds its new lines and the points its extended lines gained:
    # every incidence of the final plane once.  Kept as whole lines, the
    # added, dropped and identified lines held 2,950,607 and 107,165.
    chain = build_generic(steps, ext_bound)
    held = sum(
        sum(map(len, rec.new_lines)) + sum(len(gain) for _, gain in rec.extended)
        for rec in chain.steps
    )
    assert held == sum(map(len, chain.final.lines)) == incidences


HASH_SEEDED_BUILD = """
import hashlib
from planeforge import build_generic, non_desarguesian_plane
from planeforge.planefile import serialize_plane
""" + inspect.getsource(_chain_digest) + """
print(_chain_digest(build_generic(500, 2, seeds=[non_desarguesian_plane()])))
"""


def test_seeded_build_does_not_depend_on_the_hash_seed():
    # The builder iterates sets of lines and points; string hashing, and so
    # their order, changes with PYTHONHASHSEED.  Both runs must give the
    # digest pinned in test_seeded_build_firing_order_is_pinned.
    pinned = "566c5b6c3add28a57bb1f103b6e71b626f8c5350632ca358b1a419b2e88e598f"
    for hash_seed in ("0", "1"):
        env = {**library_env(), "PYTHONHASHSEED": hash_seed}
        proc = subprocess.run(
            [sys.executable, "-c", HASH_SEEDED_BUILD],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [pinned], hash_seed


def test_build_memory_grows_with_the_steps_not_the_stages(nd10):
    # The chain keeps the last stage and the steps, not every stage: keeping
    # all 1,001 stages of this build took a 60 MB peak.
    enumerate_planes(CENSUS_CAP)
    tracemalloc.start()
    try:
        chain = build_generic(1000, 2, seeds=[nd10])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(chain.final.points) == 1856
    assert peak <= 10 * 2**20


def test_queue_past_the_last_tier_holds_only_pending_shapes(monkeypatch):
    # Past tier CENSUS_CAP only the pushed-back pairs ask for bases, so the
    # queued copies of every other shape are dropped, and none is queued.
    builders = []
    init = generic_mod._Builder.__init__

    def capture(builder, ext_bound):
        builders.append(builder)
        init(builder, ext_bound)

    monkeypatch.setattr(generic_mod._Builder, "__init__", capture)
    build_generic(100_000, 1)  # runs past the last tier
    (builder,) = builders
    pending = {  # the shapes of the 75 pairs whose base type never turned up
        generic_mod._shape(*pair.base_key)
        for tier in range(CENSUS_CAP + 1)
        for pair in generic_mod._tier_pairs(tier, 1)
        if pair.base_key not in builder.instances
    }
    assert len(pending) == 6
    assert builder.wanted == pending
    assert set(builder.queued) <= pending
    builder._register(make_plane("abc"))  # a shape no pending pair has
    assert set(builder.queued) <= pending


# --- genericity audit -----------------------------------------------------------


def test_audit_radius_zero_is_vacuous(fig2):
    report = check_genericity(fig2, 0)
    assert report.rows == ()
    assert report.passed
    assert report.realization_rate == 1.0
    assert report.icl_subsets_checked == 1  # just the empty set


def test_audit_fano_fails_radius_one(fano):
    report = check_genericity(fano, 1)
    assert not report.passed
    labels = {(r.base_label, r.ext_label) for r in report.rows}
    assert labels == {("0p", "1p"), ("1p", "2p")}
    assert all(not r.realized for r in report.rows)
    assert report.realization_rate == 0.0
    # every singleton closure swallows the whole plane
    assert report.max_icl_size == 7
    assert report.frontier_sets == 7
    assert report.icl_subsets_checked == 8
    text = report.text()
    assert "types_unrealized: 2" in text
    assert "unrealized: 0p -> 1p" in text
    assert "unrealized: 1p -> 2p" in text


def test_audit_empty_plane_fails_radius_one():
    report = check_genericity(make_plane(()), 1)
    assert not report.passed
    assert [r.ext_label for r in report.unrealized] == ["1p", "2p"]
    assert report.frontier_sets == 0
    assert report.max_icl_size == 0
    assert "max_icl_subset: -" in report.text()


def test_audit_small_build_passes_radius_one():
    stage = build_generic(12, 2).final
    report = check_genericity(stage, 1)
    assert report.passed
    assert report.realization_rate == 1.0
    assert report.rows and all(r.base_points is not None for r in report.rows)
    assert all(r.image_points is not None for r in report.rows)


def test_audit_rows_carry_witness_subsets():
    stage = build_generic(12, 2).final
    report = check_genericity(stage, 1)
    for row in report.rows:
        assert row.realized
        assert row.base_points <= row.image_points <= stage.points
        assert is_strong(stage, row.image_points)


def test_audit_per_subset_mode(fig2):
    report = check_genericity(fig2, 1, per_subset=True)
    assert report.subset_pairs_checked == 7
    assert report.subset_pairs_realized == 7
    assert "subset_pairs_checked: 7" in report.text()


def test_audit_decides_each_instance_and_template_once(monkeypatch, fig2):
    # per_subset tries every (instance, template) pair once, in the same walk
    # that finds the witnesses, so its rows are those of the plain audit
    calls = 0
    realize = generic_mod._realize_over

    def counted(*args):
        nonlocal calls
        calls += 1
        return realize(*args)

    monkeypatch.setattr(generic_mod, "_realize_over", counted)
    plain = check_genericity(fig2, 2)
    assert calls == 44
    calls = 0
    full = check_genericity(fig2, 2, per_subset=True)
    assert calls == full.subset_pairs_checked == 125
    assert full.subset_pairs_realized == 83
    assert full.rows == plain.rows


def test_audit_per_subset_budget(monkeypatch):
    # The guard counts the (subset, template) pairs the walk may try: at
    # radius 1 one template over each of the empty and the one-point base,
    # so 1 + n pairs, against 2**3.
    monkeypatch.setenv("PLANEFORGE_BUDGET", "3")
    message = (
        r"^per-subset genericity audit: 10 subset-template pairs exceed the "
        r"subset budget \(budget 3; raise PLANEFORGE_BUDGET to override\)$"
    )
    with pytest.raises(BudgetExceeded, match=message):
        check_genericity(make_plane("abcdefghi"), 1, per_subset=True)
    report = check_genericity(make_plane("abcd"), 1, per_subset=True)
    assert report.passed and report.subset_pairs_checked == 5


def test_audit_per_subset_on_a_24_point_plane(monkeypatch, fig2):
    # 25 pairs at radius 1, well within the default budget of 2**20.
    monkeypatch.delenv("PLANEFORGE_BUDGET", raising=False)
    copies = [[f"{p}{i}" for p in line] for i in range(4) for line in fig2.lines]
    plane = make_plane([f"{p}{i}" for i in range(4) for p in fig2.points], copies)
    report = check_genericity(plane, 1, per_subset=True)
    assert report.passed and report.subset_pairs_checked == 1 + 24


def test_audit_guards(fano):
    with pytest.raises(PreconditionError):
        check_genericity(fano, -1)
    with pytest.raises(PreconditionError):
        check_genericity(AG23, 1)


@pytest.mark.parametrize("radius", [5, 7, 8])
def test_audit_radius_is_capped_before_any_work(radius):
    # Checked before the plane: even an invalid one gets the radius message.
    clash = Plane(frozenset("abcd"), frozenset({frozenset("abc"), frozenset("abd")}))
    with pytest.raises(BudgetExceeded, match=rf"^audit radius capped at 4, requested {radius}$"):
        check_genericity(clash, radius)


def test_audit_skips_huge_icl_sweeps(monkeypatch):
    monkeypatch.setattr(generic_mod, "ICL_SWEEP_CAP", 5)
    plane = make_plane("abcde")
    report = check_genericity(plane, 3)
    assert report.skipped_sizes == (3,)
    assert "icl_sizes_skipped: 3" in report.text()
    # sizes 0..2 still swept
    assert report.icl_subsets_checked == 1 + 5 + 10


# --- witnesses ------------------------------------------------------------------


def test_witness_catalog_names():
    assert set(WITNESSES) == {
        "non-desarguesian",
        "not-one-based",
        "weak-ei",
        "figure2",
    }
    for name, factory in WITNESSES.items():
        bundle = factory()
        assert bundle.name == name
        assert bundle.ok, bundle.text()


def test_non_desarguesian_witness(nd10):
    bundle = witness_non_desarguesian()
    assert are_isomorphic(bundle.plane, nd10)
    assert bundle.delta == 1
    assert bundle.alpha == -2
    assert bundle.in_K0 is True
    with pytest.raises(AttributeError):
        bundle.no_such_metric
    text = bundle.text()
    assert "witness: non-desarguesian" in text
    assert "FAIL" not in text
    assert text.count("PASS") == 5


def test_non_desarguesian_shape():
    plane = non_desarguesian_plane()
    assert plane.n_points == 10
    assert len(plane.lines) == 9
    assert all(len(l) == 3 for l in plane.lines)
    # the omitted axis: the three cross points stay non-collinear
    assert restrict(plane, frozenset({"c12", "c13", "c23"})).lines == frozenset()


def test_not_one_based_witness():
    bundle = witness_not_one_based()
    assert bundle.ok, bundle.text()
    assert bundle.plane.n_points == 5
    assert bundle.d_A_over_C == 1
    assert bundle.d_A_over_B == 0


def test_weak_ei_witness():
    bundle = witness_weak_ei()
    assert bundle.ok, bundle.text()
    shared = bundle.shared_line
    assert {"a", "b", "a2", "b2"} <= set(shared.split())


def test_morley_chain_growth():
    bundle = morley_chain(4)
    assert bundle.ok, bundle.text()
    assert bundle.length == 5
    assert bundle.lengths == "1 2 3 4 5"
    assert bundle.d_qk_over_B == 0
    assert morley_chain(0).length == 1


def test_morley_chain_guards():
    with pytest.raises(PreconditionError):
        morley_chain(-1)
    with pytest.raises(BudgetExceeded):
        morley_chain(9)


def test_figure2_witness(fig2):
    bundle = figure2_plane()
    assert bundle.ok, bundle.text()
    assert bundle.plane == fig2
    assert bundle.growth == 0
    assert bundle.delta == 3


def test_witness_bundles_copy_and_pickle(fig2):
    bundle = figure2_plane()
    for twin in (
        copy.copy(bundle),
        copy.deepcopy(bundle),
        pickle.loads(pickle.dumps(bundle)),
    ):
        assert twin == bundle
        assert twin.plane == fig2
        assert twin.growth == 0


# --- iterated amalgam -------------------------------------------------------------


def test_iterated_amalgam_fan():
    aprime = make_plane("c")
    bprime = make_plane("cde", ["cde"])
    out = iterated_amalgam(aprime, bprime, 3)
    assert out.n_points == 7
    assert len(out.lines) == 3
    assert delta(out) == 3 * delta(bprime) - 2 * delta(aprime) == 4
    assert is_strong(out, frozenset("cde"))


def test_iterated_amalgam_single_copy(fig2):
    sub = frozenset("abc")
    out = iterated_amalgam(restrict(fig2, sub), fig2, 1)
    assert out == fig2


def test_iterated_amalgam_multiplicity(nd10):
    # k disjoint strong copies of B' over A' really are in the result
    aprime = make_plane("pq")
    bprime = make_plane("pqr", ["pqr"])
    out = iterated_amalgam(aprime, bprime, 4)
    assert out.n_points == 2 + 4
    line_count = len(out.lines)
    assert line_count == 1  # all copies glue onto one long line through p,q
    assert len(next(iter(out.lines))) == 6


def test_iterated_amalgam_guards(fano):
    tri = make_plane("cde", ["cde"])
    with pytest.raises(PreconditionError):
        iterated_amalgam(make_plane("c"), tri, 0)
    with pytest.raises(PreconditionError):  # not induced
        iterated_amalgam(make_plane("cde"), tri, 2)
    with pytest.raises(NotStrong):
        iterated_amalgam(restrict(fano, frozenset("1")), fano, 2)
    with pytest.raises(PreconditionError):  # delta-negative B'
        iterated_amalgam(restrict(AG23, frozenset("1")), AG23, 2)
    with pytest.raises(PreconditionError, match="^A' must be a subset of B'$"):
        iterated_amalgam(make_plane("az"), make_plane("abc", ["abc"]), 2)


def test_non_desarguesian_embeds_in_itself_strongly(nd10):
    # sanity for the acceptance build check: the fixture embeds into any plane
    # that contains it verbatim
    assert find_embedding(nd10, nd10) is not None
