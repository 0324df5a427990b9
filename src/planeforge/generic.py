"""Bounded construction of generic-plane approximations, genericity audits,
and the named witness configurations.

The builder closes an initially empty plane under strong extensions, working
through extension situations at the level of isomorphism types: a situation
is a pair (base type, extension class), and firing one glues a fresh copy of
the class onto a cached strong subset of that type via canonical
amalgamation.  Types are swept in tiers ordered by size, so every situation
is reached after finitely many steps.  Tiers are generated lazily, one
situation at a time, so a build that stops inside a tier never enumerates
the rest of it.  A tier's templates come one (base, new size) group at a
time, each size enumerated once, and their strength over the base is
decided from delta increments while they are generated, so the tiers solve
no min-cut (see census._strong_line_sets); each census base comes with
its key and labelling.
The builder keeps one stage as mutable sets, each line under an int id,
with a point -> line ids index and, per base instance C, the stage lines
through two points of C by C-trace.  A step checks C on those traces and
glues the renamed copy onto C in place with the amalgams' glue (see
amalgam._glued): a copy line with the C-trace (of at least 2 points) of
a stage line adds its new points to that line, and every other copy line
is a new line.  So a step reads only the stage lines through C and writes
only its own points.  Its checks are C, the glue's (wedge condition (b)
holds by proof, see amalgam._glued) and the builder's own, exact but
local (see _Builder.fire): the old stage is strong in the new one, by the
census's delta-slack test on the step's lines (a min-cut only for a step
of more than EXTENSION_CAP points), and induced in it.
K0 is never solved per step: a plane with a strong, induced subplane in
K0 is itself in K0 (see _Builder.fire), so every stage is in K0 by proof.
No stage or glued copy is validated either: both are valid by proof.
The chain keeps the final plane and the step records: each step's new
points, new lines, and extended line ids with the points they gained, so
the records hold each incidence of the final plane once.  One forward
replay derives each step's lines and every stage (see ExtensionChain).
Glued copies are labelled on demand: a copy waits in a queue for its
shape, its point count and sorted line sizes, which a canonical key fixes,
until a base of that shape is asked for, and is then keyed from the
census's class index (see _Builder.instance); past the last tier only the
shapes of the pushed-back pairs are kept.
check_genericity measures how much of that closure a finished stage
actually exhibits.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations
from math import comb
from typing import AbstractSet

from .amalgam import (
    _glued,
    _shared_traces,
    _step,
    _Step,
    _successor,
    canonical_amalgam,
    classify_primitive,
    d_independent,
    decompose,
    is_primitive,
)
from .census import (
    CENSUS_CAP,
    EXTENSION_CAP,
    _census,
    _class_of,
    _strong_extensions_exactly,
    _strong_over,
    enumerate_planes,
    enumerate_strong_extensions,
)
from .embedding import embeddings
from .errors import (
    BudgetExceeded,
    NotStrong,
    PlaneError,
    PreconditionError,
    guard_work,
)
from .plane import Plane, _record_valid, line_through, make_plane, restrict, validate
from .predim import alpha, d_rel, delta, icl, in_K0, is_strong

ICL_SWEEP_CAP = 200_000


def plane_label(plane: Plane) -> str:
    """Compact human-readable tag: point count plus sorted line list."""
    if not plane.lines:
        return f"{len(plane.points)}p"
    body = ";".join(
        " ".join(sorted(l)) for l in sorted(plane.lines, key=lambda l: sorted(l))
    )
    return f"{len(plane.points)}p[{body}]"


# ---------------------------------------------------------------------------
# chains


@dataclass(frozen=True)
class StepRecord:
    """One amalgamation step: which subset grew, by which class, into what.

    ``added`` holds the step's new points, ``new_lines`` its new lines and
    ``extended`` a (line id, gained points) pair per stage line that took a
    copy line's new points, or none when it is only identified with a
    shorter copy line; a line's id is its place among the chain's new
    lines.  The lines each step added, dropped and identified come from a
    replay (see ExtensionChain.changes).  ``template_label``, the
    template's plane_label, is computed on each use.
    """

    index: int
    base: frozenset
    added: frozenset
    template: Plane
    new_lines: tuple
    extended: tuple

    @property
    def template_label(self) -> str:
        return plane_label(self.template)


@dataclass(frozen=True)
class ExtensionChain:
    """The last stage of a build and the steps that led to it.

    The earlier stages are not kept, so a chain's size grows with its steps,
    not with the sum of its stages; ``replay`` and ``stages`` rebuild them,
    and ``changes`` gives the lines each step added, dropped and identified.
    """

    final: Plane
    steps: tuple

    def changes(self) -> Iterator[_Step]:
        """Each step's added and dropped lines and identified line pairs, in
        one forward pass over the line ids, from the step data as
        canonical_amalgam reads it (see amalgam._step)."""
        lines: list[frozenset] = []
        for rec in self.steps:
            yield _step(lines, rec.base, rec.added, rec.new_lines, rec.extended)

    def replay(self) -> Iterator[Plane]:
        """The stages in order, from the empty plane to one equal to
        ``final``, each the one before with its step applied.  Every stage
        is a canonical amalgam of valid planes, so each is marked valid."""
        stage = make_plane(())
        _record_valid(stage)
        yield stage
        for step in self.changes():
            stage = _successor(stage, step)
            _record_valid(stage)
            yield stage

    @cached_property
    def stages(self) -> tuple:
        """Every stage, from one replay on first use, kept from then on."""
        return tuple(self.replay())

    def __repr__(self) -> str:
        return f"ExtensionChain({len(self.steps)} steps, final={self.final!r})"


@dataclass(frozen=True)
class _TypePair:
    base_key: tuple
    base_label: dict  # canonical labelling of the base representative
    template: Plane


class _Builder:
    def __init__(self):
        # the current stage, changed in place; a line's place is its id, and
        # a line stays the copy's frozenset until it first gains points
        self.points: set[str] = set()
        self.lines: list[AbstractSet[str]] = []
        # point -> ids of the stage lines through it
        self.through: dict[str, set[int]] = {}
        # instance points -> the stage lines through two of them by trace,
        # and point -> the instances holding it, from each instance's first step
        self.based: dict[frozenset, dict[frozenset, int]] = {}
        self.watched: dict[str, list[frozenset]] = {}
        self.records: list[StepRecord] = []
        self.counter = 0
        # type key -> (instance points, map canonical-label -> stage point)
        self.instances: dict = {}
        # shape -> offered copies not labelled yet, in offer order
        self.queued: dict[tuple, deque] = {}
        # the shapes a base can still be asked for, None while any can
        self.wanted: set[tuple] | None = None
        self._register(make_plane(()))  # the empty stage

    def _register(self, copy: Plane) -> None:
        """Offer ``copy``, a subplane induced in the stage, as a base instance."""
        if len(copy.points) <= CENSUS_CAP:  # tier bases stay census-sized
            shape = _shape(len(copy.points), copy.lines)
            if self.wanted is None or shape in self.wanted:
                self.queued.setdefault(shape, deque()).append(copy)

    def only_shapes(self, shapes: set[tuple]) -> None:
        """Keep only the queued copies of ``shapes``, and queue no copy of
        another shape from now on: no base of another shape will be asked
        for (see instance)."""
        self.wanted = shapes
        self.queued = {s: q for s, q in self.queued.items() if s in shapes}

    def instance(self, key: tuple):
        """The first offered copy of type ``key`` as (points, label map), or
        None if no copy offered so far has that type.

        Copies are labelled only here: a key is looked up among the
        labelled copies, then the queued copies of its shape (see _shape)
        are labelled in offer order from the census's class index (see
        census._class_of), each key kept when it first appears, until the
        key turns up.  Copies of another shape never share the key, so
        every key keeps its first offered copy, as if each copy had been
        labelled when offered.
        """
        queue = () if key in self.instances else self.queued.get(_shape(*key), ())
        while key not in self.instances and queue:
            copy = queue.popleft()
            copy_key, label = _class_of(copy)
            if copy_key not in self.instances:
                self.instances[copy_key] = (
                    copy.points,
                    {i: p for p, i in label.items()},
                )
        return self.instances.get(key)

    def _based(self, c: frozenset) -> dict[frozenset, int]:
        """The stage lines through two points of the instance ``c`` by
        C-trace -> id, from the index at its first step, then kept by fire:
        a line gains only new points, so its trace stays, and only a new
        line through two old points can join them."""
        if c not in self.based:
            seen, meeting = set(), set()
            for p in c:
                ids = self.through.get(p, ())
                meeting |= seen.intersection(ids)
                seen.update(ids)
                self.watched.setdefault(p, []).append(c)
            self.based[c] = {c & self.lines[i]: i for i in meeting}
        return self.based[c]

    def fire(self, instance: tuple, base_label: dict, template: Plane) -> None:
        """Glue a renamed copy of ``template`` onto ``instance``, as
        instance() returned it for the base type."""
        inst_points, inst_map = instance
        rename = {p: inst_map[i] for p, i in base_label.items()}
        for p in sorted(template.points.difference(rename)):
            self.counter += 1
            rename[p] = f"x{self.counter}"
        name = rename.__getitem__
        concrete = Plane(
            frozenset(map(name, template.points)),
            frozenset([frozenset(map(name, l)) for l in template.lines]),
        )
        # The template is valid (free: census templates are marked, seeds
        # checked), so the copy is: the renaming is injective and uses only
        # instance points and fresh x<n> names.  Wedge (b) needs no check: C
        # is strong on both sides (see _glued).
        validate(template)
        _record_valid(concrete)
        old, lines, through = self.points, self.lines, self.through
        based = self._based(inst_points)  # kept up to date below
        based_b = _shared_traces(old, based, concrete, inst_points, "canonical_amalgam")
        added, new_lines, extended = _glued(old, lines, based, concrete, based_b, inst_points)
        # The new stage is in K0 by proof.  delta is submodular, so for every
        # X inside it, delta(X) >= delta(X | S) - delta(S) + delta(X & S)
        # with S the old stage's points.  S is strong, so delta(X | S) >=
        # delta(S); S is induced, so delta(X & S) is taken in the old stage,
        # which is in K0, and is >= 0.  The induction starts at the empty
        # stage (and every seed is checked with in_K0 besides).
        #
        # Strength is checked on the step's own lines.  For S <= X <= new,
        # delta(X) - delta(S) is |X - S| less, over each line, the nullity
        # of its trace on X less that on S, so only the new and extended
        # lines count (see _strong_over).  This needs no inducedness, but it
        # needs the new points outside S, which is checked first: else the
        # successor would drop a stage point and the test count it as new.
        #
        # Induced means the traces on S of the new stage's lines, where of
        # three points or more, are the old lines, each once: an extended
        # line gains only new points, once, and a new line has <= 2 old ones.
        if not old.isdisjoint(added):
            raise PlaneError("builder invariant broken: successor drops stage points")
        grown = [(i, gain) for i, gain in extended if gain]
        if not _strong_over(old, added, new_lines, [(lines[i], g) for i, g in grown]):
            raise PlaneError("builder invariant broken: stage not strong in successor")
        if (
            len({i for i, _ in extended}) < len(extended)
            or not all(gain <= added for _, gain in extended)
            or any(len(line - added) > 2 for line in new_lines)
        ):
            raise PlaneError("builder invariant broken: stage not induced in successor")
        old |= added
        for i, gain in grown:
            if type(lines[i]) is frozenset:  # first gain: a set from now on
                lines[i] = set(lines[i])
            lines[i] |= gain
            for p in gain:
                through.setdefault(p, set()).add(i)
        for line in new_lines:
            for p in line:
                through.setdefault(p, set()).add(len(lines))
            if len(ends := line - added) == 2:  # a new line through two old points
                p, q = ends
                for c in self.watched.get(p, ()):
                    if q in c:  # its trace on c is exactly {p, q}
                        self.based[c][ends] = len(lines)
            lines.append(line)
        self.records.append(
            StepRecord(len(self.records), inst_points, added, template, new_lines, extended)
        )
        self._register(concrete)


def _shape(n: int, lines) -> tuple:
    """A plane's point count and sorted line sizes, from the count and its
    lines or from its canonical key, whose line tuples keep their sizes."""
    return n, tuple(sorted(map(len, lines)))


def _tier_pairs(tier: int, ext_bound: int) -> Iterator[_TypePair]:
    """Extension situations whose larger side first reaches ``tier``, lazily.

    Yields in order of base size, then new size, then census base, then
    template, computing each (new size, base) group only when it is reached,
    so a build that stops early in a tier never pays for the rest.  Each
    group enumerates the templates of exactly its own new size, once.
    Census bases are valid and in K0 by construction, so no group checks
    its base, each base comes with its key and canonical labelling (see
    census._planes_exactly), and the templates' strength is decided
    without a min-cut (see census._strong_line_sets).
    """
    for base_size in range(0, tier + 1):
        new_sizes = [
            n for n in range(1, ext_bound + 1) if max(base_size, n) == tier
        ]
        for new_size in new_sizes:
            for base_key, base, base_label in _census(base_size)[0]:
                for template in _strong_extensions_exactly(base, new_size):
                    yield _TypePair(base_key, base_label, template)


def build_generic(steps: int, ext_bound: int, seeds=()) -> ExtensionChain:
    """Grow a stage chain from the empty plane by ``steps`` amalgamations.

    Situations are fired tier by tier; a situation whose base type has no
    strong instance in the current stage yet is pushed back and retried after
    the others.  ``seeds`` are extension templates over the empty set,
    processed first (one step each) — the fair sweep reaches every class
    eventually, seeding just front-loads chosen ones.  The chain keeps the
    final stage and, per step, the concrete base, the new points, the new
    lines and the extended lines' ids with their gains, from which it
    replays the stages on demand.  Only the seeds are validated: census
    templates, their renamed copies (see _Builder.fire) and the stages,
    canonical amalgams of valid planes, are valid by proof.
    """
    if steps < 0:
        raise PreconditionError("step count must be nonnegative")
    if ext_bound < 1:
        raise PreconditionError("extension bound must be at least 1")
    if ext_bound > EXTENSION_CAP:
        raise BudgetExceeded(
            f"extension bound capped at {EXTENSION_CAP}, requested {ext_bound}"
        )

    builder = _Builder()
    ((empty_key, _, _),) = _census(0)[0]  # the one class on 0 points
    empty = builder.instance(empty_key)

    for seed in seeds:
        if len(builder.records) >= steps:
            break
        validate(seed)
        if not in_K0(seed):
            raise PreconditionError("seed template is not hereditarily nonnegative")
        builder.fire(empty, {}, seed)

    # Each round offers every pushed-back pair once, in order, then the next
    # census tier's pairs as they are generated; past the last tier, rounds
    # retry the pushed-back pairs until one fires nothing (the stage then
    # stays as it is, so no later round could fire either).
    pending: list[_TypePair] = []
    tier, fired = 0, False
    while len(builder.records) < steps and (tier < CENSUS_CAP or fired):
        tier += 1
        if tier <= CENSUS_CAP:
            tier_pairs = _tier_pairs(tier, ext_bound)
        else:  # no tier is left: only the pushed-back pairs ask for bases
            builder.only_shapes({_shape(*pair.base_key) for pair in pending})
            tier_pairs = ()
        offered, pending, fired = chain(pending, tier_pairs), [], False
        for pair in offered:
            instance = builder.instance(pair.base_key)
            if instance is None:
                pending.append(pair)
                continue
            builder.fire(instance, pair.base_label, pair.template)
            fired = True
            if len(builder.records) >= steps:
                break

    final = Plane(frozenset(builder.points), frozenset(map(frozenset, builder.lines)))
    _record_valid(final)
    return ExtensionChain(final=final, steps=tuple(builder.records))


# ---------------------------------------------------------------------------
# genericity audit


@dataclass(frozen=True)
class TypeRow:
    base_label: str
    ext_label: str
    realized: bool
    base_points: frozenset | None
    image_points: frozenset | None


@dataclass(frozen=True)
class AuditReport:
    radius: int
    rows: tuple
    max_icl_size: int
    max_icl_subset: frozenset
    frontier_sets: int
    icl_subsets_checked: int
    skipped_sizes: tuple
    subset_pairs_checked: int | None = None
    subset_pairs_realized: int | None = None

    @property
    def unrealized(self) -> tuple:
        return tuple(r for r in self.rows if not r.realized)

    @property
    def realization_rate(self) -> float:
        if not self.rows:
            return 1.0
        return sum(1 for r in self.rows if r.realized) / len(self.rows)

    @property
    def passed(self) -> bool:
        return not self.unrealized

    def text(self) -> str:
        lines = [
            f"radius: {self.radius}",
            f"types_total: {len(self.rows)}",
            f"types_realized: {sum(1 for r in self.rows if r.realized)}",
            f"types_unrealized: {len(self.unrealized)}",
            f"realization_rate: {self.realization_rate:.3f}",
            f"max_icl_size: {self.max_icl_size}",
            "max_icl_subset: "
            + (" ".join(sorted(self.max_icl_subset)) if self.max_icl_subset else "-"),
            f"icl_frontier_sets: {self.frontier_sets}",
            f"icl_subsets_checked: {self.icl_subsets_checked}",
            "icl_sizes_skipped: "
            + (" ".join(str(s) for s in self.skipped_sizes) if self.skipped_sizes else "-"),
        ]
        if self.subset_pairs_checked is not None:
            lines.append(f"subset_pairs_checked: {self.subset_pairs_checked}")
            lines.append(f"subset_pairs_realized: {self.subset_pairs_realized}")
        for row in self.unrealized:
            lines.append(f"unrealized: {row.base_label} -> {row.ext_label}")
        return "\n".join(lines)


def _typed_strong_subsets(plane: Plane, base_rep: Plane):
    """Strong subsets of ``plane`` inducing a copy of ``base_rep``, in lex
    order, each with its isomorphisms from ``base_rep``: (points, sigmas).

    The isomorphisms are searched once per subset, here, and every template
    is then tried over the same list (see _realize_over)."""
    shape = sorted(map(len, base_rep.lines))
    for combo in combinations(sorted(plane.points), len(base_rep.points)):
        pts = frozenset(combo)
        sub = restrict(plane, pts)
        if sorted(map(len, sub.lines)) != shape:  # are_isomorphic's quick test
            continue
        sigmas = list(embeddings(base_rep, sub))
        if sigmas and is_strong(plane, pts):
            yield pts, sigmas


def _realize_over(plane: Plane, sigmas: list, template: Plane):
    """Image of ``template`` strongly embedded in ``plane`` over one of the
    base isomorphisms ``sigmas``, tried in order, or None."""
    for sigma in sigmas:
        for emb in embeddings(template, plane, fixed=sigma):
            image = frozenset(emb.values())
            if is_strong(plane, image):
                return image
    return None


def check_genericity(plane: Plane, radius: int, per_subset: bool = False) -> AuditReport:
    """Audit how completely ``plane`` realizes small strong extensions.

    For every base type of at most ``radius`` points and every strong
    extension class adding at most ``radius`` points, reports whether some
    strong subset of that type extends inside ``plane`` to a strong copy of
    the class.  Also sweeps the intrinsic closure of every subset of size at
    most ``radius`` (size-3 sweeps are skipped past 200k subsets) and counts
    closures that swallow the whole plane.  ``per_subset`` additionally
    checks realization over every strong subset individually — exhaustive,
    so the subset budget bounds the (subset, template) pairs it may try:
    C(n, |base|) subsets for each template over each base type.  Each pair
    is an embedding search over the plane, which the guard does not bound.
    The radius is capped at EXTENSION_CAP, the extension search's cap,
    before the plane is checked.
    """
    if radius < 0:
        raise PreconditionError("radius must be nonnegative")
    if radius > EXTENSION_CAP:
        raise BudgetExceeded(
            f"audit radius capped at {EXTENSION_CAP}, requested {radius}"
        )
    validate(plane)
    if not in_K0(plane):
        raise PreconditionError("ambient plane is not hereditarily nonnegative")

    rows = []
    subset_checked = subset_realized = None
    types = [(b, enumerate_strong_extensions(b, radius)) for b in enumerate_planes(radius)]
    if per_subset:
        pairs = sum(comb(len(plane.points), len(b.points)) * len(ts) for b, ts in types)
        guard_work("per-subset genericity audit", pairs, "subset-template pairs", hint=True)
        subset_checked = subset_realized = 0

    for base_rep, templates in types:
        if not templates:
            continue
        # one walk over the typed instances, trying each template until it
        # is realized (always under per_subset): its first witness in lex order
        found: dict[int, tuple] = {}
        for inst, sigmas in _typed_strong_subsets(plane, base_rep):
            for i, template in enumerate(templates):
                if i in found and not per_subset:
                    continue
                image = _realize_over(plane, sigmas, template)
                if per_subset:
                    subset_checked += 1
                    subset_realized += image is not None
                if image is not None:
                    found.setdefault(i, (inst, image))
            if len(found) == len(templates) and not per_subset:
                break
        for i, template in enumerate(templates):
            realized_at, witness_image = found.get(i, (None, None))
            rows.append(
                TypeRow(
                    base_label=plane_label(base_rep),
                    ext_label=plane_label(template),
                    realized=realized_at is not None,
                    base_points=realized_at,
                    image_points=witness_image,
                )
            )

    points = sorted(plane.points)
    max_size = 0
    max_subset: frozenset = frozenset()
    frontier = 0
    checked = 0
    skipped = []
    for size in range(0, radius + 1):
        if size >= 3 and comb(len(points), size) > ICL_SWEEP_CAP:
            skipped.append(size)
            continue
        for combo in combinations(points, size):
            closure = icl(plane, frozenset(combo))
            checked += 1
            if len(closure) > max_size:
                max_size = len(closure)
                max_subset = closure
            if closure == plane.points and plane.points:
                frontier += 1

    return AuditReport(
        radius=radius,
        rows=tuple(rows),
        max_icl_size=max_size,
        max_icl_subset=max_subset,
        frontier_sets=frontier,
        icl_subsets_checked=checked,
        skipped_sizes=tuple(skipped),
        subset_pairs_checked=subset_checked,
        subset_pairs_realized=subset_realized,
    )


# ---------------------------------------------------------------------------
# witnesses


@dataclass(frozen=True)
class WitnessBundle:
    name: str
    plane: Plane
    assertions: tuple
    metrics: dict = field(default_factory=dict)

    def __getattr__(self, item):
        # Through __dict__: copy and pickle probe an instance that has no
        # fields yet, and self.metrics would call back in here without end.
        try:
            return self.__dict__["metrics"][item]
        except KeyError:
            raise AttributeError(item) from None

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self.assertions)

    def text(self) -> str:
        lines = [
            f"witness: {self.name}",
            f"points: {len(self.plane.points)}",
            f"lines: {len(self.plane.lines)}",
        ]
        for key in sorted(self.metrics):
            value = self.metrics[key]
            if isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"{key}: {value}")
        for description, passed in self.assertions:
            lines.append(("PASS " if passed else "FAIL ") + description)
        return "\n".join(lines)


def non_desarguesian_plane() -> Plane:
    """Two triangles perspective from a point, with the axis line omitted.

    Ten points, nine 3-point lines: the perspector o, triangle a1 a2 a3,
    triangle b1 b2 b3, and the three cross points c12 c13 c23 — everything
    the Desargues configuration has except the line c12 c13 c23.
    """
    points = "o a1 a2 a3 b1 b2 b3 c12 c13 c23".split()
    lines = [
        "o a1 b1",
        "o a2 b2",
        "o a3 b3",
        "a1 a2 c12",
        "a1 a3 c13",
        "a2 a3 c23",
        "b1 b2 c12",
        "b1 b3 c13",
        "b2 b3 c23",
    ]
    return make_plane(points, [l.split() for l in lines])


def witness_non_desarguesian() -> WitnessBundle:
    plane = non_desarguesian_plane()
    try:
        validate(plane)
        valid = True
    except PlaneError:
        valid = False
    dv = delta(plane)
    av = alpha(plane)
    hereditary = in_K0(plane)  # every subset has delta >= 0, by one min-cut
    nullities = sorted(len(l) - 2 for l in plane.lines)
    assertions = (
        ("delta equals 1", dv == 1),
        ("alpha equals -2", av == -2),
        ("exactly 9 lines, each of nullity 1", nullities == [1] * 9),
        ("every one of the 1024 subsets has nonnegative delta", hereditary),
        ("lines pairwise meet in at most one point", valid),
    )
    return WitnessBundle(
        name="non-desarguesian",
        plane=plane,
        assertions=assertions,
        metrics={"delta": dv, "alpha": av, "in_K0": hereditary},
    )


def witness_not_one_based() -> WitnessBundle:
    plane = make_plane("p1 p2 p3 q1 q2".split(), [["p1", "q1", "q2"]])
    c = frozenset({"p1", "p2", "p3"})
    a = c | {"q2"}
    b = c | {"q1"}
    d_ac = d_rel(plane, frozenset({"q2"}), c)
    d_ab = d_rel(plane, a, b)
    assertions = (
        ("C is strong in A", is_strong(plane, c, a)),
        ("A is strong in the plane", is_strong(plane, a)),
        ("C is strong in B", is_strong(plane, c, b)),
        ("B is strong in the plane", is_strong(plane, b)),
        ("A and B meet exactly in C", a & b == c),
        ("d(A/C) = 1", d_ac == 1),
        ("d(A/B) = 0", d_ab == 0),
        ("A and B are not d-independent over C", not d_independent(plane, a, b, c)),
    )
    return WitnessBundle(
        name="not-one-based",
        plane=plane,
        assertions=assertions,
        metrics={
            "delta_A": delta(plane, a),
            "delta_B": delta(plane, b),
            "delta_D": delta(plane),
            "d_A_over_C": d_ac,
            "d_A_over_B": d_ab,
        },
    )


def witness_weak_ei() -> WitnessBundle:
    """Two disjoint closed pairs that determine the same line.

    The four-point line {a, b, a2, b2} is glued onto a small generically
    built stage; each of {a, b} and {a2, b2} is its own intrinsic closure in
    the ambient, yet both generate the same line — so the line has no
    smallest closed set of definition.
    """
    stage = build_generic(steps=6, ext_bound=2).final
    four = make_plane("a b a2 b2".split(), [["a", "b", "a2", "b2"]])
    ambient = canonical_amalgam(stage, four, frozenset()).plane
    pair1 = frozenset({"a", "b"})
    pair2 = frozenset({"a2", "b2"})
    line1 = line_through(ambient, "a", "b")
    line2 = line_through(ambient, "a2", "b2")
    assertions = (
        ("the four-point line is strong in the ambient", is_strong(ambient, four.points)),
        ("both pairs determine a line", line1 is not None and line2 is not None),
        ("the two pairs determine the same line", line1 == line2),
        ("icl({a,b}) = {a,b}", icl(ambient, pair1) == pair1),
        ("icl({a2,b2}) = {a2,b2}", icl(ambient, pair2) == pair2),
        ("the two closed pairs are disjoint", not (pair1 & pair2)),
    )
    return WitnessBundle(
        name="weak-ei",
        plane=ambient,
        assertions=assertions,
        metrics={
            "ambient_points": len(ambient.points),
            "shared_line": " ".join(sorted(line1)) if line1 else "-",
        },
    )


def morley_chain(k: int) -> WitnessBundle:
    """The one-line chain q0, q1, ..., qk over the base {p1, p2, p3}.

    q0 joins the line through p1 and p2; each later point joins the line
    through q_{m} and one of p1/p2 — which is the same growing line — so
    Q_k is three free points plus a (k+3)-point line through two of them.
    Decomposition length grows by exactly one per level.
    """
    if k < 0:
        raise PreconditionError("chain index must be nonnegative")
    if k > 8:
        raise BudgetExceeded(f"morley chain capped at k = 8, requested {k}")
    base = frozenset({"p1", "p2", "p3"})

    def stage_plane(m: int) -> Plane:
        qs = [f"q{i}" for i in range(m + 1)]
        return make_plane(
            ["p1", "p2", "p3", *qs],
            [["p1", "p2", *qs]],
        )

    plane = stage_plane(k)
    lengths = []
    for m in range(k + 1):
        sub = stage_plane(m)
        lengths.append(decompose(sub, base, sub.points).length)
    increments = all(
        lengths[m + 1] == lengths[m] + 1 for m in range(k)
    )
    chain = decompose(plane, base, plane.points).chain
    case0 = all(
        classify_primitive(plane, chain[i], chain[i + 1]).growth == 0
        for i in range(len(chain) - 1)
    )
    d_q = d_rel(plane, frozenset({f"q{k}"}), base)
    assertions = (
        ("the base {p1,p2,p3} is strong in Q_k", is_strong(plane, base)),
        (f"d(q{k}/B) = 0", d_q == 0),
        ("decomposition length grows by one per level", increments),
        ("every decomposition step has growth 0", case0),
    )
    return WitnessBundle(
        name=f"morley-chain:{k}",
        plane=plane,
        assertions=assertions,
        metrics={
            "length": lengths[-1],
            "lengths": " ".join(str(v) for v in lengths),
            "d_qk_over_B": d_q,
        },
    )


def figure2_plane() -> WitnessBundle:
    """Six points, lines adf / cde / bef: a primitive extension of width 3."""
    plane = make_plane(
        "a b c d e f".split(),
        [["a", "d", "f"], ["c", "d", "e"], ["b", "e", "f"]],
    )
    lower = frozenset({"a", "b", "c"})
    upper = plane.points
    primitive = is_primitive(plane, lower, upper)
    case = classify_primitive(plane, lower, upper)
    assertions = (
        ("{a,b,c} is strong in the plane", is_strong(plane, lower)),
        ("{a,b,c} -> full plane is primitive", primitive),
        ("the extension has growth 0", case.growth == 0),
        ("three points are added", len(upper - lower) == 3),
        ("delta of the full plane is 3", delta(plane) == 3),
    )
    return WitnessBundle(
        name="figure2",
        plane=plane,
        assertions=assertions,
        metrics={"delta": delta(plane), "growth": case.growth},
    )


def iterated_amalgam(aprime: Plane, bprime: Plane, k: int) -> Plane:
    """The k-fold canonical amalgam of disjoint copies of B' over A'.

    Copies are glued one at a time; points of B' outside A' are renamed with
    a per-copy suffix.  The result's delta is exactly k*delta(B') -
    (k-1)*delta(A'), and every copy stays strong in it.
    """
    if k < 1:
        raise PreconditionError("copy count must be at least 1")
    validate(aprime)
    validate(bprime)
    if not aprime.points <= bprime.points:
        raise PreconditionError("A' must be a subset of B'")
    if restrict(bprime, aprime.points) != aprime:
        raise PreconditionError("A' must be an induced subplane of B'")
    if not in_K0(bprime):
        raise PreconditionError("B' is not hereditarily nonnegative")
    if not is_strong(bprime, aprime.points):
        raise NotStrong("A' must be strong in B'")

    outside = sorted(bprime.points - aprime.points)
    result = bprime
    copies = [frozenset(bprime.points)]
    for i in range(2, k + 1):
        rename = {p: p for p in aprime.points}
        for p in outside:
            cand = f"{p}.{i}"
            while cand in result.points:
                cand += "'"
            rename[p] = cand
        copy = make_plane(
            [rename[p] for p in bprime.points],
            [[rename[p] for p in l] for l in bprime.lines],
        )
        result = canonical_amalgam(result, copy, aprime.points).plane
        copies.append(frozenset(rename.values()))

    expected = k * delta(bprime) - (k - 1) * delta(aprime)
    if delta(result) != expected:
        raise PlaneError(
            f"amalgam delta {delta(result)} differs from expected {expected}"
        )
    for pts in copies:
        if not is_strong(result, pts):
            raise PlaneError("a copy of B' is not strong in the iterated amalgam")
    return result


WITNESSES = {
    "non-desarguesian": witness_non_desarguesian,
    "not-one-based": witness_not_one_based,
    "weak-ei": witness_weak_ei,
    "figure2": figure2_plane,
}
