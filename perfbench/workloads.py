"""The four workloads: seeded inputs, one timed pass, and output checks.

Each workload has three parts, run in separate processes:

* ``setup(seed, workdir)`` generates every input from the seed and writes
  it to ``workdir`` (``inputs.json`` plus plane files for the CLI).  It runs
  in its own process so the library's process-global caches are cold when
  the timed pass starts, as they are for a CLI invocation.
* ``run(inputs, workdir, record)`` is the timed pass: a closed loop with one
  caller, the next operation starting when the previous one returns.
  ``record(op_id, fn)`` times one operation and keeps its result.
* ``check(inputs, workdir, results, seed)`` verifies the outputs after the
  timed part and returns ``{op_id: reason}`` for every failed operation.

The library sees only the generated inputs, never the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from itertools import combinations
from math import comb

import planeforge as pf
from planeforge import cli

EXT_BOUND = 2
BUILD_STEPS = 500  # ~900 points: superlinear growth and tier enumeration show
AUDIT_STEPS = 70  # chains long enough to reach AUDIT_POINTS
AUDIT_POINTS = 70  # ~2,500 icl solves per audit; reached after ~35 steps
AUDIT_STAGES = 6
SEARCH_STAGE_STEPS = 200
SEARCH_EMBEDS, SEARCH_ISOS = 480, 160
QUERY_STAGE_STEPS = 45
NX_SAMPLE = 20  # icl values per audited stage re-checked with networkx

AG23 = (
    "123456789",
    ["123", "456", "789", "147", "258", "369", "159", "267", "348", "357", "168", "249"],
)
FANO = ("1234567", ["123", "145", "167", "246", "257", "347", "356"])
FIG2 = ("abcdef", ["adf", "cde", "bef"])


# ---------------------------------------------------------------------------
# plane encoding and seeded generators (benchmark-side, no library calls)


def enc(plane) -> dict:
    return {
        "points": sorted(plane.points),
        "lines": sorted(sorted(line) for line in plane.lines),
    }


def dec(data) -> pf.Plane:
    return pf.make_plane(data["points"], data["lines"])


def fixture(spec) -> pf.Plane:
    points, lines = spec
    return pf.make_plane(list(points), [list(line) for line in lines])


def relabel(plane, rng: random.Random, prefix: str = "r"):
    """Isomorphic copy under a seeded bijection onto fresh names."""
    pts = sorted(plane.points)
    names = [f"{prefix}{i}" for i in range(len(pts))]
    rng.shuffle(names)
    m = dict(zip(pts, names))
    return pf.make_plane([m[p] for p in pts], [[m[p] for p in l] for l in plane.lines])


def degree_profile(plane) -> tuple:
    """Sorted (lines through point, sizes) per point: an isomorphism invariant."""
    deg = {p: [] for p in plane.points}
    for line in plane.lines:
        for p in line:
            deg[p].append(len(line))
    return tuple(sorted(tuple(sorted(v)) for v in deg.values()))


def perturb(plane, rng: random.Random):
    """Same point, line and line-size counts, provably not isomorphic.

    Moves one point of one line to another point, keeping the plane valid;
    only moves that change the degree profile are kept, so the answer is
    known to be "not isomorphic" without the library.  None if no such move.
    """
    lines = sorted(sorted(l) for l in plane.lines)
    pts = sorted(plane.points)
    moves = [(i, old, new) for i, l in enumerate(lines) for old in l for new in pts if new not in l]
    rng.shuffle(moves)
    base = degree_profile(plane)
    for i, old, new in moves:
        moved = sorted([p for p in lines[i] if p != old] + [new])
        others = lines[:i] + lines[i + 1 :]
        covered = {frozenset(pair) for l in others for pair in combinations(l, 2)}
        if any(frozenset(pair) in covered for pair in combinations(moved, 2)):
            continue
        cand = pf.make_plane(pts, others + [moved])
        if degree_profile(cand) != base:
            return cand
    return None


def random_plane(rng: random.Random, n: int, prefix: str = "p"):
    """A valid plane on n points with a seeded set of 3- and 4-point lines."""
    pts = [f"{prefix}{i}" for i in range(n)]
    lines, taken = [], set()
    for _ in range(rng.randint(n // 3, n)):
        cand = sorted(rng.sample(pts, rng.choice([3, 3, 3, 4])))
        pairs = {frozenset(p) for p in combinations(cand, 2)}
        if pairs & taken:
            continue
        taken |= pairs
        lines.append(cand)
    return pf.make_plane(pts, lines)


def seed_templates(seed: int) -> list:
    """Build seeds: the ten-point fixture, after seeded census templates.

    Seed 0 uses the fixture alone (the acceptance-11 chain); any other seed
    first prepends one to three K0 census planes of 3-5 points.
    """
    nd = pf.non_desarguesian_plane()
    if seed == 0:
        return [nd]
    rng = random.Random(seed)
    pool = [p for p in pf.enumerate_planes(5) if len(p.points) >= 3]
    return [rng.choice(pool) for _ in range(rng.randint(1, 3))] + [nd]


def line_cluster(plane, rng: random.Random, lo: int, hi: int) -> frozenset:
    """Seeded union of whole lines, each meeting the ones before, lo-hi points.

    Every point of the result lies on one of its lines, so the induced
    subplane has no free points.  Retries from another start line when a
    cluster overshoots or cannot grow; returns the closest miss after that.
    """
    lines = sorted(sorted(l) for l in plane.lines)
    best, miss = frozenset(), None
    for _ in range(200):
        chosen = set(rng.choice(lines))
        while len(chosen) < lo:
            meeting = [l for l in lines if chosen & set(l) and not set(l) <= chosen]
            if not meeting:
                break
            chosen.update(rng.choice(meeting))
        off = max(lo - len(chosen), len(chosen) - hi, 0)
        if not off:
            return frozenset(chosen)
        if miss is None or off < miss:
            best, miss = frozenset(chosen), off
    return best


def line_piece(plane, rng: random.Random, k: int) -> frozenset:
    """Seeded piece with no free points: k points on each of two lines.

    The two lines meet, and the piece holds their meeting point plus k - 1
    further points of each, so it induces exactly two k-point lines (one line
    when the first line meets no other).  Sizes stay fixed however long the
    plane's lines are.
    """
    lines = sorted(sorted(l) for l in plane.lines)
    first = rng.choice(lines)
    meeting = [l for l in lines if l != first and set(l) & set(first)]
    if not meeting:
        return frozenset(rng.sample(first, min(k, len(first))))
    second = rng.choice(meeting)
    (x,) = set(first) & set(second)
    a = rng.sample([p for p in first if p != x], min(k - 1, len(first) - 1))
    b = rng.sample([p for p in second if p != x], min(k - 1, len(second) - 1))
    return frozenset([x, *a, *b])


def _write_json(workdir: str, inputs: dict) -> None:
    with open(os.path.join(workdir, "inputs.json"), "w", encoding="utf-8") as fh:
        json.dump(inputs, fh, sort_keys=True)


def _write_plane(workdir: str, name: str, plane) -> None:
    with open(os.path.join(workdir, f"{name}.plane"), "w", encoding="utf-8") as fh:
        fh.write(pf.serialize_plane(name, plane))


# ---------------------------------------------------------------------------
# build: one seeded build_generic per pass


def build_setup(seed: int, workdir: str) -> None:
    seeds = [enc(p) for p in seed_templates(seed)]
    _write_json(workdir, {"steps": BUILD_STEPS, "seeds": seeds})


def build_run(inputs, workdir, record) -> None:
    seeds = [dec(p) for p in inputs["seeds"]]
    record(0, lambda: pf.build_generic(inputs["steps"], EXT_BOUND, seeds=seeds))


def build_check(inputs, workdir, results, seed) -> dict:
    chain = results[0]
    if len(chain.steps) != inputs["steps"]:
        return {0: f"{len(chain.steps)} steps, wanted {inputs['steps']}"}
    for i, rec in enumerate(chain.steps):
        before, after = chain.stages[i], chain.stages[i + 1]
        want = (
            pf.delta(before)
            + pf.delta(rec.template)
            - pf.delta(before, rec.base)
        )
        if pf.delta(after) != want:
            return {0: f"step {i}: delta {pf.delta(after)} breaks additivity ({want})"}
    if seed == 0:
        st = chain.stages[200]
        got = (len(st.points), len(st.lines), pf.delta(st))
        if got != (349, 87, 72):
            return {0: f"stage 200 is {got}, wanted (349, 87, 72)"}
    return {}


# ---------------------------------------------------------------------------
# audit: check_genericity on each of a few fixed seeded stages


def audit_setup(seed: int, workdir: str) -> None:
    # Several stages per pass, so one unlucky stage moves run_s less.  Each
    # is the first stage of its chain with AUDIT_POINTS points: audit cost
    # grows like n^3, so a fixed size keeps seeds comparable.
    stages = []
    for k in range(AUDIT_STAGES):
        chain = pf.build_generic(AUDIT_STEPS, EXT_BOUND, seeds=seed_templates(AUDIT_STAGES * seed + k))
        stages.append(next(st for st in chain.stages if len(st.points) >= AUDIT_POINTS))
    _write_json(workdir, {"stages": [enc(st) for st in stages], "radius": 2})


def audit_run(inputs, workdir, record) -> None:
    for i, data in enumerate(inputs["stages"]):
        stage = dec(data)
        record(i, lambda: pf.check_genericity(stage, inputs["radius"]))


def audit_check(inputs, workdir, results, seed) -> dict:
    from mincut import check_icl  # networkx is imported by the benchmark only

    rng = random.Random(seed)
    radius = inputs["radius"]
    bad = {}
    for i, data in enumerate(inputs["stages"]):
        report, stage = results[i], dec(data)
        n = len(stage.points)
        swept = sum(comb(n, k) for k in range(radius + 1))
        if not report.passed:
            bad[i] = "audit report did not pass: " + report.text().replace("\n", "; ")
        elif report.icl_subsets_checked != swept or report.skipped_sizes:
            bad[i] = f"icl sweep covered {report.icl_subsets_checked} of {swept} subsets"
        pts = sorted(stage.points)
        for _ in range(NX_SAMPLE):
            subset = frozenset(rng.sample(pts, rng.randint(0, radius)))
            problem = check_icl(stage, subset, pf.icl(stage, subset))
            if problem:
                bad[i] = f"icl({sorted(subset)}): {problem}"
                break
    return bad


# ---------------------------------------------------------------------------
# search: embedding, isomorphism and canonical labelling queries


def search_setup(seed: int, workdir: str) -> None:
    rng = random.Random(seed)
    # The acceptance-11 stage on every seed; the seed picks its subplanes, so
    # the query mix stays alike while the planes change.
    stage = pf.build_generic(SEARCH_STAGE_STEPS, EXT_BOUND, seeds=seed_templates(0)).final
    targets = [pf.restrict(stage, line_cluster(stage, rng, 12, 20)) for _ in range(48)]
    census = [p for p in pf.enumerate_planes(7) if len(p.points) >= 3]
    # Embedding patterns: census classes of at most 5 points with every point
    # on a line.  With free points or more points the current search barely
    # prunes and one query can take minutes; the fixed Fano -> AG(2,3) query
    # below carries that case on every seed.
    patterns = [p for p in census if len(p.points) <= 5 and set().union(*p.lines) == p.points]
    patterns.append(fixture(FIG2))
    nd = pf.non_desarguesian_plane()
    # Each kind of query cycles through its plane classes, so the mix is the
    # same on every seed; the seed picks targets, pieces and relabellings.
    # A quarter of the embeddings look for nd10, a homogeneous middle-cost
    # group large enough that op_p90_ms falls inside it.
    ops = []
    for i in range(SEARCH_EMBEDS):
        sup = targets[i % len(targets)]
        if i % 4 == 3:
            sub = nd
        elif i % 2:  # a census class known to occur in the target
            sub = relabel(pf.restrict(sup, line_piece(sup, rng, 3)), rng)
        else:
            sub = patterns[(i // 4) % len(patterns)]
        ops.append({"kind": "embed", "sub": enc(sub), "sup": enc(sup)})
    for i in range(SEARCH_ISOS):
        # relabelled stage pieces and census planes are isomorphic; perturbed
        # census planes are not (their degree profiles differ)
        a = census[(i // 2) % len(census)]
        if i % 2:
            sup = targets[i % len(targets)]
            a = pf.restrict(sup, line_piece(sup, rng, 4))
        b = relabel(a, rng)
        if i % 4 == 2:
            b = perturb(b, rng) or b
        ops.append({"kind": "iso", "a": enc(a), "b": enc(b), "want": degree_profile(a) == degree_profile(b)})
    for a in census:
        ops.append({"kind": "key", "a": enc(a), "b": enc(relabel(a, rng))})
    rng.shuffle(ops)
    ops += [
        {"kind": "aut", "a": enc(fixture(FANO)), "want": 168},
        {"kind": "aut", "a": enc(fixture(FIG2)), "want": 6},
        {"kind": "aut", "a": enc(nd), "want": 12},
        {"kind": "embed", "sub": enc(fixture(FANO)), "sup": enc(fixture(AG23)), "want": None},
        {"kind": "ag_key", "a": enc(fixture(AG23))},
        {"kind": "census", "n": 7, "want": 47},
    ]
    _write_json(workdir, {"ops": ops})


def search_run(inputs, workdir, record) -> None:
    for i, op in enumerate(inputs["ops"]):
        kind = op["kind"]
        if kind == "embed":
            sub, sup = dec(op["sub"]), dec(op["sup"])
            record(i, lambda: pf.find_embedding(sub, sup))
        elif kind == "iso":
            a, b = dec(op["a"]), dec(op["b"])
            record(i, lambda: pf.are_isomorphic(a, b))
        elif kind == "key":
            a, b = dec(op["a"]), dec(op["b"])
            record(i, lambda: (pf.canonical_key(a), pf.canonical_key(b)))
        elif kind == "aut":
            a = dec(op["a"])
            record(i, lambda: sum(1 for _ in pf.embeddings(a, a)))
        elif kind == "ag_key":
            a = dec(op["a"])
            record(i, lambda: pf.canonical_key(a))
        elif kind == "census":
            record(i, lambda: len(pf.enumerate_planes(op["n"])))


def search_check(inputs, workdir, results, seed) -> dict:
    bad = {}
    for i, op in enumerate(inputs["ops"]):
        got = results[i]
        kind = op["kind"]
        if kind == "embed":
            sub, sup = dec(op["sub"]), dec(op["sup"])
            if "want" in op and got != op["want"]:
                bad[i] = "an embedding was found where none exists"
            elif got is not None:
                image = pf.restrict(sup, frozenset(got.values()))
                mapped = frozenset(frozenset(got[p] for p in l) for l in sub.lines)
                if len(set(got.values())) != len(sub.points) or image.lines != mapped:
                    bad[i] = "returned embedding is not induced"
        elif kind == "iso":
            if op["want"] is False and got is not False:
                bad[i] = "planes with different degree profiles called isomorphic"
            elif op["want"] is True and got is not True:
                bad[i] = "relabelled copy called non-isomorphic"
        elif kind == "key":
            if got[0] != got[1]:
                bad[i] = "canonical_key changed under relabelling"
        elif kind == "ag_key":
            if got[0] != 9 or len(got[1]) != 12:
                bad[i] = f"canonical_key(AG(2,3)) has shape {got[0]}/{len(got[1])}"
        elif got != op["want"]:
            bad[i] = f"got {got}, wanted {op['want']}"
    return bad


# ---------------------------------------------------------------------------
# query: in-process CLI calls on plane files, many distinct planes


def query_setup(seed: int, workdir: str) -> None:
    rng = random.Random(seed)
    chain = pf.build_generic(QUERY_STAGE_STEPS, EXT_BOUND, seeds=seed_templates(seed))
    files = {}
    for i in range(1, len(chain.stages)):
        files[f"stage{i}"] = chain.stages[i]
    for i in range(24):
        files[f"rand{i}"] = random_plane(rng, 8 + i % 7, prefix="p")
    for name, plane in files.items():
        _write_plane(workdir, name, plane)
    small = [n for n, p in files.items() if len(p.points) <= 12]
    oracle_sized = [n for n, p in files.items() if len(p.points) <= 14]
    stages = [f"stage{i}" for i in range(8, len(chain.stages))]

    def subset(name, lo, hi):
        pts = sorted(files[name].points)
        return " ".join(sorted(rng.sample(pts, rng.randint(lo, min(hi, len(pts))))))

    ops = []
    # reports: one stage per size from 24 to 76 points in even steps, so the
    # alpha cost (which grows steeply with size) is alike on every seed and
    # p90 lands among the reports
    for k in range(40):
        size = 24 + (k * 53) // 40
        idx = next((i for i in range(1, len(chain.stages)) if len(chain.stages[i].points) >= size), len(chain.stages) - 1)
        ops.append(["report", f"stage{idx}.plane"])
    for k in range(120):  # every plane in turn, so the size mix is fixed
        verb = ("icl", "strong", "delta")[k % 3]
        name = oracle_sized[k % len(oracle_sized)] if k % 2 else stages[k % len(stages)]
        ops.append([verb, f"{name}.plane", "--subset", subset(name, 1, 4)])
    for k in range(20):
        name = small[k % len(small)]
        plane = files[name]
        lower = pf.icl(plane, frozenset(rng.sample(sorted(plane.points), 2)))
        ops.append(["decompose", f"{name}.plane", "--lower", " ".join(sorted(lower))])
    hosts = small + stages[:8]
    for k in range(20):
        name = hosts[k % len(hosts)]
        a = files[name]
        shared = sorted(rng.sample(sorted(a.points), 2))
        b = random_plane(rng, rng.randint(5, 8), prefix=f"q{k}x")
        b_pts = sorted(b.points)
        rename = {b_pts[0]: shared[0], b_pts[1]: shared[1]}
        b = pf.make_plane(
            [rename.get(p, p) for p in b_pts],
            [[rename.get(p, p) for p in l] for l in b.lines],
        )
        _write_plane(workdir, f"tmpl{k}", b)
        ops.append(["amalgamate", f"{name}.plane", f"tmpl{k}.plane", "--mode", "canonical", "--over", " ".join(shared)])
    rng.shuffle(ops)
    _write_json(workdir, {"ops": ops})


def _cli_argv(argv, workdir):
    return [argv[0], *(os.path.join(workdir, a) if a.endswith(".plane") else a for a in argv[1:])]


def query_run(inputs, workdir, record) -> None:
    for i, argv in enumerate(inputs["ops"]):
        full = _cli_argv(argv, workdir)

        def call(full=full):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(full)
            return code, out.getvalue(), err.getvalue()

        record(i, call)


def _fields(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out.setdefault(key, value)
    return out


def query_check(inputs, workdir, results, seed) -> dict:
    import oracles  # tests/oracles.py, the repo's naive reference

    planes: dict[str, pf.Plane] = {}

    def load(name):
        if name not in planes:
            planes[name] = pf.read_plane(os.path.join(workdir, name))[1]
        return planes[name]

    bad = {}
    for i, argv in enumerate(inputs["ops"]):
        code, out, err = results[i]
        verb = argv[0]
        plane = load(argv[1])
        f = _fields(out)
        small = len(plane.points) <= 14
        try:
            if verb == "report":
                want = 0 if pf.in_K0(plane) else 1
                if code != want:
                    bad[i] = f"exit {code}, library says {want}"
                elif pf.rank(plane) == 3 and int(f["delta"]) != int(f["alpha"]) + 3:
                    bad[i] = "rank-3 report breaks delta = alpha + 3"
                elif int(f["delta"]) != oracles.oracle_delta(plane):
                    bad[i] = "report delta disagrees with the oracle"
                continue
            if verb == "amalgamate":
                b = load(argv[2])
                c = frozenset(argv[6].split())
                want_delta = (
                    oracles.oracle_delta(plane)
                    + oracles.oracle_delta(b)
                    - oracles.oracle_delta(plane, c)
                )
                if code != 0 or int(f["points"]) != len(plane.points | b.points):
                    bad[i] = f"exit {code}, points {f.get('points')}"
                elif int(f["delta"]) != want_delta:
                    bad[i] = f"amalgam delta {f['delta']} != {want_delta}"
                continue
            subset = frozenset(argv[3].split())
            if verb == "decompose":
                chain = [frozenset(s.split()) - {"-"} for s in f["chain"].split(" | ")]
                ok = (
                    code == 0
                    and chain[0] == subset
                    and chain[-1] == plane.points
                    and int(f["length"]) == len(chain) - 1
                    and all(pf.is_strong(plane, a, b) for a, b in zip(chain, chain[1:]))
                )
                if not ok:
                    bad[i] = f"bad decomposition (exit {code})"
            elif verb == "icl":
                want = oracles.oracle_icl(plane, subset) if small else pf.icl(plane, subset)
                got = frozenset(f["icl"].split()) - {"-"}
                if code != 0 or got != want or int(f["size"]) != len(want):
                    bad[i] = f"icl {sorted(got)} != {sorted(want)}"
            elif verb == "strong":
                want = oracles.oracle_is_strong(plane, subset) if small else pf.is_strong(plane, subset)
                if code != (0 if want else 1) or f["strong"] != ("true" if want else "false"):
                    bad[i] = f"strong: exit {code}, want {want}"
            elif verb == "delta":
                want = oracles.oracle_delta(plane, subset)
                if code != 0 or int(f["delta"]) != want:
                    bad[i] = f"delta {f.get('delta')} != {want}"
        except (KeyError, ValueError) as exc:
            bad[i] = f"unreadable output ({exc!r}): {out!r} {err!r}"
    return bad


WORKLOADS = {
    "build": (build_setup, build_run, build_check),
    "audit": (audit_setup, audit_run, audit_check),
    "search": (search_setup, search_run, search_check),
    "query": (query_setup, query_run, query_check),
}
