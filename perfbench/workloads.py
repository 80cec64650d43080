"""The three benchmark workloads.

A workload turns (seed, round number) into a round of jobs.  A job is one
call chain into qcgraph (``run``, the timed part) plus a check of its
output against an oracle from ``oracle.py`` (``check``, untimed, returning
an error message or None).  Every round has the same mix of job kinds and
input sizes; the seed only changes the graphs, labels and values drawn, so
runs at different seeds measure the same amount of work.

The library is reached through module attributes at call time
(``self.qc.cohomology.is_coboundary``), so a tracer that rebinds those
attributes sees every call.
"""

from __future__ import annotations

import io
import math
import os
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement
from typing import Any, Callable, Optional

from oracle import (
    GraphSpec,
    SignClassifier,
    WeightOracle,
    census_answer,
    random_graph,
    verlinde_count,
)


@dataclass
class Job:
    """One timed call chain, the check of its output, and the removal of
    any input file it needed."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    cleanup: Callable[[], None] = lambda: None


def draw_spec(
    rng: random.Random, genus: int, legs: int, labels: list[int]
) -> GraphSpec:
    """A seeded graph with the given doubled labels on its legs."""
    edges = random_graph(genus, legs, rng)
    ends = [v for _, a, b in edges for v in (a, b)]
    univalent = [v for v in dict.fromkeys(ends) if ends.count(v) == 1]
    return GraphSpec(tuple(edges), tuple(zip(univalent, labels)))


# -- census ---------------------------------------------------------------

CENSUS_COMMANDS = ("enumerate", "orbits", "cohomology", "oracle-count", "verify-parity")
# (target weight-set size, (genus, legs, level) of the five jobs at that
# size).  Shapes, levels and label multisets (slot_labels) are fixed so that
# each round costs about the same whatever the seed: at a given weight count
# a genus-4 job does twice the flip work of a genus-3 one, and enumeration
# backtracks over k + 1 values per edge.  Levels are even: odd levels have
# no stabilizers, which makes orbits, cohomology and parity jobs several
# times cheaper.  The commands rotate over the shapes from band to band.
CENSUS_BANDS = (
    (100, ((2, 0, 6), (2, 1, 6), (2, 2, 6), (4, 1, 2), (4, 2, 2))),
    (300, ((2, 0, 10), (2, 3, 6), (3, 0, 4), (3, 1, 4), (4, 2, 2))),
    (1000, ((2, 0, 16), (2, 1, 12), (2, 2, 8), (3, 2, 4), (3, 3, 4))),
    (3000, ((2, 2, 12), (2, 3, 8), (3, 1, 6), (3, 2, 6), (4, 1, 4))),
    (10000, ((2, 2, 14), (2, 3, 12), (3, 2, 6), (3, 3, 6), (4, 3, 4))),
)
# one job per round at the top size: 43953 weights
CENSUS_TOP = (40000, (3, 0, 12), "orbits")
CENSUS_MAX_LABEL = 6
CENSUS_CAP = 10**9  # passed explicitly: above 2^g * |weights| for every band


@cache
def slot_labels(genus: int, legs: int, k: int, target: int) -> tuple[int, ...]:
    """The multiset of doubled leg labels whose level-k weight count is
    closest to target.  The count does not depend on which leg carries which
    label, so a seeded assignment keeps the size of a slot fixed."""
    best = min(
        (abs(math.log(count / target)), labels)
        for labels in combinations_with_replacement(range(min(k, CENSUS_MAX_LABEL) + 1), legs)
        if (count := verlinde_count(genus, list(labels), k)) > 0
    )
    return best[1]


_ORBIT_LINE = re.compile(r"orbit (\S+) size (\d+) stabilizer \[(.*)\]")
_COHOMOLOGY_LINE = re.compile(r"orbit (\S+) stabilizer-dim (\d+)")


def _weight(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


class Census:
    """CLI subcommands in-process, one fresh (graph, level, boundary) triple
    per job, as separate command-line invocations would see them.  Each
    round runs every subcommand at each size band of CENSUS_BANDS, plus the
    CENSUS_TOP job."""

    name = "census"

    def __init__(self, seed: int, workdir: str, qc):
        self.seed, self.workdir, self.qc = seed, workdir, qc
        self.seen: set = set()

    def draw_triple(
        self, rng: random.Random, target: int, genus: int, legs: int, k: int
    ) -> GraphSpec:
        """A new graph of the given shape whose legs carry the slot's labels
        in a seeded order."""
        labels = list(slot_labels(genus, legs, k, target))
        while True:
            rng.shuffle(labels)
            spec = draw_spec(rng, genus, legs, labels)
            if (spec, k) not in self.seen:
                self.seen.add((spec, k))
                return spec

    def job(self, spec: GraphSpec, k: int, command: str, label: str) -> Job:
        path = os.path.join(self.workdir, f"{label}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(spec.text())
        argv = [command, "--graph", path, "--level", str(k), "--cap", str(CENSUS_CAP)]

        def run():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = self.qc.cli.run(argv)
            return code, out.getvalue(), err.getvalue()

        def check(result) -> Optional[str]:
            return check_census(command, result, spec, k)

        return Job(f"{command} {label} k={k}", run, check, lambda: os.remove(path))

    def round(self, r: int) -> list[Job]:
        rng = random.Random(f"census:{self.seed}:{r}")
        slots = [
            (target, shape, CENSUS_COMMANDS[(i + j) % len(CENSUS_COMMANDS)])
            for i, (target, shapes) in enumerate(CENSUS_BANDS)
            for j, shape in enumerate(shapes)
        ]
        slots.append(CENSUS_TOP)
        rng.shuffle(slots)
        jobs = []
        for target, (genus, legs, k), command in slots:
            spec = self.draw_triple(rng, target, genus, legs, k)
            jobs.append(self.job(spec, k, command, f"r{r}-{len(jobs)}"))
        return jobs

    def warmup(self) -> Job:
        rng = random.Random(f"census:{self.seed}:warmup")
        return self.job(self.draw_triple(rng, 1000, 3, 2, 4), 4, "cohomology", "warmup")


def check_census(command: str, result, spec: GraphSpec, k: int) -> Optional[str]:
    code, out, err = result
    if code != 0:
        return f"exit code {code}: {err.strip()[:200]}"
    ans = census_answer(spec, k)
    if len(ans.weights) != ans.verlinde:
        return f"oracles disagree: {len(ans.weights)} weights, Verlinde {ans.verlinde}"
    genus = ans.oracle.genus
    lines = out.splitlines()
    if command == "enumerate":
        rows = [tuple(int(x) for x in line.split("\t")) for line in lines]
        if rows != ans.weights:
            return f"{len(rows)} rows, expected the {ans.verlinde} admissible weights"
        return None
    if command == "orbits":
        if len(lines) != ans.orbit_count:
            return f"{len(lines)} orbits, expected {ans.orbit_count}"
        total = 0
        for line in lines:
            m = _ORBIT_LINE.fullmatch(line)
            if not m:
                return f"bad orbit line {line!r}"
            rep, size = _weight(m[1]), int(m[2])
            stab = [s for s in m[3].split(";") if s]
            d = ans.stab_dim.get(rep)
            if d is None or len(stab) != d or size != 1 << (genus - d):
                return f"wrong orbit {line!r}"
            if min(ans.oracle.flip(c, rep) for c in ans.oracle.cycles) != rep:
                return f"orbit representative {rep} is not the orbit minimum"
            total += size
        if total != ans.verlinde:
            return f"orbit sizes sum to {total}, expected {ans.verlinde}"
        return None
    if command == "cohomology":
        if not lines or lines[0] != f"order {1 << ans.class_log2}":
            return f"wrong order line {lines[:1]}, expected 2^{ans.class_log2}"
        if len(lines) - 1 != ans.orbit_count:
            return f"{len(lines) - 1} orbits, expected {ans.orbit_count}"
        for line in lines[1:]:
            m = _COHOMOLOGY_LINE.fullmatch(line)
            if not m or ans.stab_dim.get(_weight(m[1])) != int(m[2]):
                return f"wrong orbit line {line!r}"
        return None
    if command == "oracle-count":
        if lines != [f"classes {1 << ans.class_log2}"]:
            return f"wrong class count {lines[:1]}, expected 2^{ans.class_log2}"
        return None
    if command == "verify-parity":
        if len(lines) != ans.orbit_count or not all(
            line.startswith("PASS orbit ") for line in lines
        ):
            return f"parity report has {len(lines)} lines, expected {ans.orbit_count} PASS"
        return None
    return f"unknown command {command}"


# -- cocycles -------------------------------------------------------------

# (genus, legs, level): even levels, where nontrivial invariants exist.
# The costliest stratum comes twice and the cheapest twice, so that p90
# falls inside the costliest stratum and the median inside the sixth
# cheapest of eleven jobs, not on the edge between two strata.
COCYCLE_STRATA = (
    (2, 0, 2),
    (2, 0, 2),
    (2, 0, 4),
    (2, 1, 4),
    (2, 0, 6),
    (2, 1, 6),
    (3, 0, 2),
    (3, 1, 2),
    (3, 0, 4),
    (3, 1, 4),
    (3, 1, 4),
)
COCHAIN_ORDER = 12
LEG_LABEL = 2


class Cocycles:
    """Library calls on twisted cocycles with general torsion values: the
    coboundary round trip, a nontrivial lifted class, the external cocycle,
    an intertwiner and the monomial matrices.  Each round has one job per
    entry of COCYCLE_STRATA."""

    name = "cocycles"

    def __init__(self, seed: int, workdir: str, qc):
        self.seed, self.qc = seed, qc

    def instance(self, rng: random.Random, genus: int, legs: int, k: int):
        """A graph with some weight of nontrivial stabilizer, with its
        oracle.  Legs carry LEG_LABEL, so the weight count of a stratum is
        the same whatever the seed."""
        while True:
            spec = draw_spec(rng, genus, legs, [LEG_LABEL] * legs)
            oracle = WeightOracle(spec, k)
            weights = oracle.weights()
            if any(oracle.stabilizer_dim(w) for w in weights):
                return spec, oracle, weights

    def job(self, rng: random.Random, genus: int, legs: int, k: int, label: str) -> Job:
        qc = self.qc
        spec, oracle, weights = self.instance(rng, genus, legs, k)
        graph, boundary = qc.parse_graph(spec.text())
        circle = qc.circle.CircleValue
        cochain = {
            w: circle(Fraction(rng.randrange(COCHAIN_ORDER), COCHAIN_ORDER))
            for w in weights
        }
        inv = qc.CohomologyInvariant.from_dict(
            random_invariant(oracle, weights, rng, qc.ONE, qc.MINUS_ONE)
        )

        def run():
            coh, ext, rep = qc.cohomology, qc.external, qc.represent
            dc = coh.coboundary_of(graph, k, boundary, cochain)
            exact = coh.is_coboundary(dc)
            chain = coh.cobounding_chain(dc)
            round_trip = coh.coboundary_of(graph, k, boundary, chain).table == dc.table
            lifted = coh.cocycle_from_characters(graph, k, boundary, inv)
            lifted_exact = coh.is_coboundary(lifted)
            external = ext.construct_external_cocycle(graph, k, boundary)
            external_ok = ext.satisfies_external_condition(external)
            twisted = lifted * dc
            between = coh.cobounding_chain(twisted * lifted.inverse())
            intertwined = rep.verify_intertwiner(lifted, twisted, between)
            mats = [rep.rep_matrix(twisted, b) for b in twisted.basis]
            return (
                (exact, round_trip, lifted_exact, external_ok, intertwined),
                dc,
                lifted,
                twisted,
                mats,
            )

        def check(result) -> Optional[str]:
            flags, dc, lifted, twisted, mats = result
            expected = (True, True, False, True, True)
            if flags != expected:
                names = ("coboundary", "round trip", "lifted coboundary", "external", "intertwiner")
                return "wrong " + ", ".join(
                    f"{n}={f}" for n, f, e in zip(names, flags, expected) if f != e
                )
            return check_tables(oracle, weights, cochain, dc, lifted, twisted, mats)

        return Job(f"cocycles {label} g={genus} n={legs} k={k}", run, check)

    def round(self, r: int) -> list[Job]:
        rng = random.Random(f"cocycles:{self.seed}:{r}")
        return [
            self.job(rng, g, n, k, f"r{r}-{i}") for i, (g, n, k) in enumerate(COCYCLE_STRATA)
        ]

    def warmup(self) -> Job:
        return self.job(random.Random(f"cocycles:{self.seed}:warmup"), 2, 0, 4, "warmup")


def random_invariant(oracle: WeightOracle, weights, rng: random.Random, one, minus_one):
    """A random nontrivial per-orbit stabilizer character: on each orbit,
    lambda -> (-1)^|lambda & mask| for a random edge mask, which is a
    homomorphism on the stabilizer."""
    n = len(oracle.edges)
    chars: dict = {}
    seen: set = set()
    nontrivial = None
    for w in weights:
        if w in seen:
            continue
        orbit = {oracle.flip(c, w) for c in oracle.cycles}
        seen |= orbit
        rep = min(orbit)
        stab = [c for c in oracle.cycles if oracle.flip(c, rep) == rep]
        mask = rng.getrandbits(n)
        chars[rep] = {c: bin(c & mask).count("1") % 2 for c in stab}
        if nontrivial is None and len(stab) > 1:
            nontrivial = (rep, stab)
    if not any(v for ch in chars.values() for v in ch.values()):
        rep, stab = nontrivial
        lowest = stab[1] & -stab[1]
        chars[rep] = {c: bin(c & lowest).count("1") % 2 for c in stab}
    return {
        rep: {c: minus_one if v else one for c, v in ch.items()}
        for rep, ch in chars.items()
    }


def check_tables(oracle, weights, cochain, dc, lifted, twisted, mats) -> Optional[str]:
    """Coboundary entries against the cochain, and each monomial matrix
    against the flip permutation and the product of the two tables, all in
    exponent arithmetic mod 1."""
    if list(twisted.weights) != weights:
        return "weights of the table differ from the admissible weights"
    index = {w: i for i, w in enumerate(weights)}
    for b, mat in zip(twisted.basis, mats):
        for i, w in enumerate(weights):
            image = oracle.flip(b, w)
            expected_dc = (cochain[image].exponent - cochain[w].exponent) % 1
            if dc.table[(b, w)].exponent != expected_dc:
                return f"coboundary entry at {w} differs from the cochain"
            if mat.perm[i] != index[image]:
                return f"matrix permutation differs at {w}"
            expected = (lifted.table[(b, w)].exponent + expected_dc) % 1
            if mat.scalars[i].exponent != expected:
                return f"matrix scalar differs at {w}"
    return None


# -- factorization --------------------------------------------------------

FAMILY_CAP = 32  # sign cocycles drawn per instance
FACTOR_CAP = 200_000  # decomposition cap, as in the acceptance gate

# fixed topologies, so that the seed changes edge order, names and values
# but not the amount of work: a genus-3 graph with loops costs twice as
# much to factor as one without
TOPOLOGIES = {
    "theta": (("a", "u", "v"), ("b", "u", "v"), ("c", "u", "v")),
    "dumbbell": (("a", "u", "u"), ("b", "v", "v"), ("c", "u", "v")),
    "genus3_handle": (
        ("a", "u", "v"), ("b", "u", "v"), ("c", "u", "x"),
        ("d", "x", "y"), ("e", "x", "y"), ("f", "y", "v"),
    ),
    "gamma1": (("a", "u", "l1"), ("b", "u", "u")),
    "gamma2": (("a", "u", "l1"), ("b", "v", "l2"), ("c", "u", "v"), ("d", "u", "v")),
    "gamma3": (
        ("a", "u", "l1"), ("b", "v", "l2"), ("c", "x", "l3"),
        ("d", "u", "v"), ("e", "v", "x"), ("f", "x", "u"),
    ),
}

# (topology, levels, verifications): at most 6 cuttable edges; legs carry
# LEG_LABEL.  Verifying functoriality on genus3_handle takes longer
# than a round of everything else, so it only runs the equivalence pairs.
FACTOR_STRATA = (
    ("genus3_handle", (2,), False),
    ("theta", (2, 3, 4), True),
    ("dumbbell", (2, 3, 4), True),
    ("gamma1", (2, 3, 4), True),
    ("gamma2", (2, 3, 4), True),
    ("gamma3", (2, 3, 4), True),
)


def relabel(edges, rng: random.Random) -> GraphSpec:
    """A fixed topology with seeded edge order and fresh names; vertices
    named l* are legs."""
    tag = f"{rng.randrange(36**4):04x}"
    order = list(edges)
    rng.shuffle(order)
    spec_edges = tuple(
        (f"e{tag}{i}", f"{a}{tag}", f"{b}{tag}") for i, (_, a, b) in enumerate(order)
    )
    legs = [v for _, a, b in spec_edges for v in (a, b) if v.startswith("l")]
    return GraphSpec(spec_edges, tuple((v, LEG_LABEL) for v in legs))


class Factorization:
    """The pattern of the factorization-equivalence criterion at a size
    that stays steady: pairs of sign cocycles compared under every cut, plus
    functoriality and characterization of the external class.  Each round
    runs every stratum of FACTOR_STRATA at each of its levels: two
    equivalence pairs (one within a class, and one across classes when the
    instance has two) and, where the stratum says so, the two
    verifications."""

    name = "factorization"

    def __init__(self, seed: int, workdir: str, qc):
        self.seed, self.qc = seed, qc

    def instance_jobs(self, rng: random.Random, topology: str, k: int, verify: bool,
                      label: str) -> list[Job]:
        qc = self.qc
        spec = relabel(TOPOLOGIES[topology], rng)
        graph, boundary = qc.parse_graph(spec.text())
        family = list(qc.cohomology.enumerate_sign_cocycles(graph, k, boundary, cap=FAMILY_CAP))
        classify = SignClassifier(WeightOracle(spec, k), family[0].basis)

        def same_class(t):
            signs = {w: rng.choice((qc.ONE, qc.MINUS_ONE)) for w in t.weights}
            return t * qc.coboundary_of(graph, k, boundary, signs)

        first = rng.choice(family)
        first_class = classify.invariant(first.table)
        others = [t for t in family if classify.invariant(t.table) != first_class]
        second = rng.choice(others) if others else same_class(first)
        jobs = []
        for i, (t1, t2) in enumerate([(first, same_class(first)), (first, second)]):
            expected = classify.invariant(t1.table) == classify.invariant(t2.table)
            jobs.append(
                Job(
                    f"equivalent {label}.{i} {topology} k={k} expect={expected}",
                    lambda t1=t1, t2=t2: qc.factorize.equivalent_under_factorization(
                        t1, t2, cap=FACTOR_CAP
                    ),
                    lambda out, e=expected: None if out is e else f"returned {out}",
                )
            )
        if verify:
            for fn in ("verify_functoriality", "verify_characterization"):
                jobs.append(
                    Job(
                        f"{fn} {label} {topology} k={k}",
                        lambda fn=fn: getattr(qc.factorize, fn)(
                            graph, k, boundary, cap=FACTOR_CAP
                        ),
                        lambda out: None if out is True else f"returned {out}",
                    )
                )
        return jobs

    def round(self, r: int) -> list[Job]:
        rng = random.Random(f"factorization:{self.seed}:{r}")
        jobs = []
        for topology, levels, verify in FACTOR_STRATA:
            for k in levels:
                jobs += self.instance_jobs(rng, topology, k, verify, f"r{r}-{len(jobs)}")
        return jobs

    def warmup(self) -> Job:
        rng = random.Random(f"factorization:{self.seed}:warmup")
        return self.instance_jobs(rng, "theta", 2, False, "warmup")[0]


WORKLOADS = {w.name: w for w in (Census, Cocycles, Factorization)}
