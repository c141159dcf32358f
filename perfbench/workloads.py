"""The benchmark's workloads: their inputs, job lists and output checks.

Each workload function writes its JSON inputs into a directory and returns its
job list.  A CLI job is one `strathom` argv; with `cache=True` it runs with
`--cache <dir of the round>`, so its first call in a round stores and its
later calls hit.  A library job calls `strathom` functions directly, for
work the CLI cannot reach.  Every check compares an output with an
independent computation or a required property (see `oracles`); none
compares with a stored copy of an earlier output.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import oracles


@dataclass
class CliJob:
    label: str
    argv: tuple
    cache: bool
    check: Callable  # parsed stdout JSON -> list of problems


@dataclass
class LibJob:
    label: str
    run: Callable     # () -> a value that supports ==
    check: Callable   # value -> list of problems


MIN_HITS = 120


def round_plan(jobs):
    """One round: the job list, and after each job from the first cached
    one on, an equal share of at least MIN_HITS cache hits, round robin over
    the cached jobs stored so far.  Spread over the round, the hits meet the
    machine at many moments; the job order is fixed, so their mix is too.
    Returns a list of (job, is_hit)."""
    first = next((i for i, j in enumerate(jobs)
                  if isinstance(j, CliJob) and j.cache), len(jobs))
    per_slot = -(-MIN_HITS // (len(jobs) - first)) if first < len(jobs) else 0
    plan, stored, turn = [], [], 0
    for job in jobs:
        plan.append((job, False))
        if isinstance(job, CliJob) and job.cache:
            stored.append(job)
        for _ in range(per_slot if stored else 0):
            plan.append((stored[turn % len(stored)], True))
            turn += 1
    return plan


def _write(directory, name, data):
    path = os.path.join(directory, f"{name.replace(':', '')}.json")
    with open(path, "w") as fh:
        json.dump(data, fh, sort_keys=True)
    return path


# -- homology over Z --------------------------------------------------------------

def homology_z(directory, seed, small=False):
    """hh and hc over Z.  Smith normal form is almost all of the time."""
    from strathom.exactla import ZZ
    if small:
        hh = [("group", 3, 2), ("poly", 2, 3)]
        hc = [("group", 2, 3)]
    else:
        hh = [("group", 3, 5), ("group", 2, 6), ("group", 4, 3),
              ("group", 5, 2), ("poly", 2, 6), ("poly", 3, 4), ("poly", 4, 3)]
        hc = [("group", 3, 4), ("group", 2, 5), ("poly", 2, 5)]
    jobs = []
    for verb, specs in (("hh", hh), ("hc", hc)):
        for family, m, top in specs:
            alg = oracles.algebra(family, m, ZZ)
            path = _write(directory, f"{family}{m}-Z", alg.to_json_dict())
            jobs.append(CliJob(
                f"{verb} Z {family} {m} <= {top}",
                (verb, "--algebra", path, "--max-degree", str(top)), True,
                oracles.integral_homology_check(verb, family, m, top)))
    return jobs


# -- homology over fields ----------------------------------------------------------

def homology_field(directory, seed, small=False):
    """hh and hc over Q and F_p: complex build and rank, no Smith step."""
    from strathom import checks, enrich
    from strathom.exactla import QQ, RingFp
    if small:
        groups = [("hh", "group", 3, 3, 2), ("hc", "group", 2, 0, 3)]
        matrix = [("hh", 1)]
        negative = [("group", 2, 1, 1)]
        n_random, random_top = 1, 1
    else:
        groups = [("hh", "group", 3, 0, 5), ("hh", "group", 3, 3, 5),
                  ("hh", "group", 3, 7, 5), ("hc", "group", 3, 0, 5),
                  ("hc", "group", 3, 3, 5), ("hc", "group", 3, 7, 5),
                  ("hh", "group", 4, 2, 3), ("hc", "group", 4, 2, 3),
                  ("hh", "group", 2, 2, 6), ("hc", "group", 2, 2, 6),
                  ("hh", "poly", 3, 0, 4), ("hh", "poly", 3, 3, 4)]
        matrix = [("hh", 3), ("hc", 3)]
        negative = [("group", 3, 2, 1), ("matrix", 2, 1, 1)]
        n_random, random_top = 4, 2
    jobs = []
    for verb, family, m, p, top in groups:
        ring = RingFp(p) if p else QQ
        alg = oracles.algebra(family, m, ring)
        path = _write(directory, f"{family}{m}-{p or 'Q'}", alg.to_json_dict())
        jobs.append(CliJob(
            f"{verb} {ring.name} {family} {m} <= {top}",
            (verb, "--algebra", path, "--max-degree", str(top)), True,
            oracles.field_homology_check(verb, family, m, p, top)))
    m2 = _write(directory, "matrix2-Q", enrich.matrix_algebra(QQ, 2).to_json_dict())
    for verb, top in matrix:
        jobs.append(CliJob(
            f"{verb} Q M_2 <= {top}",
            (verb, "--algebra", m2, "--max-degree", str(top)), True,
            oracles.morita_check(verb, top)))
    for family, m, top, i_max in negative:
        if family == "matrix":
            path, hh0 = m2, 1
        else:
            path = _write(directory, f"{family}{m}-Q",
                          oracles.algebra(family, m, QQ).to_json_dict())
            hh0 = m
        jobs.append(CliJob(
            f"hc --negative Q {family} {m} <= {top}",
            ("hc", "--negative", "--algebra", path, "--max-degree", str(top),
             "--i-max", str(i_max)), True,
            oracles.separable_negative_check(hh0, top)))
    rng = random.Random(seed)
    for i in range(n_random):
        alg_seed = rng.randrange(10**6)
        for ring in (QQ, RingFp(5)):
            alg = checks.random_associative_algebra(ring, alg_seed)
            path = _write(directory, f"random{alg_seed}-{ring.name}",
                          alg.to_json_dict())
            jobs.append(CliJob(
                f"hh {ring.name} random({alg_seed}) <= {random_top}",
                ("hh", "--algebra", path, "--max-degree", str(random_top)),
                True, oracles.commutator_check(alg, random_top)))
    return jobs


# -- the corr suite ---------------------------------------------------------------

def corr_suite(directory, seed, small=False):
    """`check --suite corr`: span pushforward functoriality, all of it in
    enrich, manifold and checks.  A small facthom call gives the cache its
    hits, since `check` results are not meant to be served from a cache."""
    from strathom import cyclo, manifold
    from strathom.fincat import monoid_category
    z3 = cyclo.cyclic_group_table(3)
    bz3 = _write(directory, "bz3", monoid_category(*z3).to_json_dict())
    path2 = manifold.GraphManifold(
        ("a", "b", "c"), (("e0", "a", "b"), ("e1", "b", "c")))
    probe = CliJob("facthom B(Z/3) over a 2-edge path",
                   ("facthom", "--manifold",
                    _write(directory, "path2", path2.to_json_dict()),
                    "--category", bz3), True,
                   oracles.facthom_check(oracles.GroupOracle(*z3), 2, 0))
    if small:
        suite = LibJob("corr index checks with |T| = 1", oracles.corr_slice_run,
                       oracles.corr_slice_check)
    else:
        suite = CliJob("check --suite corr", ("check", "--suite", "corr"),
                       False, oracles.corr_suite_check)
    # the probe first, so that its hits come both before and after the suite
    return [probe, suite]


# -- the Set verbs ------------------------------------------------------------------

def set_verbs(directory, seed, small=False):
    """thh-set, tc0, trace and facthom on group categories, each call
    uncached and then stored; trace classes of a bounded free monoid through
    the library.  A verb call on S_5 takes about 3 s, nearly all of it in
    `validate_category`, so S_5 gets only tc0, which builds the trace
    classes, the repetition operators and the trace; the other verbs run on
    groups up to S_4.  That keeps a round near 12 s, two rounds a run."""
    from strathom import cyclo
    rng = random.Random(seed)
    all_verbs = ("thh-set", "tc0", "trace", "facthom")
    groups = [("S_3", cyclo.symmetric_group_table(3), all_verbs),
              ("Q_8", cyclo.quaternion_group_table(), all_verbs)]
    if not small:
        m = rng.randrange(5, 10)
        groups += [(f"Z/{m}", cyclo.cyclic_group_table(m), all_verbs),
                   ("S_4", cyclo.symmetric_group_table(4), all_verbs),
                   ("S_5", cyclo.symmetric_group_table(5), ("tc0",))]
    jobs = []
    for name, table, verbs in groups:
        group = oracles.GroupOracle(*table)
        cpath = _write(directory, name.replace("/", ""),
                       cyclo.group_category(*table).to_json_dict())
        mani, edges, circles = oracles.random_manifold(rng, len(group.elements))
        mpath = _write(directory, f"manifold-{name.replace('/', '')}",
                       mani.to_json_dict())
        calls = {
            "thh-set": (("thh-set", "--category", cpath), group.check_thh),
            "tc0": (("tc0", "--category", cpath, "--degrees", "2,3"),
                    group.check_tc0),
            "trace": (("trace", "--category", cpath), group.check_trace),
            "facthom": (("facthom", "--manifold", mpath, "--category", cpath),
                        oracles.facthom_check(group, edges, circles)),
        }
        for verb in verbs:
            argv, check = calls[verb]
            jobs += [CliJob(f"{verb} {name}", argv, cache, check)
                     for cache in (False, True)]
    letters, bound = (2, 4) if small else (3, 8)
    jobs.append(LibJob(
        f"trace classes of free_monoid_category({letters}, {bound})",
        lambda: oracles.free_monoid_run(letters, bound),
        lambda v: oracles.free_monoid_check(v, letters, bound)))
    return jobs


WORKLOADS = {
    "homology-z": homology_z,
    "homology-field": homology_field,
    "corr-suite": corr_suite,
    "set-verbs": set_verbs,
}

# A set-verbs round takes 11-17 s of wall time, so in a 30 s run the
# machine's speed would decide between one round and two; two always keeps
# the median's make-up the same from run to run.
MIN_ROUNDS = {"set-verbs": 2}
