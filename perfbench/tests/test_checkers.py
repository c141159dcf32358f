"""Each workload's checks reject a wrong output."""

import copy
import json

import oracles
import run
import workloads


def homology_output(verb, ring, groups):
    return {"verb": verb, "ring": ring,
            "groups": [{"degree": n, "rank": r, "torsion": list(t)}
                       for n, (r, t) in enumerate(groups)]}


def test_integral_checker_rejects_a_changed_torsion_factor():
    check = oracles.integral_homology_check("hh", "group", 3, 3)
    right = homology_output("hh", "Z", oracles.integral_closed_form("group", 3, 3))
    assert check(right) == []
    wrong = copy.deepcopy(right)
    wrong["groups"][1]["torsion"] = [3, 3, 9]
    assert check(wrong)


def test_universal_coefficients_reject_a_changed_factor_without_closed_form():
    from strathom import facthom
    from strathom.exactla import ZZ
    groups = facthom.cyclic_homology(oracles.algebra("group", 2, ZZ), 3)
    right = {"verb": "hc", "ring": "Z", "groups": groups}
    check = oracles.integral_homology_check("hc", "group", 2, 3)
    assert check(right) == []
    wrong = copy.deepcopy(right)
    wrong["groups"][3]["torsion"][0] = 3
    assert check(wrong)
    dropped = copy.deepcopy(right)
    dropped["groups"][1]["torsion"] = []
    assert check(dropped)


def test_field_checkers_reject_a_rank_off_by_one():
    dims = oracles.field_closed_form("hh", "group", 3, 3, 3)
    assert dims == [3, 3, 3, 3]
    right = homology_output("hh", "Fp:3", [(d, []) for d in dims])
    check = oracles.field_homology_check("hh", "group", 3, 3, 3)
    assert check(right) == []
    wrong = copy.deepcopy(right)
    wrong["groups"][2]["rank"] += 1
    assert check(wrong)
    assert oracles.field_closed_form("hc", "group", 3, 0, 3) == [3, 0, 3, 0]
    morita = oracles.morita_check("hh", 2)
    assert morita(homology_output("hh", "Q", [(1, []), (0, []), (0, [])])) == []
    assert morita(homology_output("hh", "Q", [(1, []), (1, []), (0, [])]))


def test_negative_checker_rejects_an_inexact_truncation():
    check = oracles.separable_negative_check(2, 1)
    right = {"mode": "negative", "exact": True, "hh_vanishes_above": 0,
             **homology_output("hc", "Q", [(2, []), (0, [])])}
    assert check(right) == []
    assert check({**right, "exact": False})
    assert check({**right, "hh_vanishes_above": 3})


def test_corr_checker_rejects_a_pair_count_off_by_one():
    expected = oracles.corr_pair_count() + oracles.SUITE_CORR_EXTRA_CHECKS
    assert expected == 122_976
    right = {"verb": "check", "suite": "corr", "passed": expected, "failed": 0}
    assert oracles.corr_suite_check(right) == []
    assert oracles.corr_suite_check({**right, "passed": expected - 1})
    assert oracles.corr_suite_check({**right, "failed": 1})
    assert oracles.corr_slice_check(oracles.corr_pair_count((1,)) + 1)


def test_set_checkers_reject_a_class_count_off_by_one():
    from strathom import cyclo
    group = oracles.GroupOracle(*cyclo.symmetric_group_table(3))
    classes = sorted(sorted(c) for c in group.classes)
    right = {"verb": "thh-set",
             "classes": [{"rep": c[0], "members": c} for c in classes]}
    assert group.check_thh(right) == []
    merged = {"classes": [{"rep": classes[0][0],
                           "members": sorted(classes[0] + classes[1])}]
              + right["classes"][2:]}
    assert group.check_thh(merged)
    fixed = sorted(group.fixed)
    tc0 = {"degrees": [2, 3], "tc0": fixed, "trace": {"*": group.unit}}
    assert group.check_tc0(tc0) == []
    extra = sorted(set(min(c) for c in group.classes) - group.fixed)
    assert extra, "S_3 has classes that psi_2 or psi_3 moves"
    assert group.check_tc0({**tc0, "tc0": fixed + extra[:1]})
    assert group.check_tc0({**tc0, "tc0": fixed[1:]})
    facthom = oracles.facthom_check(group, 2, 1)
    right = {"backend": "set", "cardinality": 6 ** 2 * 3}
    assert facthom(right) == []
    assert facthom({**right, "cardinality": right["cardinality"] + 1})


def test_free_monoid_checker_rejects_a_class_count_off_by_one():
    value = oracles.free_monoid_run(2, 4)
    assert oracles.free_monoid_check(value, 2, 4) == []
    entries, by_length = value
    wrong = [(n, c + (n == 3)) for n, c in by_length]
    assert oracles.free_monoid_check((entries, wrong), 2, 4)
    assert oracles.free_monoid_check((entries + 1, by_length), 2, 4)


class FlakyCache:
    """A stand-in for the CLI whose cache hits return other bytes."""

    @staticmethod
    def main(argv):
        import os
        import sys
        cache = argv[argv.index("--cache") + 1] if "--cache" in argv else None
        marker = cache and os.path.join(cache, "stored")
        if marker and os.path.exists(marker):
            sys.stdout.write(json.dumps({"value": 1}, indent=1) + "\n")
            return 0
        if marker:
            os.makedirs(cache, exist_ok=True)
            open(marker, "w").close()
        sys.stdout.write(json.dumps({"value": 1}) + "\n")
        return 0


def test_a_cache_hit_whose_bytes_differ_fails(tmp_path):
    job = workloads.CliJob("flaky", ("verb",), True, lambda parsed: [])
    rounds, hits, ops = run.measure(FlakyCache, [job], 0, str(tmp_path))
    correct, failed, problems = run.verify(ops)
    assert not correct
    assert failed == ops[job.argv].calls == 1 + workloads.MIN_HITS
    assert problems


def test_a_nonzero_exit_fails_every_call_of_its_job(tmp_path):
    class Failing:
        @staticmethod
        def main(argv):
            print('{"error": {}}')
            return 1
    job = workloads.CliJob("failing", ("verb",), False, lambda parsed: [])
    _, _, ops = run.measure(Failing, [job], 0, str(tmp_path))
    correct, failed, _ = run.verify(ops)
    assert correct and failed == 1
