"""Command-line front end: verbs, exit codes, schema stability, streaming."""

import json
import os
import subprocess
import sys

import pytest

from sgp.cli import run
from sgp.core import format_semigroup, from_generators
from sgp.families import cover_family


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fake_fork(monkeypatch, cores):
    """Run forked scans in-process on a machine with this many cores; return
    the (worker count, shard results in dispatch order) of each forked scan."""
    import os
    import sgp.cli
    forks = []

    def run_in_process(shards, lo, predicate, workers):
        results = [sgp.cli._scan_worker(shard, lo, predicate) for shard in shards]
        forks.append((workers, results))
        return results

    monkeypatch.setattr(sgp.cli, "_fork_shards", run_in_process)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    return forks


@pytest.fixture
def time_limit():
    """Fail a test that waits on forked workers for over a minute, rather
    than hang the suite; the alarm interrupts the parent's wait."""
    import signal

    def expired(signum, frame):
        raise TimeoutError("forked scan still waiting after 60 s")

    old = signal.signal(signal.SIGALRM, expired)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


def assert_no_children():
    import os
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_info(capsys):
    code, out, _ = invoke(capsys, "info", "gens:4,7")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"genus": 9, "frobenius": 17, "conductor": 18,
                       "gaps": [1, 2, 3, 5, 6, 9, 10, 13, 17],
                       "min_gens": [4, 7]}


def test_classify_schema_stable(capsys):
    code, out, _ = invoke(capsys, "classify", "gens:4,6,17", "--N", "2",
                          "--gamma", "1")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["N", "gamma", "cond_a", "cond_b", "cond_c",
                             "is_type", "gamma_N"]
    assert payload["is_type"] is True
    # gamma defaults to the natural gamma for N
    code, out, _ = invoke(capsys, "classify", "gens:4,7", "--N", "2")
    assert json.loads(out)["gamma"] == 3


def test_bounds_eval(capsys):
    code, out, _ = invoke(capsys, "bounds", "eval", "rho3", "2", "1")
    assert code == 0
    assert json.loads(out)["value"] == 9
    code, out, _ = invoke(capsys, "bounds", "eval", "coprime_lower",
                          "gens:4,6,17", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 17
    assert payload["arguments"] == [10, 1, 2]
    assert payload["hypothesis_met"] is True


def test_bounds_eval_rejects_non_integer_arguments(capsys):
    for argv in (["rho3", "x", "1"], ["coprime_lower", "gens:2,3", "x"]):
        code, out, err = invoke(capsys, "bounds", "eval", *argv)
        assert code == 64 and out == "", argv
        assert json.loads(err)["error"] == {
            "name": "Usage", "message": "bound arguments must be integers"}, argv


def test_info_generator_window(capsys):
    # Schur's bound stops at the prefix <2, 3>, so the huge generator costs
    # nothing; <100000, 100001> would sieve about 10^10 numbers
    code, out, _ = invoke(capsys, "info", "gens:2,3,4000000001")
    assert code == 0
    assert json.loads(out)["gaps"] == [1]
    code, out, err = invoke(capsys, "info", "gens:100000,100001")
    assert code == 2 and err == ""
    assert json.loads(out)["error"]["name"] == "CapExceeded"


def test_obstruct(capsys):
    spec = "gaps:" + ",".join(map(str, list(range(1, 13)) + [19, 21, 24, 25]))
    code, out, _ = invoke(capsys, "obstruct", spec, "--n", "2", "--explain")
    assert code == 0
    payload = json.loads(out)
    assert payload["cardinality"] == 46
    assert payload["bound"] == 45
    assert payload["passes_bc"] is False
    assert payload["lambda"] == 6
    assert payload["extra_sums"] == [38, 40, 42, 43, 45, 48]
    code, out, _ = invoke(capsys, "obstruct", spec, "--n", "3", "--explain")
    assert json.loads(out)["extra_sums"] is None  # only defined for n = 2


def test_family_buchweitz(capsys):
    code, out, _ = invoke(capsys, "family", "buchweitz", "--params", "g=16", "i=4")
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "buchweitz_gen"
    assert payload["semigroup"].startswith("gaps:1,2,3")
    assert all(claim["holds"] for claim in payload["claims"])


def test_family_cover_bump_g(capsys):
    args = ["family", "cover", "--params", "htilde=gens:2,3", "N=3", "g=26", "f=1"]
    code, out, _ = invoke(capsys, *args)
    assert code == 2  # 2g - f is divisible by 3
    code, out, _ = invoke(capsys, *args, "--bump-g")
    assert code == 0
    assert json.loads(out)["params"]["g"] == 27
    # N = 0 is rejected as not prime with or without --bump-g
    args = ["family", "cover", "--params", "htilde=gens:2,3", "N=0", "g=10", "f=1"]
    plain = invoke(capsys, *args)
    assert invoke(capsys, *args, "--bump-g") == plain
    code, out, err = plain
    assert code == 2 and err == ""
    assert json.loads(out)["error"] == {"name": "NotPrime", "message": "0 is not prime"}


def test_family_emit_gens(capsys):
    code, out, _ = invoke(capsys, "family", "extremal", "--params", "N=2",
                          "gamma=1", "--emit", "gens")
    assert code == 0
    assert json.loads(out)["semigroup"] == "gens:4,7"


def test_project(capsys):
    code, out, _ = invoke(capsys, "project", "gens:4,6,17", "--N", "2")
    assert code == 0
    assert json.loads(out)["gaps"] == [1]


def test_scan_symmetric_genus_two(capsys):
    code, out, _ = invoke(capsys, "scan", "--genus", "2",
                          "--predicate", "symmetric")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines[-1]["matched"] == 1 and lines[-1]["scanned"] == 2
    assert lines[0]["gaps"] == [1, 3]


def test_scan_type_predicate(capsys):
    code, out, _ = invoke(capsys, "scan", "--genus", "0..6",
                          "--predicate", "type:2,1")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    from sgp.classify import type_verdict
    from sgp.core import enumerate_genus_range
    expected = sorted((H.genus, H.gaps) for H in enumerate_genus_range(0, 6)
                      if type_verdict(H, 2, 1).is_type)
    assert [(r["genus"], tuple(r["gaps"])) for r in rows[:-1]] == expected
    assert rows[-1]["matched"] == len(expected) > 0


def test_scan_rows_carry_min_generators(capsys):
    # rows print the generators each node sieves when read; the constructor agrees
    from sgp.core import from_gaps
    # bc_fail --n 2 first matches at genus 16
    for genus, predicate, matched in (
            ("0..9", ["symmetric"], 46), ("0..9", ["type:2,1"], 13),
            ("0..12", ["quasi_symmetric"], 61), ("0..12", ["obstruction"], 1),
            ("0..12", ["bc_fail", "--n", "2"], 0), ("16", ["bc_fail", "--n", "2"], 2),
            ("0..12", ["type:3,1"], 68)):
        code, out, _ = invoke(capsys, "scan", "--genus", genus,
                              "--predicate", *predicate)
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows.pop()["matched"] == len(rows) == matched, predicate
        for row in rows:
            assert row["min_gens"] == list(from_gaps(row["gaps"]).min_generators)


def test_scan_parallel_output_identical(capsys, monkeypatch, time_limit):
    import os
    # three cores, so both parallel runs fork on any host
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    # the shard chain stops at genus max(lo, hi - 5): at hi - 5 for 2..9,
    # at lo for the other ranges, and at lo = hi for 16
    for predicate in (["quasi_symmetric"], ["obstruction"], ["bc_fail", "--n", "3"]):
        for genus in ("0..3", "2..9", "6..9", "12..14", "16"):
            base = ["scan", "--genus", genus, "--predicate", *predicate]
            code1, out1, _ = invoke(capsys, *base, "--parallelism", "1")
            for parallelism in ("2", "3"):
                code2, out2, _ = invoke(capsys, *base, "--parallelism", parallelism)
                assert code1 == code2 == 0
                assert out1 == out2, (predicate, genus, parallelism)
    assert_no_children()


def test_scan_decodes_gaps_only_for_printed_rows(capsys, monkeypatch):
    # a tree node decodes its gap tuple when it is read, and a scan reads
    # it only for the rows it prints, bc_fail's sumsets included
    import sgp.cli
    original = sgp.cli.descendants
    seen = []

    def recording(root, max_genus):
        for H in original(root, max_genus):
            seen.append(H)
            yield H

    monkeypatch.setattr(sgp.cli, "descendants", recording)
    for predicate in (["symmetric"], ["bc_fail", "--n", "2"], ["bc_fail", "--n", "3"],
                      ["obstruction"], ["type:2,1"]):
        seen.clear()
        code, out, _ = invoke(capsys, "scan", "--genus", "11..16",
                              "--predicate", *predicate, "--parallelism", "1")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        decoded = sorted(H.gaps for H in seen if H._gaps is not None)
        assert sum(H.genus >= 11 for H in seen) == rows[-1]["scanned"]
        assert decoded == sorted(tuple(r["gaps"]) for r in rows[:-1]), predicate


def test_integer_arguments_are_ascii(capsys, monkeypatch):
    # int() alone reads any script's digits; every integer the CLI reads
    # is an optional '-' and ASCII digits, so these are usage errors
    for argv in (["obstruct", "gens:3,4,5", "--n", "\u0663"],
                 ["family", "buchweitz", "--params", "g=\u0661\u0666", "i=4"],
                 ["scan", "--genus", "3", "--predicate", "type:\u0662,0"],
                 ["bounds", "eval", "rho3", "\u0662", "1"],
                 ["scan", "--genus", "3", "--predicate", "symmetric",
                  "--parallelism", "\u0662"],
                 ["classify", "gens:4,7", "--N", "+2"],
                 ["obstruct", "gens:3,4,5", "--n", " 3"]):
        code, out, err = invoke(capsys, *argv)
        assert code == 64 and out == "", argv
        assert json.loads(err)["error"]["name"] in ("Usage", "UnknownPredicate"), argv
    monkeypatch.setenv("SGP_GENUS_CAP", "\u0665")
    code, _, err = invoke(capsys, "scan", "--genus", "3", "--predicate", "symmetric")
    assert code == 64 and "SGP_GENUS_CAP" in err
    monkeypatch.delenv("SGP_GENUS_CAP")
    # the sign is kept, so negative values reach the checks that reject them
    code, _, err = invoke(capsys, "obstruct", "gens:3,4,5", "--n", "-1")
    assert code == 64 and json.loads(err)["error"]["message"] == "need n >= 2"
    code, out, _ = invoke(capsys, "bounds", "eval", "rho3", "-2", "1")
    assert code == 2 and json.loads(out)["error"]["name"] == "PreconditionViolated"
    code, out, _ = invoke(capsys, "obstruct", "gens:3,4,5", "--n", "3")
    assert code == 0 and json.loads(out)["n"] == 3


def test_scan_walks_tree_once(capsys, monkeypatch):
    import sgp.core
    original = sgp.core.tree_children
    expanded = []
    children = 0

    def counting(H):
        nonlocal children
        expanded.append(H.gaps)
        result = original(H)
        children += len(result)
        return result

    monkeypatch.setattr(sgp.core, "tree_children", counting)
    code, out, _ = invoke(capsys, "scan", "--genus", "0..9",
                          "--predicate", "symmetric", "--parallelism", "1")
    assert code == 0
    # semigroups of genus 1..9; each node's children are generated once
    assert children == 1 + 2 + 4 + 7 + 12 + 23 + 39 + 67 + 118
    assert len(expanded) == len(set(expanded))
    assert json.loads(out.splitlines()[-1])["scanned"] == children + 1


def test_scan_parallelism_bounds(capsys, monkeypatch):
    for bad in ("0", "-3"):
        code, out, err = invoke(capsys, "scan", "--genus", "3",
                                "--predicate", "symmetric", "--parallelism", bad)
        assert code == 64 and out == ""
        assert json.loads(err)["error"]["name"] == "Usage"
    # never fork this many workers for real: records the count instead
    forks = fake_fork(monkeypatch, 3)

    def sizes():
        return [workers for workers, _ in forks]

    base = ["scan", "--predicate", "symmetric", "--parallelism", "1000000"]
    code, out, _ = invoke(capsys, *base, "--genus", "2..9")
    assert code == 0 and sizes() == [3]  # clamped to the core count
    code, _, _ = invoke(capsys, *base, "--genus", "2")
    assert code == 0 and sizes() == [3, 2]  # two semigroups of genus 2
    code, _, _ = invoke(capsys, *base, "--genus", "1")
    assert code == 0 and sizes() == [3, 2]  # one shard runs in-process
    code1, out1, _ = invoke(capsys, "scan", "--genus", "2..9",
                            "--predicate", "symmetric")
    assert out1 == out


def test_scan_shards_balance(capsys, monkeypatch):
    # dispatched in order to whichever of 2 workers is free first, the
    # shards of 12..17 split the 18,994 nodes about evenly
    forks = fake_fork(monkeypatch, 2)
    code, out, _ = invoke(capsys, "scan", "--genus", "12..17",
                          "--predicate", "symmetric", "--parallelism", "2")
    assert code == 0
    [(size, results)] = forks
    counts = [scanned for scanned, _ in results]
    # the chain stops at genus 12: the k other children of each ordinary
    # semigroup of genus k < 12, then the genus-12 one; every extra shard
    # costs a worker one more index read and one more result
    assert size == 2 and len(counts) == sum(range(12)) + 1 == 67
    assert sum(counts) == 18994
    assert json.loads(out.splitlines()[-1])["scanned"] == 18994
    loads = [0, 0]
    for count in counts:
        loads[loads.index(min(loads))] += count
    assert max(loads) <= 0.55 * 18994, loads


def test_scan_bad_predicate_parameters_fail_before_pool(capsys, monkeypatch):
    forks = fake_fork(monkeypatch, 2)
    for predicate, message in ((["type:0,1"], "need N >= 1 and gamma >= 0"),
                               (["type:2,-1"], "need N >= 1 and gamma >= 0"),
                               (["bc_fail", "--n", "1"], "need n >= 2")):
        # genus 0..1 has no node that bc_fail evaluates
        code, out, err = invoke(capsys, "scan", "--genus", "0..1", "--parallelism",
                                "2", "--predicate", *predicate)
        assert code == 64 and out == "", predicate
        assert json.loads(err)["error"] == {"name": "Usage", "message": message}
    assert forks == []


def test_huge_gamma_and_N_answer_at_once(capsys):
    # <2, 3> has the single gap 1.  With N = 2, gamma = 3*10^7 all 6*10^7
    # multiples 2k are elements (so (a) counts 6*10^7, not gamma), the
    # gamma-th element is gamma + 1, not 2N*gamma, and (2*gamma + 1)N is an
    # element; no gap is even, so gamma_N = 0
    code, out, _ = invoke(capsys, "classify", "gens:2,3", "--N", "2",
                          "--gamma", "30000000")
    assert code == 0
    assert json.loads(out) == {"N": 2, "gamma": 30000000, "cond_a": False,
                               "cond_b": False, "cond_c": True,
                               "is_type": False, "gamma_N": 0}
    # N = 10^9 is an element, so gamma_N = 0 and type (N, 0) holds; at
    # gamma = 1 both N and 2N are elements and the first element is 2
    code, out, _ = invoke(capsys, "classify", "gens:2,3", "--N", "1000000000")
    assert json.loads(out) == {"N": 10**9, "gamma": 0, "cond_a": True,
                               "cond_b": True, "cond_c": True,
                               "is_type": True, "gamma_N": 0}
    code, out, _ = invoke(capsys, "classify", "gens:2,3", "--N", "1000000000",
                          "--gamma", "1")
    assert json.loads(out) == {"N": 10**9, "gamma": 1, "cond_a": False,
                               "cond_b": False, "cond_c": True,
                               "is_type": False, "gamma_N": 0}
    # the naturals and <2, 3> both count 2*gamma element multiples
    code, out, _ = invoke(capsys, "scan", "--genus", "0..1",
                          "--predicate", "type:2,30000000")
    assert code == 0
    assert json.loads(out) == {"summary": True, "predicate": "type:2,30000000",
                               "genus": [0, 1], "scanned": 2, "matched": 0}
    # every semigroup of genus <= 3 contains 10^9, so all 8 are of type (10^9, 0)
    code, out, _ = invoke(capsys, "scan", "--genus", "0..3",
                          "--predicate", "type:1000000000,0")
    assert code == 0
    assert json.loads(out.splitlines()[-1])["matched"] == 8


def test_serial_scan_does_not_load_multiprocessing():
    code = ("import sys; from sgp.cli import run; "
            "run(['scan', '--genus', '0..4', '--predicate', 'symmetric']); "
            "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "[]"


def test_forked_scan_raises_like_serial(capsys, monkeypatch, time_limit):
    import os
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    base = ["scan", "--genus", "16..17", "--predicate", "bc_fail", "--n", "40000"]
    serial = invoke(capsys, *base, "--parallelism", "1")
    forked = invoke(capsys, *base, "--parallelism", "2")
    assert serial[0] == 2
    assert json.loads(serial[1])["error"]["name"] == "CapExceeded"
    assert forked == serial
    assert_no_children()


def kill_helpers(monkeypatch):
    """Make every forked helper exit with status 3, and no result, before
    it takes a shard; the parent then scans every shard itself."""
    import sgp.cli
    monkeypatch.setattr(sgp.cli, "_shard_worker", lambda *args: os._exit(3))


def test_forked_scan_worker_death(capsys, monkeypatch, time_limit):
    kill_helpers(monkeypatch)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code, out, _ = invoke(capsys, "scan", "--genus", "12..14",
                          "--predicate", "symmetric", "--parallelism", "2")
    assert code == 2
    error = json.loads(out)["error"]
    assert error["name"] == "WorkerFailed" and "status 3" in error["message"]
    assert_no_children()


def test_forked_shards_each_come_back_once(monkeypatch, time_limit):
    # more indices than one pipe buffer holds: a write that finds the pipe
    # full does not wait, as the parent scans that shard itself
    import sgp.cli
    monkeypatch.setattr(sgp.cli, "_scan_worker",
                        lambda shard, lo, predicate: (1, [shard]))
    shards = list(range(20000))
    assert sgp.cli._fork_shards(shards, 0, None, 2) == [(1, [i]) for i in shards]
    assert_no_children()

    def raises(shard, lo, predicate):
        raise ValueError(shard)

    # every process stops at its first shard, the parent at the first one
    # that does not fit in the pipe; the first shard's exception comes back,
    # as in a serial scan
    monkeypatch.setattr(sgp.cli, "_scan_worker", raises)
    with pytest.raises(ValueError) as info:
        sgp.cli._fork_shards(shards, 0, None, 2)
    assert info.value.args == (0,)
    assert_no_children()


def test_forked_parent_scans_what_helpers_leave(monkeypatch, time_limit):
    # helpers that take no shard: the parent scans each index that did not
    # fit in the pipe, then pulls the rest
    import pickle
    import sgp.cli

    def idle_helper(tasks, results, shards, lo, predicate):
        with open(results, "wb") as out:
            out.write(pickle.dumps(([], None)))
        return 0

    monkeypatch.setattr(sgp.cli, "_shard_worker", idle_helper)
    monkeypatch.setattr(sgp.cli, "_scan_worker",
                        lambda shard, lo, predicate: (1, [shard]))
    shards = list(range(20000))
    assert sgp.cli._fork_shards(shards, 0, None, 3) == [(1, [i]) for i in shards]
    assert_no_children()


def test_forked_scan_with_every_helper_dead(monkeypatch, time_limit):
    # the parent scans all 20,000 shards, more than one pipe buffer holds,
    # then finds no result from either helper
    import sgp.cli
    from sgp.errors import WorkerFailed
    kill_helpers(monkeypatch)
    monkeypatch.setattr(sgp.cli, "_scan_worker",
                        lambda shard, lo, predicate: (1, [shard]))
    with pytest.raises(WorkerFailed, match="status 3"):
        sgp.cli._fork_shards(list(range(20000)), 0, None, 3)
    assert_no_children()


def test_forked_workers_reaped_when_gathering_fails(monkeypatch, time_limit):
    # the parent fails on the first result it reads, with the other
    # helper not yet reaped
    import pickle
    import sgp.cli

    class UnreadablePickle:
        dumps = staticmethod(pickle.dumps)

        @staticmethod
        def loads(data):
            raise RuntimeError("unreadable result")

    monkeypatch.setattr(sgp.cli, "_scan_worker",
                        lambda shard, lo, predicate: (1, [shard]))
    monkeypatch.setattr(sgp.cli, "pickle", UnreadablePickle)
    with pytest.raises(RuntimeError, match="unreadable result"):
        sgp.cli._fork_shards(list(range(100)), 0, None, 3)
    assert_no_children()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_forked_scan_leaves_no_descriptor_open(capsys, monkeypatch, time_limit):
    # every pipe end is closed on success, on a shard that raises and on a
    # worker that dies
    def forked_scan(*argv):
        before = len(os.listdir("/proc/self/fd"))
        code, _, _ = invoke(capsys, "scan", *argv, "--parallelism", "2")
        assert len(os.listdir("/proc/self/fd")) == before, argv
        return code

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert forked_scan("--genus", "12..14", "--predicate", "symmetric") == 0
    assert forked_scan("--genus", "16..17", "--predicate", "bc_fail", "--n", "40000") == 2
    kill_helpers(monkeypatch)
    assert forked_scan("--genus", "12..14", "--predicate", "symmetric") == 2
    assert_no_children()


def test_scan_without_fork_runs_in_process(capsys, monkeypatch):
    import os
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    base = ["scan", "--genus", "2..9", "--predicate", "symmetric"]
    serial = invoke(capsys, *base, "--parallelism", "1")
    assert serial[0] == 0
    assert invoke(capsys, *base, "--parallelism", "3") == serial


def test_forked_scan_does_not_load_multiprocessing():
    code = ("import os, sys; from sgp.cli import run; os.cpu_count = lambda: 2; "
            "run(['scan', '--genus', '0..6', '--predicate', 'symmetric', "
            "'--parallelism', '2']); "
            "print(sorted(m for m in sys.modules if m.startswith("
            "('multiprocessing', 'concurrent'))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "[]"
    assert json.loads(proc.stdout.splitlines()[-2])["scanned"] == 1 + 1 + 2 + 4 + 7 + 12 + 23


def test_obstruct_counts_sums_without_decoding(capsys, monkeypatch):
    # the profile's cardinality is a popcount; its sums are decoded on read
    import sgp.obstruction
    calls = []
    monkeypatch.setattr(sgp.obstruction, "_bit_positions",
                        lambda bits: calls.append(bits) or ())
    code, out, _ = invoke(capsys, "obstruct", "gens:3,5,7", "--n", "3")
    assert code == 0 and json.loads(out)["cardinality"] == 9  # 3..10 and 12
    assert calls == []


def test_obstruct_sumset_cap(capsys):
    # <2, 20001> has one class of 10,000 gaps and frobenius 19,999: a level
    # takes one shift-or and 14 doublings, so n = 183 is the largest n the
    # cap admits (182 * 15 * 183 * 19,999 = 9,991,300,410); n = 184 and 600
    # are refused, as are wide (n * frobenius 5 * 10^7) and narrow sumsets
    # of <3, 4>
    code, out, _ = invoke(capsys, "obstruct", "gens:2,20001", "--n", "183")
    assert code == 0 and json.loads(out)["cardinality"] == 183 * 9999 + 1
    for spec, n, work in (("gens:3,4", "10000000", None),
                          ("gens:2,20001", "184", 10_101_094_920),
                          ("gens:2,20001", "600", 107_814_609_000),
                          ("gens:3,4", "40000", 39_999 * 3 * 40_000 * 5)):
        code, out, err = invoke(capsys, "obstruct", spec, "--n", n)
        assert code == 2 and err == ""
        error = json.loads(out)["error"]
        assert error["name"] == "CapExceeded" and "sumset work" in error["message"]
        assert work is None or error["message"].endswith(f"= {work} exceeds cap {10**10}")


@pytest.mark.parametrize("argv, message", [
    (["info", "gens:\u00b2"], "malformed integer list in 'gens:\u00b2'"),
    (["info", "gens:\u0663,\u0664"], "malformed integer list in 'gens:\u0663,\u0664'"),
    (["scan", "--genus", "1..\u00b2", "--predicate", "symmetric"],
     "bad genus range '1..\u00b2'"),
])
def test_non_ascii_digits_are_usage_errors(capsys, argv, message):
    # str.isdigit() accepts superscripts and Arabic-Indic digits; the CLI
    # takes ASCII digits only
    code, out, err = invoke(capsys, *argv)
    assert code == 64 and out == ""
    assert json.loads(err)["error"] == {"name": "Usage", "message": message}


def test_scan_obstruction_predicate(capsys):
    code, out, _ = invoke(capsys, "scan", "--genus", "16",
                          "--predicate", "obstruction")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    gaps = [tuple(r["gaps"]) for r in rows[:-1]]
    assert tuple(list(range(1, 13)) + [19, 21, 24, 25]) in gaps


def test_scan_cap(capsys, monkeypatch):
    # one cap check: the scan refuses with the library's message
    from sgp.core import enumerate_genus_range
    from sgp.errors import CapExceeded
    for genus, hi, cap in (("26", 26, None), ("0..100000000000", 10**11, None),
                           ("6", 6, "5")):
        if cap is not None:
            monkeypatch.setenv("SGP_GENUS_CAP", cap)
        code, out, err = invoke(capsys, "scan", "--genus", genus, "--predicate", "symmetric")
        with pytest.raises(CapExceeded) as library:
            enumerate_genus_range(0, hi, *([int(cap)] if cap else []))
        assert str(library.value) == f"genus {hi} exceeds cap {cap or 25}"
        assert code == 2 and err == ""
        assert json.loads(out)["error"] == {"name": "CapExceeded",
                                            "message": str(library.value)}
    monkeypatch.setenv("SGP_GENUS_CAP", "8")
    code, _, _ = invoke(capsys, "scan", "--genus", "6", "--predicate", "symmetric")
    assert code == 0


def test_gap_list_truncation(capsys):
    big = cover_family(from_generators([2, 3]), 2, 600, 1).semigroup
    code, out, _ = invoke(capsys, "info", format_semigroup(big))
    assert code == 0
    payload = json.loads(out)
    assert len(payload["gaps"]) == 512
    assert payload["gaps_truncated"] is True
    assert payload["gaps_omitted"] == big.genus - 512


def test_info_and_project_decode_only_printed_gaps(capsys, monkeypatch):
    # 50,000 listed gaps: info decodes the GAP_LIST_CAP it prints and the
    # two minimal generators; project decodes none of its input's gaps
    import sgp.core
    from sgp.cli import GAP_LIST_CAP
    original = sgp.core._bit_positions
    decoded = []

    def counting(bits, count=None):
        positions = original(bits, count)
        decoded.append(len(positions))
        return positions

    monkeypatch.setattr(sgp.core, "_bit_positions", counting)
    spec = "gaps:" + ",".join(map(str, range(1, 100_000, 2)))
    code, out, _ = invoke(capsys, "info", spec)
    assert code == 0
    payload = json.loads(out)
    assert payload["gaps"] == list(range(1, 2 * GAP_LIST_CAP, 2))
    assert payload["gaps_omitted"] == 50_000 - GAP_LIST_CAP
    assert payload["min_gens"] == [2, 100_001]
    assert sorted(decoded) == [2, GAP_LIST_CAP]
    decoded.clear()
    code, out, _ = invoke(capsys, "project", spec, "--N", "2")
    assert code == 0 and json.loads(out)["genus"] == 0
    assert max(decoded) <= GAP_LIST_CAP + 1


def test_exit_codes(capsys):
    # argv, exit code, stream that carries the JSON error line, error.name
    cases = [
        (["classify", "gens:4,7"], 64, "err", "Usage"),  # argparse: no --N
        (["info", "gens:4, 7"], 64, "err", "Usage"),  # malformed spec
        (["bounds", "eval", "rho3", "x", "1"], 64, "err", "Usage"),
        (["scan", "--genus", "3", "--predicate", "mystery"], 64, "err",
         "UnknownPredicate"),
        (["info", "gens:4,6"], 2, "out", "GcdNotOne"),
        (["bounds", "eval", "rho3", "-1", "-5"], 2, "out", "PreconditionViolated"),
        (["bounds", "eval", "rho3", "2", "-1"], 2, "out", "PreconditionViolated"),
        (["family", "spurious", "--params", "N=2", "gamma=1", "A=3", "t=2",
          "g=16"], 2, "out", "PreconditionViolated"),
        (["bounds", "eval", "castelnuovo_c", "0", "2"], 64, "err", "Usage"),  # d < 1
        (["bounds", "eval", "coprime_lower", "gens:3,4"], 64, "err", "Usage"),
        (["family", "buchweitz", "--params", "g"], 64, "err", "Usage"),  # not k=v
        (["family", "cover", "--params", "N=2", "g=9", "f=1"], 64, "err", "Usage"),
        (["scan", "--genus", "5..3", "--predicate", "symmetric"], 64, "err", "Usage"),
        (["scan", "--genus", "3", "--predicate", "type:2"], 64, "err",
         "UnknownPredicate"),
    ]
    for argv, want_code, stream, name in cases:
        code, out, err = invoke(capsys, *argv)
        assert code == want_code, argv
        line, other = (out, err) if stream == "out" else (err, out)
        assert other == "", argv
        assert json.loads(line)["error"]["name"] == name, argv


def test_text_mode_contains_all_fields(capsys):
    code, out, _ = invoke(capsys, "--output", "text", "classify", "gens:4,7",
                          "--N", "2")
    assert code == 0
    for key in ("N", "gamma", "cond_a", "cond_b", "cond_c", "is_type", "gamma_N"):
        assert f"{key}:" in out


def test_parser_built_once_per_process(capsys):
    from sgp.cli import _build_parser
    _build_parser.cache_clear()
    for argv in (["info", "gens:2,3"], ["classify", "gens:4,7"], ["nope"],
                 ["info", "gens:4,6"], ["scan", "--genus", "2", "--predicate", "symmetric"]):
        run(argv)
    capsys.readouterr()
    assert _build_parser.cache_info().misses == 1
    assert _build_parser.cache_info().hits == 4


def test_reused_parser_keeps_no_state(capsys):
    # after each first call in the same process, the second prints what it
    # prints in a fresh one
    pairs = [
        (["classify", "gens:4,7"], 64, ["info", "gens:4,7"]),  # argparse error
        (["--output", "text", "info", "gens:4,7"], 0, ["info", "gens:4,7"]),
        # --params defaults to one list object that every parse shares
        (["family", "buchweitz", "--params", "g=16", "i=4"], 0, ["family", "buchweitz"]),
    ]
    for first, first_code, second in pairs:
        assert invoke(capsys, *first)[0] == first_code, first
        got = invoke(capsys, *second)
        fresh = subprocess.run([sys.executable, "-m", "sgp.cli", *second],
                               capture_output=True, text=True)
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr), second
    assert json.loads(got[2])["error"]["message"] == "missing family parameter g"
    assert json.loads(invoke(capsys, "info", "gens:4,7")[1])["genus"] == 9


def test_closed_stdout_exits_141():
    # the reader is gone before the first write, as in `sgp scan ... | head`
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "sgp.cli", "scan", "--genus", "0..9",
                               "--predicate", "symmetric"],
                              stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "sgp.cli", "info", "gens:2,3"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["genus"] == 1
