import contextlib
import io
import json
import os
import pathlib
import pstats
import re
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gkzkit
from gkzkit.catalog import builtin_config
from gkzkit.cli import main
from gkzkit.lattice import newton_polytope
from gkzkit.linalg import RationalEchelon
from gkzkit.window import CohomologyWindow, ConeSupport

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
ROOT = pathlib.Path(__file__).parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_analyze_builtin(capsys):
    code, report = run(capsys, "analyze", "--config", "cusp", "--alpha", "1/2")
    assert code == 0
    assert report["result"]["relation_basis"] == [[2, -1]]
    assert report["result"]["facets"] == [[1]]
    assert report["result"]["nonresonant"] is True
    assert report["job"]["version"]


# the jobs of the exit-code tests below that run on the unpatched code
NOT_GENERATING_JOB = ["analyze", "--config", '{"points": [[2]]}']
PERTURBED_JOB = ["verify", "--config", "cusp", "--perturb-beta"]
NOT_STABILIZED_JOB = ["rank", "--config", "trinomial", "--alpha", "0,2", "--supports", "zn",
                      "--hypersurface", "--lambda", "3/7,5/11,2/9", "--bound", "4"]
MODP_RESONANT_JOB = ["modp", "--config", "single", "--alpha", "3", "--primes", "3,5"]


def test_analyze_invalid_config_exits_2(capsys):
    code = main(NOT_GENERATING_JOB)
    assert code == 2
    err = capsys.readouterr().err
    assert "index 2" in err
    # the message names the index [Z^n : ZA], 4 here, not an invariant factor
    assert main(["analyze", "--config", '{"points": [[2, 0], [0, 2]]}']) == 2
    assert "points do not generate the lattice (index 4)" in capsys.readouterr().err


def test_analyze_vacuous(capsys):
    code, report = run(capsys, "analyze", "--config", "bessel", "--alpha", "1/2")
    assert code == 0
    assert report["result"]["facets"] == []
    assert report["result"]["nonresonant"] is True
    assert report["result"]["vacuous"] is True


def test_rank_single(capsys):
    code, report = run(capsys, "rank", "--config", "single", "--alpha", "1/2",
                       "--bound", "4", "--seed", "11")
    assert code == 0
    supports = report["result"]["supports"]
    assert supports["Z^n"]["dim"] == 1
    assert supports["U0"]["dim"] == 1
    assert report["result"]["quasi_iso"]["verdict"] is True


def test_rank_explicit_lambda_and_hypersurface(capsys):
    code, report = run(capsys, "rank", "--config", "trinomial",
                       "--alpha", "1/3,1/5", "--lambda", "3/7,5/11,2/9",
                       "--bound", "4", "--hypersurface")
    assert code == 0
    assert report["result"]["supports"]["Z^n"]["dim"] == 2
    assert report["result"]["U"]["dim"] == 2


def test_rank_not_stabilized_exits_3(monkeypatch, capsys):
    # bound 1 gives a window too small for the cusp configuration; dims are
    # the quotient dimensions at bounds 0 and 1, whichever way lambda is
    # chosen; every path evaluates one specialization, not more
    from gkzkit import window
    torus_report = window._torus_report
    calls = []

    def counting(*args):
        calls.append(args)
        return torus_report(*args)
    monkeypatch.setattr(window, "_torus_report", counting)
    job = ["--config", "cusp", "--alpha", "1/2", "--bound", "1"]
    for argv in (["rank", *job, "--supports", "zn", "--lambda", "3/7,5/11"],
                 ["rank", *job, "--supports", "zn"]):
        calls.clear()
        code, report = run(capsys, *argv)
        assert code == 3 and len(calls) == 1, argv
        assert report["result"]["error"] == {"kind": "NotStabilized",
                                             "complex": "torus/Z^n",
                                             "dims": [1, 2], "bound": 1}, argv
    # modp reads its rank off the volume, not a window: the bound is ignored
    calls.clear()
    code, report = run(capsys, "modp", *job, "--primes", "7")
    assert code == 0 and calls == []
    assert report["result"]["rank"] == 2


def test_rank_not_stabilized_names_the_complex(capsys):
    # Z^n reads (3, 3) at this lambda and the complement (2, 3): the error
    # block names U, the complex that failed
    code, report = run(capsys, *NOT_STABILIZED_JOB)
    assert code == 3
    assert report["result"]["error"] == {"kind": "NotStabilized", "complex": "U",
                                         "dims": [2, 3], "bound": 4}
    assert report["result"]["supports"]["Z^n"]["dims"] == [3, 3]
    assert "U" not in report["result"]


def _reads_three(monkeypatch):
    """A stand-in torus report that reads (3, 3) on any window pair; returns
    the list of specializations it was called with."""
    from gkzkit import window
    calls = []

    def forced(alpha, lam, windows, warnings):
        calls.append(lam)
        return window.RankReport(f"torus/{windows[1].support.name}", alpha, lam,
                                 windows[1].bound, (3, 3), tuple(warnings))
    monkeypatch.setattr(window, "_torus_report", forced)
    return calls


def test_rank_other_than_the_volume_exits_1(monkeypatch, capsys):
    # trinomial has volume 2; a stable reading of 3 at a nonresonant alpha
    # is an error, found after the one specialization, with no retry
    calls = _reads_three(monkeypatch)
    job = ["--config", "trinomial", "--alpha", "1/3,1/5", "--bound", "3"]
    code = main(["rank", *job, "--supports", "zn"])
    captured = capsys.readouterr()
    assert code == 1 and len(calls) == 1
    assert captured.out == ""
    assert ("error: dimension 3 stabilized at bound 3 (dims 3, 3) differs from "
            "the normalized volume 2") in captured.err
    assert "Traceback" not in captured.err
    # modp reads no window, so no torus report can disagree with its rank
    calls.clear()
    code, report = run(capsys, "modp", *job, "--primes", "7")
    assert code == 0 and calls == []
    assert report["result"]["rank"] == 2


@pytest.mark.parametrize("extra", [
    # an explicit lambda may be special and read more than the volume
    ["--supports", "zn", "--alpha", "1/3,1/5", "--lambda", "3/7,5/11,2/9"],
])
def test_rank_is_not_checked_against_the_volume(monkeypatch, capsys, extra):
    calls = _reads_three(monkeypatch)
    code, report = run(capsys, "rank", "--config", "trinomial", "--bound", "3", *extra)
    assert code == 0 and len(calls) == 1
    assert [rep["dims"] for rep in report["result"]["supports"].values()] == [[3, 3]]


def test_resonant_u0_rank_other_than_the_volume_exits_1(monkeypatch, capsys):
    # U0, like Z^n, reads the volume at every alpha: a stable reading of 3
    # at the resonant (1/2, 1/2) is an error, whose report still warns
    calls = _reads_three(monkeypatch)
    code = main(["rank", "--config", "trinomial", "--bound", "3", "--supports", "u0",
                 "--alpha", "1/2,1/2"])
    captured = capsys.readouterr()
    assert code == 1 and len(calls) == 1 and captured.out == ""
    assert ("error: dimension 3 stabilized at bound 3 (dims 3, 3) differs from "
            "the normalized volume 2 on torus/U0") in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("config, alpha, dims, volume", [
    # stable readings above the volume at a resonant alpha, on the unpatched
    # code: the torus rank is the volume at every alpha, so each is an error
    ("trinomial", "0,2", (3, 3), 2),
    ("gauss", "1,1,0", (4, 4), 2),
])
def test_resonant_torus_rank_other_than_the_volume_exits_1(capsys, config, alpha, dims,
                                                            volume):
    code = main(["rank", "--config", config, "--alpha", alpha, "--supports", "zn"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert (f"error: dimension {dims[1]} stabilized at bound 4 (dims {dims[0]}, {dims[1]}) "
            f"differs from the normalized volume {volume} on torus/Z^n") in captured.err
    assert "Traceback" not in captured.err


def _u_reads_three(monkeypatch):
    """A stand-in complement rank that reads (3, 3) on any job."""
    from gkzkit import window

    def forced(config, alpha, lam, bound):
        return window.RankReport("U", alpha, tuple(lam), bound, (3, 3))
    monkeypatch.setattr(window, "cohomology_U_dim", forced)


def test_u_rank_other_than_the_volume_exits_1(monkeypatch, capsys):
    # as on the torus: trinomial has volume 2, so a reading of 3 on the
    # complement at a random lambda and a nonresonant alpha is an error
    _u_reads_three(monkeypatch)
    code = main(["rank", "--config", "trinomial", "--alpha", "1/3,1/5", "--bound", "3",
                 "--supports", "zn", "--hypersurface"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert ("error: dimension 3 stabilized at bound 3 (dims 3, 3) differs from "
            "the normalized volume 2 on U") in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("extra", [
    # an explicit lambda may be special and read more than the volume
    ["--alpha", "1/3,1/5", "--lambda", "3/7,5/11,2/9"],
    # at a resonant alpha the rank need not be the volume
    ["--alpha", "1/2,1/2"],
])
def test_u_rank_is_not_checked_against_the_volume(monkeypatch, capsys, extra):
    _u_reads_three(monkeypatch)
    code, report = run(capsys, "rank", "--config", "trinomial", "--bound", "3",
                       "--supports", "zn", "--hypersurface", *extra)
    assert code == 0 and report["result"]["U"]["dims"] == [3, 3]


def test_job_block_embeds_the_seed_only_where_it_draws(capsys):
    # rank with a random lambda draws its specialization from the seed; an
    # explicit lambda draws nothing, and modp, whose rank is the volume,
    # draws nothing either
    job = ["--config", "trinomial", "--alpha", "1/3,1/5", "--bound", "3", "--seed", "5"]
    for argv, seeded in ((["rank", *job, "--supports", "zn"], True),
                         (["rank", *job, "--supports", "zn", "--lambda", "3/7,5/11,2/9"],
                          False),
                         (["modp", *job, "--primes", "7"], False)):
        code, report = run(capsys, *argv)
        assert code == 0, argv
        assert report["job"].get("seed") == (5 if seeded else None), argv


def test_modp_bound_and_seed_have_no_effect(capsys):
    # modp still accepts --bound and --seed, and its output is the same
    # byte for byte with them or without them: neither appears in the job
    # block, and the rank is the normalized volume
    job = ["modp", "--config", "trinomial", "--alpha", "1/3,1/5", "--primes", "7,11"]
    outputs = []
    for extra in ([], ["--bound", "2", "--seed", "5"], ["--seed", "9"], ["--bound", "7"]):
        assert main([*job, *extra]) == 0, extra
        outputs.append(capsys.readouterr().out)
    assert outputs == [outputs[0]] * 4
    assert '"bound"' not in outputs[0] and '"seed"' not in outputs[0]


def test_modp_at_a_prime_beyond_trial_division(capsys):
    # 10^15 + 37 is a prime: decided by Miller-Rabin, not by trial division
    # up to its square root
    code = main(["modp", "--config", "single", "--alpha", "1/2",
                 "--primes", "1000000000000037"])
    captured = capsys.readouterr()
    assert code == 0 and "Traceback" not in captured.err
    result = json.loads(captured.out)["result"]
    assert result["primes"] == [{"dim": 1, "full": True, "p": 1000000000000037}]


def test_modp_at_a_large_prime_on_one_point_per_fiber(capsys):
    # no fiber has two members, so no factorial table of p entries is built:
    # the job answers instead of running out of memory
    code = main(["modp", "--config", "single", "--alpha", "1/2",
                 "--primes", "99999999977"])
    captured = capsys.readouterr()
    assert code == 0 and "Traceback" not in captured.err
    result = json.loads(captured.out)["result"]
    assert result["primes"] == [{"dim": 1, "full": True, "p": 99999999977}]
    assert result["rank"] == 1


@pytest.mark.parametrize("points, supports, bound, volume", [
    # n! vol(conv(0 u A)) by the shoelace formula on the hull of 0 and the
    # points; the 3-D points lie at height 1 over a quadrilateral of area
    # 5/2, so 3! * (1/3) * 5/2 = 5 (at bound 2 the window pair reads 4, 5);
    # the semigroup of the last misses lattice points of its cone, such as
    # (0, 1), and U0 is the saturated cone, whose quotient reads the volume
    ([[1, 0], [0, 1], [-1, -1]], "zn,u0", 4, 3),
    ([[1, 0], [0, 1], [1, 1], [2, 1]], "zn,u0", 4, 3),
    ([[1, 0], [0, 1], [2, 3]], "zn", 4, 5),
    ([[0, 0, 1], [1, 0, 1], [0, 1, 1], [2, 3, 1]], "zn", 3, 5),
    ([[-2, 2], [-1, 3], [2, 1]], "zn,u0", 4, 11),
])
def test_rank_is_the_normalized_volume(capsys, points, supports, bound, volume):
    alpha = ",".join(["1/3", "1/5", "1/7"][:len(points[0])])
    code, report = run(capsys, "rank", "--config", json.dumps({"points": points}),
                       "--alpha", alpha, "--bound", str(bound), "--supports", supports)
    assert code == 0
    reports = report["result"]["supports"]
    assert len(reports) == len(supports.split(","))
    assert all(rep["dims"] == [volume, volume] for rep in reports.values())
    if len(reports) == 2:
        assert report["result"]["quasi_iso"]["verdict"] is True


def test_default_bound_follows_the_dimension(capsys):
    # without --bound, rank reads the window pair at max(4, n + 1) and the
    # job block names it: 4 in one dimension, 5 in four, where the pair
    # reads 7, 8 at bound 4 and the volume 8 at bound 5; --bound is kept
    code, report = run(capsys, "rank", "--config", "cusp", "--alpha", "1/2",
                       "--supports", "zn")
    assert code == 0 and report["job"]["bound"] == 4
    points = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-1, -2, -1, -3]]
    job = ["rank", "--config", json.dumps({"points": points}),
           "--alpha", "1/2,1/3,1/5,1/7", "--supports", "u0"]
    code, report = run(capsys, *job)
    assert code == 0 and report["job"]["bound"] == 5
    assert report["result"]["supports"]["U0"]["dims"] == [8, 8]
    code, report = run(capsys, *job, "--bound", "4")
    assert code == 3 and report["job"]["bound"] == 4
    assert report["result"]["error"]["dims"] == [7, 8]


def test_rank_enumerates_the_facets_once(capsys):
    newton_polytope.cache_clear()
    # both supports, four windows, the cone walk and the resonance check
    code, _ = run(capsys, "rank", "--config", "gauss", "--alpha", "1/2,1/3,1/5",
                  "--bound", "3")
    assert code == 0
    assert newton_polytope.cache_info().misses == 1


TRINOMIAL_JOB = ["rank", "--config", "trinomial", "--alpha", "1/3,1/5",
                 "--bound", "4", "--hypersurface"]


@pytest.mark.parametrize("argv, windows, echelons", [
    # per support: one window at each of B-1 and B, the B-1 one read off the
    # B one's points; one echelon per support for its one specialization,
    # which takes the B-1 generators and then the B ones that differ from
    # them; the normalized volume builds neither; quasi_iso_check reads the
    # reports' windows and echelon and builds none; the U side: the two
    # windows of the half space and one echelon, as on the torus
    (TRINOMIAL_JOB, 6, 3),
    (TRINOMIAL_JOB + ["--lambda", "3/7,5/11,2/9"], 6, 3),
    (["rank", "--config", "gauss", "--alpha", "1/2,1/3,1/5", "--bound", "3",
      "--supports", "u0"], 2, 1),
])
def test_rank_builds_each_window_once(monkeypatch, capsys, argv, windows, echelons):
    built = Counter()
    # ConeSupport.contains calls made while each window is built, by bound
    tests = Counter()
    contains = ConeSupport.contains

    def counting_contains(self, u):
        tests["now"] += 1
        return contains(self, u)
    monkeypatch.setattr(ConeSupport, "contains", counting_contains)
    for cls in (CohomologyWindow, RationalEchelon):
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__):
            built[_name] += 1
            before = tests["now"]
            _init(self, *args)
            if _name == "CohomologyWindow":
                tests[self.bound] += tests["now"] - before
        monkeypatch.setattr(cls, "__init__", counting)
    code, _ = run(capsys, *argv)
    assert code == 0
    assert built == {"CohomologyWindow": windows, "RationalEchelon": echelons}
    bound = int(argv[argv.index("--bound") + 1])
    assert tests[bound] > 0 and tests[bound - 1] == 0


def test_quasi_iso_check_inserts_only_the_small_window(monkeypatch, capsys):
    # it reduces the unit vectors of the bound-B cone window against the
    # Z^n report's echelon, and eliminates no generator again
    from gkzkit import window
    check, insert = window.quasi_iso_check, RationalEchelon.insert
    inserts = Counter()
    seen = []

    def counting_insert(self, vec):
        inserts["calls"] += 1
        return insert(self, vec)

    def counting_check(small, big):
        before = inserts["calls"]
        result = check(small, big)
        seen.append(inserts["calls"] - before)
        return result
    monkeypatch.setattr(RationalEchelon, "insert", counting_insert)
    monkeypatch.setattr(window, "quasi_iso_check", counting_check)
    code, report = run(capsys, *TRINOMIAL_JOB)
    assert code == 0 and report["result"]["quasi_iso"]["verdict"] is True
    trinomial = builtin_config("trinomial")
    assert seen == [len(CohomologyWindow(trinomial, ConeSupport(trinomial), 4).points)]


@pytest.mark.parametrize("supports, same_as", [
    ("u0,zn", "zn,u0"),
    ("zn,u0,zn", "zn,u0"),
    (" U0,u0, ZN", "zn,u0"),
    # one support named twice runs once and is compared with nothing
    ("zn,zn", "zn"),
])
def test_rank_supports_are_a_set(capsys, supports, same_as):
    # each support runs once, in nesting order (U0 inside Z^n), however listed
    assert main([*TRINOMIAL_JOB, "--supports", same_as]) == 0
    expected = capsys.readouterr().out
    assert main([*TRINOMIAL_JOB, "--supports", supports]) == 0
    assert capsys.readouterr().out == expected
    assert ("quasi_iso" in json.loads(expected)["result"]) == ("u0" in same_as)


def test_verify_single_config(capsys):
    code, report = run(capsys, "verify", "--config", "cusp")
    assert code == 0
    battery = report["result"]["batteries"][0]
    names = {c["name"] for c in battery["checks"]}
    assert {"commutation", "phi_kills_boxes", "phi_intertwines",
            "nabla_squared", "homotopy_identity"} <= names
    assert report["result"]["ok"] is True


def test_verify_perturbed_beta_fails(capsys):
    code, report = run(capsys, *PERTURBED_JOB)
    assert code == 1
    battery = report["result"]["batteries"][0]
    failing = [c for c in battery["checks"] if not c["ok"]]
    assert failing and failing[0]["name"] == "commutation"
    assert "residual" in failing[0]["detail"]


def test_perturb_beta_without_a_relation_is_refused(capsys):
    # single has no relation, so the perturbed commutation check has no
    # sample and the negative control cannot fail: refused, not passed
    code = main(["verify", "--config", "single", "--perturb-beta"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "bad input: --perturb-beta needs a configuration with a relation\n"
    # one selected configuration with a relation is enough
    code, report = run(capsys, "verify", "--perturb-beta")
    assert code == 1
    assert [b["config"] for b in report["result"]["batteries"]] == [
        "single", "cusp", "bessel", "trinomial", "gauss"]


def test_verify_vacuous_flagged(capsys):
    # the single-point configuration has no relations, so the commutation
    # section runs on zero samples and says so; the Bessel cone is the whole
    # line, so there is no facet to contract against
    for config, name in (("single", "commutation"), ("bessel", "homotopy_identity")):
        code, report = run(capsys, "verify", "--config", config)
        assert code == 0
        checks = report["result"]["batteries"][0]["checks"]
        check = next(c for c in checks if c["name"] == name)
        assert check["vacuous"] is True and check["samples"] == 0, name
        assert all(c["vacuous"] == (c["ok"] and c["samples"] == 0) for c in checks)


@pytest.mark.parametrize("fixture, argv, exit_code", [
    ("verify_builtins.json", [], 0),
    ("verify_gauss_alpha.json", ["--config", "gauss", "--alpha=3/7,-5/3,1/2"], 0),
    ("verify_cusp_perturb_beta.json", ["--config", "cusp", "--perturb-beta"], 1),
    # a 4-term g, and a gamma kernel in 3 dimensions outside the builtins
    ("verify_plane2.json", ["--config", '{"points": [[0,1],[1,1],[-1,1],[2,1]]}',
                            "--alpha=1/3,-2/5"], 0),
    ("verify_pyramid.json", ["--config",
                             '{"points": [[0,0,1],[1,0,1],[0,1,1],[1,1,1]]}',
                             "--alpha=1/2,-1/3,3/7"], 0),
])
def test_verify_reproduces_golden_output(capsys, fixture, argv, exit_code):
    code = main(["verify", *argv])
    assert code == exit_code
    assert capsys.readouterr().out == (FIXTURES / fixture).read_text(encoding="utf-8")


@pytest.mark.parametrize("fixture, argv", [
    ("rank_trinomial_hypersurface.json", ["--config", "trinomial", "--alpha=1/3,1/5",
                                          "--bound", "5", "--hypersurface"]),
    ("rank_gauss_zn.json", ["--config", "gauss", "--alpha=1/3,1/5,1/7", "--bound", "3",
                            "--supports", "zn"]),
])
def test_rank_reproduces_golden_output(capsys, fixture, argv):
    assert main(["rank", *argv]) == 0
    assert capsys.readouterr().out == (FIXTURES / fixture).read_text(encoding="utf-8")


@pytest.mark.parametrize("fixture, argv", [
    ("modp_plane2.json", ["--config", '{"points": [[0,1],[1,1],[-1,1],[2,1]]}',
                          "--bound", "2", "--primes", "17,19,23", "--alpha=1/3,1/5"]),
    ("modp_trinomial.json", ["--config", "trinomial", "--primes", "29,31,37,41,43",
                             "--alpha=1/3,1/5"]),
])
def test_modp_reproduces_golden_output(capsys, fixture, argv):
    assert main(["modp", *argv]) == 0
    assert capsys.readouterr().out == (FIXTURES / fixture).read_text(encoding="utf-8")


def test_modp_sweep_and_skip(capsys):
    code, report = run(capsys, "modp", "--config", "single", "--alpha", "1/2",
                       "--primes", "2,3,5,7,11,13,17,19,23")
    assert code == 0
    result = report["result"]
    assert result["rank"] == 1
    assert all(r["full"] for r in result["primes"])
    assert result["skipped"][0]["p"] == 2
    assert result["verdict"] == "full for all tested good primes"

    for primes in ("9,15,25", "4", "3,9"):
        code = main(["modp", "--config", "single", "--alpha", "1/2",
                     "--primes", primes])
        captured = capsys.readouterr()
        assert code == 2, primes
        assert captured.out == ""
        assert "must be a prime" in captured.err


@pytest.mark.parametrize("primes, distinct", [("7,7", "7"), ("11,7,11,7", "11,7")])
def test_modp_runs_each_distinct_prime_once(capsys, primes, distinct):
    # a prime given again is not computed again: the report is that of the
    # distinct primes in the order first given, and only the job block
    # keeps the list as it was typed
    outputs = []
    for arg in (primes, distinct):
        assert main(["modp", "--config", "trinomial", "--alpha=1/3,1/5",
                     "--primes", arg]) == 0
        outputs.append(capsys.readouterr().out)
    assert f'"primes": "{primes}"' in outputs[0]
    assert outputs[0].replace(f'"primes": "{primes}"',
                              f'"primes": "{distinct}"') == outputs[1]


def test_modp_every_prime_skipped(capsys):
    code, report = run(capsys, "modp", "--config", "single", "--alpha=1/6",
                       "--primes", "2,3")
    assert code == 0
    result = report["result"]
    assert result["primes"] == []
    assert [s["p"] for s in result["skipped"]] == [2, 3]
    assert result["verdict"] == "no good prime tested"

    code = main(["modp", "--config", "single", "--alpha=1/6", "--primes="])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "bad input: the prime list is empty\n"


@pytest.mark.parametrize("argv", [
    ["analyze", "--config", '{"points": 5}'],
    ["analyze", "--config", '{"points": [5]}'],
    ["analyze"],
    ["rank", "--config", "single"],
    ["modp", "--config", "single"],
    ["analyze", "--config", "single", "--alpha=1/0"],
    ["rank", "--config", "single", "--alpha=1/2", "--lambda=1/0"],
    ["verify", "--config", "trinomial", "--alpha=1/3"],
    ["rank", "--config", "trinomial", "--alpha=1/3,1/5", "--lambda=1,2"],
    ["modp", "--config", "single", "--alpha=1/2", "--primes="],
    ["modp", "--config", "single", "--alpha=1/2", "--primes=,"],
    # the builtins have dimensions 1, 2 and 3, so no one parameter fits them
    # all: refused before any battery runs
    ["verify", "--alpha=1/2"],
    # a negative control without a relation could not fail
    ["verify", "--config", "single", "--perturb-beta"],
    ["verify", "--config", '{"points": [[1, 0], [0, 1]]}', "--alpha=1/2,1/3",
     "--perturb-beta"],
    # the support names are zn and u0 only
    *(["rank", "--config", "single", "--alpha=1/2", "--supports", name]
      for name in ("cone", "full", "z^n")),
])
def test_malformed_input_exits_2(monkeypatch, capsys, argv):
    batteries = []

    def recording(config, *args, _run=gkzkit.verify.run_battery, **kwargs):
        batteries.append(config)
        return _run(config, *args, **kwargs)
    monkeypatch.setattr(gkzkit.verify, "run_battery", recording)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("bad input: ")
    assert captured.err.count("\n") == 1
    if argv[0] == "verify" and ("--config" not in argv or "--perturb-beta" in argv):
        assert batteries == []
    if "--supports" in argv:
        assert captured.err.startswith("bad input: unknown support")


@pytest.mark.parametrize("argv", [
    ["analyze", "--config", "single", "--seed", "1"],
    ["verify", "--config", "single", "--seed", "1"],
    ["verify", "--config", "single", "--degree", "3"],
])
def test_options_without_an_effect_are_refused(capsys, argv):
    # analyze and verify draw nothing at random, and the battery's
    # d-monomials have degree at most 3: argparse refuses these options
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"unrecognized arguments: {' '.join(argv[3:])}" in captured.err
    assert "Traceback" not in captured.err


def test_no_last_coordinate_normalizer_exits_2(capsys):
    code = main(["rank", "--config", "cusp", "--alpha=1/2", "--hypersurface"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("invalid configuration: ")
    assert captured.err.count("\n") == 1


FRACTIONS = st.sampled_from(["1/2", "-1/3", "2/5", "3/7", "1", "0", "1/0"])


@st.composite
def cli_jobs(draw):
    n = draw(st.integers(1, 2))
    points = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                           max_size=2, unique_by=tuple))
    if draw(st.integers(0, 3)):
        # the unit vectors make most configurations generate the lattice
        units = [[int(i == j) for j in range(n)] for i in range(n)]
        points = units + [p for p in points if p not in units]
    length = draw(st.sampled_from([n, n, n, n - 1, n + 1]))
    values = draw(st.lists(FRACTIONS, min_size=length, max_size=length))
    command = draw(st.sampled_from(["analyze", "rank", "verify", "modp"]))
    argv = [command, "--config", json.dumps({"points": points}),
            "--alpha=" + ",".join(values)]
    if command == "rank":
        argv += ["--bound", str(draw(st.integers(0, 2))), "--supports",
                 draw(st.sampled_from(["zn", "u0", "zn,u0", "u0,zn"]))]
        if draw(st.booleans()):
            count = draw(st.sampled_from([len(points), len(points) + 1]))
            lam = draw(st.lists(FRACTIONS, min_size=count, max_size=count))
            argv.append("--lambda=" + ",".join(lam))
        if draw(st.booleans()):
            argv.append("--hypersurface")
    elif command == "modp":
        primes = draw(st.lists(st.integers(-3, 23), min_size=1, max_size=3))
        argv += ["--bound", str(draw(st.integers(0, 2))),
                 "--primes=" + ",".join(map(str, primes))]
    return argv


@settings(max_examples=60, deadline=None, derandomize=True)
@given(argv=cli_jobs())
def test_cli_contract_under_fuzzing(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in range(5), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0:
        json.loads(out.getvalue())


def test_modp_resonant_exits_4(capsys):
    code, report = run(capsys, *MODP_RESONANT_JOB)
    assert code == 4
    assert report["result"]["error"]["kind"] == "Resonant"


def test_reproducible_reports(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        code = main(["rank", "--config", "trinomial", "--alpha", "1/3,1/5",
                     "--bound", "3", "--seed", "42", "--out", str(out)])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def run_fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run Python code on the package sources in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=300)


# the gkz entry point, then the package modules listed in sys.modules when
# it returns, those of them whose code ran (a pending module is still of
# the lazy module type), and which of the slow-to-import standard modules
# dataclasses and inspect were loaded
LOADED_BY_MAIN = ("import json, sys, types\n"
                  "from gkzkit.cli import main\n"
                  "code = main(sys.argv[1:])\n"
                  "listed = sorted(m for m in sys.modules if m.startswith('gkzkit'))\n"
                  "ran = [m for m in listed if type(sys.modules[m]) is types.ModuleType]\n"
                  "slow = [m for m in ('dataclasses', 'inspect') if m in sys.modules]\n"
                  "print(json.dumps([code, listed, ran, slow]))\n")
ALL_MODULES = sorted(["gkzkit", *(f"gkzkit.{p.stem}" for p in
                                   (ROOT / "src" / "gkzkit").glob("*.py")
                                   if p.stem != "__init__")])
ANALYZE_MODULES = ["gkzkit", "gkzkit.catalog", "gkzkit.cli", "gkzkit.errors",
                   "gkzkit.intmat", "gkzkit.jsonio", "gkzkit.lattice"]
# rank jobs run the windows, not the identity battery; modp jobs run
# neither, only the mod-p echelon of linalg
RANK_MODULES = sorted(ANALYZE_MODULES + ["gkzkit.linalg", "gkzkit.window"])
BATTERY_MODULES = ["gkzkit.derham", "gkzkit.laurent", "gkzkit.verify", "gkzkit.weyl"]


@pytest.mark.parametrize("argv, modules", [
    (["analyze", "--config", "single", "--alpha", "1/2"], ANALYZE_MODULES),
    (["rank", "--config", "single", "--alpha", "1/2", "--supports", "zn",
      "--bound", "2"], RANK_MODULES),
    (["rank", "--config", "trinomial", "--alpha", "1/3,1/5", "--bound", "3",
      "--hypersurface"], RANK_MODULES),
    # verify jobs run the identity battery and no window; in one dimension
    # there is no gamma kernel, whose echelon needs linalg
    (["verify", "--config", "single"], sorted(ANALYZE_MODULES + BATTERY_MODULES)),
    (["modp", "--config", "single", "--alpha", "1/2", "--primes", "5"],
     sorted(ANALYZE_MODULES + ["gkzkit.linalg", "gkzkit.modp"])),
    (["verify", "--config", "trinomial"],
     sorted(ANALYZE_MODULES + BATTERY_MODULES
            + ["gkzkit.hypersurface", "gkzkit.linalg"])),
    # the path of the benchmark's rank_cone jobs: cone windows in 3-D
    (["rank", "--config", "gauss", "--alpha", "1/3,1/5,1/7", "--bound", "2",
      "--supports", "u0"], RANK_MODULES),
])
def test_each_subcommand_loads_only_the_modules_it_runs(argv, modules):
    proc = run_fresh(LOADED_BY_MAIN, *argv)
    assert proc.stderr == ""
    # every module is listed from the start, so code that patches functions
    # in the listed modules reaches those that load later
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, ALL_MODULES, modules, []]


def test_package_exports_resolve_on_first_access():
    assert gkzkit.__all__ == [
        "ConeSupport", "FacetForm", "FullSupport", "HalfSupport", "LaurentPoly",
        "LogForm", "ModpInstance", "ModpReport",
        "ParameterVector", "PointConfig", "RankReport", "RelationLattice",
        "ResonanceVerdict", "Support", "UForm", "WeylElement",
        "apply_D", "box_operator", "build_f", "build_f_symbolic", "build_g",
        "check_commutation", "check_complex", "check_gamma_chain_map",
        "check_phi_intertwines", "cohomology_U_dim", "cone_facets",
        "derham", "errors", "euler_operator", "full_set_sweep", "gamma", "generic_rank",
        "homotopy_identity_check", "hypersurface", "intmat",
        "is_nonresonant", "kernel_equals_dv_image", "lattice", "laurent",
        "linalg", "make_instance", "modp", "modp_solution_dim", "nabla",
        "phi_map", "quasi_iso_check", "relation_lattice",
        "solution_support", "tilde_nabla", "top_cohomology_dim",
        "toric_derivative", "twist_conjugation_check", "validate_config",
        "weyl", "weyl_mul", "window"]
    namespace = {}
    exec("from gkzkit import *", namespace)
    assert all(namespace[name] is getattr(gkzkit, name) for name in gkzkit.__all__)
    assert gkzkit.derham is sys.modules["gkzkit.derham"]
    assert gkzkit.nabla is gkzkit.derham.nabla
    with pytest.raises(AttributeError, match="no_such_name"):
        gkzkit.no_such_name


def test_readme_library_sketch_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sketch = re.search(r"## Library sketch\n\n```python\n(.*?)```", readme, re.S)
    proc = run_fresh(sketch.group(1))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[:2] == ["2", "True"]


def test_a_report_file_that_cannot_be_written_exits_2(tmp_path, capsys):
    path = tmp_path / "missing" / "report.json"
    code = main([*TRINOMIAL_JOB, "--out", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (f"cannot write the report: [Errno 2] No such file or "
                            f"directory: {str(path)!r}\n")


# one job for each exit code, 0 to 4, from the tests above
EXIT_CODE_JOBS = [TRINOMIAL_JOB, PERTURBED_JOB, NOT_GENERATING_JOB, NOT_STABILIZED_JOB,
                  MODP_RESONANT_JOB]
# main in a process that ends with the interpreter's teardown
MAIN_THEN_EXIT = "import sys\nfrom gkzkit.cli import main\nsys.exit(main(sys.argv[1:]))\n"
PROCESS_STARTS = [
    # python -m gkzkit.cli, which skips the teardown
    ["-m", "gkzkit.cli"],
    # main, then the teardown, which still reports what the hard exit would
    # hide: a file left open (a ResourceWarning under -X dev) or an object
    # that fails to finalize
    ["-X", "dev", "-W", "error", "-c", MAIN_THEN_EXIT],
]


def run_python(*args: str, cwd=None, stdout=subprocess.PIPE, close_fd: int | None = None,
               **env: str) -> subprocess.CompletedProcess:
    """Run Python on the package sources in a new interpreter; bytes out.
    With ``close_fd``, that file descriptor is closed before Python starts."""
    environ = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    environ.pop("PYTHONUNBUFFERED", None)
    environ.update(env)
    closing = None if close_fd is None else (lambda: os.close(close_fd))
    return subprocess.run([sys.executable, *args], env=environ, cwd=cwd, stdout=stdout,
                          stderr=subprocess.PIPE, preexec_fn=closing, timeout=300)


@pytest.mark.parametrize("start", PROCESS_STARTS)
@pytest.mark.parametrize("code, argv", enumerate(EXIT_CODE_JOBS))
def test_a_gkz_process_prints_what_main_prints(capsys, start, code, argv):
    assert main(argv) == code
    captured = capsys.readouterr()
    proc = run_python(*start, *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        code, captured.out.encode(), captured.err.encode())


@pytest.mark.parametrize("start", PROCESS_STARTS)
def test_a_gkz_process_writes_the_whole_report_file(capsys, tmp_path, start):
    assert main(TRINOMIAL_JOB) == 0
    expected = capsys.readouterr().out
    proc = run_python(*start, *TRINOMIAL_JOB, "--out", "report.json", cwd=tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    assert (tmp_path / "report.json").read_text(encoding="utf-8") == expected


@pytest.mark.parametrize("start", [
    # the installed gkz script
    "from gkzkit.cli import entry; entry()",
    # python -m gkzkit.cli
    "import runpy; runpy.run_module('gkzkit.cli', run_name='__main__')",
])
def test_a_gkz_process_ends_without_teardown(start):
    # an atexit handler runs in the teardown that the process skips
    code = "import atexit, sys; atexit.register(print, 'teardown', file=sys.stderr)\n"
    proc = run_python("-c", code + start, "analyze", "--config", "single")
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert json.loads(proc.stdout)["result"]["n"] == 1


def test_a_profiled_gkz_process_keeps_its_profile(tmp_path):
    # a profiler writes its results at exit, so that process is not cut short
    proc = run_python("-m", "cProfile", "-o", "gkz.prof", "-m", "gkzkit.cli",
                      "analyze", "--config", "single", cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, b"")
    stats = pstats.Stats(str(tmp_path / "gkz.prof"))
    assert any(path.endswith("cli.py") for path, _, _ in stats.stats)


@pytest.mark.parametrize("unbuffered", [{}, {"PYTHONUNBUFFERED": "1"}])
@pytest.mark.parametrize("start", [["-m", "gkzkit.cli"], ["-c", MAIN_THEN_EXIT]])
def test_a_report_that_cannot_be_written_exits_2(start, unbuffered):
    # stdout is a pipe whose reading end is closed: the report fails in the
    # write or in the flush, with buffered or unbuffered stdout, and neither
    # the hard exit nor the teardown tries it again
    read, write = os.pipe()
    os.close(read)
    try:
        proc = run_python(*start, "verify", "--config", "gauss", stdout=write,
                          **unbuffered)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (
        2, b"cannot write the report: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize("start", PROCESS_STARTS)
@pytest.mark.parametrize("argv, stderr", [
    (["analyze", "--config", "single"], b"cannot write the report: stdout is closed\n"),
    (["analyze", "--config", "nope"],
     b"bad input: [Errno 2] No such file or directory: 'nope'\n"),
])
def test_a_gkz_process_without_stdout_exits_2(start, argv, stderr):
    # fd 1 is not open at start-up, so sys.stdout is None: the report cannot
    # be written, and the flush before the hard exit skips the stream
    proc = run_python(*start, *argv, stdout=None, close_fd=1)
    assert (proc.returncode, proc.stderr) == (2, stderr)


@pytest.mark.parametrize("start", PROCESS_STARTS)
@pytest.mark.parametrize("argv, code", [(["analyze", "--config", "nope"], 2),
                                        (["analyze", "--config", "single"], 0)])
def test_a_gkz_process_without_stderr_keeps_its_exit_code(start, argv, code):
    # fd 2 is not open at start-up, so sys.stderr is None: the message is
    # dropped, and a traceback, which would go nowhere, would exit 1
    proc = run_python(*start, *argv, stdout=subprocess.DEVNULL, close_fd=2)
    assert proc.returncode == code


def test_the_gkz_script_ends_through_entry():
    # read as text: Python 3.10 has no tomllib
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert re.findall(r'^gkz\s*=\s*"(.*)"$', scripts.group(1), re.M) == [
        "gkzkit.cli:entry"]
