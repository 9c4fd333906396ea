"""gkzkit benchmark: real ``gkz`` jobs, each in a fresh process, one at a time.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from
``src`` (no install step).  The job list comes from bench/workloads.py and
the workload seed.  A run repeats whole passes over the job list while
another pass, as long as the last, fits in ``--seconds`` (at least one
pass), checks every answer outside the timed region, and prints one JSON
object as its last line of output.

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json,
with times scaled to a nominal machine speed measured by reference();
with ``--trace 1`` it alternates plain and traced passes (bench/traced_job.py)
and reports the per-layer metrics.  ``--workload all`` runs every workload
and prints a table.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 9
JOB_TIMEOUT_S = 100
HASH_SEED = "0"
REFERENCE_S = 0.05      # reference() at nominal machine speed


class SetupError(Exception):
    pass


@dataclass
class Outcome:
    seconds: float
    rss_mb: float
    code: int
    stdout: bytes
    stderr: bytes
    trace: dict | None = None
    scaled: float = 0.0     # seconds at nominal speed, set for plain passes


class Gkz:
    """Starts ``gkz`` processes on the checkout's sources."""

    def __init__(self, root: Path):
        if not (root / "src" / "gkzkit" / "cli.py").is_file():
            raise SetupError(f"no gkzkit sources under {root / 'src'}")
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        PYTHONHASHSEED=HASH_SEED)
        self.tracer = str(root / "bench" / "traced_job.py")

    def run(self, argv, traced: bool = False) -> Outcome:
        if not traced:
            return _run_process([sys.executable, "-m", "gkzkit.cli", *argv], self.env)
        r, w = os.pipe()
        return _run_process([sys.executable, self.tracer, str(w), *argv],
                            self.env, w, os.fdopen(r, "rb"))

    def setup_run(self) -> Outcome:
        out = self.run(["analyze", "--config", "single"])
        if out.code != 0 or workloads.parse_answer(out.stdout).get("n") != 1:
            raise SetupError(f"gkz analyze failed: {out.stderr.decode()[-300:]}")
        return out

    def nonresonant(self, config: str, alpha: str) -> bool:
        out = self.run(["analyze", "--config", config, f"--alpha={alpha}"])
        if out.code != 0:
            raise SetupError(f"gkz analyze {config} failed: "
                             f"{out.stderr.decode()[-300:]}")
        return workloads.parse_answer(out.stdout)["nonresonant"] is True


def _run_process(cmd, env, pass_fd=None, extra=None) -> Outcome:
    """Run to completion; wall time from spawn to reaping, with max RSS."""
    chunks = {}

    def drain(key, stream):
        with stream:
            chunks[key] = stream.read()

    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, pass_fds=() if pass_fd is None else (pass_fd,))
    if pass_fd is not None:
        os.close(pass_fd)
    streams = [("out", proc.stdout), ("err", proc.stderr)]
    if extra is not None:
        streams.append(("trace", extra))
    readers = [threading.Thread(target=drain, args=s) for s in streams]
    for t in readers:
        t.start()
    killer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
    killer.start()
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    for t in readers:
        t.join()
    try:
        trace = json.loads(chunks["trace"]) if chunks.get("trace") else None
    except ValueError:      # the job died while writing its spans
        trace = None
    return Outcome(seconds, usage.ru_maxrss / 1024, proc.returncode,
                   chunks["out"], chunks["err"], trace)


def judge(job: workloads.Job, out: Outcome) -> str | None:
    """Why the job's outcome is wrong, or None when it is right."""
    if out.code != job.exit_code:
        return (f"exit {out.code}, expected {job.exit_code}: "
                f"{out.stderr.decode(errors='replace').strip()[-200:]}")
    try:
        answer = workloads.parse_answer(out.stdout)
    except (ValueError, KeyError, TypeError):
        return "output is not a JSON report"
    return job.check(answer)


def reference() -> float:
    """Seconds this process takes for a fixed pure-Python computation.

    The machine's speed drifts by up to a third over tens of seconds, for
    every process alike.  This computation has the jobs' instruction mix
    (dicts keyed by tuples, Fractions, an integer echelon with gcd
    normalization) and shares no code with the program, so timing it
    between jobs measures the speed the jobs ran at.
    """
    start = time.perf_counter()
    counts: dict = {}
    for i in range(30000):
        key = (i % 31, i % 29)
        counts[key] = (counts.get(key, 0) * 3 + i) % 1000003
    acc = Fraction(0)
    for i in range(1, 1500):
        acc += Fraction(i % 13 + 1, i)
    rows: dict = {}
    for r in range(80):
        v = {(r * 7 + j * 13) % 101: (r + 1) * (j + 3) ** 9 for j in range(6)}
        while v:
            lead = max(v)
            row = rows.get(lead)
            if row is None:
                rows[lead] = v
                break
            g = gcd(v[lead], row[lead])
            a, b = v[lead] // g, row[lead] // g
            v = {k: b * c for k, c in v.items()}
            for k, c in row.items():
                x = v.get(k, 0) - a * c
                if x:
                    v[k] = x
                else:
                    v.pop(k, None)
            g = 0
            for c in v.values():
                g = gcd(g, c)
            if g > 1:
                v = {k: c // g for k, c in v.items()}
    return time.perf_counter() - start


def scaled_runs(runs) -> list[Outcome]:
    """Call each run in turn with reference() timed before, between and
    after, and scale each outcome's seconds by REFERENCE_S over the mean of
    the two reference times around it."""
    outcomes = []
    before = reference()
    for run in runs:
        out = run()
        after = reference()
        out.scaled = out.seconds * 2 * REFERENCE_S / (before + after)
        outcomes.append(out)
        before = after
    return outcomes


def run_pass(gkz: Gkz, jobs, traced: bool, errors: Counter) -> list[Outcome]:
    """One job after another; a plain pass scales each job's time."""
    if traced:
        outcomes = [gkz.run(job.argv, True) for job in jobs]
    else:
        outcomes = scaled_runs([functools.partial(gkz.run, job.argv)
                                for job in jobs])
    for job, out in zip(jobs, outcomes):
        why = judge(job, out)           # outside the job's timed region
        if why is None and traced and out.trace is None:
            why = "traced job wrote no spans"
        if why is not None:
            errors[f"{job.name}: {why}"] += 1
    return outcomes


def pass_wall(passes: list[list[Outcome]], attr: str = "seconds") -> float:
    """Wall time of one pass: the sum over jobs of each job's median."""
    return sum(statistics.median(getattr(p[j], attr) for p in passes)
               for j in range(len(passes[0])))


def peak_rss(passes: list[list[Outcome]]) -> float:
    return max(statistics.median(p[j].rss_mb for p in passes)
               for j in range(len(passes[0])))


# --- per-layer metrics from spans ---------------------------------------

def span_names() -> list[str]:
    from traced_job import FUNCTIONS, METHODS
    return (["cli.main"] + [f"{m}.{f}" for m, f in FUNCTIONS]
            + [name for *_, name, _ in METHODS])


def layer_totals(traces: list[dict]) -> dict[str, float]:
    """Counts and seconds for one traced pass, summed over its jobs.

    ``s`` is inclusive time (a span nested in one of the same name is not
    counted twice); ``self_s`` is inclusive time minus the child spans.
    """
    calls, incl, self_s, value = Counter(), Counter(), Counter(), Counter()
    fill, max_bits = 0, 0
    for doc in traces:
        spans = doc["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, val) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                incl[name] += end - start
            if isinstance(val, list):       # window: [points, on a cone]
                value[name] += val[0]
                value[name + ".cone"] += val[0] if val[1] else 0
            elif val is not None:
                value[name] += val
        fill += doc["fill"]
        max_bits = max(max_bits, doc["max_bits"])
    out = {}
    for name in span_names():
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = float(incl[name])
        out[f"{name}.self_s"] = float(self_s[name])
    for name in ("linalg.RationalEchelon.insert", "linalg.ModpEchelon.insert"):
        out[f"{name}.grew"] = value[name]
        out[f"{name}.yield"] = value[name] / calls[name] if calls[name] else 0.0
    out["modp.recurrence_rows.rows"] = value["modp.recurrence_rows"]
    out["derham.CohomologyWindow.points"] = value["derham.CohomologyWindow"]
    contains = calls["laurent.ConeSupport.contains"]
    out["derham.CohomologyWindow.yield"] = (
        value["derham.CohomologyWindow.cone"] / contains if contains else 0.0)
    out["linalg.RationalEchelon.fill"] = fill
    out["linalg.RationalEchelon.max_bits"] = max_bits
    return out


def layer_metrics(traced: list[list[Outcome]], plain: list[list[Outcome]],
                  errors: Counter) -> dict[str, float]:
    """Counts from the traced passes, which must agree, and median times."""
    per_pass = [layer_totals([o.trace for o in p if o.trace]) for p in traced]
    out = {}
    for key in per_pass[0]:
        values = [t[key] for t in per_pass]
        if isinstance(values[0], int):
            if len(set(values)) != 1:
                errors[f"count {key} differs between traced passes: {values}"] += 1
            out[key] = values[0]
        else:
            out[key] = statistics.median(values)
    out["trace.overhead_frac"] = pass_wall(traced) / pass_wall(plain) - 1
    return out


# --- runs ----------------------------------------------------------------

def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = load_spec()
    gkz = Gkz(ROOT)
    setup = scaled_runs([gkz.setup_run] * SETUP_REPS)
    jobs = workloads.build(name, f"{name}/{seed}", gkz.nonresonant)
    errors: Counter = Counter()
    plain, traced = [], []
    start = last = time.perf_counter()
    pass_s = 0.0
    # whole passes while another one fits in the time, as long as the last
    # one took; a traced run alternates plain and traced passes and ends with
    # at least one of each
    while (not plain or (trace and not traced)
           or last - start + pass_s <= seconds):
        if trace and len(traced) < len(plain):
            traced.append(run_pass(gkz, jobs, True, errors))
        else:
            plain.append(run_pass(gkz, jobs, False, errors))
        now = time.perf_counter()
        pass_s, last = now - last, now
    attempted = len(jobs) * (len(plain) + len(traced))
    failed = sum(errors.values())       # one entry per failed job so far
    if trace:
        values = layer_metrics(traced, plain, errors)
        listed = spec["per_layer"]
    else:
        values = {"setup_s": statistics.median(o.scaled for o in setup),
                  "wall_s": pass_wall(plain, "scaled"),
                  "peak_rss_mb": peak_rss(plain)}
        listed = spec["end_to_end"]
    for msg, count in sorted(errors.items()):
        print(f"[{name}] {count}x {msg}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }


def print_table(results: dict) -> None:
    print(f"{'workload':<10} {'setup_s (s)':>12} {'wall_s (s)':>11} "
          f"{'peak_rss_mb (MB)':>17} {'failed_frac (1)':>16}  correct")
    for name, res in results.items():
        m = {k: v["value"] for k, v in res["metrics"].items()}
        print(f"{name:<10} {m['setup_s']:>12.4f} {m['wall_s']:>11.3f} "
              f"{m['peak_rss_mb']:>17.1f} "
              f"{res['failed'] / res['attempted']:>16.4f}  {res['correct']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(name, args.seed, args.seconds,
                                      bool(args.trace)) for name in names}
    except (SetupError, OSError) as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        if not args.trace:
            print_table(results)
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
