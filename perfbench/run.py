"""Benchmark for treeca: drives the CLI in-process on seeded workloads.

    python3 perfbench/run.py --workload large-n --seed 1 --seconds 30 --trace 0

Run from a checkout root; the program is imported from ./src. Each run
times its workload's fixed question set over and over for --seconds,
checks every answer outside the timed region, prints every metric as a
readable line and, as the last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 gives the
end-to-end metrics; --trace 1 alternates untraced and traced passes,
gives the per-layer metrics and writes the last traced pass's
spans to .perfbench/. --self-test checks that computed counts repeat
exactly across two runs of one seed and that on a second seed every
answer passes its check or fails only by a known defect (see
checks.py). --write-golden records stdout digests for seed 0.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden_seed0.json"
SPAN_DIR = ROOT / ".perfbench"
SETUP_FIRST = 4  # then one more after each pass

# set-up as a user meets it: fresh interpreter, import, parser, per-n tables
SETUP_CODE = """
import sys
import treeca.cli
from treeca.dynamics import _neighbor_tables
treeca.cli.build_parser()
for n in sys.argv[1:]:
    _neighbor_tables(int(n))
"""

# per-question latencies: (metric, unit, op, n or None for every n)
OP_METRICS = {
    "large-n": [("classify_ms", "ms", "classify", 8), ("det_ms", "ms", "det", 9),
                ("matrix_ms", "ms", "matrix", 8)],
    "sweep-small-n": [("sweep_tuples_per_s", "1/s", "sweep", None),
                      ("sweep_pool_tuples_per_s", "1/s", "sweep-pool", None),
                      ("table1_ms", "ms", "table1", None)],
    "singular-dynamics": [("garden_ms", "ms", "garden", None),
                          ("preimages_ms", "ms", "preimages", 7),
                          ("evolve_steps_per_s", "1/s", "evolve", 10),
                          ("probe_ms", "ms", "probe", None)],
}
# counts computed from array sizes or call structure: they repeat exactly
EXACT_COUNTS = ("rulematrix.dense_cells", "rulematrix.rref.cells", "analysis.probe.configs",
                "dynamics.garden.solve_calls", "dynamics.step_local.calls", "tree.index.calls")


class Answers:
    """Every call of one question: latencies, first output, repeat drift."""

    def __init__(self, question):
        self.q = question
        self.lat: list[float] = []
        self.raw = self.text = self.digest = self.rc = None
        self.err = ""
        self.changed = 0

    def add(self, rc, out, err, dt, render) -> None:
        text = render(out)
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.digest is None:
            self.raw, self.text, self.digest, self.rc, self.err = out, text, digest, rc, err
        elif (rc, digest) != (self.rc, self.digest):
            self.changed += 1
        self.lat.append(dt)


def run_passes(workload, budget, answers, render, after_pass=None) -> list[float]:
    """Ask the whole question set, at least once, until about budget
    seconds have passed; returns each pass's summed latency."""
    passes = []
    start = time.perf_counter()
    while True:
        total = 0.0
        for q in workload.questions:
            gc.collect()
            t0 = time.perf_counter()
            rc, out, err = q.run()
            dt = time.perf_counter() - t0
            total += dt
            answers[q.key].add(rc, out, err, dt, render)
        passes.append(total)
        if after_pass is not None:
            after_pass()
        elapsed = time.perf_counter() - start
        # stop at the pass boundary nearest the budget
        if elapsed + 0.5 * elapsed / len(passes) > budget:
            return passes


def verify(answers, golden) -> dict[str, list[str]]:
    """Failure strings per question key. A check that raises is a failure;
    a known defect's failure starts with checks.KNOWN."""
    from checks import known_exit

    fails = {}
    for key, a in answers.items():
        f = []
        if a.rc != 0:
            f.append(known_exit(a.q.op, a.rc, a.err) or f"exit {a.rc}: {a.err.strip()[:160]}")
        else:
            try:
                f += a.q.check(a.raw)
            except Exception as exc:  # malformed output must not abort the run
                f.append(f"output failed to parse: {exc!r}"[:200])
        if a.changed:
            f.append(f"{a.changed} repeat(s) gave other output than the first")
        if golden is not None and key in golden and golden[key] != a.digest:
            f.append("stdout differs from the digest recorded for seed 0")
        fails[key] = f
    return fails


def measure_setup(ns, repeats) -> list[float]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, *map(str, ns)], env=env, cwd=ROOT,
                       check=True)
        times.append(time.perf_counter() - t0)
    return times


def summary(values: list[float]) -> str:
    """Sample count, quartiles and the highest percentile with ten samples beyond it."""
    s = f"samples={len(values)}"
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        s += f" q1={q1:.4g} q3={q3:.4g}"
    for pct in (99, 90):
        if len(values) * (100 - pct) / 100 >= 10:
            s += f" p{pct}={statistics.quantiles(values, n=100)[pct - 1]:.4g}"
            break
    return s


def op_samples(answers, op, n, unit) -> list[float]:
    out = []
    for a in answers.values():
        if a.q.op == op and (n is None or a.q.n == n):
            out += [a.q.work / dt if unit == "1/s" else 1e3 * dt for dt in a.lat]
    return out


def machine() -> str:
    import numpy

    return (f"nproc={len(os.sched_getaffinity(0))} cpu={platform.machine()}"
            f" python={platform.python_version()} numpy={numpy.__version__}")


def load_golden(workload, seed):
    if seed != 0 or not GOLDEN.is_file():
        return None
    return json.loads(GOLDEN.read_text()).get(workload)


def report(metrics: dict[str, tuple[float, str]], fails, *runs) -> dict:
    """The result line. Every failed call counts in failed; the run is
    correct when each failure is exactly one of the recorded known defects."""
    from checks import KNOWN

    attempted = sum(len(a.lat) for answers in runs for a in answers.values())
    failed = sum(len(a.lat) for answers in runs for k, a in answers.items() if fails[k])
    unexplained = sum(len(a.lat) for answers in runs for k, a in answers.items()
                      if any(not line.startswith(KNOWN) for line in fails[k]))
    for key, f in fails.items():
        for line in f:
            print(f"{'KNOWN' if line.startswith(KNOWN) else 'FAIL'} {key[:120]}: {line}")
    print(f"error_rate {failed / attempted:.6g} ratio (attempted={attempted} failed={failed}, "
          f"of which {failed - unexplained} only by known defects)")
    return {"correct": unexplained == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_untraced(workload, seconds, seed, render) -> dict:
    # set-up samples are spread over the run, so one slow moment of the
    # machine does not set the median
    setup = measure_setup(workload.warm_ns, SETUP_FIRST)
    answers = {q.key: Answers(q) for q in workload.questions}
    passes = run_passes(workload, seconds, answers, render,
                        lambda: setup.extend(measure_setup(workload.warm_ns, 1)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    fails = verify(answers, load_golden(workload.name, seed))
    wall = sum(statistics.median(a.lat) for a in answers.values())
    metrics = {"setup_s": (statistics.median(setup), "s"), "wall_s": (wall, "s"),
               "peak_rss_mb": (peak_rss_mb, "MB")}
    print(f"setup_s {metrics['setup_s'][0]:.6g} s ({summary(setup)})")
    print(f"wall_s {wall:.6g} s (sum of per-question medians; passes={len(passes)}, "
          f"pass times {', '.join(f'{t:.4g}' for t in passes)})")
    print(f"peak_rss_mb {peak_rss_mb:.6g} MB (samples=1)")
    for name, unit, op, n in OP_METRICS[workload.name]:
        vals = op_samples(answers, op, n, unit)
        print(f"{name} {statistics.median(vals):.6g} {unit} ({summary(vals)})")
    return report(metrics, fails, answers)


def run_traced(workload, seconds, seed, render) -> dict:
    from spans import Tracer, layer_metrics, write_spans

    plain = {q.key: Answers(q) for q in workload.questions}
    traced = {q.key: Answers(q) for q in workload.questions}
    tracer = Tracer()
    per_pass, last_spans = [], []  # metrics of each traced pass, spans of the last

    def after_pass():
        out_bytes = sum(len(a.text.encode()) for a in traced.values()
                        if isinstance(a.raw, str))
        per_pass.append(layer_metrics(tracer, out_bytes))
        last_spans[:] = tracer.spans
        tracer.reset()

    # untraced and traced passes alternate, so drift in machine speed
    # falls on both sides of trace_overhead_frac
    plain_passes, traced_passes = [], []
    start = time.perf_counter()
    while True:
        plain_passes += run_passes(workload, 0, plain, render)
        tracer.install()
        try:
            traced_passes += run_passes(workload, 0, traced, render, after_pass)
        finally:
            tracer.uninstall()
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(plain_passes) > seconds:
            break
    fails = verify(plain, load_golden(workload.name, seed))
    for key, a in traced.items():
        if (a.rc, a.digest) != (plain[key].rc, plain[key].digest) or a.changed:
            fails[key].append("traced output differs from untraced output")
    SPAN_DIR.mkdir(exist_ok=True)
    write_spans(last_spans, SPAN_DIR / f"spans-{workload.name}.jsonl")
    metrics = {}
    for name, value in per_pass[0].items():
        # counts repeat exactly from pass to pass; times are medians over passes
        exact = layer_unit(name) in ("count", "bytes")
        metrics[name] = value if exact else statistics.median(m[name] for m in per_pass)
    metrics["bench.trace_overhead_frac"] = (
        statistics.median(traced_passes) / statistics.median(plain_passes) - 1)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {layer_unit(name)}")
    print(f"traced passes={len(traced_passes)} untraced passes={len(plain_passes)}")
    return report({k: (v, layer_unit(k)) for k, v in metrics.items()}, fails, plain, traced)


def layer_unit(name: str) -> str:
    if name.endswith("_ms") or ".ms." in name:
        return "ms"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def run_child(workload, seed, seconds, trace) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    for line in lines:
        if line.startswith(("FAIL ", "KNOWN ")):
            print(f"  {workload} seed {seed}: {line[:200]}")
    return json.loads(lines[-1])


def self_test(seconds: int) -> int:
    from workloads import WORKLOADS

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {k: {(m["name"], m["unit"]) for m in declared[k]} for k in ("end_to_end", "per_layer")}
    ok = True
    for name in WORKLOADS:
        first, second = (run_child(name, 0, seconds, 1) for _ in range(2))
        for m in EXACT_COUNTS:
            a, b = first["metrics"][m]["value"], second["metrics"][m]["value"]
            ok &= a == b
            print(f"{name} {m}: {a} / {b} {'repeats' if a == b else 'DIFFERS'}")
        other = run_child(name, 1, seconds, 0)
        ok &= other["correct"]
        verdict = ("" if not other["failed"] else ", each by a known defect" if other["correct"]
                   else ", NOT ALL by known defects")
        print(f"{name} seed 1: {other['failed']}/{other['attempted']} calls failed checks{verdict}")
        for kind, res in (("per_layer", first), ("end_to_end", other)):
            got = {(k, v["unit"]) for k, v in res["metrics"].items()}
            if got != names[kind]:
                ok = False
                print(f"{name}: metrics differ from BENCHMARK.json {kind}: "
                      f"{sorted(got ^ names[kind])}")
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


def write_golden() -> int:
    from workloads import WORKLOADS, render

    golden = {}
    for name, make in WORKLOADS.items():
        wl = make(0)
        answers = {q.key: Answers(q) for q in wl.questions}
        run_passes(wl, 0, answers, render)
        fails = verify(answers, None)
        golden[name] = {k: a.digest for k, a in answers.items() if not fails[k]}
        print(f"{name}: {len(golden[name])}/{len(answers)} questions recorded")
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["large-n", "sweep-small-n", "singular-dynamics"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--write-golden", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "treeca" / "__init__.py").is_file():
        print(f"error: no treeca package under {SRC}; run from a treeca checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_test:
        return self_test(int(args.seconds))
    if args.write_golden:
        return write_golden()
    if args.workload is None:
        ap.error("--workload is required")

    from treeca import cli, dynamics
    from workloads import WORKLOADS, render

    workload = WORKLOADS[args.workload](args.seed)
    cli.build_parser()
    for n in workload.warm_ns:
        dynamics._neighbor_tables(n)
    print(f"workload {workload.name} seed={args.seed} {machine()}")
    print(f"properties {json.dumps(workload.properties)}")
    run = run_traced if args.trace else run_untraced
    result = run(workload, args.seconds, args.seed, render)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
