"""twistctl benchmark: time the README CLI commands end to end, and each
layer beneath them from a separate traced run.

Usage, from the repository root:

    python3 bench/run.py --workload detect --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 20

One run generates the workload's inputs from --seed, then repeats passes
over its CLI invocations for --seconds (closed loop: one client, each
command starts when the previous one exits, every command a fresh
subprocess).  Every output is checked.  With --trace 0 it reports the
end-to-end metrics; with --trace 1 it alternates untraced and traced passes
and reports the per-layer metrics.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Full details, with
every sample, go to .bench_work/<workload>/result-trace<0|1>.json.
See bench/README.md for every metric and workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from spans import SPANS

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN = BENCH_DIR / "golden.json"
WORK_ROOT = Path(".bench_work")
DEFAULT_SEED = 1
SETUP_PROBES = 5            # timed set-up probes before and again after the passes
RUN_LIMIT_S = 170           # no child may outlive this much of a run

# Spans whose call count is a per-layer metric besides their times.
CALL_COUNTS = {"numberfield.frobenius_at", "numberfield.roots_of_unity",
               "characters.char_fit", "characters.char_eval",
               "forms.classify_place"}
MICRO_METRICS = {
    "numberfield.mul_us.deg2": "us",
    "numberfield.mul_us.deg4": "us",
    "numberfield.inverse_us.deg4": "us",
    "numberfield.apply_aut_us.deg4": "us",
    "forms.mat_det_us": "us",
    "forms.mat_inv_us": "us",
    "finitefield.mul_ns": "ns",
}
# Exact counts; the traced passes of one run must agree on every one.
COUNT_METRICS = {
    "numberfield.mul_calls": "numberfield.mul",
    "polynomials.discriminant_calls": "polynomials.discriminant",
    "forms.candidates": "forms.candidates",
    "forms.fixed_points": "forms.fixed_points",
}


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout


class Runner:
    """Spawns benchmark children one at a time and reaps each with its
    resource usage.  No child outlives the run's time limit."""

    def __init__(self, src: Path, work: Path):
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("TWISTCTL_NETWORK", "PYTHONPATH")}
        self.env["PYTHONPATH"] = str(src)
        self.env["TWISTCTL_CACHE"] = str((work / "cache").resolve())
        signal.signal(signal.SIGALRM, _on_alarm)

    def spawn(self, cmd, out_path: Path) -> dict:
        """Run cmd to completion with stdout in out_path; wall seconds,
        child CPU seconds, max RSS in MB and the exit code."""
        budget = self.deadline - time.monotonic()
        if budget <= 0:
            return {"code": None, "wall": 0.0, "cpu": 0.0, "rss_mb": 0.0}
        with open(out_path, "wb") as out, \
                open(out_path.with_suffix(".err"), "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env)
            signal.setitimer(signal.ITIMER_REAL, budget)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except ChildTimeout:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                status = None
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - start
        code = None if status is None else os.waitstatus_to_exitcode(status)
        proc.returncode = -9 if code is None else code   # reaped above
        return {"code": code,
                "wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024}


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def summarize(samples) -> dict:
    values = sorted(samples)
    summary = {"n": len(values), "min": values[0], "median": statistics.median(values),
               "max": values[-1], "values": list(samples)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary.update(q1=q1, q3=q3)
    return summary


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def run_pass(runner, invocations, pass_dir: Path, traced: bool) -> dict:
    """One closed-loop pass over the invocations; outputs are checked after
    the pass so that checking is not timed."""
    pass_dir.mkdir(parents=True)
    children = []
    start = time.perf_counter()
    for i, inv in enumerate(invocations):
        if traced:
            cmd = [sys.executable, str(BENCH_DIR / "traced_child.py"),
                   str(pass_dir / f"{i}.spans.json"), "--", *inv.argv]
        else:
            cmd = [sys.executable, "-m", "twistctl.cli", *inv.argv]
        children.append(runner.spawn(cmd, pass_dir / f"{i}.out"))
    wall = time.perf_counter() - start
    return {"dir": pass_dir, "traced": traced, "wall": wall, "children": children,
            "cpu": sum(c["cpu"] for c in children),
            "rss_mb": max(c["rss_mb"] for c in children)}


def check_pass(workload, seed, invocations, result, golden) -> list:
    """Failure messages for one pass, one per failed invocation."""
    from workloads import CheckFailed
    failures = []
    for i, (inv, child) in enumerate(zip(invocations, result["children"])):
        what = f"{workload}/{inv.key}"
        if child["code"] != 0:
            failures.append(f"{what}: exit code {child['code']}")
            continue
        out = (result["dir"] / f"{i}.out").read_text()
        try:
            inv.check(out)
            digests = {inv.key: hashlib.sha256(out.encode()).hexdigest()}
            if inv.written is not None:
                digests[f"{inv.key}:written"] = sha256_file(inv.written)
            if seed == DEFAULT_SEED and golden is not None:
                for key, digest in digests.items():
                    if golden.get(key) != digest:
                        raise CheckFailed(f"sha256 of {key} differs from the "
                                          "recorded digest")
            result.setdefault("digests", {}).update(digests)
        except (CheckFailed, AttributeError, LookupError, TypeError,
                ValueError) as exc:
            failures.append(f"{what}: {type(exc).__name__}: {exc}")
    return failures


def merge_spans(result, n_invocations) -> dict:
    """Sum the span totals and counters of one traced pass's children."""
    spans, counters = {}, {}
    for i in range(n_invocations):
        path = result["dir"] / f"{i}.spans.json"
        if not path.exists():
            continue
        doc = json.loads(path.read_text())
        for name, t in doc["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += t[key]
        for name, k in doc["counters"].items():
            counters[name] = counters.get(name, 0) + k
    return {"spans": spans, "counters": counters}


def layer_metrics(traced_passes, untraced_passes, micro) -> tuple:
    """Per-layer metrics of a traced run, and whether its counts repeat."""
    merged = [p["merged"] for p in traced_passes]
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def span_values(name, key):
        return [m["spans"].get(name, {}).get(key, 0) for m in merged]

    first = merged[0]
    counts = lambda name: first["counters"].get(name, 0)
    for name, _, _ in SPANS:
        put(f"{name}_s", statistics.median(span_values(name, "incl_s")), "s")
        put(f"{name}_s.self", statistics.median(span_values(name, "self_s")), "s")
        if name in CALL_COUNTS:
            put(f"{name}_calls", first["spans"].get(name, {}).get("calls", 0), "count")
    for metric, counter in COUNT_METRICS.items():
        put(metric, counts(counter), "count")
    attempts = counts("characters.fit_attempts")
    put("characters.fit_hit_ratio",
        counts("characters.fit_hits") / attempts if attempts else 0.0, "ratio")
    candidates = counts("forms.candidates")
    put("forms.fixed_ratio",
        counts("forms.fixed_points") / candidates if candidates else 0.0, "ratio")
    for name, unit in MICRO_METRICS.items():
        put(name, micro.get(name, 0.0), unit)
    traced_wall = statistics.median(p["wall"] for p in traced_passes)
    untraced_wall = statistics.median(p["wall"] for p in untraced_passes)
    put("trace_overhead_frac", traced_wall / untraced_wall - 1, "ratio")

    def exact(m):
        return (m["counters"], {n: s["calls"] for n, s in m["spans"].items()})
    repeatable = all(exact(m) == exact(first) for m in merged)
    return metrics, repeatable


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def run_micro(runner, work: Path, failures: list) -> dict:
    """Micro-kernel timings from a fresh interpreter; failures appended."""
    child = runner.spawn([sys.executable, str(BENCH_DIR / "micro.py")],
                         work / "micro.out")
    if child["code"] != 0:
        failures.append(f"micro: exit code {child['code']}")
        return {}
    try:
        doc = json.loads((work / "micro.out").read_text())
        failures.extend(f"micro: {f}" for f in doc["failures"])
        return doc["metrics"]
    except (LookupError, ValueError) as exc:
        failures.append(f"micro: unreadable output: {exc}")
        return {}


def environment(seed, inputs) -> dict:
    git_sha = None
    if Path(".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            git_sha = proc.stdout.strip() or None
        except OSError:
            pass
    src = hashlib.sha256()
    for path in sorted(Path("src").rglob("*.py")):
        src.update(path.as_posix().encode() + b"\0" + path.read_bytes())
    try:
        sympy_version = metadata.version("sympy")
    except metadata.PackageNotFoundError:
        sympy_version = None
    return {"git_sha": git_sha, "src_sha256": src.hexdigest(),
            "python": sys.version.split()[0], "sympy": sympy_version,
            "nproc": os.cpu_count(), "seed": seed,
            "inputs_sha256": {name: sha256_file(p) for name, p in sorted(inputs.items())}}


def run_workload(name, seed, seconds, trace, src: Path, use_golden=True) -> dict:
    from workloads import WORKLOADS
    workload = WORKLOADS[name]
    work = WORK_ROOT / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = workload.make_inputs(seed, work)
    invocations = workload.invocations(seed, work)
    golden = None
    if use_golden and GOLDEN.exists():
        golden = json.loads(GOLDEN.read_text()).get(name)
    runner = Runner(src, work)
    failures = []
    attempted = 0

    def probe() -> float:
        nonlocal attempted
        attempted += 1
        child = runner.spawn([sys.executable, str(BENCH_DIR / "setup_probe.py"),
                              name, str(work)], work / "probe.out")
        if child["code"] != 0:
            failures.append(f"{name}/setup probe: exit code {child['code']}")
        return child["wall"]

    def one_pass(traced) -> dict:
        nonlocal attempted
        index = len(passes)
        result = run_pass(runner, invocations, work / f"pass{index}", traced)
        attempted += len(invocations)
        failures.extend(check_pass(name, seed, invocations, result, golden))
        return result

    probe()                                   # warm-up: bytecode caches
    passes = []
    record = {"workload": name, "trace": trace,
              "environment": environment(seed, inputs)}
    deadline = time.perf_counter() + seconds
    if not trace:
        # probes on both sides of the passes, so that one burst of load
        # from other tenants of the machine does not set the median alone
        setups = [probe() for _ in range(SETUP_PROBES)]
        while not passes or time.perf_counter() < deadline:
            passes.append(one_pass(False))
        setups += [probe() for _ in range(SETUP_PROBES)]
        samples = {"wall_s": [p["wall"] for p in passes],
                   "cpu_s": [p["cpu"] for p in passes],
                   "peak_rss_mb": [p["rss_mb"] for p in passes],
                   "setup_s": setups}
        units = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
        metrics = {k: {"value": statistics.median(v), "unit": units[k]}
                   for k, v in samples.items()}
        record["samples"] = {k: summarize(v) for k, v in samples.items()}
    else:
        while not passes or time.perf_counter() < deadline:
            passes.append(one_pass(False))
            passes.append(one_pass(True))
        traced = [p for p in passes if p["traced"]]
        for p in traced:
            p["merged"] = merge_spans(p, len(invocations))
        attempted += 1
        micro = run_micro(runner, work, failures)
        metrics, repeatable = layer_metrics(
            traced, [p for p in passes if not p["traced"]], micro)
        record["counts_repeat"] = repeatable
        record["spans"] = traced[0]["merged"]
        record["samples"] = {
            "traced_wall_s": summarize([p["wall"] for p in traced]),
            "untraced_wall_s": summarize([p["wall"] for p in passes
                                          if not p["traced"]])}
    record["digests"] = passes[0].get("digests", {})
    record.update(attempted=attempted, failed=len(failures), failures=failures,
                  metrics=metrics)
    (work / f"result-trace{trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True, default=str) + "\n")
    return record


def print_record(record) -> None:
    env = record["environment"]
    print(f"# workload {record['workload']} trace {record['trace']} seed {env['seed']}"
          f" | git {env['git_sha']} src {env['src_sha256'][:12]} | python"
          f" {env['python']} sympy {env['sympy']} nproc {env['nproc']}")
    for name, digest in env["inputs_sha256"].items():
        print(f"#   input {name} sha256 {digest}")
    for name, s in record["samples"].items():
        print(f"#   samples {name}: n={s['n']} median={s['median']:.4f} "
              f"min={s['min']:.4f} max={s['max']:.4f}")
    print(f"#   failed_frac {record['failed'] / record['attempted']:.4f} "
          f"({record['failed']} of {record['attempted']} operations)")
    for failure in record["failures"]:
        print(f"#   FAILED {failure}")
    if "counts_repeat" in record:
        print(f"#   exact counts repeat across traced passes: {record['counts_repeat']}")
    for name, m in record["metrics"].items():
        print(f"{record['workload']:>8}  {name:<42} {m['value']:>14.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="store the stdout digests of this run as the "
                             "recorded ones (default seed only)")
    args = parser.parse_args(argv)

    src = Path("src").resolve()
    if not (src / "twistctl" / "cli.py").is_file():
        print("bench: src/twistctl not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS
    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)} or all")
    if args.record_golden and args.seed != DEFAULT_SEED:
        parser.error("--record-golden needs the default seed")

    if args.workload == "all":
        runs = [(name, trace) for name in WORKLOADS for trace in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, trace in runs:
        record = run_workload(name, args.seed, args.seconds, trace, src,
                              use_golden=not args.record_golden)
        print_record(record)
        summary["attempted"] += record["attempted"]
        summary["failed"] += record["failed"]
        prefix = f"{name}." if args.workload == "all" else ""
        summary["metrics"].update(
            {prefix + k: v for k, v in record["metrics"].items()})
        if args.record_golden:
            golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
            golden[name] = record["digests"]
            GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
