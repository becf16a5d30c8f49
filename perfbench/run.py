#!/usr/bin/env python3
"""The panoptes-rs benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the repository root. Builds the `perfbench` and `repro` binaries
from source (into $CARGO_TARGET_DIR, default `.bench_build`), runs one
workload for about S seconds and prints one JSON result line last on
stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 the per-layer metrics. Every run also writes a provenance
record (host, source revision, workload parameters, run count, each
metric's median and quartiles over the run's repetitions) under
`.perfbench/results/`, and traced runs their spans under
`.perfbench/traces/`.

Offline workloads run each repetition in a fresh process and time it
from outside: `paper-study` runs `repro` itself, `tail-100k` runs the
crawl half of `repro --sites 100000 --population 1` through the same
drivers (`perfbench crawl-half`); their traced repetitions run the study
layer by layer (`perfbench trace-study`) and must print the same
document. Served workloads spawn fresh servers. See perfbench/README.md
for the metrics.
"""

import argparse
import hashlib
import json
import math
import os
import re
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Per-workload parameters, recorded with every result.
WORKLOADS = {
    "paper-study": {
        "kind": "study",
        "sites": "500 popular + 500 sensitive",
        "browsers": "15 pinned + 3 incognito pairs",
        "idle_s": 600,
        "jobs": "nproc",
        "slo_s": 15.0,
        "command": ["repro"],
        "reference": "repro_output.md (byte-identical)",
    },
    "tail-100k": {
        "kind": "study",
        "sites": "1000 head + 99000 tail",
        "browsers": "Chrome",
        "sections": "header + crawl sections",
        "jobs": "nproc",
        "slo_s": 30.0,
        "command": ["perfbench", "crawl-half", "--workload", "tail-100k"],
        # Flows of the 100k-site Chrome crawl, and the FNV-1a 64 digest of
        # its document (header + crawl sections) from a `--jobs 1` run.
        "flows": 823393,
        "digest": "0x63f26eda9c9e66a4",
        "reference": "823393 flows + recorded jobs-1 digest",
    },
    "serve-cold": {
        "kind": "serve",
        "study": "8 popular + 5 sensitive, population 6, idle 60 s",
        "seeds": "a new seed per request, drawn from --seed",
        "servers_per_run": 5,
        "server": "default config, workers = nproc",
        "open_loop_rate": "2/3 of closed-loop req/s",
        "slo_ms": 250.0,
        "reference": "offline render per seed",
    },
}

# The self-check's bound on the share of the traced wall time that the
# trace's wall-weighted self times may leave unaccounted for.
REMAINDER_BOUND = 0.02

# On a shared virtual host the hypervisor can take a large share of the
# CPUs for seconds at a time. Before each benchmark process it starts
# (every offline repetition, every serve run) the runner waits for a
# 300 ms sample with at most QUIET_STEAL of the CPU time stolen,
# spending at most HOST_WAIT_S per run on such waits.
QUIET_STEAL = 0.03
HOST_WAIT_S = 5.0

# A stretch measured while the hypervisor stole more than this share of
# the CPU time is measured again, at most MAX_REMEASURES times per run:
# an offline repetition (seconds long) and, inside a served run, an
# open-loop phase (whose millisecond latencies feel steal most). The
# disturbed stretch's output is still checked; it is not timed.
DISTURBED_STEAL = {"study": 0.03, "serve": 0.015}
MAX_REMEASURES = 3

# Set-up lasts well under a second and a short stall of the host moves
# it most, so each untraced offline repetition is followed by this
# many set-up probes: the same command, stopped once its first campaign
# starts. `setup_s` is the median over the probes and the repetitions.
SETUP_PROBES = 5


def cpu_ticks():
    """(steal, total) jiffies of the host's CPUs so far, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(v) for v in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def steal_share(before, after):
    return (after[0] - before[0]) / max(after[1] - before[1], 1)


def settle(budget):
    """Samples the host until it is quiet or budget[0] seconds are spent
    (and charged); returns the seconds spent."""
    started = time.monotonic()
    while True:
        before = cpu_ticks()
        time.sleep(0.3)
        spent = time.monotonic() - started
        if steal_share(before, cpu_ticks()) <= QUIET_STEAL or spent >= budget[0]:
            budget[0] = max(0.0, budget[0] - spent)
            return spent


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Builds `perfbench` (a package of its own) and the workspace's
    `repro`; returns {name: path} or None."""
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    builds = {
        "perfbench": ["--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")],
        "repro": ["--manifest-path", os.path.join(ROOT, "Cargo.toml"),
                  "-p", "panoptes-bench", "--bin", "repro"],
    }
    exes = {}
    for name, where in builds.items():
        cmd = ["cargo", "build", "--release", "--quiet", *where]
        result = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        exes[name] = os.path.join(ROOT, target, "release", name)
        if result.returncode != 0 or not os.path.exists(exes[name]):
            return None
    return exes


def fnv1a(data):
    """FNV-1a 64 of `data`, as `perfbench` digests documents."""
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:#018x}"


# Progress lines of the fleet drivers on stderr: the first campaign
# starts right after the first line; each crawl unit reports its flows.
FLEET_START = re.compile(rb"\] \d+ units across \d+ worker")
CRAWL_FLOWS = re.compile(rb" crawl: (\d+) flows captured, \d+ visits")


def time_process(cmd, setup_only=False):
    """Runs one study process and times it from outside. Returns a dict:
    `setup_s` (start to the fleet's first progress line, when the first
    campaign starts), `ttfe_s` (to the first `## ` section heading on
    stdout), `wall_s` (to exit), `cpu_s` and `peak_rss_mib` from the
    process's rusage, the crawl flows its progress lines report, its
    stdout, and its exit code. With `setup_only` the process is killed
    as soon as its set-up is timed."""
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    err = {"setup_s": None, "flows": 0, "last": b""}

    def read_stderr():
        for line in proc.stderr:
            if err["setup_s"] is None and FLEET_START.search(line):
                err["setup_s"] = time.monotonic() - started
                if setup_only:
                    proc.kill()
            m = CRAWL_FLOWS.search(line)
            if m:
                err["flows"] += int(m.group(1))
            err["last"] = line

    reader = threading.Thread(target=read_stderr)
    reader.start()
    out, ttfe = [], None
    for line in proc.stdout:
        if ttfe is None and line.startswith(b"## "):
            ttfe = time.monotonic() - started
        out.append(line)
    reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.monotonic() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "pid": proc.pid,
        "exit": proc.returncode,
        "setup_s": err["setup_s"],
        "ttfe_s": ttfe,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        # ru_maxrss is the process's peak resident set (VmHWM), KiB.
        "peak_rss_mib": usage.ru_maxrss / 1024.0,
        "flows": err["flows"],
        "stdout": b"".join(out),
        "stderr_last": err["last"].decode("utf-8", "replace").strip(),
    }


def verify_study(workload, digest, flows):
    """Why a study's document does not match its reference ('' if it does)."""
    params = WORKLOADS[workload]
    if workload == "paper-study":
        with open(os.path.join(ROOT, "repro_output.md"), "rb") as f:
            want = fnv1a(f.read())
        return "" if digest == want else f"document {digest} differs from repro_output.md ({want})"
    if flows != params["flows"]:
        return f"{flows} flows, expected {params['flows']}"
    if digest != params["digest"]:
        return f"crawl sections digest {digest}, expected {params['digest']}"
    return ""


def result_line(stdout):
    """The JSON object on the last line of a process's stdout, or None."""
    try:
        return json.loads(stdout.decode("utf-8", "replace").strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None


def quartiles(values):
    values = [v for v in values if v is not None and math.isfinite(v)]
    if not values:
        return None
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def quantile(values, q):
    values = sorted(values)
    if not values:
        return 0.0
    pos = q * (len(values) - 1)
    lo, hi = math.floor(pos), math.ceil(pos)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def trace_path(workload, seed, tag):
    folder = os.path.join(ROOT, ".perfbench", "traces")
    os.makedirs(folder, exist_ok=True)
    return os.path.join(folder, f"{workload}-seed{seed}-{tag}-{os.getpid()}.jsonl")


def untraced_command(exes, workload):
    command = WORKLOADS[workload]["command"]
    return [exes[command[0]], *command[1:]]


def study_rep(exes, workload, seed, traced, tag):
    """One offline repetition in a fresh process; returns its record."""
    if traced:
        cmd = [exes["perfbench"], "trace-study", "--workload", workload,
               "--trace-out", trace_path(workload, seed, tag)]
    else:
        cmd = untraced_command(exes, workload)
    run = time_process(cmd)
    rec = {k: v for k, v in run.items() if k != "stdout"}
    rec["traced"] = traced
    if run["exit"] != 0:
        rec["why"] = f"{os.path.basename(cmd[0])} exited with {run['exit']}: {run['stderr_last']}"
        return rec
    if traced:
        result = result_line(run["stdout"])
        if result is None:
            rec["why"] = "unreadable trace-study result"
            return rec
        rec.update({k: result[k] for k in ("isolated", "isolation", "jobs", "layers", "self_s",
                                           "attributed_s", "digest", "flows")})
        rec["in_process_wall_s"] = result["wall_s"]
        # What the untraced runs do not do (simnet probe, trace file).
        rec["extra_s"] = result["extra_s"]
    else:
        rec["digest"] = fnv1a(run["stdout"])
        rec["doc_bytes"] = len(run["stdout"])
        # A fresh process starts with nothing carried over.
        rec["isolated"] = True
        if rec["setup_s"] is None or rec["ttfe_s"] is None:
            rec["why"] = "no fleet start line or no section on the output"
            return rec
    rec["why"] = verify_study(workload, rec["digest"], rec["flows"])
    rec["ok"] = not rec["why"]
    return rec


def run_study(exes, workload, seed, seconds, traced):
    """Repetitions of an offline study, one fresh process each, for
    about `seconds` (at least one; traced runs alternate an untraced and
    a traced repetition), disturbed ones measured again."""
    reps = []
    budget = [HOST_WAIT_S]
    remeasured = 0
    started = time.monotonic()
    while True:
        for mode in ([False, True] if traced else [False]):
            while True:
                waited = settle(budget)
                before = cpu_ticks()
                rec = study_rep(exes, workload, seed, mode, f"rep{len(reps)}")
                rec.update(host_wait_s=waited, host_steal=steal_share(before, cpu_ticks()))
                if not mode:
                    probes = [time_process(untraced_command(exes, workload), setup_only=True)
                              for _ in range(SETUP_PROBES)]
                    rec["setup_probes_s"] = [p["setup_s"] for p in probes if p["setup_s"]]
                reps.append(rec)
                if rec["host_steal"] <= DISTURBED_STEAL["study"] or remeasured == MAX_REMEASURES:
                    break
                rec["disturbed"] = True
                remeasured += 1
        if time.monotonic() - started >= seconds:
            return reps


def study_metrics(reps, params):
    """End-to-end metrics of an offline run: each study is one request."""
    res = [r for r in reps if r.get("ok")]
    walls = [r["wall_s"] for r in res]
    ttfes = [r["ttfe_s"] for r in res]
    metrics = {
        "setup_s": [t for r in res for t in [r["setup_s"], *r["setup_probes_s"]]],
        "wall_s": walls,
        "cpu_s": [r["cpu_s"] for r in res],
        "peak_rss_mib": [r["peak_rss_mib"] for r in res],
        "req_per_s": [1.0 / w for w in walls],
        "ttfe_ms": [1e3 * t for t in ttfes],
        "completion_ms": [1e3 * w for w in walls],
    }
    values = {k: statistics.median(v) if v else 0.0 for k, v in metrics.items()}
    values["req_per_s"] = 1.0 / values["wall_s"] if values["wall_s"] else 0.0
    values["ttfe_p50_ms"] = values.pop("ttfe_ms")
    values["ttfe_p95_ms"] = quantile(metrics["ttfe_ms"], 0.95)
    values["completion_p50_ms"] = values.pop("completion_ms")
    values["completion_p95_ms"] = quantile(metrics["completion_ms"], 0.95)
    within = sum(1 for w in walls if w <= params["slo_s"])
    values["slo_frac"] = within / len(reps)
    return values, metrics


def source_revision():
    """(git rev or 'unknown', digest of the sources the benchmark builds)."""
    rev = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "compat", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "tests"))
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return rev, digest.hexdigest()[:16]


def write_provenance(args, record):
    folder = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(folder, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    with open(os.path.join(folder, name), "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)
    return os.path.join(".perfbench", "results", name)



def run_workload(exes, args, spec):
    """Runs one workload; returns (result line dict, provenance dict)."""
    params = WORKLOADS[args.workload]
    ticks_before = cpu_ticks()
    traced = args.trace == 1
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    values, samples, prov = {}, {}, {}
    if params["kind"] == "study":
        reps = run_study(exes, args.workload, args.seed, args.seconds, traced)
        attempted = len(reps)
        failed = sum(1 for r in reps if not r.get("ok"))
        isolated = all(r.get("isolated") for r in reps)
        pids = [r["pid"] for r in reps]
        isolated = isolated and len(pids) == len(set(pids))
        # The traced repetitions must print the same document as the
        # untraced ones (each is also checked against its reference).
        digests = {r.get("digest") for r in reps}
        if len(digests) > 1:
            failed = max(failed, 1)
        timed = [r for r in reps if not r.get("disturbed")]
        untraced = [r for r in timed if not r["traced"]]
        values, samples = study_metrics(untraced, params)
        if traced:
            layer_reps = [r for r in timed if r["traced"] and r.get("ok")]
            for name in {k for r in layer_reps for k in r.get("layers", {})}:
                samples[name] = [r["layers"][name] for r in layer_reps if name in r["layers"]]
                values[name] = statistics.median(samples[name])
            walls = {m: [r["wall_s"] - r.get("extra_s", 0.0) for r in timed
                         if r["traced"] == m and r.get("ok")]
                     for m in (False, True)}
            if walls[False] and walls[True]:
                values["obs.trace_overhead_frac"] = (
                    statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
                )
            prov["self_s"] = [r.get("self_s") for r in layer_reps]
            layer_names = {k for r in layer_reps for k in r.get("self_s", {})}
            prov["self_s_by_layer"] = {
                k: statistics.median(r["self_s"][k] for r in layer_reps if k in r.get("self_s", {}))
                for k in layer_names
            }
            prov["attributed_s"] = [r.get("attributed_s") for r in layer_reps]
        prov["reps"] = reps
        why = [r["why"] for r in reps]
    else:
        cmd = [exes["perfbench"], "serve-run", "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--disturbed-steal", str(DISTURBED_STEAL["serve"]),
               "--max-remeasures", str(MAX_REMEASURES)]
        if traced:
            cmd += ["--traced", "--trace-out", trace_path(args.workload, args.seed, "serve")]
        waited = settle([HOST_WAIT_S])
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE)
        result = result_line(run.stdout) if run.returncode == 0 else None
        if result is None:
            log(f"perfbench: serve-run exited with {run.returncode} or printed no result")
            return None, None
        result["host_wait_s"] = waited
        attempted, failed = result["attempted"], result["failed"]
        isolated = result["isolated"]
        for m in spec["end_to_end"]:
            if m["name"] in result:
                values[m["name"]] = result[m["name"]]
        values.update(result.get("layers", {}))
        prov["run"] = result
        prov["self_s_by_layer"] = result.get("self_s", {})
        per_instance = {"setup_s": "setup_s", "req_per_s": "req_per_s",
                        "cpu_s": "cpu_per_study_s", "peak_rss_mib": "peak_rss_mib"}
        samples = {metric: [i[key] for i in result.get("instances", [])]
                   for metric, key in per_instance.items()}
        why = [result["why"]]
        reps = [result]
    values["ok_frac"] = 1.0 - failed / max(attempted, 1)
    values["failed_frac"] = failed / max(attempted, 1)
    correct = failed == 0 and isolated
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            log(f"perfbench: metric {m['name']} missing for {args.workload}")
            return None, None
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    rev, src = source_revision()
    prov.update({
        # Share of CPU time the hypervisor took from this machine while
        # the run measured: a noisy host shows here first.
        "host_steal_frac": steal_share(ticks_before, cpu_ticks()),
        "workload": args.workload,
        "parameters": params,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host_cpus": os.cpu_count(),
        "host_cpus_usable": len(os.sched_getaffinity(0)),
        "git_rev": rev,
        "source_digest": src,
        "run_count": len(reps),
        "attempted": attempted,
        "failed": failed,
        "isolated": isolated,
        "why": [w for w in why if w],
        "metrics": {
            name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"],
                   **(quartiles(samples.get(name, [metrics[name]["value"]])) or {})}
            for name in metrics
        },
    })
    # Measured but not bounded: on a shared host the served TTFE tail
    # follows hypervisor steal more than the program (see README).
    prov["ttfe_p95_ms"] = values.get("ttfe_p95_ms")
    line = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return line, prov


def self_check(exes, spec):
    """Every metric of BENCHMARK.json is emitted with its unit on every
    workload, end-to-end values are never 0, and every traced run's
    self times add up to its wall time within REMAINDER_BOUND."""
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != {sorted(WORKLOADS)}")
    if not any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in spec["end_to_end"]):
        problems.append("no setup_s end-to-end metric")
    for workload in names:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=7, seconds=1, trace=trace)
            line, prov = run_workload(exes, args, spec)
            tag = f"{workload} --trace {trace}"
            if line is None:
                problems.append(f"{tag}: no result")
                continue
            if not line["correct"]:
                problems.append(f"{tag}: incorrect output: {prov['why']}")
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            for m in wanted:
                got = line["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"] or not math.isfinite(got["value"]):
                    problems.append(f"{tag}: metric {m['name']} missing or malformed: {got}")
                elif not trace and got["value"] == 0:
                    problems.append(f"{tag}: end-to-end metric {m['name']} is 0")
            if trace:
                remainder = line["metrics"].get("trace.remainder_frac", {}).get("value", 1.0)
                if remainder > REMAINDER_BOUND:
                    problems.append(f"{tag}: trace self times leave {remainder:.3%} of the wall "
                                    f"unaccounted (bound {REMAINDER_BOUND:.0%})")
            log(f"self-check: {tag}: ok" if not problems else f"self-check: {tag}: {problems[-1]}")
    for p in problems:
        log(f"self-check: FAIL: {p}")
    return not problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    try:
        spec = load_spec()
    except (OSError, ValueError) as e:
        log(f"perfbench: cannot read BENCHMARK.json: {e}")
        return 1
    exes = build()
    if exes is None:
        log("perfbench: build failed")
        return 1
    if args.self_check:
        return 0 if self_check(exes, spec) else 1
    if not args.workload:
        parser.error("--workload is required")
    line, prov = run_workload(exes, args, spec)
    if line is None:
        return 1
    where = write_provenance(args, prov)
    log(f"perfbench: {args.workload} seed {args.seed}: {prov['run_count']} run(s), "
        f"correct={line['correct']}, provenance in {where}")
    if prov.get("self_s_by_layer"):
        table = ", ".join(f"{k} {v:.4g}" for k, v in sorted(prov["self_s_by_layer"].items()))
        log(f"perfbench: self time per layer (s): {table}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
