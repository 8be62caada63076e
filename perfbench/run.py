#!/usr/bin/env python3
"""copcd benchmark: one workload, one process, a closed loop of ops.

    python3 perfbench/run.py --workload scene256 --seed 1 --seconds 20 --trace 0

Set-up, done five times, each in a fresh interpreter, is an import of
copcd.cli from ./src plus writing the workload's inputs, generated from
--seed; set-up time is the median of its CPU seconds (wall seconds are in
the record). Then ops start back to back until --seconds have passed (the
last op runs to its end). Every op's exit code
and outputs are checked: outputs must be bit-identical across the ops of a
run and across runs of the same seed and source, and scene256 must pass the
acceptance gate. With --trace 0 the last stdout line reports the
end-to-end metrics listed in BENCHMARK.json; with --trace 1 ops alternate
untraced and traced (spans around every public copcd function) and it
reports the per-layer metrics, including the tracing overhead. A full record
and the spans go to .bench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5

# One set-up in a fresh interpreter: import copcd.cli and write the inputs.
# It prints its wall and CPU seconds and the input files as JSON.
SETUP_SCRIPT = """\
import json, sys, time
start, cpu_start = time.perf_counter(), time.process_time()
sys.path[:0] = [{src!r}, {here!r}]
import copcd.cli, workloads
files = workloads.WORKLOADS[{name!r}].setup({dirname!r}, {seed})
print(json.dumps({{"seconds": time.perf_counter() - start,
                  "cpu_s": time.process_time() - cpu_start, "files": files}}))
"""

sys.path.insert(0, str(HERE))
import benchstats  # noqa: E402
import spantrace  # noqa: E402
import workloads  # noqa: E402

# Per-layer stats that count work: they must repeat exactly.
COUNT_STATS = ("calls", "regions", "n", "iters", "mb", "converged_frac")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def declared_metrics(trace: int) -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "copcd").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def commit() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def state_key(env: dict) -> str:
    """What an output digest depends on besides the seed: the copcd source,
    the workload definitions and the interpreter and library versions."""
    h = hashlib.sha256((HERE / "workloads.py").read_bytes())
    for name in ("source_sha256", "python", "numpy", "scipy", "machine"):
        h.update(f"{name}={env[name]}".encode())
    return h.hexdigest()[:16]


def environment(args, src_digest: str) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "COMIC_THREADS": os.environ.get("COMIC_THREADS"),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(),
        "commit": commit(), "source_sha256": src_digest,
    }


def dir_digest(dirname: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(dirname)):
        h.update(name.encode())
        h.update(Path(dirname, name).read_bytes())
    return h.hexdigest()


def timed_setup(workload: str, dirname: str, seed: int) -> dict:
    """Wall and CPU seconds a fresh interpreter takes to import copcd.cli and
    write the workload's inputs into `dirname`, and the input files."""
    script = SETUP_SCRIPT.format(src=str(SRC), here=str(HERE), name=workload,
                                 dirname=dirname, seed=seed)
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def run_commands(cli, commands) -> list:
    codes = []
    for argv in commands:
        codes.append(cli.main(argv))
        if codes[-1] != 0:
            break
    return codes


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced op from its spans."""
    self_s = benchstats.self_times([(s.sid, s.parent, s.start, s.end) for s in spans])
    by_id = {s.sid: s for s in spans}
    root = next(s for s in spans if s.name == "op")
    op_s = root.end - root.start
    agg = {}
    for s in spans:
        a = agg.setdefault(s.name, {"calls": 0, "self_s": 0.0, "wall_s": 0.0})
        a["calls"] += 1
        a["self_s"] += self_s[s.sid]
        a["wall_s"] += s.end - s.start
        for key, val in s.counts.items():
            a[key] = a.get(key, 0) + val

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    out = {"trace.op_s": op_s}
    modules = {}
    for name, a in agg.items():
        out[f"{name}.self_s"] = a["self_s"]
        out[f"{name}.calls"] = a["calls"]
        module = name.split(".")[0]
        modules[module] = modules.get(module, 0.0) + a["self_s"]
    for module, secs in modules.items():
        out[f"{module}.self_share"] = secs / op_s

    tau_s = get("dependence.kendall_tau", "self_s")
    pool_busy = sum(s.end - s.start for s in spans if s.name == "pipeline.fit_channel_pair"
                    and s.parent in by_id and by_id[s.parent].name == "pipeline.fit_model_set")
    fit_set_wall = get("pipeline.fit_model_set", "wall_s")
    em_calls = get("emfit.fit", "calls")
    out.update({
        "segmentation.slic.regions": get("segmentation.slic", "regions"),
        "segmentation.cosegment.regions": get("segmentation.cosegment", "regions"),
        "raster.load_raster.mb": get("raster.load_raster", "bytes") / 2**20,
        "dependence.kendall_tau.n": get("dependence.kendall_tau", "n"),
        "dependence.kendall_tau.pairs_per_s":
            get("dependence.kendall_tau", "pairs") / tau_s if tau_s > 0 else 0.0,
        "emfit.fit.iters": get("emfit.fit", "iters"),
        "emfit.fit.converged_frac":
            get("emfit.fit", "converged") / em_calls if em_calls else 0.0,
        "pipeline.fit_model_set.parallelism":
            pool_busy / fit_set_wall if fit_set_wall > 0 else 0.0,
    })
    return out


def is_count(name: str) -> bool:
    return name.rsplit(".", 1)[-1] in COUNT_STATS


def check_state(key: str, digest: str, counts: dict) -> list:
    """Compare this run's output digest and work counts with earlier runs of
    the same workload, seed and source; remember them for later runs."""
    path = OUT / "state" / f"{key}.json"
    errors = []
    state = {}
    if path.exists():
        state = json.loads(path.read_text())
        if digest is not None and state.get("digest") not in (None, digest):
            errors.append("outputs differ from an earlier run of the same seed")
        for name, val in (state.get("counts") or {}).items():
            if counts and name in counts and counts[name] != val:
                errors.append(f"count {name} was {val} in an earlier run, now {counts[name]}")
    if digest is not None:
        state.setdefault("digest", digest)
    if counts:
        state.setdefault("counts", counts)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(state, sort_keys=True))
    os.replace(tmp, path)
    return errors


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2
    if not (SRC / "copcd" / "cli.py").is_file():
        print(f"error: no copcd sources under {SRC}", file=sys.stderr)
        return 2
    declared = declared_metrics(args.trace)
    wl = workloads.WORKLOADS[args.workload]

    sys.path.insert(0, str(SRC))
    from copcd import cli

    src_digest = source_digest()
    env = environment(args, src_digest)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return measure(args, wl, cli, env, work, declared)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".bench_work").rmdir()


def measure(args, wl, cli, env, work, declared) -> int:
    # Set-up, repeated in fresh interpreters; the ops use the first copy.
    errors = []
    setups, input_digests = [], set()
    for i in range(SETUP_REPEATS):
        d = work / f"input{i}"
        d.mkdir(parents=True)
        setups.append(timed_setup(args.workload, str(d), args.seed))
        input_digests.add(dir_digest(str(d)))
    if len(input_digests) != 1:
        errors.append("input generation is not deterministic for this seed")
    files = setups[0]["files"]
    for setup in setups:
        del setup["files"]
    setup_s = statistics.median(s["cpu_s"] for s in setups)
    ref = wl.reference(files)

    op_rows, traced_layers, all_spans, digest = [], [], [], None
    failed = 0
    deadline = time.perf_counter() + args.seconds
    i = 0
    while True:
        traced = bool(args.trace) and i % 2 == 1
        out = work / f"op{i}"
        out.mkdir()
        commands = wl.commands(files, str(out))
        tracer = spantrace.Tracer()
        captured = io.StringIO()
        gc.collect()
        row = {"op": i, "traced": traced, "ok": False}
        start = time.perf_counter()
        cpu_start = time.process_time()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                if traced:
                    with tracer.installed():
                        codes = tracer.call("op", run_commands, (cli, commands))
                else:
                    codes = run_commands(cli, commands)
            row["seconds"] = time.perf_counter() - start
            row["cpu_s"] = time.process_time() - cpu_start
            row["exit_codes"] = codes
            if codes != [0] * len(commands):
                raise RuntimeError(f"exit codes {codes}")
            res = wl.check(str(out), files, ref)
            if digest is None:
                digest = res.digest
            elif res.digest != digest:
                res.errors.append("outputs differ from the first op of this run")
            row.update(quality=res.quality, fit_loglik=res.fit_loglik, **res.extra)
            if res.errors:
                raise RuntimeError("; ".join(res.errors))
            row["ok"] = True
        except Exception as exc:  # any failure of an op is counted, not fatal
            row.setdefault("seconds", time.perf_counter() - start)
            row["error"] = f"{type(exc).__name__}: {exc}"
            failed += 1
            print(f"op {i} failed: {row['error']}\n{captured.getvalue()}"
                  f"{traceback.format_exc()}", file=sys.stderr)
        if traced and row["ok"]:
            traced_layers.append(layer_metrics(tracer.spans))
            all_spans.append([s.as_dict() for s in tracer.spans])
        op_rows.append(row)
        shutil.rmtree(out, ignore_errors=True)
        i += 1
        if time.perf_counter() >= deadline and (not args.trace or i >= 2):
            break

    ok_rows = [r for r in op_rows if r["ok"]]
    plain_s = [r["seconds"] for r in ok_rows if not r["traced"]]
    metrics = {}
    counts = {}
    if args.trace:
        names = sorted({k for lm in traced_layers for k in lm})
        for name in names:
            vals = [lm.get(name, 0) for lm in traced_layers]
            if is_count(name):
                if len(set(vals)) > 1:
                    errors.append(f"count {name} differs between ops: {vals}")
                counts[name] = vals[0]
            metrics[name] = statistics.median(vals) if vals else 0.0
        if traced_layers and plain_s:
            metrics["trace.overhead_s"] = metrics["trace.op_s"] - statistics.median(plain_s)
    else:
        metrics["ok_frac"] = (len(op_rows) - failed) / len(op_rows)
        if ok_rows:
            op_s = statistics.median(plain_s)
            metrics.update({
                "op_s": op_s,
                "items_per_s": wl.items / op_s,
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "quality": statistics.median([r["quality"] for r in ok_rows]),
                "fit_loglik": statistics.median([r["fit_loglik"] for r in ok_rows]),
            })

    key = f"{args.workload}-seed{args.seed}-{state_key(env)}"
    if digest is not None:
        errors += check_state(key, digest, counts)

    # A layer the workload never enters reports 0; an end-to-end metric must
    # always be measured.
    missing = [name for name in declared if name not in metrics]
    if missing and ok_rows and not args.trace:
        errors.append(f"metrics not measured: {missing}")
    result = {
        "correct": failed == 0 and not errors,
        "attempted": len(op_rows),
        "failed": failed,
        "metrics": {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
                    for name, unit in declared.items()},
    }
    record = {"env": env, "workload": wl.describe(), "setup": setups, "ops": op_rows,
        "errors": errors, "all_metrics": metrics, "result": result}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if all_spans:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(all_spans))

    for err in errors:
        print(f"check failed: {err}", file=sys.stderr)
    print("# env " + json.dumps(env, sort_keys=True))
    print("# workload " + json.dumps(wl.describe(), sort_keys=True))
    for r in op_rows:
        print("# op " + json.dumps({k: v for k, v in r.items() if k != "exit_codes"},
                                   default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
