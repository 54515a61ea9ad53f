"""Benchmark entropykf.run_pipeline on seeded workloads.

    python3 perfbench/run.py                  # every workload, seed 1
    python3 perfbench/run.py --workload paper-pgm --seed 7 --seconds 30 --trace 0

With ``--trace 0`` it prints the end-to-end metrics (frames_per_s and setup_s,
both scaled to a reference host speed by calibrate.py, and peak_rss_mb) and
failed_ratio; with ``--trace 1`` it prints the per-layer metrics of a traced
run.  BENCHMARK.json at the repository root lists the workloads and metrics.
Inputs are generated from the seed under ``.perfbench/`` before any timing
and removed at the end; results, and the spans of the latest traced run of
each workload, stay in ``.perfbench/results/``.  The last line on stdout for
each workload is one JSON object with the keys correct, attempted, failed and
metrics.  The exit code is 0 only when every call matched its workload's
oracle and, when tracing, the traced calls reproduced the same counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calibrate import REFERENCE_RATE, host_rate, scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 5  # fresh interpreters per run; setup_s is their median
SETUP_CODE = ("import entropykf\n"
              "from entropykf.pipeline import load_report_schema\n"
              "load_report_schema()\n")
DEADLINE_S = 170  # the whole run, generation included, ends within this


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="a workload of BENCHMARK.json (default: each in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup() -> dict:
    """Wall time of a fresh interpreter importing entropykf and loading the
    report schema, which every CLI invocation pays.  One unrecorded start
    first, so byte-compiling a fresh checkout is not counted.  The median
    start is scaled by the median host speed measured around the starts; a
    start is too short to scale one by one."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True, timeout=60)
    rates = [host_rate()]
    raw = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True, timeout=60)
        raw.append(perf_counter() - start)
        rates.append(host_rate())
    return {"setup_s": statistics.median(raw) * scale([statistics.median(rates)]),
            "raw_setup_s": raw, "host_rates": rates}


def machine_facts() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        l2 = Path("/sys/devices/system/cpu/cpu0/cache/index2/size").read_text().strip()
    except OSError:
        l2 = "unknown"
    return {
        "cores": os.cpu_count(),
        "cpu": cpu,
        "l2": l2,
        "python": platform.python_version(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


def run_worker(spec_path: Path, timeout: float) -> dict:
    # its own process group, so a timeout also ends the worker's stdin feeder
    with subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                          stdout=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "entropykf" / "__init__.py").is_file():
        print(f"perfbench: no entropykf sources under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workload is not None and args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    sys.path.insert(0, str(SRC))
    return max(run_one(bench, name, args.seed, seconds, args.trace)
               for name in ([args.workload] if args.workload else names))


def run_one(bench: dict, workload: str, seed: int, seconds: float, trace: int) -> int:
    import workloads

    started = perf_counter()
    base = ROOT / ".perfbench"
    work = base / f"{workload}-{os.getpid()}"
    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    try:
        spec = workloads.build(workload, seed, work / "input")
        for sub in ("out", "tmp"):
            (work / sub).mkdir()
        spec.update(out=str(work / "out"), tmp=str(work / "tmp"), seconds=seconds,
                    trace=trace, spans=str(results / f"{workload}-spans.csv"))
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(spec))
        setup = None if trace else measure_setup()
        worker = run_worker(spec_path, DEADLINE_S - (perf_counter() - started))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    facts = machine_facts()
    facts.update(seed=seed, numpy=worker["numpy"],
                 kernels="numba" if worker["numba_kernels"] else "numba absent, numpy path")
    if trace:
        metrics = {m["name"]: {"value": worker["layers"].get(m["name"]), "unit": m["unit"]}
                   for m in bench["per_layer"]}
    else:
        metrics = {
            "frames_per_s": {"value": median_or_none(worker["frames_per_s"]), "unit": "frames/s"},
            "setup_s": {"value": setup["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MB"},
        }
    problems = worker["problems"] + [f"count mismatch between traced calls: {m}"
                                     for m in worker.get("mismatches", [])]
    problems += [f"metric {name} was not measured"
                 for name, m in metrics.items() if m["value"] is None]
    correct = not problems

    print_human(workload, seed, seconds, trace, worker, metrics, setup, facts, problems)
    record = {"workload": workload, "trace": trace, "facts": facts, "worker": worker,
              "setup": setup, "metrics": metrics, "problems": problems}
    (results / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": worker["attempted"],
                      "failed": worker["failed"], "metrics": metrics}))
    return 0 if correct else 1


def host_speed(rates: list[float]) -> str:
    return f"{min(rates) / REFERENCE_RATE:.2f}..{max(rates) / REFERENCE_RATE:.2f}x reference"


def median_or_none(samples: list[float]) -> float | None:
    return statistics.median(samples) if samples else None


def print_human(workload, seed, seconds, trace, worker, metrics, setup, facts,
                problems) -> None:
    attempted, failed = worker["attempted"], worker["failed"]
    if trace:
        print(f"{workload} seed={seed} traced: {worker['traced_calls']} traced and "
              f"{worker['untraced_calls']} untraced calls, alternating, after 1 untimed warm-up")
    else:
        fps = worker["raw_frames_per_s"]
        print(f"{workload} seed={seed}: closed loop, 1 caller, {len(fps)} timed calls "
              f"after 1 untimed warm-up, {seconds:g} s")
    for name, m in metrics.items():
        note = ""
        if name == "frames_per_s":
            note = (f"median of {len(fps)} calls at reference host speed; raw median "
                    f"{median_or_none(fps) or 0:.1f}, range {min(fps, default=0):.1f}.."
                    f"{max(fps, default=0):.1f}; host at {host_speed(worker['host_rates'])}")
        elif name == "setup_s":
            note = (f"median of {len(setup['raw_setup_s'])} fresh interpreters at reference host "
                    f"speed; raw median {statistics.median(setup['raw_setup_s']):.4f}; "
                    f"host at {host_speed(setup['host_rates'])}")
        elif name == "peak_rss_mb":
            note = "worker process"
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:40s} {value:>14s} {m['unit']:9s} {note}")
    print(f"  {'failed_ratio':40s} {failed / attempted:>14.6g} {'ratio':9s} "
          f"{failed} of {attempted} calls")
    if trace:
        layers = worker["layers"]
        print(f"  share of the run_pipeline span: pearson_sums + histogram256 "
              f"{layers.get('kernels.pearson_histogram_share', 0):.1%}; segmented_entropies + "
              f"dedup + schema validate {layers.get('pipeline.segment_dedup_schema_share', 0):.1%}")
        if worker["missing_bindings"]:
            print(f"  not traced, binding missing: {', '.join(worker['missing_bindings'])}")
    print("  facts: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    for problem in problems:
        print(f"  FAILED {problem}")


if __name__ == "__main__":
    sys.exit(main())
