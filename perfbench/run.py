"""odd-assure benchmark: one workload, one seed, one closed-loop run.

Usage (from the root of an odd-assure checkout):

    python3 perfbench/run.py --workload monitor_avp --seed 1 --seconds 35 --trace 0

Generates the workload's inputs from the seed, then runs passes until
``--seconds`` have been measured. Each pass is a fresh single-threaded
process (perfbench/worker.py) that imports the program, does the work once
and exits; its outputs are checked against the plants and the oracles.
Work times are scaled to the speed of a reference loop sampled during the
work (see worker.HostSpeed), so that a period in which the shared host runs
everything slower does not read as a slower program. Metrics are medians
over the passes. The last line of stdout is the result
JSON; the lines before it print every metric by name and unit plus the
environment stamp.

With ``--trace 1`` every other pass runs with timing wrappers installed. The
result then carries the per-layer numbers of the traced passes, and the
untraced passes in between give the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("monitor_avp", "monitor_wide", "assurance_build")
MIN_PASSES = 4  # per run; a traced run needs two of each kind
RUN_LIMIT_S = 170.0  # a run must end within 180 s

clock = time.monotonic_ns


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _env_stamp(args) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "platform": platform.platform(),
    }


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(BENCH))),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        ODD_ASSURE_LOG="error",
    )
    return env


def _run_pass(workload: str, workdir: Path, traced: bool, env: dict, deadline: float) -> dict:
    spawn = clock()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), workload, str(workdir), str(int(traced))],
            env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: a {workload} pass did not finish before the run's time limit")
    exited = clock()
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        sys.exit(f"perfbench: {workload} pass exited with code {proc.returncode}")
    result = json.loads(proc.stdout)
    result["pre_s"] = (result["start_ns"] - spawn) / 1e9  # until worker.py runs
    result["work_s"] = (result["end_ns"] - result["first_ns"]) / 1e9
    result["wall_s"] = (exited - spawn) / 1e9
    result["traced"] = traced
    return result


def _outputs(workload: str, workdir: Path):
    if workload.startswith("monitor_"):
        return (workdir / "reports.jsonl").read_text(encoding="utf-8").splitlines()
    return json.loads((workdir / "outputs.json").read_text(encoding="utf-8"))


def _unit_of(name: str) -> str:
    """Unit of a printed number that BENCHMARK.json does not list, from the
    last part of its name."""
    stat = name.rsplit(".", 1)[-1]
    for suffix, unit in (("_per_s", "1/s"), ("us", "us"), ("ms", "ms"), ("_s", "s"),
                         ("_pct", "%"), ("share", "ratio"), ("frac", "ratio"),
                         ("slowdown", "ratio")):
        if stat.endswith(suffix):
            return unit
    return "count"


def _median(passes: list[dict], key) -> float:
    return statistics.median(key(p) for p in passes)


def _setup_s(p: dict) -> float:
    """Process start to first tick or job at the reference speed. Before
    worker.py runs nothing samples the host, so the interpreter's start-up
    is scaled by the slowdown measured over the rest of the set-up."""
    measured = (p["first_ns"] - p["start_ns"]) / 1e9
    scale = p["setup_ref_ns"] / 1e9 / measured
    return (p["pre_s"] + measured) * scale


def _wall_s(p: dict) -> float:
    """Set-up and work at the reference speed plus the exit as measured."""
    exit_s = (p["wall_s"] - p["pre_s"] - (p["end_ns"] - p["start_ns"]) / 1e9
              - p["paused_ns"] / 1e9)
    return _setup_s(p) + p["work_ref_ns"] / 1e9 + exit_s


def end_to_end(passes: list[dict]) -> dict:
    """Every metric of the untraced passes, by name, as the median over the
    passes: the gated end-to-end metrics plus the per-workload numbers
    printed beside them.

    Times are at the reference speed (see worker.HostSpeed), except the
    ``_raw`` ones, which are as measured."""
    out = {
        "setup_s": _median(passes, _setup_s),
        "wall_s": _median(passes, _wall_s),
        "work_s": _median(passes, lambda p: p["work_ref_ns"] / 1e9),
        "peak_rss_mb": _median(passes, lambda p: p["peak_rss_kib"] / 1024),
        "wall_raw_s": _median(passes, lambda p: p["wall_s"]),
        "work_raw_s": _median(passes, lambda p: p["work_s"]),
        "host_slowdown": _median(passes, lambda p: p["host_slowdown"]),
    }
    if "tick_p50_ns" in passes[0]:
        out["ticks_per_s"] = _median(passes, lambda p: p["items"] / p["work_ref_ns"] * 1e9)
        out["tick_p50_us"] = _median(passes, lambda p: p["tick_p50_ns"] / 1e3)
        out["tick_p99_us"] = _median(passes, lambda p: p["tick_p99_ns"] / 1e3)
    else:
        for job in passes[0]["job_ns"]:
            out[f"{job}_s"] = _median(passes, lambda p: p["job_ref_ns"][job] / 1e9)
    return out


def per_layer(traced: list[dict], plain: list[dict]) -> dict:
    """Per-layer numbers of the median traced pass (by work_s), so that they
    come from one consistent pass, plus the tracing overhead."""
    middle = sorted(traced, key=lambda p: p["work_s"])[(len(traced) - 1) // 2]
    out = dict(middle["layers"])
    out.update(middle["counts"])
    out["cli.import.ms"] = middle["import_ns"] / 1e6
    if "tick_p50_ns" in middle:
        out["cli.tick.p50_us"] = middle["tick_p50_ns"] / 1e3
        out["cli.tick.p99_us"] = middle["tick_p99_ns"] / 1e3
    out["trace.overhead.work_pct"] = 100.0 * (
        _median(traced, lambda p: p["work_s"]) / _median(plain, lambda p: p["work_s"]) - 1.0
    )
    return out


def main(argv=None) -> None:
    args = _parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "odd_assure").is_dir() or not (ROOT / "tests" / "oracles.py").is_file():
        sys.exit("perfbench: src/odd_assure or tests/oracles.py is missing; "
                 "run from the root of an odd-assure checkout")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]
    import checks
    import gen

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    stamp = _env_stamp(args)
    workdir = WORK / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    gen.GENERATORS[args.workload](args.seed, workdir)
    checker = checks.make_checker(args.workload, workdir, args.seed)
    env = _worker_env()
    # compile the program's bytecode once so that no pass pays for it
    subprocess.run([sys.executable, "-c", "import odd_assure.cli"], env=env, check=True,
                   timeout=60)

    passes: list[dict] = []
    attempted = failed = 0
    measure_start = time.monotonic()
    while len(passes) < MIN_PASSES or time.monotonic() - measure_start < args.seconds:
        traced = bool(args.trace) and len(passes) % 2 == 0
        result = _run_pass(args.workload, workdir, traced, env, deadline)
        bad, result["counts"] = checker.check(_outputs(args.workload, workdir))
        attempted += result["items"]
        failed += bad
        passes.append(result)

    plain = [p for p in passes if not p["traced"]]
    measured = end_to_end(plain)
    measured["failed_frac"] = failed / attempted
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} ({len(plain)} untraced)")
    for name, value in measured.items():
        print(f"  {name:<40} {value:>14.6g} {units.get(name, _unit_of(name))}")
    wanted = spec["end_to_end"]
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        layers = per_layer(traced, plain)
        for name, value in sorted(layers.items()):
            print(f"  {name:<48} {value:>14.6g} {units.get(name, _unit_of(name))}")
        if "job_ns" in plain[0]:
            for job in plain[0]["job_ns"]:
                slow = (_median(traced, lambda p: p["job_ns"][job])
                        / _median(plain, lambda p: p["job_ns"][job]))
                print(f"  trace overhead {job:<25} {100 * (slow - 1):>14.3g} %")
        measured = layers
        wanted = spec["per_layer"]
    print("env " + json.dumps(stamp))

    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    record = {"env": stamp, "correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics, "passes": passes}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))



if __name__ == "__main__":
    main()
