"""The idealhash benchmark: timed CLI workloads with output checks, plus a traced run.

    python3 perfbench/run.py --workload families --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; nothing needs installing.  A workload is a
fixed list of `idealhash` CLI calls (see workloads.py) run as a closed loop:
one client, one call at a time, each call a fresh process.

--trace 0  times whole passes over the call list until --seconds have
           passed and prints the end-to-end metrics.
--trace 1  runs the list once as processes, once in-process untraced and
           once in-process under the timing shims of spans.py, and prints
           the per-layer metrics of layers.py.

Every call's output is checked (outputs.py).  The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  `failed` counts
calls that fail unexpectedly; calls listed as known defects in
workloads.py still run and lower `ok_frac` (and raise `fail_frac`) when
they fail.  Exit code 2, with no result line, when the checkout has no
`src/idealhash`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import outputs  # noqa: E402
import workloads  # noqa: E402
from launch import IMPORT_ONLY, launch_argv, launch_env, run_process  # noqa: E402

CALIBRATION_LOOPS = 300_000
CALIBRATION_REF_S = 0.020  # the calibration loop on a quiet 2-core Xeon host, Python 3.11.7

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


@dataclass(frozen=True)
class CallResult:
    call: workloads.Call
    wall_s: float  # raw, spawn to reap
    scale: float  # host-speed scale around this call (see timed_run)
    maxrss_kb: int
    failure: str | None


def calibrate() -> float:
    """Seconds this host takes for a fixed pure-Python loop, right now."""
    t0 = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_LOOPS):
        x += i * i % 7
    return time.perf_counter() - t0


def run_calibrated(argv, env, work: Path):
    """One process between two calibration loops: its outcome and time scale."""
    before = calibrate()
    o = run_process(argv, env, ROOT, work)
    return o, 2 * CALIBRATION_REF_S / (before + calibrate())


def run_pass(calls, env, work: Path, ref: dict, small: bool, setup: list | None = None) -> list[CallResult]:
    """One pass over the call list, each call a fresh process, checked after it ends.

    With `setup`, a fresh `import idealhash.cli` process runs before each call
    and its scaled time is appended there.
    """
    results = []
    for call in calls:
        if setup is not None:
            o, scale = run_calibrated(launch_argv((), IMPORT_ONLY), env, work)
            if o.returncode != 0:
                raise RuntimeError(f"import idealhash.cli failed: {o.stderr.decode('utf-8', 'replace')}")
            setup.append(o.wall_s * scale)
        o, scale = run_calibrated(launch_argv(call.argv), env, work)
        reason = outputs.failure_reason(call, o.returncode, o.stdout, o.stderr, ref, small)
        results.append(CallResult(call, o.wall_s, scale, o.maxrss_kb, reason))
    return results


def run_in_process(call) -> tuple[float, int, bytes, bytes]:
    """`idealhash.cli.run(argv)` in this process: (seconds, exit code, stdout, stderr)."""
    from idealhash import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.run(list(call.argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the CLI let an exception escape: record it as a traceback, like a process would
            rc = 1
            err.write(traceback.format_exc())
        dt = time.perf_counter() - t0
    return dt, rc, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")


def _tally(failures: list[tuple[workloads.Call, str | None]]) -> tuple[int, int, int]:
    """(attempted, failed in any way, failed unexpectedly)."""
    bad = [(c, r) for c, r in failures if r is not None]
    return len(failures), len(bad), sum(1 for c, _ in bad if c.known_defect is None)


def _report_failures(failures) -> None:
    seen = set()
    for call, reason in failures:
        if reason is None or (call.name, reason) in seen:
            continue
        seen.add((call.name, reason))
        tag = f"known defect ({call.known_defect})" if call.known_defect else "FAILED"
        print(f"  {tag}: {call.name}: {reason}")


def timed_run(calls, env, work: Path, ref: dict, seconds: float, small: bool) -> dict:
    """Passes over the call list until `seconds` have passed.

    The host's speed drifts by tens of percent within minutes, so every
    process time is scaled to a reference host speed: multiplied by
    CALIBRATION_REF_S over the mean time of a fixed loop run just before and
    just after it.  wall_s sums each call's median scaled time over the
    passes.  setup_s is the median scaled time of a fresh
    `import idealhash.cli` process, one before each call.
    """
    run_process(launch_argv((), IMPORT_ONLY), env, ROOT, work)  # warm-up: byte-compile, fill the file cache
    setup: list[float] = []
    passes: list[list[CallResult]] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(calls, env, work, ref, small, setup))

    results = [r for p in passes for r in p]
    per_call = {call.name: statistics.median(r.wall_s * r.scale for r in results if r.call is call) for call in calls}
    attempted, bad, unexpected = _tally([(r.call, r.failure) for r in results])
    print(f"{len(passes)} passes of {len(calls)} calls; raw pass wall s: "
          + " ".join(f"{sum(r.wall_s for r in p):.3f}" for p in passes))
    print(f"host-speed scale: median {statistics.median(r.scale for r in results):.3f}, "
          f"range {min(r.scale for r in results):.3f}-{max(r.scale for r in results):.3f}")
    for call in calls:
        raw = statistics.median(r.wall_s for r in results if r.call is call)
        print(f"  {call.name:28s} {per_call[call.name]:8.3f} s  (raw {raw:.3f} s, median of {len(passes)})")
    print(f"raw wall {sum(r.wall_s for r in passes[0]):.4f} s in the first pass; {len(setup)} setup probes")
    _report_failures([(r.call, r.failure) for r in results])
    metrics = {
        "wall_s": sum(per_call.values()),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(r.maxrss_kb for r in results) / 1024.0,
        "ok_frac": (attempted - bad) / attempted,
    }
    return _result(attempted, unexpected, metrics, END_TO_END)


def traced_run(calls, env, work: Path, ref: dict, small: bool) -> dict:
    """One pass as processes, then each call in-process untraced and traced."""
    sys.path.insert(0, str(ROOT / "src"))
    for key in [k for k in os.environ if k.startswith("IDEALHASH_")]:
        del os.environ[key]

    import idealhash.cli  # noqa: F401  (import cost belongs to neither in-process pass)

    sub = run_pass(calls, env, work, ref, small)
    checked = [(r.call, r.failure) for r in sub]
    tracer = layers.make_tracer()
    elapsed = {False: 0.0, True: 0.0}
    for i, call in enumerate(calls):
        # alternate which side goes first so warm-up effects cancel in trace.overhead_frac
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            with tracer if traced else contextlib.nullcontext():
                dt, rc, out, err = run_in_process(call)
            elapsed[traced] += dt
            checked.append((call, outputs.failure_reason(call, rc, out, err, ref, small)))
    plain_s, traced_s = elapsed[False], elapsed[True]

    attempted, bad, unexpected = _tally(checked)
    metrics = layers.per_layer_metrics(tracer)
    metrics["cli.process_overhead_s"] = sum(r.wall_s for r in sub) - plain_s
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    metrics["fail_frac"] = bad / attempted
    for group in workloads.GROUPS:  # scaled like wall_s, which they split by subcommand
        metrics[f"{group}_s"] = sum(r.wall_s * r.scale for r in sub if r.call.group == group)

    root_s = tracer.root_s
    print(f"traced pass {root_s:.3f} s in cli.run, untraced in-process {plain_s:.3f} s, "
          f"processes {sum(r.wall_s for r in sub):.3f} s; trace.overhead_frac {metrics['trace.overhead_frac']:+.3f}")
    print("layer          self_s   share")
    for layer in sorted(layers.LAYERS, key=lambda l: -metrics[f"layer.{l}.self_s"]):
        print(f"  {layer:13s} {metrics[f'layer.{layer}.self_s']:8.3f}  {metrics[f'layer.{layer}.self_frac']:6.1%}")
    print(f"coverage functions (cover_mask, _exceed_mask, verify_family): {layers.coverage_share(tracer):.1%} of traced time")
    print("top spans by self time:")
    top = sorted((kv for kv in tracer.stats.items() if kv[1].calls), key=lambda kv: -kv[1].self_s)[:8]
    for name, st in top:
        print(f"  {name:45s} {st.self_s:8.3f} s  {st.self_s / root_s:6.1%}  calls {st.calls}")
    _report_failures(checked)
    return _result(attempted, unexpected, metrics, layers.PER_LAYER)


def _result(attempted: int, failed: int, metrics: dict, units: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def machine_facts() -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="reduced-size calls, for the self-tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "idealhash" / "cli.py").is_file():
        print(f"no idealhash sources under {ROOT / 'src'}: run from a full checkout", file=sys.stderr)
        return 2
    ref = outputs.load_reference()
    env = launch_env(ROOT)
    work = ROOT / ".perfbench_work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        calls = workloads.build(args.workload, args.seed, work, args.small)
        print("machine: " + json.dumps(machine_facts(), sort_keys=True))
        print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, {len(calls)} calls")
        if args.trace:
            result = traced_run(calls, env, work, ref, args.small)
        else:
            result = timed_run(calls, env, work, ref, args.seconds, args.small)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
