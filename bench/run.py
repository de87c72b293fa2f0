#!/usr/bin/env python3
"""Closed-loop CLI benchmark for otk.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Paths resolve from this file, so it runs from any directory.  One client
runs one ``python -m otk.cli`` invocation at a time, with ``src`` on
PYTHONPATH.  Inputs come from ``workloads.py`` and the seed.  Every output is
checked.  The last stdout line is the result JSON; the lines before it give
each metric with its unit and sample count, the checks run, and the
environment.  ``--trace 0`` times set-up and whole cycles and reports the
end-to-end metrics; ``--trace 1`` replays one cycle, each command untraced
and then twice through ``tracer.py``, and reports the per-layer metrics.
See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Wall time of one cycle on the reference machine (2 cores, see README.md).
# A run replays round(seconds / nominal) cycles, at least two so that every
# command is timed on two inputs.  A run then lasts about --seconds there,
# and every commit measured does the same work.
NOMINAL_CYCLE_S = {
    "verdict-cli": 6.8,
    "verdict-heavy": 7.0,
    "dilate-windows": 7.5,
    "battery": 3.2,
}
SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
TRACED_PASSES = 2
# A run starts no invocation after RUN_BUDGET_S, and one invocation may take
# INVOCATION_TIMEOUT_S, so even a hanging otk lets the run end within 180 s.
RUN_BUDGET_S = 120.0
INVOCATION_TIMEOUT_S = 45.0
TAIL_BEYOND = 10
EXIT_ERROR = 1

END_TO_END = {
    "setup_s": "s",
    "cmd_p50_ms": "ms",
    "cmd_tail_ms": "ms",
    "cmds_per_s": "1/s",
    "trials_per_s": "1/s",
    "report_mb": "MB",
    "peak_rss_mb": "MB",
}
TRACE_CALLS = ("numrange.ray_probe",)
TRACE_SUITES = ("bj", "schaffer", "rho", "ando")
ELAPSED_RE = re.compile(rb"^elapsed_ms (\d+)\s*$", re.M)
# The two known defects that make `property-run` exit 1 (see README.md).  Any
# other crash or time-out, of any command, counts as a wrong answer.
KNOWN_DEFECT_RE = re.compile(rb"^otk: error: (maximum recursion depth exceeded|witness construction failed)", re.M)


@dataclass
class Invocation:
    wall_s: float
    code: int | None  # None: timed out
    stdout: bytes
    stderr: bytes

    @property
    def elapsed_ms(self) -> float | None:
        found = ELAPSED_RE.findall(self.stderr)
        return float(found[-1]) if found else None


class Runner:
    """Runs invocations one at a time and checks each output."""

    def __init__(self, workdir: Path):
        self.env = {k: v for k, v in os.environ.items() if k != "OTK_SEED"}
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0  # crashed, timed out, or answered wrongly
        self.wrong = 0  # answered wrongly, or crashed other than by a known defect
        self.checks = 0
        self.errors: list[str] = []
        self.digests: dict[str, str] = {}
        self.deadline = time.perf_counter() + RUN_BUDGET_S

    def out_of_time(self) -> bool:
        return time.perf_counter() > self.deadline

    def spawn(self, argv: list[str]) -> Invocation:
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(argv, capture_output=True, env=self.env, cwd=ROOT,
                                  timeout=INVOCATION_TIMEOUT_S)
            code, out, err = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired as exc:
            code, out, err = None, exc.stdout or b"", exc.stderr or b""
        return Invocation(time.perf_counter() - t0, code, out, err)

    def run(self, cmd, tracer_out: Path | None = None) -> Invocation:
        """One invocation, not yet judged: the timed loop judges after it ends."""
        if tracer_out is None:
            argv = [sys.executable, "-m", "otk.cli", *cmd.argv]
        else:
            argv = [sys.executable, str(BENCH / "tracer.py"), str(tracer_out), *cmd.argv]
        return self.spawn(argv)

    def judge(self, cmd, inv: Invocation) -> bool:
        """Count and check one invocation; False if it crashed or timed out."""
        self.attempted += 1
        if inv.code is None or (inv.code == EXIT_ERROR and cmd.expect != EXIT_ERROR):
            # A crash or time-out leaves no answer to check.  Only a known
            # property-run defect leaves the run correct.
            self.failed += 1
            known = cmd.argv[0] == "property-run" and inv.code is not None and KNOWN_DEFECT_RE.search(inv.stderr)
            self.checks += 1
            if not known:
                self.wrong += 1
            why = "timed out" if inv.code is None else inv.stderr[-300:].decode(errors="replace")
            why = " | ".join(line for line in why.splitlines() if line.strip())
            self.errors.append(f"{cmd.key}: crashed{' (known defect)' if known else ''}: {why}")
            return False
        errors = self.check(cmd, inv)
        if errors:
            self.failed += 1
            self.wrong += 1
            self.errors.extend(f"{cmd.key}: {e}" for e in errors)
        return True

    def otk(self, cmd, tracer_out: Path | None = None) -> Invocation:
        inv = self.run(cmd, tracer_out)
        self.judge(cmd, inv)
        return inv

    def _expect(self, errors: list[str], ok: bool, message: str) -> None:
        self.checks += 1
        if not ok:
            errors.append(message)

    def check(self, cmd, inv: Invocation) -> list[str]:
        errors: list[str] = []
        out = inv.stdout
        self._expect(errors, inv.code == cmd.expect, f"exit {inv.code}, expected {cmd.expect}")
        self._expect(errors, out.startswith(b"{") and out.endswith(b"}\n"), "stdout is not one JSON report")
        self._expect(errors, b'"passed": false' not in out and b'"all_passed": false' not in out,
                     "a passed / all_passed flag is false")
        if cmd.argv[0] != "check" and cmd.argv[0] != "numrange":
            self._expect(errors, b'"passed": true' in out or b'"all_passed": true' in out,
                         "no passed flag in the report")
        self._expect(errors, inv.elapsed_ms is not None, "no elapsed_ms line on stderr")
        digest = hashlib.sha256(out).hexdigest()
        self._expect(errors, self.digests.setdefault(cmd.key, digest) == digest,
                     "stdout differs from an earlier run of the same command")
        if cmd.out is not None:
            try:
                out_digest = _file_digest(cmd.out)
            except OSError:
                out_digest = "missing"
            self._expect(errors, self.digests.setdefault(cmd.key + " --out", out_digest) == out_digest,
                         "--out file differs from an earlier run of the same command")
        return errors

    def check_reload(self, cmd, report: bytes) -> None:
        """An exported DilationWindow reloads and re-verifies byte-for-byte."""
        from otk.matcore import load_matrix
        from otk.schaffer import DilationWindow, verify_power_dilation

        errors: list[str] = []
        try:
            rep = json.loads(report)
            with open(cmd.out, encoding="utf-8") as fh:
                exported = json.load(fh)
            if cmd.out_kind == "window":
                pairs = [(exported, rep["verify"], cmd.out_bases[0])]
            else:
                pairs = [(exported[f"window_{s}"], rep[f"window_{s}"]["verify"], base)
                         for s, base in zip("TA", cmd.out_bases)]
            for window_json, verify, base in pairs:
                w = DilationWindow.from_json_dict(window_json)
                again = verify_power_dilation(w, load_matrix(base), tol=verify["tol"])
                self._expect(errors, json.dumps(list(again.residuals)) == json.dumps(verify["residuals"]),
                             "reloaded window does not reproduce the residuals")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self._expect(errors, False, f"export does not reload: {exc!r}")
        if errors:
            self.failed += 1
            self.wrong += 1
            self.errors.extend(f"{cmd.key} reload: {e}" for e in errors)


def _file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _tree_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(directory.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(directory).as_posix().encode())
            h.update(_file_digest(p).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# set-up and the two kinds of run
# ---------------------------------------------------------------------------


def setup(runner: Runner, workload: str, seed: int, cycles: int, repeats: int):
    """Generate the inputs and make one warm-up invocation, `repeats` times.

    Returns the cycles and the set-up wall times.  Every repeat must write
    byte-identical inputs.
    """
    import workloads

    times, trees, runs = [], set(), []
    inputs = runner.workdir / "inputs"
    for _ in range(repeats):
        if times and runner.out_of_time():
            break
        t0 = time.perf_counter()
        shutil.rmtree(inputs, ignore_errors=True)
        runs = workloads.generate(workload, seed, str(inputs), cycles)
        runner.otk(runs[0][0])
        times.append(time.perf_counter() - t0)
        trees.add(_tree_digest(inputs))
    runner.checks += 1
    if len(trees) != 1:
        runner.wrong += 1
        runner.errors.append("the same seed generated different inputs")
    return runs, times


def _trials(cmd, inv: Invocation) -> int:
    if cmd.argv[0] != "property-run":
        return 1
    try:
        return sum(r["trials"] for r in json.loads(inv.stdout)["results"])
    except (ValueError, KeyError, TypeError):
        return 0


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples beyond it, and its value."""
    s = sorted(samples)
    k = max(0, len(s) - TAIL_BEYOND - 1)
    return 100.0 * (k + 1) / len(s), s[k]


def timed_run(runner: Runner, runs, setup_times: list[float]) -> dict:
    """Time the cycles, then check every output.

    Only the invocations run inside the loop; their checks, digests and the
    window reloads run after it, so the rates hold no benchmark work.  A
    crashed invocation completed nothing: it is left out of the wall-time
    percentiles and of the invocation and trial counts, but its time stays
    in the loop.
    """
    done = []
    t0 = time.perf_counter()
    for cycle in runs:
        for cmd in cycle:
            if runner.out_of_time():
                break
            done.append((cmd, runner.run(cmd)))
    loop_s = time.perf_counter() - t0

    walls, trials, reports = [], 0, []
    reload = []  # the first cycle's window exports
    for cmd, inv in done:
        if not runner.judge(cmd, inv):
            continue
        walls.append(inv.wall_s)
        trials += _trials(cmd, inv)
        reports.append(len(inv.stdout))
        if cmd in runs[0] and cmd.out_kind is not None and inv.code == cmd.expect:
            reload.append((cmd, inv.stdout))
    del done
    for cmd, report in reload:
        runner.check_reload(cmd, report)

    n = len(walls)
    pct, tail_s = tail(walls or [0.0])
    values = {
        "setup_s": statistics.median(setup_times),
        "cmd_p50_ms": 1000.0 * statistics.median(walls or [0.0]),
        "cmd_tail_ms": 1000.0 * tail_s,
        "cmds_per_s": n / loop_s,
        "trials_per_s": trials / loop_s,
        "report_mb": statistics.mean(reports or [0]) / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "cmd_p50_ms": f"{n} completed invocations",
        "cmd_tail_ms": f"p{pct:.1f}, {n - round(pct * n / 100)} of {n} invocations beyond it",
        "cmds_per_s": f"{n} completed invocations in {loop_s:.3f} s",
        "trials_per_s": f"{trials} trials in {loop_s:.3f} s",
        "report_mb": f"mean of {len(reports)} reports",
        "peak_rss_mb": f"largest child of {runner.attempted} invocations",
    }
    return {name: (values[name], END_TO_END[name], notes[name]) for name in END_TO_END}


def _importtime(stderr: bytes) -> tuple[float, float]:
    """Cumulative ms of `import otk` and of every top-level scipy subtree."""
    rows = []
    for line in stderr.decode(errors="replace").splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line[len("import time:"):].split("|", 2)
        if not cum.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((depth, name.strip(), int(cum)))
    otk_us = scipy_us = 0
    parents: list[str] = []
    for depth, name, cum in reversed(rows):  # parents precede children
        del parents[depth:]
        parent = parents[-1] if parents else ""
        if name == "otk":
            otk_us += cum
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            scipy_us += cum
        parents.append(name)
    return otk_us / 1000.0, scipy_us / 1000.0


def _add_summary(total: dict, path: Path) -> bool:
    """Add one tracer summary file into `total`; False if there is none."""
    try:
        with open(path, encoding="utf-8") as fh:
            summary = json.load(fh)
    except (OSError, ValueError):
        return False
    for name, agg in summary["spans"].items():
        acc = total["spans"].setdefault(name, {"calls": 0, "self_ms": 0.0, "total_ms": 0.0})
        for k in acc:
            acc[k] += agg[k]
    for name, c in summary["counts"].items():
        total["counts"][name] = total["counts"].get(name, 0) + c
    total["cells"] += summary["cells"]
    return True


def traced_run(runner: Runner, cmds) -> dict:
    """Run each command of one cycle untraced, then traced TRACED_PASSES times.

    Every traced pass must count the same calls and cells.
    """
    plain, overhead = [], []
    totals = [{"spans": {}, "counts": {}, "cells": 0} for _ in range(TRACED_PASSES)]
    for i, cmd in enumerate(cmds):
        if runner.out_of_time():
            break
        untraced = runner.otk(cmd)
        plain.append(untraced)
        for t, total in enumerate(totals):
            path = runner.workdir / f"trace-{i}-{t}.json"
            inv = runner.otk(cmd, tracer_out=path)
            overhead.append((inv.wall_s - untraced.wall_s) * 1000.0)
            if not _add_summary(total, path):
                runner.wrong += 1
                runner.errors.append(f"{cmd.key}: no trace summary")
    counted = {
        json.dumps([{n: a["calls"] for n, a in t["spans"].items()}, t["counts"], t["cells"]], sort_keys=True)
        for t in totals
    }
    runner.checks += 1
    if len(counted) != 1:
        runner.wrong += 1
        runner.errors.append("the traced passes counted different calls or cells")

    imports = []
    for _ in range(IMPORTTIME_REPEATS):
        inv = runner.spawn([sys.executable, "-X", "importtime", "-m", "otk.cli", *cmds[0].argv])
        imports.append(_importtime(inv.stderr))

    def span_ms(name: str, key: str) -> float:
        return statistics.mean(t["spans"].get(name, {}).get(key, 0.0) for t in totals)

    n = len(plain)
    first = totals[0]
    startup = [p.wall_s * 1000.0 - (p.elapsed_ms or 0.0) for p in plain]
    per_cycle = f"sum over the {n} invocations of one cycle"
    per_cycle_ms = f"{per_cycle}, mean of {TRACED_PASSES} traced passes"
    out = {
        "cli.startup_ms": (statistics.mean(startup), "ms", f"mean of {n} untraced invocations"),
        "import.otk_ms": (statistics.median(i[0] for i in imports), "ms",
                          f"median of {IMPORTTIME_REPEATS} -X importtime runs; traced import "
                          f"{span_ms('import.otk', 'total_ms') / n:.1f} ms per invocation"),
        "import.scipy_ms": (statistics.median(i[1] for i in imports), "ms",
                            f"median of {IMPORTTIME_REPEATS} -X importtime runs"),
    }
    for name in tracer.SELF_TIMED:
        out[f"{name}.self_ms"] = (span_ms(name, "self_ms"), "ms", per_cycle_ms)
    for name in TRACE_CALLS:
        out[f"{name}.calls"] = (first["spans"].get(name, {}).get("calls", 0), "count", per_cycle)
    out["matcore.matrix_to_json.cells"] = (first["cells"], "count", per_cycle)
    for suite in TRACE_SUITES:
        out[f"properties.{suite}.ms"] = (span_ms(f"properties.{suite}", "total_ms"), "ms", per_cycle_ms)
    for name in tracer.COUNTED:
        out[f"{name}.calls"] = (first["counts"].get(name, 0), "count", per_cycle)
    out["trace.overhead_ms"] = (statistics.mean(overhead), "ms",
                                f"mean of {len(overhead)} traced - untraced pairs")
    return out


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def _blas_threads() -> str:
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        return "unknown"
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return str(fn())
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src = hashlib.sha256()
    for p in sorted((SRC / "otk").glob("*.py")):
        src.update(p.name.encode())
        src.update(p.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(NOMINAL_CYCLE_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "otk" / "cli.py").is_file():
        print(f"bench: no otk sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One OpenBLAS thread, here and in every child: on 2 shared cores a
    # second spinning BLAS thread makes invocations up to several times
    # slower whenever anything else runs.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

    # A terminated run still stops its child and removes its work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    load_before = os.getloadavg()
    workdir = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    runner = Runner(workdir)
    try:
        if args.trace:
            runs, _ = setup(runner, args.workload, args.seed, 1, 1)
            metrics = traced_run(runner, runs[0])
        else:
            cycles = max(2, round(args.seconds / NOMINAL_CYCLE_S[args.workload]))
            runs, setup_times = setup(runner, args.workload, args.seed, cycles, SETUP_REPEATS)
            metrics = timed_run(runner, runs, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (BENCH / ".work").rmdir()
        except OSError:
            pass

    env = environment(args.seed)
    env["load_avg_before"] = [round(x, 2) for x in load_before]
    env["load_avg_after"] = [round(x, 2) for x in os.getloadavg()]
    for name, (value, unit, note) in metrics.items():
        print(f"{name:42s} {value:14.4f} {unit:6s} {note}")
    share = runner.failed / max(runner.attempted, 1)
    print(f"failed_share {share:.4f} ({runner.failed} of {runner.attempted} invocations); "
          f"{runner.checks} output checks")
    for err in runner.errors[:20]:
        print(f"FAILED {err}")
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
