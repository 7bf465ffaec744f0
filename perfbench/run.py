"""End-to-end and per-layer benchmark of the `granular-bath` CLI.

Usage (from the root of a source checkout; nothing needs installing):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

One client runs the real CLI as a fresh child process, one run at a time (a
closed loop), with the package taken from ``src/`` and BLAS/OpenMP pinned to
one thread.  ``granular-bath validate`` must pass first.  Every timed run is
checked (exit code, trajectory rows through ``observables.read_records``,
finite positive temperatures, one trajectory SHA-256 per seed, and in linear
mode a grid steady temperature in (0, theta1]); a failed check counts in
``failed`` and is never dropped.

--trace 0 repeats the workload for about S seconds (at least twice) and
reports the end-to-end metrics as medians.  --trace 1 makes one plain run and
one traced run (child.py wraps each layer's public functions at their call
sites), measures the package import, scans the kernel-grid build over several
sizes (gridscan.py) and reports the per-layer metrics.  The last line of
standard output is the JSON result; the lines before it are a readable table
and a ``detail`` JSON line with quartiles, sample counts, span parents and
the machine description.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

DT = 0.01
THETA1 = 1.0  # CLI default bath temperature; the linear grid check uses it
DEADLINE_S = 170.0  # every invocation ends well inside 180 s
PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}

# Each workload makes one layer do most of the work (see README.md).
WORKLOADS = {
    "driven-observed": {
        "mode": "full",
        "config": {"n_particles": 20_000, "record_every": 10, "t_end": 2.0, "dt": DT},
    },
    "driven-sweep": {
        "mode": "full",
        "config": {"n_particles": 200_000, "record_every": 100, "t_end": 3.0, "dt": DT},
    },
    "linear-grid": {
        "mode": "linear",
        "config": {"n_particles": 20_000, "t_end": 2.0, "dt": DT},
    },
}
MIN_RUNS = 2
IMPORT_PROBES = 3
SCAN_NODES = (16, 17, 18, 32)  # 48 (~70 s alone) does not fit one invocation
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
OBSERVERS = ("sigma_freq", "lp_norm", "h_phi", "moments", "f_aux")

END_TO_END = {"run_s": "s", "setup_s": "s", "particle_steps_per_s": "1/s",
              "peak_rss_mb": "MB"}
# Metrics of spans that fire only in some workloads: step_q and collide_q need
# tau > 0 (not linear mode), h_phi and the grid spans need linear mode.  They
# are printed in the table and the detail line, absent where the span never
# fired, but stay out of the result line, which holds the same metrics for
# every workload.
WORKLOAD_SPECIFIC = (
    "dsmc.step_q.ns_per_particle.p50", "dsmc.step_q.ns_per_particle.tail",
    "dsmc.step_q.accept_ratio", "dsmc.step_q.candidates", "dsmc.step_q.accepted",
    "dsmc.step_q.retries", "kinematics.collide_q.ns_per_collision",
    "observables.h_phi.ms_per_call", "carleman.make_grid.s", "carleman.make_grid.frac",
    "carleman.steady_state.s", "carleman.steady_state.iterations",
    "carleman.write_grid_csv.s",
)


def _child_env() -> dict:
    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("GB_LOG", None)
    return env


def _spawn(argv: list[str], log_dir: Path, deadline: float, cwd: Path = ROOT) -> dict:
    """Run one child to completion; wall time and peak RSS come from wait4."""
    log_dir.mkdir(parents=True, exist_ok=True)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return {"rc": None, "timed_out": True}
    with open(log_dir / "stdout.txt", "wb") as out, open(log_dir / "stderr.txt", "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, cwd=cwd, env=_child_env(), stdout=out, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        t1 = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "rc": proc.returncode,
        "timed_out": t1 - t0 >= timeout,
        "start": t0,
        "wall_s": t1 - t0,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "stdout": (log_dir / "stdout.txt").read_text(errors="replace"),
        "stderr": (log_dir / "stderr.txt").read_text(errors="replace"),
    }


def _expected_rows(cfg: dict) -> int:
    n_steps = max(1, int(round(cfg["t_end"] / cfg["dt"])))
    every = cfg.get("record_every", 10)
    return 1 + sum(1 for s in range(1, n_steps + 1) if s % every == 0 or s == n_steps)


def _median_q(values: list[float]) -> dict:
    if not values:
        return {"median": None, "q1": None, "q3": None, "n": 0}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


class Bench:
    """One benchmark invocation: its scratch directory, deadline and findings."""

    def __init__(self, seed: int, deadline: float):
        from granular_bath.observables import read_records  # from SRC

        self.read_records = read_records
        self.seed = seed
        self.deadline = deadline
        WORK.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
        self.n_dirs = 0
        self.attempted = 0
        self.failures: list[str] = []

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def _dir(self, label: str) -> Path:
        self.n_dirs += 1
        return self.tmp / f"{self.n_dirs:03d}-{label}"

    def fail(self, what: str, why: str) -> None:
        self.failures.append(f"{what}: {why}")

    def validate(self) -> None:
        self.attempted += 1
        res = _spawn([sys.executable, "-m", "granular_bath.cli", "validate"],
                     self._dir("validate"), self.deadline)
        if res["rc"] != 0:
            self.fail("validate", f"exit {res['rc']}: {res.get('stdout', '')[-400:]}")

    def cli_run(self, name: str, traced: bool) -> dict:
        """One timed CLI run of workload ``name`` plus its output checks."""
        wl = WORKLOADS[name]
        cfg = {"mode": wl["mode"], **wl["config"], "seed": self.seed}
        run_dir = self._dir(f"{name}-{'trace' if traced else 'plain'}")
        out_dir = run_dir / "out"
        run_dir.mkdir(parents=True)
        (run_dir / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
        report_path = run_dir / "report.json"
        argv = [sys.executable, str(HERE / "child.py"),
                "trace" if traced else "first-sweep", str(report_path), "--",
                wl["mode"], "--config", str(run_dir / "config.json"), "--out", str(out_dir)]
        self.attempted += 1
        res = _spawn(argv, run_dir, self.deadline)
        what = f"{name} run {self.attempted}"
        run = {"traced": traced, "rc": res["rc"], "ok": False}
        if res["rc"] != 0:
            why = "timed out" if res["timed_out"] else f"exit {res['rc']}"
            self.fail(what, f"{why}: {res.get('stderr', '')[-400:].strip()}")
            return run
        run.update(run_s=res["wall_s"], peak_rss_mb=res["peak_rss_mb"])
        try:
            report = json.loads(report_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            self.fail(what, f"no launcher report ({exc})")
            return run
        run["spans"] = report.get("spans", {})
        if "first_sweep_monotonic" in report:
            run["setup_s"] = report["first_sweep_monotonic"] - res["start"]
        if not self._check_outputs(what, name, cfg, out_dir, res["stdout"], run):
            return run
        if not traced and "setup_s" not in run:
            self.fail(what, "no collision sweep was called")
            return run
        run["ok"] = True
        shutil.rmtree(run_dir, ignore_errors=True)
        return run

    def _check_outputs(self, what: str, name: str, cfg: dict, out_dir: Path,
                       stdout: str, run: dict) -> bool:
        traj = out_dir / "trajectory.csv"
        try:
            records = self.read_records(traj)
            run["sha256"] = hashlib.sha256(traj.read_bytes()).hexdigest()
        except (OSError, ValueError, IndexError) as exc:
            self.fail(what, f"trajectory.csv unreadable ({exc})")
            return False
        if len(records) != _expected_rows(cfg):
            self.fail(what, f"{len(records)} trajectory rows, expected {_expected_rows(cfg)}")
            return False
        thetas = [r.theta for r in records]
        if not all(math.isfinite(t) and t > 0.0 for t in thetas):
            self.fail(what, "a recorded theta is not finite and positive")
            return False
        run["theta_final"] = thetas[-1]
        if WORKLOADS[name]["mode"] == "linear":
            m = re.search(r"^theta grid steady: (\S+)$", stdout, re.MULTILINE)
            grid_theta = float(m.group(1)) if m else math.nan
            run["theta_grid_steady"] = grid_theta
            if not 0.0 < grid_theta <= THETA1:
                self.fail(what, f"theta grid steady {grid_theta!r} outside (0, {THETA1}]")
                return False
        return True

    def check_same_output(self, runs: list[dict]) -> None:
        """Every run of one seed must write the same trajectory bytes."""
        hashes = [r["sha256"] for r in runs if r["ok"]]
        if not hashes:
            return
        reference = max(hashes, key=hashes.count)
        for i, r in enumerate(runs):
            if r["ok"] and r["sha256"] != reference:
                r["ok"] = False
                self.fail(f"run {i + 1}", "trajectory.csv differs from the other runs of this seed")

    def import_probe(self) -> float | None:
        code = ("import time; t = time.perf_counter(); import granular_bath.cli; "
                "print(repr(time.perf_counter() - t))")
        res = _spawn([sys.executable, "-c", code], self._dir("import"), self.deadline)
        try:
            return float(res["stdout"].strip()) if res["rc"] == 0 else None
        except ValueError:
            return None

    def grid_point(self, n: int) -> dict:
        """One grid-scan size in its own process; a deadline stop is 'absent'."""
        report_path = self.tmp / f"scan-{n}.json"
        res = _spawn([sys.executable, str(HERE / "gridscan.py"), str(n), str(report_path)],
                     self._dir(f"scan{n}"), self.deadline)
        if res["rc"] is None or res["timed_out"]:
            return {"status": "absent (benchmark deadline)"}
        self.attempted += 1
        if res["rc"] != 0:
            self.fail(f"grid scan n={n}", f"exit {res['rc']}: {res['stderr'][-400:].strip()}")
            return {"status": "failed"}
        point = json.loads(report_path.read_text(encoding="utf-8"))
        point["peak_rss_mb"] = res["peak_rss_mb"]
        if not 0.0 < point["theta"] <= point["theta1"]:
            self.fail(f"grid scan n={n}", f"steady theta {point['theta']!r} outside (0, theta1]")
        return point


# ---------------------------------------------------------------- metrics


def _metric(value, unit: str) -> dict:
    if value is None:
        return {"value": None, "unit": unit, "status": "absent", "count": 0}
    return {"value": value, "unit": unit}


def _particle_steps(name: str) -> int:
    cfg = WORKLOADS[name]["config"]
    return cfg["n_particles"] * int(round(cfg["t_end"] / cfg["dt"]))


def end_to_end(name: str, runs: list[dict]) -> tuple[dict, dict]:
    steps = _particle_steps(name)
    good = [r for r in runs if r["ok"]]
    samples = {
        "run_s": [r["run_s"] for r in good],
        "setup_s": [r["setup_s"] for r in good],
        "particle_steps_per_s": [steps / (r["run_s"] - r["setup_s"]) for r in good],
        "peak_rss_mb": [r["peak_rss_mb"] for r in good],
    }
    stats = {k: _median_q(v) for k, v in samples.items()}
    metrics = {k: _metric(stats[k]["median"], unit) for k, unit in END_TO_END.items()}
    return metrics, stats


def _span(spans: dict, name: str) -> dict:
    return spans.get(name) or {"calls": [], "parents": [], "raised": 0}


def _total_s(spans: dict, name: str, key: str = "ns") -> float | None:
    calls = _span(spans, name)["calls"]
    return sum(c[key] for c in calls) / 1e9 if calls else None


def _percentile(sorted_values: list[float], p: float) -> float:
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def _per_unit_ns(spans: dict, name: str) -> tuple[float | None, float | None, str | None]:
    """p50 and tail (highest percentile with >= 10 calls beyond it) of ns per item."""
    per = sorted(c["ns"] / c["n"] for c in _span(spans, name)["calls"] if c.get("n"))
    if not per:
        return None, None, None
    for p in TAIL_PERCENTILES:
        if len(per) * (1.0 - p / 100.0) >= 10:
            return _percentile(per, 50.0), _percentile(per, p), f"p{p:g}"
    return _percentile(per, 50.0), None, None


def _sum_key(spans: dict, name: str, key: str):
    vals = [c[key] for c in _span(spans, name)["calls"] if key in c]
    return sum(vals) if vals else None


def per_layer(traced: dict, particle_steps: int, plain_run_s: float | None,
              import_s: float | None, scan: dict) -> tuple[dict, dict]:
    spans = traced.get("spans", {})
    run_s = traced.get("run_s")
    m: dict = {}
    info: dict = {"span_parents": {k: v["parents"] for k, v in spans.items()}}

    def frac(x):
        return x / run_s if x is not None and run_s else None

    for sweep, cand_key in (("step_q", "candidates"), ("step_l", "candidates_expected")):
        name = f"dsmc.{sweep}"
        p50, tail, tail_p = _per_unit_ns(spans, name)
        info[f"{name}.ns_per_particle.tail_percentile"] = tail_p
        info[f"{name}.calls"] = len(_span(spans, name)["calls"])
        m[f"{name}.ns_per_particle.p50"] = _metric(p50, "ns")
        m[f"{name}.ns_per_particle.tail"] = _metric(tail, "ns")
        cand, acc = _sum_key(spans, name, cand_key), _sum_key(spans, name, "accepted")
        m[f"{name}.accept_ratio"] = _metric(acc / cand if cand else None, "ratio")
        m[f"{name}.{cand_key}"] = _metric(cand, "count")
        m[f"{name}.accepted"] = _metric(acc, "count")
        fired = name in spans and (spans[name]["calls"] or spans[name]["raised"])
        m[f"{name}.retries"] = _metric(spans[name]["raised"] if fired else None, "count")
    run_self = _total_s(spans, "dsmc.run", "self_ns")
    m["dsmc.run.self_s"] = _metric(run_self, "s")
    dsmc_parts = [_total_s(spans, "dsmc.step_q"), _total_s(spans, "dsmc.step_l"), run_self]
    dsmc_s = (sum(x for x in dsmc_parts if x is not None)
              if any(x is not None for x in dsmc_parts) else None)
    m["dsmc.frac"] = _metric(frac(dsmc_s), "frac")
    m["dsmc.ns_per_particle_step"] = _metric(
        dsmc_s * 1e9 / particle_steps if dsmc_s is not None else None, "ns")

    for name in ("kinematics.collide_q", "kinematics.collide_l_sigma"):
        total, n = _total_s(spans, name), _sum_key(spans, name, "n")
        m[f"{name}.ns_per_collision"] = _metric(total * 1e9 / n if n else None, "ns")
    total, n = _total_s(spans, "background.sample_bath"), _sum_key(spans, "background.sample_bath", "n")
    m["background.sample_bath.ns_per_draw"] = _metric(total * 1e9 / n if n else None, "ns")

    obs_self = 0.0
    obs_fired = False
    for fn in OBSERVERS:
        name = f"observables.{fn}"
        calls = _span(spans, name)["calls"]
        total = _total_s(spans, name)
        m[f"{name}.ms_per_call"] = _metric(total * 1e3 / len(calls) if calls else None, "ms")
    for name in spans:
        if name.startswith("observables.") and spans[name]["calls"]:
            obs_self += _total_s(spans, name, "self_ns")
            obs_fired = True
    m["observables.write_records.s"] = _metric(_total_s(spans, "observables.write_records"), "s")
    m["observables.self_frac"] = _metric(frac(obs_self) if obs_fired else None, "frac")

    make_grid_s = _total_s(spans, "carleman.make_grid")
    m["carleman.make_grid.s"] = _metric(make_grid_s, "s")
    m["carleman.make_grid.frac"] = _metric(frac(make_grid_s), "frac")
    m["carleman.steady_state.s"] = _metric(_total_s(spans, "carleman.steady_state"), "s")
    m["carleman.steady_state.iterations"] = _metric(
        _sum_key(spans, "carleman.steady_state", "iterations"), "count")
    m["carleman.write_grid_csv.s"] = _metric(_total_s(spans, "carleman.write_grid_csv"), "s")
    for n in SCAN_NODES:
        point = scan.get(n, {})
        m[f"carleman.make_grid.n{n}.s"] = _metric(point.get("make_grid_s"), "s")
        m[f"carleman.make_grid.n{n}.peak_rss_mb"] = _metric(point.get("peak_rss_mb"), "MB")
        m[f"carleman.steady_state.n{n}.iterations"] = _metric(point.get("iterations"), "count")
    info["grid_scan"] = {str(n): scan.get(n, {}) for n in SCAN_NODES}

    m["cli.import_s"] = _metric(import_s, "s")
    m["cli.execute.self_s"] = _metric(_total_s(spans, "cli.execute", "self_ns"), "s")
    m["trace_overhead_frac"] = _metric(
        run_s / plain_run_s - 1.0 if run_s and plain_run_s else None, "frac")
    info["traced_run_s"] = run_s
    info["plain_run_s"] = plain_run_s
    return m, info


# ---------------------------------------------------------------- invocation


def environment() -> dict:
    import numpy
    import scipy

    env = {
        "nproc": os.cpu_count(),
        "cpu_model": None,
        "l2_size": None,
        "l3_size": None,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": None,
        "threads_env": PINNED_THREADS,
        "client": "closed loop, 1 client, one fresh CLI process per run",
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                None)
    except OSError:
        pass
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            env[f"l{level}_size"] = size
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        env["git_commit"] = res.stdout.strip() or None
    return env


def bench_workload(bench: Bench, name: str, seconds: float, trace: bool) -> tuple[dict, dict]:
    if trace:
        import_samples = [bench.import_probe() for _ in range(IMPORT_PROBES)]
        import_samples = [x for x in import_samples if x is not None]
        plain, traced = bench.cli_run(name, traced=False), bench.cli_run(name, traced=True)
        runs = [plain, traced]
        bench.check_same_output(runs)
        scan = {n: bench.grid_point(n) for n in SCAN_NODES}
        metrics, info = per_layer(
            traced if traced["ok"] else {}, _particle_steps(name),
            plain.get("run_s") if plain["ok"] else None,
            statistics.median(import_samples) if import_samples else None, scan)
        info["cli.import_s.samples"] = import_samples
        info["workload_specific"] = {k: metrics[k] for k in WORKLOAD_SPECIFIC}
    else:
        t0 = time.monotonic()
        runs = []
        while len(runs) < MIN_RUNS or (
                time.monotonic() - t0 + statistics.median(r.get("run_s", 0.0) for r in runs)
                <= seconds):
            if time.monotonic() >= bench.deadline:
                break
            runs.append(bench.cli_run(name, traced=False))
        bench.check_same_output(runs)
        metrics, info = end_to_end(name, runs)
    info["theta_final"] = [r.get("theta_final") for r in runs]
    if WORKLOADS[name]["mode"] == "linear":
        info["theta_grid_steady"] = [r.get("theta_grid_steady") for r in runs]
    info["runs"] = len(runs)
    return metrics, info


def _print_table(name: str, metrics: dict, info: dict, trace: bool) -> None:
    print(f"== {name} ({'per-layer, traced' if trace else 'end-to-end'})")
    for key, metric in metrics.items():
        value = metric["value"]
        shown = "absent (count 0)" if value is None else f"{value:.6g}"
        extra = ""
        if not trace and isinstance(info.get(key), dict):
            st = info[key]
            if st["n"]:
                extra = f"  q1 {st['q1']:.6g}  q3 {st['q3']:.6g}  n {st['n']}"
        print(f"  {key:44s} {metric['unit']:6s} {shown}{extra}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "granular_bath" / "cli.py").is_file():
        print(f"no granular_bath package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    start = time.monotonic()
    bench = Bench(args.seed, start + DEADLINE_S * len(names))
    try:
        bench.validate()
        results = {n: bench_workload(bench, n, args.seconds, bool(args.trace)) for n in names}
    finally:
        bench.close()

    failed = len(bench.failures)
    for name, (metrics, info) in results.items():
        _print_table(name, metrics, info, bool(args.trace))
    print(f"failed_frac {failed}/{bench.attempted} = {failed / max(bench.attempted, 1):.6g}")
    for line in bench.failures:
        print(f"FAILED {line}")
    detail = {
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "workloads": {n: info for n, (_, info) in results.items()},
        "failures": bench.failures, "environment": environment(),
        "elapsed_s": time.monotonic() - start,
    }
    print("detail " + json.dumps(detail))
    reported = {n: {k: v for k, v in ms.items() if k not in WORKLOAD_SPECIFIC}
                for n, (ms, _) in results.items()}
    if len(names) == 1:
        metrics = reported[names[0]]
    else:
        metrics = {f"{n}/{k}": v for n, ms in reported.items() for k, v in ms.items()}
    missing = [k for k, v in metrics.items() if v["value"] is None]
    if missing:
        print(f"no measurement for {', '.join(missing)}; no result to report", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": bench.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
