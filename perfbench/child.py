"""Launcher for one `granular-bath` CLI run inside a fresh interpreter.

Usage: python3 child.py MODE REPORT -- CLI-ARGS...

MODE is ``first-sweep`` or ``trace``.  Both run ``granular_bath.cli.main``
on CLI-ARGS unchanged and exit with its return code; REPORT receives a JSON
object when the run ends, whether it succeeded or raised.

first-sweep: wraps the collision sweeps only until their first call, records
    ``time.monotonic()`` at that call (the end of set-up) and restores the
    original functions, so the rest of the run carries no hook.
trace: wraps every function in ``SPANS`` for the whole run and reports, per
    span, each call's duration, self time (duration minus the time of the
    wrapped calls made inside it), parent span and work count.

A function is wrapped wherever a caller can find it: every attribute of every
loaded ``granular_bath`` module that is bound to the function object is
replaced, so a call site that moves to another module is still seen.  A
function that no longer exists is skipped; its span then never fires.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time

# (defining module, public function name); the span is named layer.function.
SPANS = (
    ("cli", "execute"),
    ("dsmc", "run"),
    ("dsmc", "step_q"),
    ("dsmc", "step_l"),
    ("kinematics", "collide_q"),
    ("kinematics", "collide_l_sigma"),
    ("background", "sample_bath"),
    ("observables", "moments"),
    ("observables", "f_aux"),
    ("observables", "lp_norm"),
    ("observables", "h_phi"),
    ("observables", "sigma_freq"),
    ("observables", "write_records"),
    ("carleman", "make_grid"),
    ("carleman", "steady_state"),
    ("carleman", "write_grid_csv"),
)
SWEEPS = (("dsmc", "step_q"), ("dsmc", "step_l"))


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    return int(shape[0]) if shape is not None and len(shape) == 2 else 1


def _step_q_work(a: dict, result) -> dict:
    n = a["velocities"].shape[0]
    cand = math.ceil(n * a["tau"] * a["q_max"] * a["dt"] / 2.0)
    return {"n": n, "candidates": cand, "accepted": int(result[0])}


def _step_l_work(a: dict, result) -> dict:
    n = a["velocities"].shape[0]
    p_cand = -math.expm1(-a["l_max"] / a["bath"].lambda_ * a["dt"])
    return {"n": n, "candidates_expected": n * p_cand, "accepted": int(result[0])}


# Work counts taken from a successful call's bound arguments and result.
WORK = {
    "dsmc.step_q": _step_q_work,
    "dsmc.step_l": _step_l_work,
    "kinematics.collide_q": lambda a, r: {"n": _rows(a["v"])},
    "kinematics.collide_l_sigma": lambda a, r: {"n": _rows(a["v"])},
    "background.sample_bath": lambda a, r: {"n": int(a["n"])},
    "carleman.steady_state": lambda a, r: {"iterations": int(r.iterations)},
}


def _rebind(old, new) -> None:
    """Point every granular_bath module attribute bound to ``old`` at ``new``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "granular_bath" or name.startswith("granular_bath.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


def _lookup(module: str, name: str):
    try:
        return getattr(importlib.import_module(f"granular_bath.{module}"), name)
    except (ImportError, AttributeError):
        return None


class Tracer:
    """In-memory spans for the wrapped functions of one run."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # [span name, child time ns] per open call
        self.spans: dict[str, dict] = {}

    def wrap(self, span: str, orig):
        sig = inspect.signature(orig)
        work = WORK.get(span)
        record = self.spans.setdefault(
            span, {"parents": [], "calls": [], "raised": 0, "work_errors": 0})

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            parent = self.stack[-1][0] if self.stack else None
            frame = [span, 0]
            self.stack.append(frame)
            ok = False
            t0 = time.perf_counter_ns()
            try:
                result = orig(*args, **kwargs)
                ok = True
            finally:
                dur = time.perf_counter_ns() - t0
                self.stack.pop()
                if self.stack:
                    self.stack[-1][1] += dur
                if parent not in record["parents"]:
                    record["parents"].append(parent)
                if not ok:
                    record["raised"] += 1
            call = {"ns": dur, "self_ns": dur - frame[1]}
            if work is not None:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    call.update(work(bound.arguments, result))
                except (AttributeError, KeyError, TypeError, ValueError, IndexError):
                    record["work_errors"] += 1
            record["calls"].append(call)
            return result

        return traced

    def install(self) -> None:
        for module, name in SPANS:
            orig = _lookup(module, name)
            if callable(orig):
                _rebind(orig, self.wrap(f"{module}.{name}", orig))


def _first_call_hook(orig, report: dict, restore):
    @functools.wraps(orig)
    def hook(*args, **kwargs):
        if "first_sweep_monotonic" not in report:
            report["first_sweep_monotonic"] = time.monotonic()
            restore()
        return orig(*args, **kwargs)
    return hook


def _install_first_sweep(report: dict) -> None:
    pairs = []

    def restore() -> None:
        for orig, hook in pairs:
            _rebind(hook, orig)

    for module, name in SWEEPS:
        orig = _lookup(module, name)
        if callable(orig):
            pairs.append((orig, _first_call_hook(orig, report, restore)))
    for orig, hook in pairs:
        _rebind(orig, hook)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] not in ("first-sweep", "trace") or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 64
    mode, report_path, cli_args = argv[0], argv[1], argv[3:]
    import granular_bath.cli as cli

    report: dict = {"mode": mode}
    tracer = Tracer()
    if mode == "trace":
        tracer.install()
    else:
        _install_first_sweep(report)
    try:
        return cli.main(cli_args)
    finally:
        report["exit_monotonic"] = time.monotonic()
        report["spans"] = tracer.spans
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
