"""The repo benchmark: one closed-loop workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload replay --seed 1 --seconds 10 --trace 0

``--workload`` is one of ``replay``, ``adaptive``, ``live`` and ``fleet``
(see ``perfbench/rationale.json``).  One client drives ops back to back
in one process with no threads; the ops cycle through the workload's
distinct inputs, and the timed loop runs whole cycles until
``--seconds`` have passed.  ``--seconds 0`` is the quick mode: one cycle.

Host times are normalised for machine speed.  A shared 2-CPU box
drifts by +-20% over tens of seconds, so a fixed pure-Python probe
(random dict lookups) runs between consecutive measured sections, and
each section's wall time is scaled to a reference machine on which the
probe does ``REFERENCE_MLOOKUPS`` million lookups per second.  The raw wall-clock
figures are printed in the metadata line beside the normalised ones.

Every op's output is checked outside the timed region: it must match
the first (warm-up) op of the same input, pass its workload's own
checks, and — once per emulator input — the row and columnar replay
loops must agree.  A miss counts the op as failed and makes the command
exit 1.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the loop
twice, untraced then with the layer wrappers installed, prints the
per-layer metrics and writes the spans to ``perfbench/out/``.  The last
line of standard output is always the result object; the line before
it holds run metadata (sample counts, raw timings, calibration score,
source id).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: How many times the preparation half of set-up (recording, columnar
#: conversion, configs) is repeated; ``setup_s`` uses the median.
PREP_REPEATS = 3
#: ``op_ms_p90`` needs ten samples beyond it.
P90_MIN_SAMPLES = 100
#: The machine-speed probe: this many random lookups in a dict of
#: ``PROBE_TABLE`` int keys.  Dict-heavy like the program itself, it
#: tracks the program's slowdowns on a loaded box better than an
#: arithmetic loop does.
PROBE_LOOKUPS = 60_000
PROBE_TABLE = 30_000
#: Probe speed of the reference machine that normalised times refer to.
REFERENCE_MLOOKUPS = 5.0

_clock = time.perf_counter


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and import it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"error: imported repro from {repro.__file__}")


class Meter:
    """Wall time of measured sections, raw and normalised for machine speed.

    A probe runs before the first section and after every section; a
    section's speed factor is the mean of the probes on either side.
    """

    def __init__(self) -> None:
        rng = random.Random(0)
        self._table = {key * 7919: key for key in range(PROBE_TABLE)}
        self._keys = [rng.randrange(PROBE_TABLE) * 7919
                      for _ in range(PROBE_LOOKUPS)]
        self._last = self.probe()
        self.probes = [self._last]

    def probe(self) -> float:
        """Seconds the fixed probe takes right now."""
        table = self._table
        started = _clock()
        acc = 0
        for key in self._keys:
            acc += table[key]
        return _clock() - started

    def measure(self, func):
        """Run ``func``; return (its result, raw seconds, normalised s)."""
        started = _clock()
        result = func()
        raw = _clock() - started
        after = self.probe()
        self.probes.append(after)
        reference = PROBE_LOOKUPS / (REFERENCE_MLOOKUPS * 1e6)
        normalised = raw * reference / ((self._last + after) / 2)
        self._last = after
        return result, raw, normalised

    def mlookups_per_s(self) -> float:
        """Median probe speed over the run (the calibration score)."""
        return PROBE_LOOKUPS / statistics.median(self.probes) / 1e6


def source_id() -> dict:
    """The commit id where one is available, and a digest of ``src``."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode("utf-8"))
        digest.update(path.read_bytes())
    ident = {"src_sha256": digest.hexdigest()}
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=False)
        except (OSError, subprocess.TimeoutExpired):
            done = None
        if done is not None and done.returncode == 0:
            ident["commit"] = done.stdout.strip()
    return ident


class Ledger:
    """Attempted and failed ops, with the reasons for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list = []

    def record(self, label: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failures.append({"case": label, "problems": problems})


def attempt(func):
    """Call ``func``; return (result, None) or (None, the error)."""
    try:
        return func(), None
    except Exception as exc:  # noqa: BLE001 - a failed op is data
        return None, f"{type(exc).__name__}: {exc}"


def check_op(case, ran, reference=None):
    """Outcome and problems of one op's ``attempt(case.run)`` result."""
    result, error = ran
    if error is None:
        outcome, error = attempt(lambda: case.check(result))
    if error is not None:
        return None, [error]
    problems = list(outcome.problems)
    if reference is not None and outcome.key != reference.key:
        problems.append("output differs from the first op of this input")
    return outcome, problems


def warm_up(cases, ledger: Ledger, meter: Meter):
    """One untimed op per distinct input; its outcome is the reference.

    Returns the references and the warm-up's (raw, normalised) seconds.
    """
    references = {}
    raw_total = norm_total = 0.0
    for case in cases:
        ran, raw, norm = meter.measure(lambda case=case: attempt(case.run))
        raw_total += raw
        norm_total += norm
        outcome, problems = check_op(case, ran)
        ledger.record(case.label, problems)
        if outcome is not None:
            references[case.label] = outcome
    return references, raw_total, norm_total


def timed_loop(cases, references, seconds: float, ledger: Ledger,
               meter: Meter, tracer=None) -> dict:
    """Whole cycles over ``cases`` until ``seconds`` have passed."""
    raw, norm, outcomes, labels = [], [], [], []
    events = 0
    cycles = 0
    started = _clock()
    while cycles == 0 or _clock() - started < seconds:
        for case in cases:
            reference = references.get(case.label)

            def op(case=case):
                if tracer is None:
                    return attempt(case.run)
                tracer.op_id = ledger.attempted
                with tracer.span("op"):
                    return attempt(case.run)

            ran, op_raw, op_norm = meter.measure(op)
            outcome, problems = check_op(case, ran, reference)
            if reference is None:
                problems.append("no reference output (warm-up failed)")
            ledger.record(case.label, problems)
            raw.append(op_raw)
            norm.append(op_norm)
            labels.append(case.label)
            if outcome is not None:
                events += outcome.events
                outcomes.append(outcome)
        cycles += 1
    return {"raw": raw, "norm": norm, "labels": labels,
            "outcomes": outcomes, "events": events, "cycles": cycles}


def median_op(samples, labels) -> float:
    """Median over inputs of each input's median op time.

    The ops of one run are a few whole cycles over inputs whose costs
    differ tenfold; taking each input's median first keeps one noisy
    sample from moving the result between two inputs' costs.
    """
    by_input = {}
    for label, value in zip(labels, samples):
        by_input.setdefault(label, []).append(value)
    return statistics.median(
        statistics.median(values) for values in by_input.values())


def parity_checks(cases, references, ledger: Ledger) -> None:
    """Row ``Trace`` loop versus columnar loop, once per input."""
    for case in cases:
        if case.parity is None or case.label not in references:
            continue
        row_key, error = attempt(case.parity)
        problems = [error] if error is not None else []
        if error is None and row_key != references[case.label].key:
            problems.append("row and columnar replays differ")
        ledger.record(case.label + "/parity", problems)


def _prepare(workload_cls, seed: int, span=None):
    workload = workload_cls(seed)
    workload.prepare(span=span)
    return workload


def _mean_over_inputs(references: dict, key: str) -> float:
    values = [o.virtual[key] for o in references.values()]
    return sum(values) / len(values) if values else 0.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload_cls, seed: int, seconds: float, ledger: Ledger,
               meter: Meter):
    prep_raw, prep_norm = [], []
    for _ in range(PREP_REPEATS):
        workload = None
        gc.collect()
        workload, raw, norm = meter.measure(
            lambda: _prepare(workload_cls, seed))
        prep_raw.append(raw)
        prep_norm.append(norm)
    references, warm_raw, warm_norm = warm_up(workload.cases, ledger, meter)
    loop = timed_loop(workload.cases, references, seconds, ledger, meter)
    parity_checks(workload.cases, references, ledger)
    norm, raw = loop["norm"], loop["raw"]
    metrics = {
        "setup_s": (statistics.median(prep_norm) + warm_norm, "s"),
        "op_ms_p50": (median_op(norm, loop["labels"]) * 1e3, "ms"),
        "events_per_s": (loop["events"] / sum(norm), "ev/s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "virtual_completion_s": (
            _mean_over_inputs(references, "completion_s"), "s"),
        "virtual_overhead_s": (
            _mean_over_inputs(references, "overhead_s"), "s"),
    }
    meta = {
        "ops": len(norm),
        "cycles": loop["cycles"],
        "inputs": len(workload.cases),
        "raw_wall": {
            "setup_s": statistics.median(prep_raw) + warm_raw,
            "op_ms_p50": median_op(raw, loop["labels"]) * 1e3,
            "events_per_s": loop["events"] / sum(raw),
        },
        "op_ms_p90_samples": len(norm),
    }
    if len(norm) >= P90_MIN_SAMPLES:
        meta["op_ms_p90"] = statistics.quantiles(norm, n=10)[-1] * 1e3
    meta["fingerprints"] = {label: o.key for label, o in references.items()}
    meta["virtual"] = {label: o.virtual for label, o in references.items()}
    return metrics, meta


def per_layer(workload_cls, seed: int, seconds: float, ledger: Ledger,
              meter: Meter):
    import layers
    from tracing import SpanTracer

    setup = SpanTracer()
    layers.install(setup)
    try:
        workload = _prepare(workload_cls, seed, span=setup.span)
        references, _, _ = warm_up(workload.cases, ledger, meter)
    finally:
        setup.unwrap()
    plain = timed_loop(workload.cases, references, seconds / 2, ledger,
                       meter)
    traced_spans = SpanTracer()
    layers.install(traced_spans)
    try:
        traced = timed_loop(workload.cases, references, seconds / 2, ledger,
                            meter, tracer=traced_spans)
    finally:
        traced_spans.unwrap()
    parity_checks(workload.cases, references, ledger)
    overhead = (median_op(traced["norm"], traced["labels"])
                / median_op(plain["norm"], plain["labels"]))
    metrics = layers.compute(setup, traced_spans, traced["outcomes"],
                             traced["raw"], overhead)
    out = HERE / "out" / f"spans-{workload_cls.name}-seed{seed}.jsonl"
    traced_spans.write(out)
    meta = {"ops_untraced": len(plain["norm"]),
            "ops_traced": len(traced["norm"]),
            "spans": len(traced_spans.spans),
            "spans_file": str(out.relative_to(ROOT))}
    return metrics, meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    from workloads import WORKLOADS

    workload_cls = WORKLOADS.get(args.workload)
    if workload_cls is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    ledger = Ledger()
    meter = Meter()
    if args.trace:
        metrics, meta = per_layer(workload_cls, args.seed, args.seconds,
                                  ledger, meter)
    else:
        raw, meta = end_to_end(workload_cls, args.seed, args.seconds,
                               ledger, meter)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in raw.items()}
    failed = len(ledger.failures)
    meta.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 client, 1 process, no threads",
        "fail_ratio": failed / max(1, ledger.attempted),
        "failures": ledger.failures[:20],
        "calibration_mlookups_per_s": meter.mlookups_per_s(),
        "reference_mlookups_per_s": REFERENCE_MLOOKUPS,
        "source": source_id(),
        "python": sys.version.split()[0],
    })
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
