"""One benchmark process: set up a workload, say ``ready``, run it.

Started by ``run.py`` with BLAS pinned to one thread.  It prints ``ready``
on standard output once the workload's reusable objects exist (the parent
times set-up up to that line), then, unless ``--setup-only`` is given,
runs repetitions for ``--seconds`` seconds and prints one JSON line with
the per-repetition figures, the check tally and the host record.

With ``--trace 1`` the repetitions alternate untraced and traced, so the
tracing overhead is the ratio of their median wall times; the spans of the
traced repetitions are written to ``bench/out/``.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, Checks  # noqa: E402

OUT_DIR = HERE / "out"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--perturb-reference", action="store_true",
                        help="scale one reference cell by 1.2 (smoke test)")
    return parser.parse_args(argv)


def _perturb(state):
    """Scale the first checked reference cell of the first level by 1.2."""
    n = state["config"].n_list[0]
    errors = state["reference"][(n + 1) ** 2]
    errors[next(iter(errors))] *= 1.2


def _run(workload, state, args, checks):
    """Repetitions until the next one would overrun ``--seconds``, and the
    peak RSS after the first."""
    import tracing  # imported after "ready", so outside the timed set-up
    plain, traced, tracers = [], [], []
    start = time.perf_counter()
    while True:
        unit_start = time.perf_counter()
        plain.append(workload.rep(state, checks))
        if len(plain) == 1:
            # a study is run once: peak RSS over set-up and one repetition,
            # however many repetitions fit in --seconds
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            tracer = tracing.Tracer()
            with tracer.installed():
                stats = workload.rep(state, checks)
            stats.update(tracing.layer_metrics(tracer))
            traced.append(stats)
            tracers.append(tracer)
        now = time.perf_counter()
        if now - start + (now - unit_start) > args.seconds:
            return plain, traced, tracers, peak_rss_mb


def _write_spans(args, tracers):
    import tracing
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    record = {"workload": args.workload, "seed": args.seed,
              "fields": ["name", "start_s", "end_s", "parent", "raised"],
              "reps": [tracing.spans_record(t) for t in tracers]}
    path.write_text(json.dumps(record, separators=(",", ":")), encoding="utf-8")
    return path


def main(argv=None):
    args = _parse(argv)
    workload = WORKLOADS[args.workload]
    state = workload.setup(args.seed, args.tiny)
    if args.perturb_reference:
        if "reference" not in state:
            raise SystemExit(f"{args.workload} has no reference table to perturb")
        _perturb(state)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    checks = Checks()
    plain, traced, tracers, peak_rss_mb = _run(workload, state, args, checks)
    import host  # imported after the run, so outside the timed set-up
    result = {
        "plain": plain,
        "traced": traced,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "notes": checks.notes[:20],
        "peak_rss_mb": peak_rss_mb,
        "host": host.describe(),
        "largest_system": host.matrix_record(workload.largest_system(state)),
    }
    if tracers:
        result["trace_file"] = str(_write_spans(args, tracers).relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
