"""orthofem benchmark: one workload, timed end to end or traced per layer.

Run from the repository root:

    python3 bench/run.py --workload p1-orth-sweep --seed 1 --seconds 20 --trace 0

``BENCHMARK.json`` names the workloads and the metrics.  With ``--trace 0``
the last line of standard output is a JSON object whose metrics are the
end-to-end ones: ``wall_s`` (median time of one repetition: the checked
table, or the checked operator results), ``largest_level_s`` (from the
mesh build of the largest level to the end of the repetition; the operator
pass on interp-stability), ``setup_s`` (median of several fresh processes,
from process start through ``import orthofem`` and building the workload's
reusable objects; on the solver workloads these are only the study
configuration and the reference table, as ``run_study`` builds meshes,
spaces and matrices itself, inside ``wall_s``),
``peak_rss_mb`` (over set-up and the first repetition) and ``pass_frac``
(1 - failed checks / attempted checks).
With ``--trace 1`` they are the per-layer metrics of the traced
repetitions, including ``trace.overhead_frac``.  Earlier lines record the
host, the repetition counts and the solver counts.  The exit status is 0
only if every check passed.

Every workload runs in a child process with BLAS pinned to one thread.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 9
DEADLINE_S = 170.0
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _parse(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest sizes, for the smoke test")
    parser.add_argument("--perturb-reference", action="store_true",
                        help="scale one reference value by 1.2, for the smoke test")
    return parser.parse_args(argv)


class Worker:
    """A child process running bench/worker.py; times its set-up."""

    def __init__(self, args, deadline, setup_only):
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        cmd += ["--tiny"] * args.tiny + ["--perturb-reference"] * args.perturb_reference
        cmd += ["--setup-only"] * setup_only
        self.deadline = deadline
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                     env=dict(os.environ, **PINNED_ENV))
        try:
            ready = self.proc.stdout.readline()
            self.setup_s = time.perf_counter() - start
            if ready.strip() != "ready":
                raise BenchError(f"worker failed during set-up ({args.workload})")
        except BaseException:
            self.close()
            raise

    def finish(self):
        """Wait for the worker; return its last output line as JSON."""
        try:
            out, _ = self.proc.communicate(timeout=max(1.0, self.deadline - time.time()))
        except subprocess.TimeoutExpired as exc:
            raise BenchError("worker overran the deadline") from exc
        finally:
            self.close()
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with status {self.proc.returncode}")
        lines = out.strip().splitlines()
        return json.loads(lines[-1]) if lines else None

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def _median(reps, key):
    """Median over repetitions; a count stays a whole number."""
    values = [rep[key] for rep in reps]
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def _per_layer(traced, plain):
    metrics = {key: _median(traced, key) for key in traced[0]}
    steps = metrics["solver.outer_steps"]
    metrics["solver.cg_iters_per_step"] = metrics["linalg.cg_iters"] / steps if steps else 0.0
    metrics["trace.overhead_frac"] = _median(traced, "wall_s") / _median(plain, "wall_s") - 1.0
    return metrics


def _count_record(workload, reps, tiny):
    """Solver counts per repetition, and whether they match the recorded ones."""
    if not any(rep["solver.outer_steps"] for rep in reps):
        return None
    seen = sorted({(rep["solver.outer_steps"], rep["solver.cg_iters"]) for rep in reps})
    record = {"outer_steps_cg_iters": seen, "repeat_exactly": len(seen) == 1}
    if not tiny:
        reference = json.loads((HERE / "reference_counts.json").read_text())[workload]
        record["reference"] = [reference["solver.outer_steps"], reference["linalg.cg_iters"]]
        record["match_reference"] = seen == [tuple(record["reference"])]
    return record


def run(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = _parse(argv, [w["name"] for w in spec["workloads"]])
    if not (ROOT / "src" / "orthofem").is_dir():
        raise BenchError(f"no orthofem sources under {ROOT / 'src'}")
    deadline = time.time() + DEADLINE_S

    setup_samples = []
    # only the untraced run reports setup_s
    for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
        worker = Worker(args, deadline, setup_only=True)
        setup_samples.append(worker.setup_s)
        worker.finish()
    worker = Worker(args, deadline, setup_only=False)
    setup_samples.append(worker.setup_s)
    result = worker.finish()
    if result is None:
        raise BenchError("worker printed no result")

    plain, traced = result["plain"], result["traced"]
    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        declared, values = spec["per_layer"], _per_layer(traced, plain)
    else:
        declared, values = spec["end_to_end"], {
            "wall_s": _median(plain, "wall_s"),
            "largest_level_s": _median(plain, "largest_level_s"),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": result["peak_rss_mb"],
            "pass_frac": 1.0 - failed / attempted,
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    print("host " + json.dumps(dict(result["host"], seed=args.seed)))
    print("largest_system " + json.dumps(result["largest_system"]))
    print(f"repetitions plain={len(plain)} traced={len(traced)} "
          f"setup_samples={len(setup_samples)}")
    print(f"checks attempted={attempted} failed={failed} fail_frac={failed / attempted}")
    counts = _count_record(args.workload, plain + traced, args.tiny)
    if counts is not None:
        print("counts " + json.dumps(counts))
    if "trace_file" in result:
        print(f"spans {result['trace_file']}")
    for note in result["notes"]:
        print(f"check failed: {note}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"metric {name} {metric['value']} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def main():
    try:
        return run()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
