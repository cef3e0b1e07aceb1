"""fedvi benchmark: one workload, one seed, one process.

    python3 benchmarks/run.py --workload hetero-fedvi --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``, nothing is installed. Prints one line per metric, then as the
last line a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` gives the end-to-end metrics; ``--trace 1`` gives
the per-layer metrics from a traced run (spans go to
``.bench_out/<workload>/spans.jsonl``). Exits 2 without a result when the
checkout lacks the program or its configs, and 1 when no job completed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None) -> argparse.Namespace:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0, help="workload seed (>= 0); 0 runs the configs as shipped")
    p.add_argument("--seconds", type=float, default=30.0, help="length of the measured phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def fail(message: str) -> None:
    print(f"benchmark: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_program():
    """Import fedvi from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "fedvi" / "__init__.py").is_file():
        fail(f"{src / 'fedvi'} not found; run from the root of a fedvi checkout")
    sys.path.insert(0, str(src))
    import fedvi

    if Path(fedvi.__file__).resolve().parent != (src / "fedvi").resolve():
        fail(f"imported fedvi from {fedvi.__file__}, not from {src}")


def main(argv=None) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    args = parse_args(argv)
    import_program()
    from workloads import WORKLOADS, Runner

    for cfg in {w.config for w in WORKLOADS.values()}:
        if not (ROOT / cfg).is_file():
            fail(f"{cfg} not found")
    runner = Runner(ROOT, args.workload, args.seed, args.seconds)
    shutil.rmtree(runner.out_dir, ignore_errors=True)
    runner.out_dir.mkdir(parents=True)
    try:
        metrics, info = runner.trace() if args.trace else runner.measure()
    except RuntimeError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    tally = runner.tally
    correct = tally.failed == 0 and not info.get("self_test_problems")

    print(f"# workload {args.workload}, seed {args.seed} (run seed {runner.seed}), trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:>16.6g} {unit}")
    print(f"{'failed_frac':44s} {tally.failed / tally.attempted:>16.6g} fraction"
          f" ({tally.failed} of {tally.attempted} operations)")
    for name, value in info.items():
        print(f"# {name} = {value}")
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
