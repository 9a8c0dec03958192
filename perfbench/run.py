"""Run one workload of the ORAM benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload secure_trace --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the traced comparison and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The run's
fingerprint and result, and the traced run's spans, are written under
``.perfbench_out/``; scratch stores live under ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def git_sha(root: Path) -> str:
    """The checked-out commit, read from ``.git`` (``unknown`` outside git)."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = root / ".git" / ref[5:]
            if ref_path.exists():
                return ref_path.read_text().strip()
            for line in (root / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def fingerprint(args: argparse.Namespace) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(ROOT),
    }


def main(argv: list[str] | None = None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in declared["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.fspath(ROOT / "src"))
    import oram_bench

    metric_list = declared["per_layer" if args.trace else "end_to_end"]
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        run = oram_bench.measure(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir=workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = oram_bench.report(run, metric_list)

    info = fingerprint(args)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if run.recorder is not None:
        run.recorder.write(os.fspath(out_dir / f"{stem}.spans.jsonl"), info)
    (out_dir / f"{stem}.json").write_text(
        json.dumps(
            {"fingerprint": info, "samples": run.samples, "slowdown": run.slowdown, **result},
            indent=2,
        )
    )

    print("fingerprint: " + json.dumps(info))
    if run.slowdown is not None:
        print(f"host slowdown = {run.slowdown:.4g} (median; timings are scaled by it)")
    for name, metric in result["metrics"].items():
        count = run.samples.get(name)
        suffix = f"  (n={count})" if count is not None else ""
        print(f"{name} = {metric['value']:.6g} {metric['unit']}{suffix}")
    print(f"attempted = {result['attempted']}, failed = {result['failed']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
