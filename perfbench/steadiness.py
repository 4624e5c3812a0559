"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/steadiness.py --seeds 1-10 [--out FILE]

Runs every workload of BENCHMARK.json once per seed, one process at a
time, with tracing off and ``run_seconds`` from BENCHMARK.json, and
reports for every end-to-end metric its median and its spread: the
distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next
to the metric's bound. Every run's result line, with the per-cell
medians, sample counts, set-up times and workload state of its detail
line, is kept in the JSON written to ``--out``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DETAIL_KEPT = ("cells", "latency_samples", "tail_percentile", "setup", "workload_state")


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--out", default=str(ROOT / ".perfbench_out" / "steadiness.json"))
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    report = {"seconds": seconds, "seeds": args.seeds, "workloads": {}}
    ok = True
    for name in [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            detail = json.loads(next(x for x in lines if x.startswith("detail "))[7:])
            result["seed"] = seed
            result["detail"] = {key: detail[key] for key in DETAIL_KEPT}
            runs.append(result)
            ok &= result["correct"]
        rows = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            rows[m["name"]] = {"median": statistics.median(values), "spread": spread(values),
                               "bound": m["bound"], "unit": m["unit"]}
        report["workloads"][name] = {"metrics": rows, "runs": runs}
        print(f"{name}: {len(runs)} runs, all correct: {all(r['correct'] for r in runs)}")
        for metric, row in rows.items():
            flag = "ok" if row["spread"] <= row["bound"] / 3 else (
                "within bound" if row["spread"] <= row["bound"] else "TOO WIDE")
            print(f"  {metric:14s} median {row['median']:12.5g} {row['unit']:5s} "
                  f"spread {row['spread']:7.4f} bound {row['bound']:.2f}  {flag}")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
