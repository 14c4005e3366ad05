"""Run-to-run spread of the benchmark's metrics over several seeds.

Runs ``run.py`` once per seed and workload, one process at a time, and
reports each metric's median, quartiles (``statistics.quantiles(n=4)``) and
IQR as a share of the median, next to the metric's bound from
BENCHMARK.json.  This is how the numbers in ``baseline.json`` were made.

    python3 benchmarks/spread.py --seeds 0-9 --trace 0 --out spread.json
    python3 benchmarks/spread.py --workloads shock-viscous-q50 --seeds 0-4
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def summarise(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": q2, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / q2 if q2 else 0.0, "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 3,5,8")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write the summary here as JSON")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    report = {}
    ok = True
    for workload in args.workloads:
        samples = {}
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            result = json.loads(last) if last.startswith("{") else {}
            if proc.returncode != 0 or not result.get("correct"):
                ok = False
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            metrics = dict(result["metrics"])
            run_line = [ln for ln in proc.stdout.splitlines() if ln.startswith("# run ")]
            if args.trace == 0 and run_line:
                # the unscaled medians, kept beside the scaled ones for comparison
                raw = json.loads(run_line[-1][len("# run "):])
                metrics["raw_run_s"] = {"value": raw["raw_run_s"], "unit": "s"}
                metrics["raw_ms_per_iter"] = {"value": raw["raw_ms_per_iter"], "unit": "ms"}
                metrics["raw_setup_s"] = {"value": statistics.median(raw["setup_probe_s"]),
                                          "unit": "s"}
            for name, metric in metrics.items():
                samples.setdefault(name, {"unit": metric["unit"], "values": []})
                samples[name]["values"].append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in metrics.items()), flush=True)
        report[workload] = {}
        for name, s in samples.items():
            summary = summarise(s["values"])
            summary["unit"] = s["unit"]
            if args.trace == 0:
                summary["bound"] = bounds.get(name)
            report[workload][name] = summary
            flag = ""
            if summary.get("bound") and summary["iqr_share"] > summary["bound"] / 3:
                flag = "  > bound/3"
            print(f"  {workload:22s} {name:28s} median {summary['median']:<12.6g} "
                  f"IQR/median {summary['iqr_share']:.4f}{flag}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
