"""Run one workload of the end-to-end benchmark over several seeds and
report each end-to-end metric's median and spread: the distance between
the first and third quartile (statistics.quantiles, n=4) as a share of
the median, next to the bound BENCHMARK.json fixes for it.

Usage, from the repository root:

    python3 e2ebench/spread.py dashboard 1 2 3 4 5 6 7 8 9 10
"""
import json
import statistics
import subprocess
import sys
import time


def main():
    if len(sys.argv) < 4:
        sys.exit(__doc__)
    workload, seeds = sys.argv[1], sys.argv[2:]
    bench = json.load(open("BENCHMARK.json"))
    seconds = str(bench["run_seconds"])
    values = {}
    for seed in seeds:
        start = time.time()
        out = subprocess.run(
            bench["command"] + ["--workload", workload, "--seed", seed, "--seconds", seconds, "--trace", "0"],
            capture_output=True, text=True)
        if out.returncode != 0:
            print("%s seed %s: exit %d: %s" % (workload, seed, out.returncode, out.stderr.strip().splitlines()[:1]),
                  flush=True)
            continue
        res = json.loads(out.stdout.strip().splitlines()[-1])
        print("%s seed %s: correct=%s failed=%d/%d wall %.1fs %s" % (
            workload, seed, res["correct"], res["failed"], res["attempted"], time.time() - start,
            " ".join("%s=%.4g" % (m["name"], res["metrics"][m["name"]]["value"]) for m in bench["end_to_end"])),
            flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
        med = statistics.median(v)
        print("%-18s median %12.6g  spread %.3f  bound %.2f  min %.6g  max %.6g" % (
            m["name"], med, (q[2] - q[0]) / med, m["bound"], min(v), max(v)))


if __name__ == "__main__":
    main()
