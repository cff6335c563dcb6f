"""Medians and quartiles of saved benchmark runs, raw and scaled.

    python3 perfbench/summarize.py perfbench/out/runs/*.txt

Each file holds the standard output of one untraced run.py invocation; the
workload and the set are read from the file name `<set>-<workload>-<seed>.txt`.
Prints, per set and workload, the median and the quartile spread
(Q3 - Q1) / median of every reported metric and of its raw form and of the
steal jiffies seen, then the ratio of each set's medians to the previous
set's.
"""

import json
import re
import statistics
import sys
from collections import defaultdict
from pathlib import Path

LINE = re.compile(r"\s+(\w+): raw ([-\d.e+]+), scaled ([-\d.e+]+)")
STEAL = re.compile(r"steal over the run: (\d+) jiffies")


def read(path):
    text = Path(path).read_text().splitlines()
    if not text or not text[-1].startswith("{"):
        print(f"skipped {path}: no result line", file=sys.stderr)
        return {}
    result = json.loads(text[-1])
    values = {f"{k}": v["value"] for k, v in result["metrics"].items()}
    for line in text:
        m = LINE.match(line)
        if m:
            values[f"{m[1]} (raw)"] = float(m[2])
        m = STEAL.search(line)
        if m:
            values["steal jiffies"] = int(m[1])
    values["failed share"] = result["failed"] / result["attempted"]
    return values


def main(paths):
    groups = defaultdict(lambda: defaultdict(list))
    for path in paths:
        set_name, workload, _ = Path(path).stem.rsplit("-", 2)
        for name, value in read(path).items():
            groups[(set_name, workload)][name].append(value)
    for (set_name, workload), metrics in sorted(groups.items()):
        runs = len(metrics["failed share"])
        if not runs:
            continue
        print(f"{set_name} {workload}: {runs} runs")
        for name, values in metrics.items():
            median = statistics.median(values)
            if runs >= 4 and median:
                q1, _, q3 = statistics.quantiles(values, n=4)
                print(f"  {name:18s} median {median:.4g}  Q1 {q1:.4g}  Q3 {q3:.4g}"
                      f"  spread {(q3 - q1) / median:.3f}")
            else:
                print(f"  {name:18s} {values}")
    workloads = sorted({w for _, w in groups})
    sets = sorted({s for s, _ in groups})
    for workload in workloads:
        for a, b in zip(sets, sets[1:]):
            first, second = groups[(a, workload)], groups[(b, workload)]
            ratios = [f"{name} {statistics.median(second[name]) / statistics.median(v):.3f}"
                      for name, v in first.items() if statistics.median(v) and second[name]]
            print(f"{workload}: median {b} / median {a}: " + ", ".join(ratios))


if __name__ == "__main__":
    main(sys.argv[1:])
