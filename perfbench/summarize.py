"""Fold run records into one BENCH_*.json summary.

    python3 perfbench/summarize.py perfbench/results/*.json > perfbench/BENCH_<name>.json

For every workload: the seeds and input digests, and per end-to-end metric
the value of each run, the median, the quartiles and the spread (distance
between the quartiles as a share of the median).  Traced records add the
per-layer metrics of each traced run.
"""

import json
import statistics
import sys


def summarize(records):
    out = {}
    for rec in records:
        p = rec["provenance"]
        w = out.setdefault(p["workload"], {"runs": [], "end_to_end": {}, "per_layer": []})
        traced = "trace_overhead" in rec["metrics"]
        run = {"seed": p["seed"], "inputs_sha256": p["inputs_sha256"], "traced": traced,
               "attempted": rec["attempted"], "failed": rec["failed"], "correct": rec["correct"]}
        w["runs"].append(run)
        if traced:
            w["per_layer"].append({"seed": p["seed"], "metrics": rec["metrics"]})
            continue
        for name, m in rec["metrics"].items():
            w["end_to_end"].setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
        w["environment"] = {k: p[k] for k in ("python", "nproc", "platform", "commit")}
    for w in out.values():
        for m in w["end_to_end"].values():
            v = m["values"]
            m["median"] = statistics.median(v)
            if len(v) >= 2:
                q1, _, q3 = statistics.quantiles(v, n=4)
                m["q1"], m["q3"] = q1, q3
                m["spread"] = (q3 - q1) / m["median"] if m["median"] else 0.0
    return out


if __name__ == "__main__":
    records = []
    for path in sys.argv[1:]:
        with open(path) as fh:
            records.append(json.load(fh))
    json.dump(summarize(records), sys.stdout, indent=1)
    print()
