#!/usr/bin/env python3
"""Virtual identity: a host-only change must leave every virtual-clock result
bit-identical. Runs each benchmark workload once at a fixed seed and length
and compares the virtual metrics and operation counts exactly (no tolerance)
against .github/virtual_goldens.json. `--update` rewrites the goldens; a PR
that means to change the model does that and says so in CHANGES.md."""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
GOLDENS = os.path.join(ROOT, ".github", "virtual_goldens.json")
WORKLOADS = ["randread-qd32", "steady-mixed-qd32", "volume-raid10-128k", "lsm-readwhilewriting"]
METRICS = ["sim_kiops", "sim_read_p50_us", "sim_read_p99_us", "sim_p999_us", "wa_media"]
COUNTS = ["attempted", "failed"]


def measure(workload):
    out = subprocess.run(
        ["bash", os.path.join(ROOT, "bench", "run.sh"), "--workload", workload, "--seed", "1", "--seconds", "1"],
        check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    row = {name: result["metrics"][name]["value"] for name in METRICS}
    row.update({name: result[name] for name in COUNTS})
    return row


got = {}
for w in WORKLOADS:
    got[w] = measure(w)
    print(w, json.dumps(got[w]), flush=True)
if "--update" in sys.argv[1:]:
    with open(GOLDENS, "w") as f:
        json.dump(got, f, indent=2)
        f.write("\n")
    sys.exit(0)
with open(GOLDENS) as f:
    want = json.load(f)
bad = [f"{w}.{name}: got {got[w][name]!r}, want {want[w][name]!r}"
       for w in WORKLOADS for name in METRICS + COUNTS if got[w][name] != want[w][name]]
if bad:
    sys.exit("virtual results moved:\n  " + "\n  ".join(bad))
print("virtual results identical to .github/virtual_goldens.json")
