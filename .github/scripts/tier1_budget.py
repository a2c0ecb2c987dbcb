#!/usr/bin/env python3
"""Tier-1 budget: run every package's test binary on its own and print its
wall time and peak resident set (VmHWM, from the child's rusage). Exits
non-zero when a package fails, peaks over 4 GB or runs over 3 minutes, so the
simulator's memory cannot creep back up behind a green `go test ./...`. Ends
with the Go line counts outside bench/, test and non-test: the falling line
count ROADMAP's north star tracks, in every CI log. Each package directory's
own counts follow, sorted, so a change's line delta per package reads off two
logs."""
import os
import subprocess
import sys
import tempfile
import time

MAX_RSS_MB = 4096
MAX_WALL_S = 180

pkgs = subprocess.run(
    ["go", "list", "-f", "{{if or .TestGoFiles .XTestGoFiles}}{{.ImportPath}} {{.Dir}}{{end}}", "./..."],
    check=True, capture_output=True, text=True).stdout.splitlines()
bad = []
print(f"{'package':36} {'wall s':>8} {'VmHWM MB':>9}")
with tempfile.TemporaryDirectory() as tmp:
    binary = os.path.join(tmp, "pkg.test")
    for pkg, pkgdir in (line.split() for line in pkgs if line):
        subprocess.run(["go", "test", "-c", "-o", binary, pkg], check=True)
        t0 = time.monotonic()
        child = subprocess.Popen([binary, f"-test.timeout={MAX_WALL_S + 30}s"],
                                 cwd=pkgdir, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        wall, rss = time.monotonic() - t0, usage.ru_maxrss / 1024
        why = [text for text, hit in (("failed", child.returncode != 0),
                                      (f"over {MAX_RSS_MB} MB", rss > MAX_RSS_MB),
                                      (f"over {MAX_WALL_S} s", wall > MAX_WALL_S)) if hit]
        print(f"{pkg:36} {wall:8.1f} {rss:9.0f}  {', '.join(why)}", flush=True)
        if why:
            bad.append(pkg)
pkglines = {}
for root, dirs, files in os.walk("."):
    dirs[:] = [d for d in dirs if not d.startswith(".") and (root, d) != (".", "bench")]
    for name in files:
        if name.endswith(".go"):
            with open(os.path.join(root, name), "rb") as f:
                n, test = f.read().count(b"\n"), name.endswith("_test.go")
            pkglines.setdefault(os.path.normpath(root), [0, 0])[test] += n
total = [sum(c[i] for c in pkglines.values()) for i in (0, 1)]
print(f"Go lines outside bench/: {total[0]} non-test, {total[1]} test")
for pkg, (nontest, test) in sorted(pkglines.items()):
    print(f"  {pkg}: {nontest} non-test, {test} test")
if bad:
    sys.exit("tier-1 budget missed by: " + ", ".join(bad))
