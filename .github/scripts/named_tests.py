#!/usr/bin/env python3
"""Named tests exist: for every `go test ... -run '<regex>' <pkgs>` line in
ci.yml, each `|` alternative of the regex must match a `func Test...` in those
packages. go test passes silently when a -run name matches nothing, so a
renamed or deleted test would otherwise drop out of a step that names it.
Lines that also pass -bench are skipped: their -run deliberately matches no
test. Run from the repository root."""
import glob
import os
import re
import sys

CI = ".github/workflows/ci.yml"
RUN = re.compile(r"\bgo test\b.*?\s-run\s+'([^']*)'\s+(.*)$")
TEST = re.compile(r"^func (Test\w*)\(", re.M)


def tests_in(pkg):
    """Names of the test functions in a package argument (./dir or ./dir/...)."""
    root = pkg.rstrip("/")
    recursive = root.endswith("/...")
    if recursive:
        root = root[:-len("/...")]
    pattern = os.path.join(root, "**" if recursive else "", "*_test.go")
    names = set()
    for path in glob.glob(pattern, recursive=recursive):
        with open(path) as f:
            names.update(TEST.findall(f.read()))
    return names


missing = []
with open(CI) as f:
    for lineno, line in enumerate(f, 1):
        m = RUN.search(line)
        if not m or " -bench" in line:
            continue
        regex, rest = m.groups()
        pkgs = [arg for arg in rest.split() if arg.startswith("./")]
        names = set().union(*(tests_in(p) for p in pkgs)) if pkgs else set()
        for alt in regex.split("|"):
            top = alt.split("/")[0]
            if not any(re.search(top, name) for name in names):
                missing.append(f"{CI}:{lineno}: -run alternative {alt!r} matches no test in {' '.join(pkgs)}")
for msg in missing:
    print(msg)
if missing:
    sys.exit(f"{len(missing)} named test(s) missing")
print(f"named tests: every -run alternative in {CI} matches a test")
