#!/usr/bin/env python3
"""Bench-only identifiers stay bench-only. An exported Go identifier whose doc
comment starts with `Bench-only:` survives only because the benchmark module
(bench/, which changes in PRs of its own) still names it. The check fails when
bench/ no longer names one (delete it then), or when a non-test Go file outside
bench/ names one on any line but a Bench-only declaration (nothing else may
come to depend on it). Comments are not uses. Run from the repository root."""
import os
import re
import sys

MARK = "// Bench-only:"
DECL = re.compile(r"^\s*(?:func\s+(?:\([^)]*\)\s*)?|type\s+|var\s+|const\s+)?([A-Z]\w*)\b")


def go_files(root, tests):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith(".") and
                             not (dirpath == "." and d == "bench"))
        for name in sorted(filenames):
            if name.endswith(".go") and (tests or not name.endswith("_test.go")):
                yield os.path.normpath(os.path.join(dirpath, name))


def code_lines(path):
    """(line number, line with any // comment cut off, raw line)."""
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            yield lineno, raw.split("//", 1)[0], raw


errors = []
defs = {}      # identifier -> "path:line" of its Bench-only declaration
decls = set()  # (path, line) of every Bench-only declaration
for path in go_files(".", tests=False):
    doc_first = None
    for lineno, code, raw in code_lines(path):
        text = raw.strip()
        if text.startswith("//"):
            doc_first = doc_first or text
            continue
        if doc_first and doc_first.startswith(MARK):
            m = DECL.match(raw)
            if m:
                defs[m.group(1)] = f"{path}:{lineno}"
                decls.add((path, lineno))
            else:
                errors.append(f"{path}:{lineno}: {MARK} comment on no exported declaration")
        doc_first = None

if not defs:
    errors.append(f"no {MARK} identifiers found")
words = {name: re.compile(rf"\b{name}\b") for name in defs}

in_bench = set()
for path in go_files("bench", tests=True):
    for _, code, _ in code_lines(path):
        in_bench.update(name for name, w in words.items() if w.search(code))
for name in sorted(set(defs) - in_bench):
    errors.append(f"{defs[name]}: bench/ no longer names {name}; delete it")

for path in go_files(".", tests=False):
    for lineno, code, _ in code_lines(path):
        if (path, lineno) in decls:
            continue
        for name, w in words.items():
            if w.search(code):
                errors.append(f"{path}:{lineno}: names bench-only {name} (declared at {defs[name]})")

for msg in errors:
    print(msg)
if errors:
    sys.exit(f"{len(errors)} bench-only violation(s)")
print(f"bench-only: {', '.join(sorted(defs))} named by bench/ and declared only")
