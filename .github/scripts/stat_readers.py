#!/usr/bin/env python3
"""Every counter has a reader. A stat field that code only declares and
increments costs a store on its path and a line to maintain, and tells no one
anything. The check covers the exported fields of pblk.Stats, pblk.LaneStat,
ocssd.Stats, nand.Stats and volume.Stats, and the exported integer counters of
lsmdb.DB and volume.Member. It fails, naming the field, when the field's only
mentions in Go files (tests and bench/ included) are its declaration and its
writes: `++`, `--`, `+=`, `-=`, the left side of a plain (or tuple)
assignment, or a composite-literal key. Comments and string literals are not
mentions. Names are matched as words, not by type, so a field shares its
readers with every same-named field. Run from the repository root."""
import os
import re
import sys

# (package directory, struct type, integer counters only)
STRUCTS = [
    ("internal/pblk", "Stats", False),
    ("internal/pblk", "LaneStat", False),
    ("internal/ocssd", "Stats", False),
    ("internal/nand", "Stats", False),
    ("internal/volume", "Stats", False),
    ("internal/lsmdb", "DB", True),
    ("internal/volume", "Member", True),
]
COUNTER_TYPES = {"int", "int32", "int64", "uint32", "uint64", "time.Duration"}

FIELD = re.compile(r"^\s*([A-Z]\w*(?:\s*,\s*[A-Z]\w*)*)\s+([\w.*\[\]]+)")
BUMP = re.compile(r"\s*(\+\+|--|\+=|-=)")
ASSIGN = re.compile(r"(?<![=!<>:+\-*/%&|^])=(?!=)")
LHS = re.compile(r"^\s*[\w.]+(\s*,\s*[\w.]+)*\s*$")
KEY = re.compile(r"\s*:(?!=)")


def go_files():
    for dirpath, dirnames, filenames in os.walk("."):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go"):
                yield os.path.normpath(os.path.join(dirpath, name))


def strip(src):
    """src with comments and string and rune literals blanked, newlines kept,
    so line and column numbers still hold."""
    out, i, n = [], 0, len(src)
    while i < n:
        c = src[i]
        if src.startswith("//", i):
            j = src.find("\n", i)
            j = n if j < 0 else j
        elif src.startswith("/*", i):
            j = src.find("*/", i + 2)
            j = n if j < 0 else j + 2
        elif c in "\"'`":
            j = i + 1
            while j < n and src[j] != c:
                if c != "`" and src[j] == "\\":
                    j += 1
                j += 1
            j += 1
        else:
            out.append(c)
            i += 1
            continue
        out.append("".join(ch if ch == "\n" else " " for ch in src[i:j]))
        i = j
    return "".join(out)


def struct_fields(pkgdir, typ, counters_only):
    """{field: (path, first line, last line)} of the struct's declaration."""
    start = re.compile(rf"^type\s+{typ}\s+struct\s*{{")
    for name in sorted(os.listdir(pkgdir)):
        if not name.endswith(".go") or name.endswith("_test.go"):
            continue
        path = os.path.join(pkgdir, name)
        with open(path) as f:
            lines = strip(f.read()).split("\n")
        for i, line in enumerate(lines):
            if not start.match(line):
                continue
            end = next(j for j in range(i + 1, len(lines)) if lines[j].startswith("}"))
            fields = {}
            for line in lines[i + 1:end]:
                m = FIELD.match(line)
                if m and (not counters_only or m.group(2) in COUNTER_TYPES):
                    for f in m.group(1).split(","):
                        fields[f.strip()] = (path, i + 1, end + 1)
            return fields
    sys.exit(f"stat readers: no struct {typ} in {pkgdir}")


def is_write(line, start, end):
    """Whether the mention line[start:end] is written, not read."""
    rest = line[end:]
    if BUMP.match(rest):
        return True
    before = line[:start].rstrip()
    if KEY.match(rest) and (before == "" or before[-1] in "{,"):
        return True  # composite-literal key
    m = ASSIGN.search(line, end)
    return bool(m) and LHS.match(line[:m.start()]) is not None


fields = {}  # field -> list of "pkg.Type" it belongs to, with its declaration
for pkgdir, typ, counters_only in STRUCTS:
    owner = f"{os.path.basename(pkgdir)}.{typ}"
    for f, decl in struct_fields(pkgdir, typ, counters_only).items():
        fields.setdefault(f, []).append((owner, decl))

word = re.compile(r"\b(" + "|".join(sorted(fields)) + r")\b")
read = set()
for path in go_files():
    with open(path) as f:
        lines = strip(f.read()).split("\n")
    for lineno, line in enumerate(lines, 1):
        for m in word.finditer(line):
            name = m.group(1)
            if name in read:
                continue
            if any(p == path and lo <= lineno <= hi for _, (p, lo, hi) in fields[name]):
                continue  # the declaration
            if not is_write(line, m.start(), m.end()):
                read.add(name)

unread = []
for name in sorted(set(fields) - read):
    for owner, (path, lo, _) in fields[name]:
        unread.append(f"{path}:{lo}: {owner}.{name} is declared and written but never read; delete it")
for msg in unread:
    print(msg)
if unread:
    sys.exit(f"{len(unread)} unread stat field(s)")
print(f"stat readers: {len(fields)} fields, each read somewhere")
