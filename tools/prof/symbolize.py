#!/usr/bin/env python3
"""Turns pc_sampler output into a flat profile of self time per function.

  python3 tools/prof/symbolize.py PREFIX [--top N]

PREFIX is "<PC_SAMPLER_OUT>.<pid>": the script reads PREFIX.pcs (one sampled
program counter per line, hex) and PREFIX.maps (the sampled process's
/proc/self/maps).  Each PC is located in its executable mapping, turned
into an address in the object's own ELF address space through the
object's PT_LOAD program headers (`readelf -lW`), and named by the nearest
preceding function symbol from `nm -C`.  Objects without a static symbol
table (stripped shared libraries such as libc) fall back to their dynamic
symbols (`nm -D -C`), so time inside, say, memmove or malloc still gets a
name.  PCs in no readable object are reported as "[unknown]".

Prints one row per function, most samples first: samples, share of all
samples, function, object.
"""

import argparse
import bisect
import collections
import os
import subprocess
import sys

TEXT_TYPES = set("tTwWi")


def read_maps(path):
    """Executable mappings as (start, end, file_offset, object_path)."""
    maps = []
    with open(path) as f:
        for line in f:
            parts = line.split(maxsplit=5)
            if len(parts) < 6 or "x" not in parts[1]:
                continue
            start, end = (int(x, 16) for x in parts[0].split("-"))
            maps.append((start, end, int(parts[2], 16), parts[5].strip()))
    maps.sort()
    return maps


def run(cmd):
    proc = subprocess.run(cmd, capture_output=True, text=True)
    return proc.stdout if proc.returncode == 0 else ""


def load_segments(obj):
    """PT_LOAD segments of an ELF file as (file_offset, vaddr, file_size)."""
    segments = []
    for line in run(["readelf", "-lW", obj]).splitlines():
        fields = line.split()
        if fields and fields[0] == "LOAD":
            segments.append((int(fields[1], 16), int(fields[2], 16),
                             int(fields[4], 16)))
    return segments


def load_symbols(obj):
    """Sorted function symbols of an ELF file as ([addresses], [names])."""
    symbols = []
    for dynamic in (False, True):
        cmd = ["nm", "-C", "--defined-only"] + (["-D"] if dynamic else [])
        for line in run(cmd + [obj]).splitlines():
            fields = line.split(maxsplit=2)
            if len(fields) == 3 and fields[1] in TEXT_TYPES:
                symbols.append((int(fields[0], 16), fields[2]))
        if symbols:
            break
    symbols.sort()
    return [a for a, _ in symbols], [n for _, n in symbols]


class Object:
    def __init__(self, path):
        self.path = path
        readable = os.path.isfile(path)
        self.segments = load_segments(path) if readable else []
        self.addrs, self.names = load_symbols(path) if readable else ([], [])

    def name(self, file_offset):
        vaddr = None
        for off, seg_vaddr, size in self.segments:
            if off <= file_offset < off + size:
                vaddr = seg_vaddr + (file_offset - off)
                break
        if vaddr is None:
            return "[unknown]"
        i = bisect.bisect_right(self.addrs, vaddr) - 1
        return self.names[i] if i >= 0 else "[unknown]"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("prefix", help="<PC_SAMPLER_OUT>.<pid>")
    parser.add_argument("--top", type=int, default=40,
                        help="rows to print (default 40, 0 for all)")
    args = parser.parse_args()

    maps = read_maps(args.prefix + ".maps")
    starts = [m[0] for m in maps]
    objects = {}
    counts = collections.Counter()
    total = 0
    with open(args.prefix + ".pcs") as f:
        for line in f:
            if not line.strip():
                continue
            pc = int(line, 16)
            total += 1
            i = bisect.bisect_right(starts, pc) - 1
            if i < 0 or pc >= maps[i][1]:
                counts[("[unknown]", "[unmapped]")] += 1
                continue
            start, _, offset, path = maps[i]
            if path not in objects:
                objects[path] = Object(path)
            counts[(objects[path].name(pc - start + offset), path)] += 1

    if total == 0:
        sys.exit(f"no samples in {args.prefix}.pcs")
    print(f"{total} samples")
    rows = counts.most_common(args.top or None)
    for (function, path), n in rows:
        print(f"{n:8d} {100.0 * n / total:6.2f}%  "
              f"{function}  [{os.path.basename(path)}]")


if __name__ == "__main__":
    main()
