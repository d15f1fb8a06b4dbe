#!/usr/bin/env python3
"""Determinism linter for the liquid_serve source tree.

The simulator's headline contract is bit-exact determinism under a fixed
seed — the telemetry and chaos goldens and the bench baselines all assume
it.  This linter statically rejects the constructs that break that contract
before they reach a flaky golden:

  wall-clock          Wall-clock reads (std::chrono::steady_clock /
                      system_clock / high_resolution_clock, clock_gettime,
                      gettimeofday) anywhere except util/wall_timer.hpp (the
                      sanctioned wrapper) and obs/prof/ (the wall profiler —
                      wall time is its entire point, and its exporters gate
                      every wall-derived column behind include_times).
  adhoc-rng           std::rand / srand / std::random_device / std:: engine
                      types (mt19937 etc.) outside util/rng.hpp — all
                      simulation randomness must flow through the seeded
                      xoshiro Rng so runs replay.
  unordered-iteration Range-for or .begin()/.cbegin()/.rbegin() over a
                      variable declared std::unordered_map/unordered_set in
                      the same file.  Iteration order is
                      implementation-defined; anything it feeds (stats,
                      traces, JSON, routing decisions) becomes
                      run-to-run unstable.  Convert to an ordered container,
                      sort the keys first, or suppress with a reason if the
                      order provably cannot escape (e.g. erase-only sweeps).
  pointer-keyed-order std::map/std::set keyed on a pointer type: ordered by
                      address, and addresses differ run to run (ASLR, heap
                      layout), so the "ordered" container is still
                      nondeterministic.
  build-timestamp     __DATE__ / __TIME__ / __TIMESTAMP__ — bakes the build
                      instant into the binary.

Suppression: append `// NOLINT-DETERMINISM(reason)` to the offending line,
or put it alone on the immediately preceding line.  The reason is mandatory;
a bare NOLINT-DETERMINISM (or empty parens) is itself reported as a
`bad-suppression` finding and cannot be suppressed.

Exit status: 0 when every finding is suppressed (or there are none),
1 when unsuppressed findings remain, 2 on usage errors.

Machine-readable output: `--json -` (stdout) or `--json FILE` emits
{"version": 1, "findings": [...], "summary": {...}}; each finding carries
file, line, rule, message, suppressed, and the suppression reason.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

CXX_EXTENSIONS = (".hpp", ".h", ".cpp", ".cc", ".cxx", ".inl")

# Paths (matched against the /-normalized relative path) where a rule is the
# sanctioned implementation rather than a violation.
RULE_ALLOWED_PATHS = {
    "wall-clock": ("util/wall_timer.hpp", "obs/prof/"),
    "adhoc-rng": ("util/rng.hpp",),
}

WALL_CLOCK_RE = re.compile(
    r"\b(?:steady_clock|system_clock|high_resolution_clock"
    r"|clock_gettime|gettimeofday|QueryPerformanceCounter)\b"
)
ADHOC_RNG_RE = re.compile(
    r"(?:\bstd::rand\b|\bsrand\s*\(|\brandom_device\b"
    r"|\bmt19937(?:_64)?\b|\bminstd_rand0?\b|\branlux(?:24|48)\b"
    r"|\bdefault_random_engine\b)"
)
POINTER_KEY_RE = re.compile(r"\bstd::(?:map|set|multimap|multiset)\s*<[^,<>]*\*")
TIMESTAMP_RE = re.compile(r"__(?:DATE|TIME|TIMESTAMP)__")
UNORDERED_DECL_RE = re.compile(r"\b(?:std\s*::\s*)?unordered_(?:map|set|multimap|multiset)\s*<")
IDENT_RE = re.compile(r"[A-Za-z_]\w*")

SUPPRESS_RE = re.compile(r"NOLINT-DETERMINISM\s*(\(([^)]*)\))?")


class Finding:
    __slots__ = ("file", "line", "rule", "message", "suppressed", "reason")

    def __init__(self, file, line, rule, message, suppressed=False, reason=None):
        self.file = file
        self.line = line
        self.rule = rule
        self.message = message
        self.suppressed = suppressed
        self.reason = reason

    def as_dict(self):
        return {
            "file": self.file,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
            "suppressed": self.suppressed,
            "reason": self.reason,
        }


def strip_comments_and_strings(text):
    """Blanks out comments, string literals and char literals while
    preserving line structure, so rule regexes never match prose or quoted
    text.  Returns the stripped text."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state == "string":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "code"
            out.append(c if c in ('"', "\n") else " ")
            if c == '"':
                out[-1] = " "
        elif state == "char":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == "'":
                state = "code"
            out.append(c if c == "\n" else " ")
        i += 1
    return "".join(out)


def collect_suppressions(raw_lines, findings, rel):
    """Maps 1-based line number -> reason for every well-formed
    NOLINT-DETERMINISM(reason).  A marker suppresses findings on its own
    line; a marker on an otherwise comment-only line also covers the next
    line.  Malformed markers (no parens / empty reason) become
    bad-suppression findings."""
    reasons = {}
    for idx, line in enumerate(raw_lines, start=1):
        m = SUPPRESS_RE.search(line)
        if not m:
            continue
        reason = (m.group(2) or "").strip() if m.group(1) else None
        if not reason:
            findings.append(
                Finding(
                    rel,
                    idx,
                    "bad-suppression",
                    "NOLINT-DETERMINISM requires a parenthesized reason: "
                    "NOLINT-DETERMINISM(<why this is deterministic-safe>)",
                )
            )
            continue
        reasons[idx] = reason
        before = line[: m.start()].strip()
        if before in ("", "//", "/*", "*", "*/") or before.endswith("//"):
            # Marker-only line: it covers the next source line.
            reasons.setdefault(idx + 1, reason)
    return reasons


def matching_angle_close(text, open_idx):
    """Index just past the '>' matching the '<' at open_idx, or -1."""
    depth = 0
    i = open_idx
    n = len(text)
    while i < n:
        c = text[i]
        if c == "<":
            depth += 1
        elif c == ">":
            # Ignore '->' and '>>' handled naturally: '>>' closes two levels,
            # which is exactly what nested templates need; '->' never appears
            # inside a template argument list at depth > 0 in declarations.
            if i > 0 and text[i - 1] == "-":
                i += 1
                continue
            depth -= 1
            if depth == 0:
                return i + 1
        elif c == ";":
            return -1  # malformed / macro soup: bail out
        i += 1
    return -1


def unordered_decl_names(stripped):
    """Finds identifiers declared with an unordered container type anywhere
    in the (comment-stripped) file text.  Intentionally file-local and
    syntactic: cross-file aliasing is out of scope for a lint pass."""
    names = set()
    for m in UNORDERED_DECL_RE.finditer(stripped):
        open_idx = stripped.index("<", m.start())
        close = matching_angle_close(stripped, open_idx)
        if close < 0:
            continue
        # Skip declarator decorations between the template-id and the name.
        rest = stripped[close : close + 400]
        rest = re.sub(r"^(?:\s|[&*]|const\b|noexcept\b)+", "", rest)
        ident = IDENT_RE.match(rest)
        if ident:
            names.add(ident.group(0))
    return names


def line_of(stripped, offset):
    return stripped.count("\n", 0, offset) + 1


def companion_header_names(path):
    """Unordered-container member names declared in the same-stem header next
    to a .cpp file, so out-of-line method bodies (e.g. Router::ForgetReplica
    iterating a member declared in router.hpp) are still caught."""
    stem, ext = os.path.splitext(path)
    if ext not in (".cpp", ".cc", ".cxx"):
        return set()
    for header_ext in (".hpp", ".h"):
        header = stem + header_ext
        if os.path.isfile(header):
            try:
                with open(header, encoding="utf-8", errors="replace") as f:
                    return unordered_decl_names(strip_comments_and_strings(f.read()))
            except OSError:
                return set()
    return set()


def scan_file(path, rel, findings):
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            raw = f.read()
    except OSError as err:
        print(f"determinism-lint: cannot read {path}: {err}", file=sys.stderr)
        return
    raw_lines = raw.splitlines()
    reasons = collect_suppressions(raw_lines, findings, rel)
    stripped = strip_comments_and_strings(raw)
    stripped_lines = stripped.splitlines()

    def report(lineno, rule, message):
        allowed = RULE_ALLOWED_PATHS.get(rule, ())
        for prefix in allowed:
            if rel.endswith(prefix) or (prefix.endswith("/") and f"/{prefix}" in f"/{rel}"):
                return
        reason = reasons.get(lineno)
        findings.append(Finding(rel, lineno, rule, message, reason is not None, reason))

    simple_rules = (
        ("wall-clock", WALL_CLOCK_RE,
         "wall-clock read outside util/wall_timer.hpp / obs/prof — simulated "
         "time must come from the scheduler clock, host time from WallTimer"),
        ("adhoc-rng", ADHOC_RNG_RE,
         "ad-hoc RNG outside util/rng.hpp — use the seeded util::Rng so runs "
         "replay bit-for-bit"),
        ("pointer-keyed-order", POINTER_KEY_RE,
         "std::map/std::set keyed on a pointer orders by address, which "
         "differs run to run — key on a stable id instead"),
        ("build-timestamp", TIMESTAMP_RE,
         "__DATE__/__TIME__/__TIMESTAMP__ bake the build instant into the "
         "binary"),
    )
    for lineno, line in enumerate(stripped_lines, start=1):
        for rule, regex, message in simple_rules:
            if regex.search(line):
                report(lineno, rule, message)

    names = unordered_decl_names(stripped) | companion_header_names(path)
    if names:
        name_alt = "|".join(sorted(re.escape(n) for n in names))
        range_for_re = re.compile(
            r"\bfor\s*\([^;()]*:\s*[^)]*\b(?:" + name_alt + r")\b")
        begin_re = re.compile(
            r"\b(?:" + name_alt + r")\s*\.\s*(?:c?r?begin)\s*\(")
        for lineno, line in enumerate(stripped_lines, start=1):
            if range_for_re.search(line) or begin_re.search(line):
                report(
                    lineno,
                    "unordered-iteration",
                    "iteration over an unordered container — order is "
                    "implementation-defined and breaks run-to-run "
                    "determinism if it escapes; use an ordered container, "
                    "sort first, or suppress with a reason",
                )


def gather_files(paths):
    files = []
    for p in paths:
        if os.path.isfile(p):
            files.append(p)
        elif os.path.isdir(p):
            for root, dirs, names in os.walk(p):
                dirs.sort()
                for name in sorted(names):
                    if name.endswith(CXX_EXTENSIONS):
                        files.append(os.path.join(root, name))
        else:
            print(f"determinism-lint: no such path: {p}", file=sys.stderr)
            sys.exit(2)
    return files


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="determinism_lint.py",
        description="Static determinism lint for liquid_serve C++ sources.",
    )
    parser.add_argument("paths", nargs="+", help="files or directories to scan")
    parser.add_argument(
        "--json",
        metavar="FILE",
        help="write machine-readable findings to FILE ('-' = stdout)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the human-readable findings listing",
    )
    args = parser.parse_args(argv)

    findings = []
    for path in gather_files(args.paths):
        rel = os.path.relpath(path).replace(os.sep, "/")
        scan_file(path, rel, findings)
    findings.sort(key=lambda f: (f.file, f.line, f.rule))

    unsuppressed = [f for f in findings if not f.suppressed]
    if not args.quiet:
        for f in findings:
            tag = f" [suppressed: {f.reason}]" if f.suppressed else ""
            print(f"{f.file}:{f.line}: [{f.rule}] {f.message}{tag}")
        print(
            f"determinism-lint: {len(findings)} finding(s), "
            f"{len(unsuppressed)} unsuppressed"
        )

    if args.json:
        payload = json.dumps(
            {
                "version": 1,
                "findings": [f.as_dict() for f in findings],
                "summary": {
                    "total": len(findings),
                    "unsuppressed": len(unsuppressed),
                    "suppressed": len(findings) - len(unsuppressed),
                },
            },
            indent=2,
        )
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w", encoding="utf-8") as f:
                f.write(payload + "\n")

    return 1 if unsuppressed else 0


if __name__ == "__main__":
    sys.exit(main())
