#!/usr/bin/env python3
"""moche-lint: project-invariant checks no generic tool knows about.

The MOCHE codebase keeps a handful of correctness contracts that are
invisible to compilers and clang-tidy because they are *project* rules,
not language rules (docs/ARCHITECTURE.md, "Static analysis & enforced
contracts"):

  raw-thread       All concurrency goes through util/parallel. Raw
                   std::thread / std::async / fork() anywhere else would
                   bypass the deterministic ParallelFor contract (task i
                   writes slot i) that makes parallel output bit-identical
                   to sequential.
  float-format     Files that write machine-readable artifacts (BENCH_*.json,
                   the identity corpus, CSV exports) must format doubles
                   through FormatG17/AppendG17/FormatFixed
                   (util/string_util.h). printf-family "%g"/"%f" and
                   operator<< honor LC_NUMERIC, so a comma-decimal locale
                   silently corrupts artifacts that are diffed byte-for-byte.
  sort-doubles     std::sort/std::nth_element on a range containing NaN is
                   undefined behavior (strict-weak-ordering violation).
                   Every sort call site in src/ must either live in a file
                   audited for NaN screening (the allowlist) or carry an
                   inline allow comment stating why NaN cannot reach it.
  simd-include     SIMD intrinsic headers (*intrin.h, arm_neon.h,
                   arm_sve.h, arm_acle.h) are forbidden everywhere. The
                   inner loops are scalar; a vector path may return only
                   with an end-to-end number that beats its bound
                   (docs/ARCHITECTURE.md, "Inner loops").
  seeded-rng       Randomness must be reproducible from option-derived
                   seeds. rand()/srand()/std::random_device/time(NULL)
                   seeding makes experiments unrepeatable and breaks the
                   parallel==sequential identity checks.
  contract-header  Every header under src/ opens with the ownership /
                   thread-safety contract block established in PR 4, so the
                   concurrency story of a type is stated where the type is
                   declared.
  fuzz-target      Every fuzz/*_fuzz.cc must define the libFuzzer entry
                   point (LLVMFuzzerTestOneInput), be registered in
                   fuzz/CMakeLists.txt (moche_add_fuzz_target), and have a
                   non-empty seed corpus under fuzz/corpus/<target>/ — an
                   unregistered target never builds, and an empty corpus
                   turns its corpus-replay regression gate into a no-op.

Zero dependencies beyond the Python 3 standard library. Scans src/,
bench/, examples/, and fuzz/ by default (tests are exempt: they
intentionally violate contracts to test them).

Suppressions:
  * Inline, for one call site (same line or the line above), reason
    mandatory:
        std::sort(idx.begin(), idx.end());  // moche-lint: allow(sort-doubles): index vector, no doubles
  * File-level, in the config file (scripts/moche_lint.conf):
        allow sort-doubles src/util/stats.cc -- NaN screened before every sort
    The config also declares which files are artifact writers:
        artifact-writer src/harness/export.cc

Exit codes: 0 = clean, 1 = violations found, 2 = usage/config error.
"""

import argparse
import os
import re
import sys

RULES = (
    "raw-thread",
    "float-format",
    "sort-doubles",
    "simd-include",
    "seeded-rng",
    "contract-header",
    "fuzz-target",
)

# Files allowed to use raw threading primitives: the pool itself.
RAW_THREAD_ALLOWED = {
    "src/util/parallel.h",
    "src/util/parallel.cc",
}

SOURCE_EXTENSIONS = (".h", ".cc", ".cpp")
DEFAULT_SCAN_DIRS = ("src", "bench", "examples", "fuzz")

FUZZ_TARGET_RE = re.compile(r"^fuzz/([A-Za-z0-9_]+_fuzz)\.cc$")
FUZZ_ENTRY_RE = re.compile(r"\bint\s+LLVMFuzzerTestOneInput\s*\(")

RAW_THREAD_RE = re.compile(
    r"std::thread\b|std::jthread\b|std::async\b|pthread_create\b|\bfork\s*\(")
# printf-family floating-point conversions inside a string literal:
# %[flags][width][.precision][length]{f,F,e,E,g,G,a,A}
PRINTF_FLOAT_RE = re.compile(r"%[-+ #0']*[\d*]*(?:\.[\d*]+)?(?:l|L|h)?[fFeEgGaA]\b")
# `<<` stream insertion, but not `<<=` (integer shift-assign).
STREAM_INSERT_RE = re.compile(r"<<(?!=)")
TO_STRING_RE = re.compile(r"std::to_string\s*\(")
SETPRECISION_RE = re.compile(r"\bsetprecision\s*\(")
SORT_RE = re.compile(
    r"std::(?:stable_)?sort\s*\(|std::nth_element\s*\(|std::partial_sort\s*\(")
SIMD_INCLUDE_RE = re.compile(
    r'#\s*include\s*[<"](?:\w*intrin|arm_neon|arm_sve|arm_acle)\.h')
SEEDED_RNG_RE = re.compile(
    r"\bs?rand\s*\(\s*\)|\bsrand\s*\(|std::random_device\b|"
    r"\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)")
CONTRACT_THREAD_RE = re.compile(r"thread|concurren", re.IGNORECASE)
CONTRACT_OWNER_RE = re.compile(r"\bown(?:s|er|ers|ership)?\b", re.IGNORECASE)

ALLOW_RE = re.compile(
    r"moche-lint:\s*allow\(([a-z-]+)\)\s*(?::\s*(.*?))?\s*(?:\*/)?\s*$")


class Violation:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class Config:
    def __init__(self):
        self.file_allows = {}      # (rule, path) -> reason
        self.artifact_writers = set()

    @staticmethod
    def parse(path):
        config = Config()
        try:
            with open(path, encoding="utf-8") as f:
                lines = f.readlines()
        except OSError as e:
            raise ValueError(f"cannot read config {path}: {e}")
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            where = f"{path}:{lineno}"
            if parts[0] == "allow":
                if len(parts) < 3:
                    raise ValueError(f"{where}: allow needs <rule> <path>")
                rule, rel = parts[1], parts[2]
                if rule not in RULES:
                    raise ValueError(f"{where}: unknown rule '{rule}'")
                reason = ""
                if "--" in parts:
                    reason = " ".join(parts[parts.index("--") + 1:])
                if not reason:
                    raise ValueError(
                        f"{where}: allow needs a '-- reason' justification")
                config.file_allows[(rule, rel)] = reason
            elif parts[0] == "artifact-writer":
                if len(parts) != 2:
                    raise ValueError(f"{where}: artifact-writer needs <path>")
                config.artifact_writers.add(parts[1])
            else:
                raise ValueError(f"{where}: unknown directive '{parts[0]}'")
        return config


def strip_comments(text):
    """Replaces // and /* */ comment bodies with spaces, preserving string
    literals and line structure, so content rules don't fire on prose."""
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
            elif c == "'":
                state = "char"
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
                out.append(c)
                if nxt:
                    out.append(nxt)
                    i += 2
                    continue
            elif c == '"':
                state = "code"
            out.append(c)
        elif state == "char":
            if c == "\\":
                out.append(c)
                if nxt:
                    out.append(nxt)
                    i += 2
                    continue
            elif c == "'":
                state = "code"
            out.append(c)
        i += 1
    return "".join(out)


def collect_inline_allows(lines, violations, rel):
    """Maps line number -> set of rules suppressed on that line (an allow
    comment covers its own line and the next). A missing reason is itself a
    violation."""
    allows = {}
    for lineno, line in enumerate(lines, start=1):
        m = ALLOW_RE.search(line)
        if not m:
            if "moche-lint:" in line:
                violations.append(Violation(
                    rel, lineno, "bad-allow",
                    "malformed suppression; use "
                    "'moche-lint: allow(<rule>): <reason>'"))
            continue
        rule, reason = m.group(1), m.group(2)
        if rule not in RULES:
            violations.append(Violation(
                rel, lineno, "bad-allow", f"unknown rule '{rule}'"))
            continue
        if not reason or not reason.strip():
            violations.append(Violation(
                rel, lineno, "bad-allow",
                f"allow({rule}) needs a reason: "
                "'moche-lint: allow(%s): <why>'" % rule))
            continue
        allows.setdefault(lineno, set()).add(rule)
        allows.setdefault(lineno + 1, set()).add(rule)
    return allows


def leading_comment_block(lines):
    """The file's opening comment block: consecutive '//' (or empty) lines
    before the first line of code."""
    block = []
    for line in lines:
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("//"):
            block.append(stripped)
        else:
            break
    return "\n".join(block)


def check_file(root, rel, config, violations):
    path = os.path.join(root, rel)
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        violations.append(Violation(rel, 0, "io", f"cannot read: {e}"))
        return
    raw_lines = text.splitlines()
    allows = collect_inline_allows(raw_lines, violations, rel)
    code_lines = strip_comments(text).splitlines()

    def allowed(rule, lineno):
        if rule in allows.get(lineno, ()):
            return True
        return (rule, rel) in config.file_allows

    def flag(rule, lineno, message):
        if not allowed(rule, lineno):
            violations.append(Violation(rel, lineno, rule, message))

    in_src = rel.startswith("src/")
    is_artifact_writer = rel in config.artifact_writers

    for lineno, line in enumerate(code_lines, start=1):
        if rel not in RAW_THREAD_ALLOWED and RAW_THREAD_RE.search(line):
            flag("raw-thread", lineno,
                 "raw threading primitive; route concurrency through "
                 "util/parallel (ThreadPool / ParallelFor)")
        if SIMD_INCLUDE_RE.search(line):
            flag("simd-include", lineno,
                 "SIMD intrinsic header; the inner loops are scalar "
                 "(docs/ARCHITECTURE.md, \"Inner loops\")")
        if SEEDED_RNG_RE.search(line):
            flag("seeded-rng", lineno,
                 "non-reproducible randomness source; derive seeds from "
                 "options and use moche::Rng")
        if in_src and SORT_RE.search(line):
            flag("sort-doubles", lineno,
                 "sort call site not audited for NaN screening (UB on a "
                 "NaN range); allowlist the file after auditing, or "
                 "explain inline why NaN cannot reach it")
        if is_artifact_writer:
            if PRINTF_FLOAT_RE.search(line):
                flag("float-format", lineno,
                     "printf-family float conversion in an artifact "
                     "writer is locale-dependent; use FormatG17 / "
                     "FormatFixed (util/string_util.h)")
            if TO_STRING_RE.search(line):
                flag("float-format", lineno,
                     "std::to_string is locale-dependent; use FormatG17 / "
                     "FormatFixed (util/string_util.h)")
            if (STREAM_INSERT_RE.search(line)
                    and not line.lstrip().startswith("#")):
                flag("float-format", lineno,
                     "stream insertion in an artifact writer (operator<< "
                     "honors the imbued locale); build the text with "
                     "FormatG17 / FormatFixed and string appends")
            if SETPRECISION_RE.search(line):
                flag("float-format", lineno,
                     "iostream precision manipulation in an artifact "
                     "writer; use FormatG17 / FormatFixed")

    if in_src and rel.endswith(".h"):
        block = leading_comment_block(raw_lines)
        if not (CONTRACT_THREAD_RE.search(block)
                and CONTRACT_OWNER_RE.search(block)):
            flag("contract-header", 1,
                 "missing ownership/thread-safety contract block: the "
                 "leading comment must state who owns the state and how "
                 "(or whether) it may be shared across threads")

    fuzz_match = FUZZ_TARGET_RE.match(rel)
    if fuzz_match:
        stem = fuzz_match.group(1)
        if not FUZZ_ENTRY_RE.search(strip_comments(text)):
            flag("fuzz-target", 1,
                 "fuzz target does not define LLVMFuzzerTestOneInput; "
                 "every fuzz/*_fuzz.cc must be a libFuzzer entry point "
                 "(include fuzz_target.h)")
        cmake_path = os.path.join(root, "fuzz", "CMakeLists.txt")
        try:
            with open(cmake_path, encoding="utf-8") as f:
                cmake_text = f.read()
        except OSError:
            cmake_text = ""
        if not re.search(r"moche_add_fuzz_target\(\s*%s\b" % re.escape(stem),
                         cmake_text):
            flag("fuzz-target", 1,
                 "fuzz target is not registered in fuzz/CMakeLists.txt "
                 "(moche_add_fuzz_target(%s ...)); an unregistered target "
                 "never builds or replays" % stem)
        corpus_dir = os.path.join(root, "fuzz", "corpus", stem)
        seeds = []
        if os.path.isdir(corpus_dir):
            seeds = [name for name in os.listdir(corpus_dir)
                     if os.path.isfile(os.path.join(corpus_dir, name))]
        if not seeds:
            flag("fuzz-target", 1,
                 "fuzz target has no seed corpus (fuzz/corpus/%s/ is "
                 "missing or empty); the corpus-replay regression gate "
                 "would test nothing" % stem)


def gather_files(root, paths):
    files = []
    if paths:
        for p in paths:
            rel = os.path.relpath(os.path.abspath(p), root)
            files.append(rel.replace(os.sep, "/"))
        return files
    for d in DEFAULT_SCAN_DIRS:
        base = os.path.join(root, d)
        if not os.path.isdir(base):
            continue
        for dirpath, _, names in os.walk(base):
            for name in sorted(names):
                if name.endswith(SOURCE_EXTENSIONS):
                    rel = os.path.relpath(os.path.join(dirpath, name), root)
                    files.append(rel.replace(os.sep, "/"))
    return sorted(files)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="moche_lint.py",
        description="MOCHE project-invariant linter (see docs/ARCHITECTURE.md)")
    parser.add_argument("--root", default=None,
                        help="repository root (default: the script's parent)")
    parser.add_argument("--config", default=None,
                        help="config file (default: <root>/scripts/"
                             "moche_lint.conf)")
    parser.add_argument("paths", nargs="*",
                        help="files to check (default: src/ bench/ examples/)")
    args = parser.parse_args(argv)

    root = os.path.abspath(
        args.root
        or os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
    config_path = args.config or os.path.join(root, "scripts",
                                              "moche_lint.conf")
    try:
        config = Config.parse(config_path)
    except ValueError as e:
        print(f"moche-lint: config error: {e}", file=sys.stderr)
        return 2

    files = gather_files(root, args.paths)
    if not files:
        print("moche-lint: no files to check", file=sys.stderr)
        return 2

    violations = []
    for rel in files:
        check_file(root, rel, config, violations)

    for v in violations:
        print(v)
    if violations:
        print(f"moche-lint: {len(violations)} violation(s) in "
              f"{len({v.path for v in violations})} file(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
