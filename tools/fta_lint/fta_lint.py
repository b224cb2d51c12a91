#!/usr/bin/env python3
"""fta_lint: determinism + concurrency lint for the FTA codebase.

The reproduction's headline claim is that assignments and catalogs are
bit-identical at any thread count. This lint statically rejects the
hazard patterns that have historically threatened that claim. Each rule
is a Rule subclass registered in RULES; per-rule fixtures live under
tools/fta_lint/testdata/ and pin every diagnostic exactly.

  banned-token
      Nondeterminism/timing sources that must never appear in src/:
      libc rand(), std::random_device, wall-clock seeding via
      time(nullptr)/time(NULL)/time(0), and std::this_thread::sleep
      (scheduling-dependent timing baked into library code).

  unordered-iteration
      A range-for over a std::unordered_map/std::unordered_set (or an
      alias / struct field of such a type) whose body appends into another
      container. Bucket order is implementation- and seed-defined, so the
      fed container inherits nondeterministic order unless it is sorted
      afterwards. The lint accepts the pattern when a sort(...) call
      follows within SORT_LOOKAHEAD lines of the loop's closing brace
      (the "enumerate then normalize" idiom), otherwise it reports.

  parallel-float-reduce
      A `+=` / `-=` on a float-typed lvalue inside a lambda passed to
      ThreadPool::RunBatch / RunChunked / ParallelFor. Floating-point
      addition is not associative, so scheduling order would leak into
      the sum. Integer accumulators are exempt (associative +
      commutative); the approved merge helpers (the best_response
      deterministic reduce and the obs snapshot merge) are allowlisted
      by file.

  sorted-metric-rebuild
      A call to the copy-and-sort metric wrappers
      MeanAbsolutePairwiseDifference(...) / Gini(...) from src/game/,
      where the engine's payoff ledger (game/payoff_ledger.h) already
      maintains the sorted payoffs those wrappers would re-sort. Game
      code should read PayoffLedger::PayoffDifference()/Gini() or pass
      an existing sorted view to a *Sorted overload (DESIGN.md §9).
      Declarations (`double Gini() const;`) and qualified definitions
      (`PayoffLedger::Gini`) are not calls and are skipped; code outside
      src/game/ has no ledger in scope and is out of this rule's reach.

  wall-clock-read
      A direct clock read (std::chrono::*_clock::now, clock_gettime,
      gettimeofday, localtime/gmtime) inside src/obs/ or src/stream/
      outside the sanctioned trace clock (src/obs/trace.cc). Those layers
      are replay-deterministic by contract: rolling-window epochs advance
      on caller-driven ticks and durations arrive as values the caller
      measured (util/stopwatch.h), so a replayed run reproduces window
      contents and snapshots bit-identically. A clock read buried in
      either layer would silently break that. Code elsewhere (util,
      bench, examples) is out of this rule's scope.

  raw-simd-intrinsics
      A raw vector intrinsic (`_mm256_*` and friends) or an intrinsic
      header include (`<immintrin.h>`) outside the sanctioned kernel TUs
      (src/util/simd_avx2.cc, src/game/iau_kernels_avx2.cc). Only those
      TUs are compiled with -mavx2 and -ffp-contract=off; an intrinsic
      anywhere else either fails to compile in the portable default build
      or — worse — compiles into a TU whose contraction settings break the
      scalar/AVX2 bit-identity contract (DESIGN.md §11). Route new vector
      code through util/simd.h / game/iau_kernels.h dispatch instead.

  raw-mutex
      A raw standard-library locking primitive (std::mutex and variants,
      std::lock_guard/unique_lock/scoped_lock/shared_lock,
      std::condition_variable) or the matching header include outside
      src/util/mutex.h. Every lock in src/ must be an fta::Mutex /
      fta::MutexLock / fta::CondVar so Clang's -Wthread-safety analysis
      sees the acquisition and checks it against FTA_GUARDED_BY fields
      at compile time (DESIGN.md §13). A raw std::mutex is invisible to
      that analysis — the whole point of the wall is that there are
      exactly zero such sites.

  hot-path-allocation
      An allocation (`new`, make_unique/make_shared), a standard container
      constructed with arguments (`std::vector<T> v(n)`, `{...}`, or a
      sized temporary — each allocates on every pass), or a growth call
      (push_back/emplace_back on a container with no `.reserve(` in the
      same file) inside a marked steady-state region of
      src/game/best_response*, src/game/payoff_ledger* or
      src/vdps/delta*. Regions are delimited by `// FTA_HOT_BEGIN(name)`
      / `// FTA_HOT_END(name)` comments; these are the per-round inner
      loops the paper's complexity claims are measured on and the
      per-strategy patch of every warm serving tick, and a hidden realloc
      there shows up as a latency spike the bench trajectory cannot
      explain.
      Escape with `// NOLINT(fta-alloc)` plus a reason when the
      allocation is amortized by design (e.g. a caller-owned buffer).

Escapes, in order of preference:
  1. Restructure the code (sort the result, fold in fixed shard order,
     accumulate in integers, hoist the allocation out of the region).
  2. `// NOLINT(<tag>)` on the offending line, or
     `// NOLINTNEXTLINE(<tag>)` on the line above, with a reason in the
     surrounding comment. The tag is `fta-det` for every rule except
     hot-path-allocation, which uses `fta-alloc`.
  3. An entry in tools/fta_lint/allowlist.txt (rule:path-suffix:needle).
     Unused allowlist entries are reported as errors so the file cannot
     accumulate stale exemptions.

Exit codes: 0 clean, 1 violations found, 2 usage/configuration error.
Diagnostics are `path:line: [rule] message`, one per line, sorted.
With --format=json the same findings are emitted as one JSON object
(schema "fta-lint-v1": {"schema", "violations": [{file, line, rule,
message}...], "files_scanned"}) for CI artifact upload.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

SOURCE_EXTENSIONS = (".h", ".cc", ".cpp", ".hpp")
SORT_LOOKAHEAD = 15

BANNED_TOKENS = [
    (re.compile(r"(?<![\w:])rand\s*\("), "libc rand() is nondeterministic across runs; use fta::Rng"),
    (re.compile(r"std::random_device"), "std::random_device is nondeterministic; seed fta::Rng explicitly"),
    (re.compile(r"(?<![\w:])time\s*\(\s*(?:nullptr|NULL|0)\s*\)"), "wall-clock seeding breaks reproducibility; thread timestamps in explicitly"),
    (re.compile(r"this_thread::sleep"), "sleeps encode scheduling assumptions; use condition variables"),
]

PARALLEL_ENTRYPOINTS = re.compile(r"\b(?:RunBatch|RunChunked|ParallelFor)\s*\(")
RANGE_FOR = re.compile(r"\bfor\s*\(([^;]*?):([^;]*?)\)\s*(\{?)\s*$")
APPEND_CALL = re.compile(r"\.(?:push_back|emplace_back|emplace|insert)\s*\(")
SORT_CALL = re.compile(r"\b(?:sort|stable_sort)\s*\(")
COMPOUND_FLOAT = re.compile(r"([A-Za-z_][\w\.\->\[\]\(\)]*?)\s*[+\-]=(?!=)")

SORTED_METRIC = re.compile(
    r"(?<![\w:.>])(MeanAbsolutePairwiseDifference|Gini)(?=\s*\()"
)

# Intrinsic calls (`_mm_`, `_mm256_`, `_mm512_`, ...) and intrinsic-header
# includes. Type names like __m256d do not match (no `_mm<digits>_` run).
SIMD_INTRINSIC = re.compile(r"#\s*include\s*<\w*intrin\.h>|\b_mm\d*_\w+")
# The only TUs allowed to hold raw intrinsics: the per-TU -mavx2 kernels
# behind the util/simd.h dispatch layer.
SIMD_SANCTIONED = (
    "src/util/simd_avx2.cc",
    "src/game/iau_kernels_avx2.cc",
)

# Direct clock reads banned from the replay-deterministic layers. The
# chrono alternative covers every std clock; the libc alternatives cover
# the POSIX reads (including the _r variants via the optional suffix).
WALL_CLOCK_READ = re.compile(
    r"std::chrono::(?:system_clock|steady_clock|high_resolution_clock)::now"
    r"|\b(?:clock_gettime|gettimeofday|localtime(?:_r)?|gmtime(?:_r)?)\s*\("
)
# Path fragments the wall-clock-read rule applies to.
WALL_CLOCK_SCOPES = ("src/obs/", "src/stream/", "src/serve/")
# The one sanctioned clock: the trace recorder's span timestamps, which
# are wall-time-valued by design and never feed the determinism contract.
WALL_CLOCK_SANCTIONED = ("src/obs/trace.cc",)

# Raw locking primitives and their headers. Includes and type/RAII names
# are both matched so a file cannot smuggle in a lock via `using`.
RAW_MUTEX = re.compile(
    r"#\s*include\s*<(?:mutex|shared_mutex|condition_variable)>"
    r"|std::(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex"
    r"|shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock"
    r"|shared_lock|condition_variable|condition_variable_any)\b"
)
# The one file allowed to touch std locking: the annotated wrapper layer.
MUTEX_SANCTIONED = ("src/util/mutex.h",)

# Steady-state hot regions: the per-round inner loops of the game engine
# and the per-strategy patch of the warm catalog delta. Markers are
# comments, so they are read from the RAW lines (scrub blanks comments);
# region bodies are checked on the scrubbed lines.
HOT_REGION_FILES = (
    "src/game/best_response",
    "src/game/payoff_ledger",
    "src/vdps/delta",
)
HOT_BEGIN = re.compile(r"//\s*FTA_HOT_BEGIN\(([\w.-]+)\)")
HOT_END = re.compile(r"//\s*FTA_HOT_END\(([\w.-]+)\)")
HOT_ALLOC = re.compile(
    r"(?<![\w:])new\b|\b(?:std::)?make_(?:unique|shared)\b(?=\s*<)"
)
# A standard container constructed with arguments: a named declaration
# `std::vector<T> name(args)` / `name{args}` or a temporary
# `std::vector<T>(args)`. Default construction, references and parameter
# declarations do not match.
HOT_SIZED = re.compile(
    r"\b(std::(?:vector|deque|list|forward_list|map|multimap|set|multiset"
    r"|unordered_map|unordered_multimap|unordered_set|unordered_multiset"
    r"|string|basic_string)\b(?:\s*<.*>)?(?:\s*[A-Za-z_]\w*)?)"
    r"\s*[({]\s*[^\s)}]"
)
HOT_APPEND = re.compile(
    r"([A-Za-z_]\w*(?:\[[^\]]*\])?(?:\s*(?:\.|->)\s*[A-Za-z_]\w*)*)"
    r"\s*(?:\.|->)\s*(push_back|emplace_back)\s*\("
)

NOLINT_HERE = re.compile(r"NOLINT\((fta-[\w-]+)\)")
NOLINT_NEXT = re.compile(r"NOLINTNEXTLINE\((fta-[\w-]+)\)")


class Violation:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def to_json(self) -> dict:
        return {
            "file": self.path,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
        }


def scrub(text: str) -> str:
    """Blanks comments and string/char literals, preserving line structure
    and NOLINT markers (which live in comments but are re-read from the
    raw text)."""
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif ch == "/" and nxt == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 2
        elif ch == "R" and text[i : i + 2] == 'R"':
            end = text.find(')"', i + 2)
            stop = n if end == -1 else end + 2
            out.extend("\n" for c in text[i:stop] if c == "\n")
            i = stop
        elif ch in "\"'":
            quote = ch
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1
                i += 1
            i += 1
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def brace_match(lines: list[str], start_line: int, start_col: int):
    """Returns the (line, col) just past the matching '}' for the '{' at
    (start_line, start_col), or None if unbalanced. 0-based lines."""
    depth = 0
    for li in range(start_line, len(lines)):
        line = lines[li]
        ci = start_col if li == start_line else 0
        while ci < len(line):
            c = line[ci]
            if c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
                if depth == 0:
                    return li, ci
            ci += 1
    return None


class TypeTables:
    """File-spanning name → type-class lookups, built from every scanned
    file so struct fields resolve across headers."""

    def __init__(self):
        self.float_members: set[str] = set()
        self.unordered_members: set[str] = set()
        self.unordered_aliases: set[str] = set()

    def collect(self, scrubbed_lines: list[str]) -> None:
        for line in scrubbed_lines:
            m = re.search(r"\busing\s+(\w+)\s*=\s*(?:std::)?unordered_", line)
            if m:
                self.unordered_aliases.add(m.group(1))
        alias_pattern = (
            "|".join(re.escape(a) for a in sorted(self.unordered_aliases))
            or r"$^"
        )
        member_decl = re.compile(
            r"^\s*(?:mutable\s+)?(?:std::)?(unordered_map|unordered_set|"
            + alias_pattern
            + r")\b[^;=()]*?\s(\w+)\s*(?:;|=|\{)"
        )
        float_decl = re.compile(
            r"^\s*(?:mutable\s+|const\s+|constexpr\s+|static\s+)*"
            r"(?:double|float)\s+(\w+)\s*(?:;|=|\{)"
        )
        for line in scrubbed_lines:
            m = member_decl.search(line)
            if m:
                self.unordered_members.add(m.group(2))
            m = float_decl.search(line)
            if m:
                self.float_members.add(m.group(1))


class FileScan:
    def __init__(self, path: str, display_path: str):
        self.path = path
        self.display = display_path
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            self.raw = f.read()
        self.raw_lines = self.raw.split("\n")
        self.scrubbed_lines = scrub(self.raw).split("\n")
        # 0-based line index -> set of suppressed NOLINT tags on that line.
        self.suppressed: dict[int, set[str]] = {}
        for i, line in enumerate(self.raw_lines):
            for m in NOLINT_NEXT.finditer(line):
                self.suppressed.setdefault(i + 1, set()).add(m.group(1))
            for m in NOLINT_HERE.finditer(line):
                self.suppressed.setdefault(i, set()).add(m.group(1))

    def is_suppressed(self, line_idx: int, tag: str) -> bool:
        return tag in self.suppressed.get(line_idx, set())

    def local_unordered_names(self) -> set[str]:
        names = set()
        for line in self.scrubbed_lines:
            m = re.search(
                r"\b(?:std::)?unordered_(?:map|set)\s*<[^;]*>[\s&*]+(\w+)\s*[;({=,)]",
                line,
            )
            if m:
                names.add(m.group(1))
        return names

    def local_float_names(self) -> set[str]:
        names = set()
        for line in self.scrubbed_lines:
            m = re.search(
                r"\b(?:double|float)\s+(\w+)\s*[;({=,]", line
            )
            if m:
                names.add(m.group(1))
        return names


def lhs_terminal(expr: str) -> str:
    """Final identifier component of an lvalue expression:
    counters.wall_ms -> wall_ms, out[i] -> out, shard->total -> total."""
    expr = expr.strip()
    expr = re.sub(r"\[[^\]]*\]$", "", expr)
    parts = re.split(r"\.|->", expr)
    last = parts[-1] if parts else expr
    m = re.search(r"([A-Za-z_]\w*)\s*$", last)
    if m:
        return m.group(1)
    m2 = re.search(r"([A-Za-z_]\w*)", last)
    return m2.group(1) if m2 else last


class Rule:
    """One lint rule. Subclasses set `name`, optionally `nolint_tag`
    (which NOLINT(tag) suppresses the rule; None means the rule ignores
    NOLINT entirely), and implement check()."""

    name = ""
    nolint_tag: str | None = "fta-det"

    def check(self, scan: FileScan, tables: TypeTables,
              out: list[Violation]) -> None:
        raise NotImplementedError

    def report(self, scan: FileScan, line_idx: int, message: str,
               out: list[Violation]) -> bool:
        """Appends a violation at 0-based line_idx unless suppressed.
        Returns True when a violation was recorded."""
        if self.nolint_tag is not None and scan.is_suppressed(
            line_idx, self.nolint_tag
        ):
            return False
        out.append(Violation(scan.display, line_idx + 1, self.name, message))
        return True


class BannedTokenRule(Rule):
    # banned-token ignores NOLINT: there is no sanctioned use of those
    # tokens in src/, so an escape hatch would only hide problems.
    name = "banned-token"
    nolint_tag = None

    def check(self, scan, tables, out):
        for i, line in enumerate(scan.scrubbed_lines):
            for pattern, why in BANNED_TOKENS:
                m = pattern.search(line)
                if m:
                    self.report(
                        scan, i, f"'{m.group(0).strip()}' — {why}", out
                    )


class UnorderedIterationRule(Rule):
    name = "unordered-iteration"

    def is_unordered_target(self, expr, scan, tables, local_unordered):
        expr = expr.strip()
        if "unordered_" in expr:
            return True
        terminal = lhs_terminal(expr)
        if (terminal in local_unordered
                or terminal in tables.unordered_members):
            return True
        # Bare names declared via an unordered alias (e.g. `SetStore sets;`
        # where `using SetStore = std::unordered_map<...>`).
        for alias in tables.unordered_aliases:
            if re.search(
                rf"\b{re.escape(alias)}\b[^;={{}}]*?[\s&*]{re.escape(terminal)}\s*[;({{=,)]",
                "\n".join(scan.scrubbed_lines),
            ):
                return True
        return False

    def check(self, scan, tables, out):
        local_unordered = scan.local_unordered_names()
        lines = scan.scrubbed_lines
        for i, line in enumerate(lines):
            m = RANGE_FOR.search(line)
            if not m:
                continue
            if not self.is_unordered_target(
                m.group(2), scan, tables, local_unordered
            ):
                continue
            # Locate the loop body's opening brace (same line or later).
            open_line, open_col = i, line.rfind("{")
            if open_col == -1:
                for j in range(i + 1, min(i + 3, len(lines))):
                    col = lines[j].find("{")
                    if col != -1:
                        open_line, open_col = j, col
                        break
                else:
                    continue  # single-statement body: nothing to append into
            end = brace_match(lines, open_line, open_col)
            if end is None:
                continue
            end_line, _ = end
            body = "\n".join(lines[open_line : end_line + 1])
            feeds = APPEND_CALL.search(body) or re.search(r"[+\-]=(?!=)", body)
            if not feeds:
                continue
            # Look for a normalizing sort between the loop and the end of
            # the enclosing function (a column-0 '}'); a sort in a
            # *different* function must not absolve this loop.
            ahead = []
            for j in range(end_line + 1, min(end_line + 1 + SORT_LOOKAHEAD,
                                             len(lines))):
                if lines[j].startswith("}"):
                    break
                ahead.append(lines[j])
            lookahead = "\n".join(ahead)
            if SORT_CALL.search(lookahead) or SORT_CALL.search(body):
                continue  # order normalized after (or during) the fold
            self.report(
                scan, i,
                "range-for over an unordered container feeds a result "
                "container without a subsequent sort or an order-invariant "
                "fold; bucket order will leak into the output",
                out,
            )


class ParallelFloatReduceRule(Rule):
    name = "parallel-float-reduce"

    def check(self, scan, tables, out):
        local_floats = scan.local_float_names()
        lines = scan.scrubbed_lines
        for i, line in enumerate(lines):
            entry = PARALLEL_ENTRYPOINTS.search(line)
            if not entry:
                continue
            # Only call sites that pass a lambda matter: find the lambda
            # intro '[' after the call, then the lambda body's first '{'
            # after it. Declarations and function-pointer call sites have
            # no '[' and are skipped (nothing to accumulate into).
            intro_line, intro_col = -1, -1
            for j in range(i, min(i + 4, len(lines))):
                col = lines[j].find("[", entry.end() if j == i else 0)
                if col != -1:
                    intro_line, intro_col = j, col
                    break
            if intro_line == -1:
                continue
            open_line, open_col = -1, -1
            for j in range(intro_line, min(intro_line + 4, len(lines))):
                col = lines[j].find(
                    "{", intro_col + 1 if j == intro_line else 0
                )
                if col != -1:
                    open_line, open_col = j, col
                    break
            if open_line == -1:
                continue
            end = brace_match(lines, open_line, open_col)
            if end is None:
                continue
            end_line, _ = end
            for k in range(open_line, end_line + 1):
                for m in COMPOUND_FLOAT.finditer(lines[k]):
                    target = lhs_terminal(m.group(1))
                    if (target in local_floats
                            or target in tables.float_members):
                        self.report(
                            scan, k,
                            f"float accumulation '{m.group(0).strip()}' "
                            "inside a ThreadPool fan-out lambda; "
                            "scheduling order would change the sum — fold "
                            "per-shard results in a fixed order instead",
                            out,
                        )


class SortedMetricRebuildRule(Rule):
    name = "sorted-metric-rebuild"

    def check(self, scan, tables, out):
        if "src/game/" not in scan.display.replace(os.sep, "/"):
            return
        for i, line in enumerate(scan.scrubbed_lines):
            for m in SORTED_METRIC.finditer(line):
                # `double Gini() const;` and friends declare the wrapper,
                # they do not call it. (Qualified definitions like
                # PayoffLedger::Gini are excluded by the lookbehind.)
                if re.search(
                    r"\b(?:double|float|auto)\s+$", line[: m.start()]
                ):
                    continue
                self.report(
                    scan, i,
                    f"'{m.group(1)}(' copies and re-sorts payoffs the "
                    "engine's ledger already keeps sorted; read "
                    "PayoffLedger::PayoffDifference()/Gini() or pass a "
                    "sorted view to a *Sorted overload (DESIGN.md §9)",
                    out,
                )


class RawSimdIntrinsicsRule(Rule):
    name = "raw-simd-intrinsics"

    def check(self, scan, tables, out):
        display = scan.display.replace(os.sep, "/")
        if display.endswith(SIMD_SANCTIONED):
            return
        for i, line in enumerate(scan.scrubbed_lines):
            for m in SIMD_INTRINSIC.finditer(line):
                self.report(
                    scan, i,
                    f"'{m.group(0).strip()}' outside a sanctioned kernel "
                    "TU; raw SIMD belongs in src/util/simd_avx2.cc / "
                    "src/game/iau_kernels_avx2.cc behind the util/simd.h "
                    "dispatch layer (DESIGN.md §11)",
                    out,
                )


class WallClockReadRule(Rule):
    name = "wall-clock-read"

    def check(self, scan, tables, out):
        display = scan.display.replace(os.sep, "/")
        if not any(scope in display for scope in WALL_CLOCK_SCOPES):
            return
        if display.endswith(WALL_CLOCK_SANCTIONED):
            return
        for i, line in enumerate(scan.scrubbed_lines):
            for m in WALL_CLOCK_READ.finditer(line):
                self.report(
                    scan, i,
                    f"'{m.group(0).strip()}' — direct clock read in the "
                    "replay-deterministic obs/stream layers; take durations "
                    "as caller-measured values (util/stopwatch.h at the "
                    "call site) and advance windows on caller-driven ticks; "
                    "the only sanctioned clock is src/obs/trace.cc",
                    out,
                )


class RawMutexRule(Rule):
    name = "raw-mutex"

    def check(self, scan, tables, out):
        display = scan.display.replace(os.sep, "/")
        if display.endswith(MUTEX_SANCTIONED):
            return
        for i, line in enumerate(scan.scrubbed_lines):
            for m in RAW_MUTEX.finditer(line):
                self.report(
                    scan, i,
                    f"'{m.group(0).strip()}' — raw standard-library "
                    "locking outside src/util/mutex.h; use fta::Mutex / "
                    "fta::MutexLock / fta::CondVar (util/mutex.h) so "
                    "Clang thread-safety analysis can check the lock "
                    "against FTA_GUARDED_BY state (DESIGN.md §13)",
                    out,
                )


class HotPathAllocationRule(Rule):
    name = "hot-path-allocation"
    nolint_tag = "fta-alloc"

    @staticmethod
    def applies_to(display: str) -> bool:
        display = display.replace(os.sep, "/")
        return any(
            display.startswith(prefix) or f"/{prefix}" in display
            for prefix in HOT_REGION_FILES
        )

    @staticmethod
    def regions(raw_lines: list[str]):
        """Yields (line_idx, region_name) for every line strictly inside
        a FTA_HOT_BEGIN/FTA_HOT_END pair. Unterminated regions extend to
        end-of-file (better to over-check than silently stop)."""
        current: str | None = None
        for i, line in enumerate(raw_lines):
            begin = HOT_BEGIN.search(line)
            end = HOT_END.search(line)
            if begin is not None:
                current = begin.group(1)
                continue
            if end is not None:
                current = None
                continue
            if current is not None:
                yield i, current

    def check(self, scan, tables, out):
        if not self.applies_to(scan.display):
            return
        # Containers that reserve anywhere in this file are exempt from
        # the push_back check: growth is amortized by an explicit sizing
        # call the reader can find.
        reserved = set(
            re.findall(r"\b([A-Za-z_]\w*)\s*(?:\.|->)\s*reserve\s*\(",
                       "\n".join(scan.scrubbed_lines))
        )
        for i, region in self.regions(scan.raw_lines):
            line = scan.scrubbed_lines[i] if i < len(scan.scrubbed_lines) else ""
            m = HOT_ALLOC.search(line)
            if m:
                self.report(
                    scan, i,
                    f"'{m.group(0).strip()}' allocates inside steady-state "
                    f"hot region '{region}'; hoist the allocation out of "
                    "the region or reuse a pre-sized buffer "
                    "(// NOLINT(fta-alloc) with a reason if amortized by "
                    "design)",
                    out,
                )
                continue
            m = HOT_SIZED.search(line)
            if m:
                self.report(
                    scan, i,
                    f"'{m.group(1).strip()}' constructs a sized container "
                    f"inside steady-state hot region '{region}'; size it "
                    "once outside the region (e.g. a member sized in the "
                    "constructor) and reuse it (// NOLINT(fta-alloc) with "
                    "a reason if amortized by design)",
                    out,
                )
                continue
            for am in HOT_APPEND.finditer(line):
                recv = lhs_terminal(am.group(1))
                if recv in reserved:
                    continue
                self.report(
                    scan, i,
                    f"'{recv}.{am.group(2)}' in hot region '{region}' may "
                    f"reallocate — no '{recv}.reserve(' anywhere in this "
                    "file; size the container up front or reuse a "
                    "caller-owned buffer (// NOLINT(fta-alloc) with a "
                    "reason if amortized by design)",
                    out,
                )


RULES: list[Rule] = [
    BannedTokenRule(),
    UnorderedIterationRule(),
    ParallelFloatReduceRule(),
    SortedMetricRebuildRule(),
    RawSimdIntrinsicsRule(),
    WallClockReadRule(),
    RawMutexRule(),
    HotPathAllocationRule(),
]


def load_allowlist(path: str):
    entries = []
    if not os.path.exists(path):
        return entries
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split(":", 2)
            if len(parts) != 3:
                print(
                    f"fta_lint: malformed allowlist entry at "
                    f"{path}:{lineno}: {stripped!r}",
                    file=sys.stderr,
                )
                sys.exit(2)
            entries.append(
                {"rule": parts[0], "path": parts[1], "needle": parts[2],
                 "line": lineno, "used": False}
            )
    return entries


def apply_allowlist(violations, entries, raw_lines_by_path):
    kept = []
    for v in violations:
        suppressed = False
        for e in entries:
            if e["rule"] != v.rule:
                continue
            if not v.path.endswith(e["path"]):
                continue
            line_text = raw_lines_by_path[v.path][v.line - 1]
            if e["needle"] in line_text:
                e["used"] = True
                suppressed = True
                break
        if not suppressed:
            kept.append(v)
    return kept


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", default=".",
                        help="repository root; scan dirs are relative to it")
    parser.add_argument("--allowlist", default=None,
                        help="allowlist file (default <root>/tools/fta_lint/allowlist.txt)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="diagnostic format (json: one fta-lint-v1 "
                             "object on stdout, for CI artifacts)")
    parser.add_argument("dirs", nargs="*", default=None,
                        help="directories under root to scan (default: src)")
    args = parser.parse_args(argv)

    root = os.path.abspath(args.root)
    scan_dirs = args.dirs or ["src"]
    allowlist_path = args.allowlist or os.path.join(
        root, "tools", "fta_lint", "allowlist.txt"
    )

    files = []
    for d in scan_dirs:
        base = os.path.join(root, d)
        if not os.path.isdir(base):
            print(f"fta_lint: no such directory: {base}", file=sys.stderr)
            return 2
        for dirpath, _, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTENSIONS):
                    full = os.path.join(dirpath, name)
                    files.append((full, os.path.relpath(full, root)))
    if not files:
        print("fta_lint: nothing to scan", file=sys.stderr)
        return 2

    scans = [FileScan(full, rel) for full, rel in sorted(files)]
    tables = TypeTables()
    for scan in scans:
        tables.collect(scan.scrubbed_lines)

    violations: list[Violation] = []
    for scan in scans:
        for rule in RULES:
            rule.check(scan, tables, violations)

    entries = load_allowlist(allowlist_path)
    raw_by_path = {scan.display: scan.raw_lines for scan in scans}
    violations = apply_allowlist(violations, entries, raw_by_path)

    for e in entries:
        if not e["used"]:
            violations.append(
                Violation(
                    os.path.relpath(allowlist_path, root),
                    e["line"],
                    "stale-allowlist",
                    f"allowlist entry '{e['rule']}:{e['path']}:{e['needle']}' "
                    "matched nothing; delete it",
                )
            )

    violations.sort(key=lambda v: (v.path, v.line, v.rule))
    if args.format == "json":
        print(json.dumps(
            {
                "schema": "fta-lint-v1",
                "violations": [v.to_json() for v in violations],
                "files_scanned": len(scans),
            },
            indent=2,
        ))
        return 1 if violations else 0
    for v in violations:
        print(v.render())
    if violations:
        print(
            f"fta_lint: {len(violations)} violation(s). See "
            "tools/fta_lint/fta_lint.py for the rules and escape policy.",
            file=sys.stderr,
        )
        return 1
    print(f"fta_lint: {len(scans)} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
