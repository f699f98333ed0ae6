#!/usr/bin/env python3
"""Determinism, convention and lock-order auditor for the
mixed-workload-placement tree: the tree's one checker.

The replay harness (docs/ALGORITHMS.md §12) re-executes recorded optimizer
inputs and diffs decisions at zero tolerance; the sharded optimizer promises
thread-count-invariant solves; the event-driven service promises quiescent
bit-exactness. All three rest on one unchecked invariant: decision-path code
must be deterministic. Two engines find the AST-level hazards (token/scope
analysis in the builtin engine, real clang AST via libclang when
available); the line rules (AUD-D5, AUD-C1..C3) are regexes over
comment-stripped lines that the driver runs once per file whichever engine
ran, and so is AUD-U1, a token rule over the whole tree. Scope: src/,
bench/ and examples/; AUD-U1 also reads perfbench/src/ for uses.

AUD-D1  Unordered-container iteration order. Range-for / `.begin()`
        traversal of a `std::unordered_map`/`unordered_set` feeds
        hash-order — which varies across libstdc++/libc++ and across
        pointer-salted hashes — into whatever the loop body computes.
        Iterate a sorted view, or justify with
        `// audit: order-insensitive(<reason>)`.
AUD-D2  Address-based ordering. Comparators that compare pointer *values*
        (`a < b` on `T*`, `std::set<T*>` with the default comparator,
        `std::less<T*>`) order by allocation address: different run,
        different order. Compare a stable field, or justify with
        `// audit: address-stable(<reason>)`.
AUD-D3  Nondeterministic sources in decision code. `std::random_device`,
        `rand()`/`srand()`, `time(nullptr)` and `std::chrono::*_clock::now`
        — including calls through type aliases (`using Clock = ...`). The
        tree's one host-clock read, `obs::MonotonicNs` in
        src/obs/stopwatch.h (observability only), carries
        `// audit: wall-clock-ok(<reason>)`.
AUD-D4  Order-dependent accumulation in parallel lanes. A compound
        assignment (`+=`, `-=`, `*=`, `/=`) to state captured by a lambda
        that runs on the ThreadPool (`ParallelFor` / `TrySubmit`) is either
        a data race or a reduction whose result depends on lane timing
        (floating-point addition is not associative). Write per-index slots
        and reduce in index order, or justify with
        `// audit: order-fixed(<reason>)`.
AUD-D5  Raw standard RNG engines (`std::mt19937(_64)`, `minstd_rand(0)`,
        `ranlux*`, `knuth_b`, `default_random_engine`): every draw flows
        through the one seeded engine in common/rng.h, which carries
        `// audit: rng-engine-ok(<reason>)`. A tag of its own keeps a clock
        annotation from excusing an engine. Line rule.
AUD-L1  GUARDED_BY coverage. In a class that owns a `Mutex`, every mutable
        co-located field must name its guard (`MWP_GUARDED_BY` /
        `MWP_PT_GUARDED_BY`) or be exempt by construction (const, atomic,
        condition_variable, the mutex itself). Extends PR 3's opt-in
        annotations to an exhaustive contract. Escape hatch:
        `// audit: not-guarded(<reason>)`.
AUD-L2  Lock-order cycles. A directed graph is mined from the nesting of
        annotated `MutexLock` scopes plus declared
        `MWP_ACQUIRED_BEFORE(...)` edges; any cycle is a potential
        deadlock. Suppress a single intentionally-reversed edge with
        `// audit: lock-order-ok(<reason>)` on the inner acquisition.
AUD-C1  Raw `assert`: contract violations throw through
        `MWP_CHECK`/`MWP_DCHECK`, which carry file/line/message context and
        stay active in Release. Line rule, no tag.
AUD-C2  iostream in the hot-path modules src/core/ and src/rpf/: log
        through MWP_LOG_* (leveled, mutex-guarded). Line rule, no tag.
AUD-C3  Units at API boundaries: headers declare time-like quantities as
        `Seconds` (common/units.h), not raw `double`; dimensionless names
        (factor, ratio, rate, ...) are exempt. Line rule, no tag.
AUD-U1  Library code no binary runs. A namespace-scope class or struct
        defined in a src/ header whose name appears nowhere under src/,
        bench/, examples/ or perfbench/src/ outside its own body, its
        declarations and its out-of-line member definitions: only tests
        (or nothing) use it, so it cannot move a decision. A use from a
        neighbour in the same header counts, and so does a name in a
        macro body. Token rule, no tag.
AUD900  Stale allowlist: an `// audit:` annotation that suppresses no
        finding is an error — allowlists must shrink with the code.
AUD901  Malformed allowlist: unknown tag or empty reason.

Allowlist grammar, the only one: `// audit: <tag>(<reason>)` on the
flagged line, or on its own comment line directly above. Tags:
order-insensitive, address-stable, wall-clock-ok, order-fixed,
rng-engine-ok, not-guarded, lock-order-ok. The reason is mandatory; the
tool verifies every annotation attaches to a real finding (AUD900
otherwise). Rules without a tag have no exceptions.

Engines:
  --engine builtin    pure-Python token/scope analysis (no dependencies)
  --engine libclang   clang.cindex over compile_commands.json
  --engine auto       libclang when importable, builtin otherwise (default)
Both engines feed the same rule set, line rules and allowlist machinery;
the self-test corpus (tools/analysis/corpus/) pins their findings to a
golden JSON.

Usage:
    determinism_audit.py [--root DIR] [--compdb build/compile_commands.json]
                         [--engine auto|builtin|libclang] [--json OUT]
    determinism_audit.py --self-test

Exit status: 0 clean, 1 findings/stale allowlist (or self-test failure),
2 usage error. Registered as ctest `lint.determinism_audit` and
`lint.determinism_audit_selftest`.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

# --- allowlist grammar ------------------------------------------------------

AUDIT_COMMENT = re.compile(r"//\s*audit:\s*(?P<tag>[a-z-]+)\s*\((?P<reason>[^)]*)\)")

TAG_TO_RULE = {
    "order-insensitive": "AUD-D1",
    "address-stable": "AUD-D2",
    "wall-clock-ok": "AUD-D3",
    "order-fixed": "AUD-D4",
    "rng-engine-ok": "AUD-D5",
    "not-guarded": "AUD-L1",
    "lock-order-ok": "AUD-L2",
}

RULE_CLASSES = ("AUD-D1", "AUD-D2", "AUD-D3", "AUD-D4", "AUD-D5", "AUD-L1",
                "AUD-L2", "AUD-C1", "AUD-C2", "AUD-C3", "AUD-U1")

AUDIT_DIRS = ("src", "bench", "examples")
SOURCE_SUFFIXES = {".h", ".cc", ".cpp", ".hpp"}

UNORDERED_TYPES = {"unordered_map", "unordered_set", "unordered_multimap",
                   "unordered_multiset"}
CLOCK_NAMES = {"steady_clock", "system_clock", "high_resolution_clock"}
PARALLEL_ENTRY_CALLS = {"ParallelFor", "TrySubmit"}
COMPOUND_ASSIGN = {"+=", "-=", "*=", "/="}
RELATIONAL = {"<", ">", "<=", ">="}


class Finding:
    def __init__(self, rule: str, file: str, line: int, message: str):
        self.rule = rule
        self.file = file  # POSIX path relative to the audited root
        self.line = line
        self.message = message
        self.allowlisted = False
        self.reason = ""

    def key(self):
        return (self.rule, self.file, self.line)

    def __str__(self) -> str:
        mark = " (allowlisted: %s)" % self.reason if self.allowlisted else ""
        return f"{self.file}:{self.line}: [{self.rule}] {self.message}{mark}"


class Annotation:
    def __init__(self, file: str, line: int, tag: str, reason: str,
                 targets: set[int]):
        self.file = file
        self.line = line
        self.tag = tag
        self.reason = reason
        self.targets = targets  # lines this annotation may suppress
        self.used = False


# --- source preprocessing ---------------------------------------------------

def preprocess(text: str):
    """Returns (code_lines, annotations_raw). Comments and string/char
    literal *contents* are blanked (line structure preserved); audit
    annotations are harvested from comments before blanking."""
    # Harvest annotations with their line numbers first.
    raw_lines = text.split("\n")
    annos = []  # (line_no, tag, reason, comment_only)
    for i, line in enumerate(raw_lines, start=1):
        m = AUDIT_COMMENT.search(line)
        if m:
            before = line[: line.find("//")]
            annos.append((i, m.group("tag"), m.group("reason").strip(),
                          before.strip() == ""))

    # Blank block comments, keeping newlines.
    def blank(match: re.Match) -> str:
        return re.sub(r"[^\n]", " ", match.group(0))

    text = re.sub(r"/\*.*?\*/", blank, text, flags=re.S)
    lines = []
    for line in text.split("\n"):
        cut = line.find("//")
        lines.append(line[:cut] if cut >= 0 else line)

    # Blank literal contents: C++14 digit separators first so 1'000.0 does
    # not read as a char literal, then strings and chars.
    out = []
    for line in lines:
        line = re.sub(r"(?<=[0-9a-fA-F])'(?=[0-9a-fA-F])", "0", line)
        line = re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)
        line = re.sub(r"'(?:[^'\\]|\\.)'", "' '", line)
        out.append(line)

    # An annotation on a comment-only line targets the next line holding
    # code; one sharing a line with code targets that line.
    def next_code_line(after: int) -> int:
        for j in range(after, len(out)):
            if out[j].strip():
                return j + 1
        return after

    annotations = []
    for line_no, tag, reason, comment_only in annos:
        if comment_only:
            targets = {next_code_line(line_no)}
        else:
            targets = {line_no}
        annotations.append((line_no, tag, reason, targets))
    return out, annotations


TOKEN_RE = re.compile(
    r"[A-Za-z_]\w*"
    r"|\.?\d[\w.+-]*"
    r"|<<=|>>=|::|->\*?|\+\+|--|\+=|-=|\*=|/=|%=|&=|\|=|\^=|<=>"
    r"|<<|>>|<=|>=|==|!=|&&|\|\||[{}()\[\];:,.<>=+\-*/%!&|^~?]"
)


def directive_lines(code_lines: list[str]) -> list[bool]:
    """Per line: whether it belongs to a preprocessor directive, the
    backslash-continued lines of a multi-line one included."""
    flags = []
    continued = False
    for line in code_lines:
        directive = continued or line.lstrip().startswith("#")
        flags.append(directive)
        continued = directive and line.rstrip().endswith("\\")
    return flags


def tokenize(code_lines: list[str]):
    """Token list of (text, line)."""
    tokens = []
    for line_no, (line, directive) in enumerate(
            zip(code_lines, directive_lines(code_lines)), start=1):
        if directive:
            continue  # preprocessor lines carry no decision code of interest
        for m in TOKEN_RE.finditer(line):
            tokens.append((m.group(0), line_no))
    return tokens


def match_group(tokens, i, open_t, close_t):
    """Index just past the group closing the opener at tokens[i]."""
    depth = 0
    n = len(tokens)
    while i < n:
        t = tokens[i][0]
        if t == open_t:
            depth += 1
        elif t == close_t:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def skip_template_group(tokens, i):
    """tokens[i] == '<' believed to open template args; returns index past
    the matching '>' treating '>>' as two closers. Returns i unchanged if
    the group does not close within the statement (comparison, not args)."""
    depth = 0
    j = i
    n = len(tokens)
    while j < n:
        t = tokens[j][0]
        if t == "<":
            depth += 1
        elif t == ">":
            depth -= 1
            if depth == 0:
                return j + 1
        elif t == ">>":
            depth -= 2
            if depth <= 0:
                return j + 1
        elif t == ";" or t == "{":
            return i  # never closed: not a template argument list
        j += 1
    return i


# --- line rules -------------------------------------------------------------

RAW_ENGINE = re.compile(r"std::(minstd_rand0?|mt19937(_64)?|ranlux\d+(_48)?|"
                        r"knuth_b|default_random_engine)\b")
RAW_ASSERT = re.compile(r"(?<![\w_])assert\s*\(")
IOSTREAM = re.compile(r"#\s*include\s*<iostream>|std::(cout|cerr|clog)\b")
HOT_PATH_DIRS = ("src/core/", "src/rpf/")
# Time-like names that a header must declare `Seconds`, unless the name
# marks them dimensionless.
TIME_LIKE_DOUBLE = re.compile(
    r"\bdouble\s+(?P<name>\w*(?:_time|_seconds|response_time|deadline|"
    r"duration|timeout)\w*|time|deadline|duration|timeout)\s*[;=,)]")
DIMENSIONLESS_NAME = re.compile(
    r"factor|ratio|fraction|rate|satisf|scale|per_|_per|weight|share")


def line_findings(root: Path, files: list[Path]) -> list[Finding]:
    """AUD-D5 and AUD-C1..C3 over every file, at most one finding per rule
    and line. Unreadable files are skipped here; the builtin engine reports
    them as AUD000."""
    findings = []
    for path in files:
        rel = path.relative_to(root).as_posix()
        try:
            code_lines, _ = preprocess(path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError):
            continue
        for line_no, line in enumerate(code_lines, start=1):
            if RAW_ENGINE.search(line):
                findings.append(Finding(
                    "AUD-D5", rel, line_no,
                    "raw standard RNG engine: every draw flows through the "
                    "one seeded engine in common/rng.h; draw from mwp::Rng "
                    "or justify with // audit: rng-engine-ok(<reason>)"))
            if RAW_ASSERT.search(line) and "static_assert" not in line:
                findings.append(Finding(
                    "AUD-C1", rel, line_no,
                    "raw assert(); use MWP_CHECK (always on) or MWP_DCHECK "
                    "(hot paths) from common/check.h"))
            if rel.startswith(HOT_PATH_DIRS) and IOSTREAM.search(line):
                findings.append(Finding(
                    "AUD-C2", rel, line_no,
                    "iostream in a hot-path module; use MWP_LOG_* from "
                    "common/log.h"))
            match = rel.endswith(".h") and TIME_LIKE_DOUBLE.search(line)
            if match and not DIMENSIONLESS_NAME.search(match.group("name")):
                findings.append(Finding(
                    "AUD-C3", rel, line_no,
                    f"time-like '{match.group('name')}' declared as raw "
                    "double; use the Seconds alias from common/units.h"))
    return findings


# --- AUD-U1: library classes no binary uses ---------------------------------

# Where a use of a src/ class counts: the library, the shipped binaries and
# the end-to-end benchmark's workloads. Tests do not count.
USE_DIRS = ("src", "bench", "examples", "perfbench/src")
IDENTIFIER = re.compile(r"[A-Za-z_]\w*$")


def namespace_chunks(tokens, start, end, out):
    """Appends the namespace-scope declarations of tokens[start:end] to
    `out`, one token list each, descending into namespace blocks. A brace
    group ends its declaration unless a `;` closes it or the declaration
    goes on (`,`, `{`, `(`, ... after a member initializer)."""
    chunk = []
    i = start
    while i < end:
        t = tokens[i][0]
        if not chunk and t == "namespace":
            j = i + 1
            while j < end and tokens[j][0] not in ("{", ";", "="):
                j += 1
            if j < end and tokens[j][0] == "{":
                close = min(match_group(tokens, j, "{", "}"), end)
                namespace_chunks(tokens, j + 1, close - 1, out)
                i = close
                continue
        if t == "{":
            close = min(match_group(tokens, i, "{", "}"), end)
            chunk.extend(tokens[i:close])
            i = close
            if i < end and tokens[i][0] in (",", "{", "(", ")", ".", "->"):
                continue
            if i < end and tokens[i][0] == ";":
                chunk.append(tokens[i])
                i += 1
            out.append(chunk)
            chunk = []
            continue
        chunk.append(tokens[i])
        i += 1
        if t == ";":
            out.append(chunk)
            chunk = []
    if chunk:
        out.append(chunk)


def chunk_owner(chunk):
    """(owner, defines_class): the class a namespace-scope declaration
    belongs to, or None. `class X {...};` defines X; `class X;` declares it;
    `... X::member(...) {...}` and `... X::member = ...;` are out-of-line
    member definitions of X."""
    k = 0
    n = len(chunk)
    while k + 1 < n and chunk[k][0] == "template" and chunk[k + 1][0] == "<":
        k = skip_template_group(chunk, k + 1)
    if k < n and chunk[k][0] in ("class", "struct"):
        j = k + 1
        while j + 1 < n:  # skip [[attributes]] and attribute macros
            if chunk[j][0] == "[":
                j = match_group(chunk, j, "[", "]")
            elif IDENTIFIER.match(chunk[j][0]) and chunk[j + 1][0] == "(":
                j = match_group(chunk, j + 1, "(", ")")
            elif IDENTIFIER.match(chunk[j][0]) and chunk[j + 1][0] != "final" \
                    and IDENTIFIER.match(chunk[j + 1][0]):
                j += 1
            else:
                break
        if j < n and IDENTIFIER.match(chunk[j][0]):
            after = j + 1
            if after < n and chunk[after][0] == "final":
                after += 1
            if after < n and chunk[after][0] in ("{", ":"):
                return chunk[j][0], True
            if after < n and chunk[after][0] == ";":
                return chunk[j][0], False
    stop = next((i for i in range(k, n)
                 if chunk[i][0] in ("(", "=", "{", ";")), n)
    owner = None
    for i in range(k + 1, stop):
        if chunk[i][0] == "::" and IDENTIFIER.match(chunk[i - 1][0]) and (
                i + 2 == stop or chunk[i + 1][0] in ("~", "operator")):
            owner = chunk[i - 1][0]
    return owner, False


def unused_class_findings(root: Path) -> list[Finding]:
    """AUD-U1: a namespace-scope class or struct defined in a src/ header
    that nothing under USE_DIRS names outside its own body, its
    declarations and its out-of-line member definitions. Token rule over
    the builtin tokenizer, run whichever engine ran; no tag."""
    defined = []  # (name, file, line)
    used = set()
    for path in collect_files(root, USE_DIRS):
        rel = path.relative_to(root).as_posix()
        try:
            code_lines, _ = preprocess(path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError):
            continue
        # A directive's names count as uses (MWP_LOG_* expands to LogLine).
        for line, directive in zip(code_lines, directive_lines(code_lines)):
            if directive:
                used.update(re.findall(r"[A-Za-z_]\w*", line))
        tokens = tokenize(code_lines)
        chunks = []
        namespace_chunks(tokens, 0, len(tokens), chunks)
        for chunk in chunks:
            owner, defines = chunk_owner(chunk)
            if defines and rel.startswith("src/") and rel.endswith(".h"):
                line = next(ln for t, ln in chunk if t == owner)
                defined.append((owner, rel, line))
            used.update(t for t, _ in chunk
                        if t != owner and IDENTIFIER.match(t))
    return [Finding("AUD-U1", rel, line,
                    f"'{name}' is named by nothing under "
                    f"{', '.join(d + '/' for d in USE_DIRS)} beyond its own "
                    "definitions: no binary runs it, so delete it (tests do "
                    "not count as users)")
            for name, rel, line in defined if name not in used]


# --- builtin engine ---------------------------------------------------------

class BuiltinEngine:
    """Pure-Python token/scope analysis. Two passes: pass one collects
    cross-file facts (names declared with unordered types, clock aliases);
    pass two emits findings per file."""

    name = "builtin"

    def __init__(self, root: Path, files: list[Path]):
        self.root = root
        self.files = files
        self.unordered_names: set[str] = set()
        self.clock_aliases: dict[str, set[str]] = {}  # file -> alias names
        self._parsed: dict[str, list] = {}

    def run(self):
        findings: list[Finding] = []
        annotations: list[Annotation] = []
        lock_edges = []   # (from_node, to_node, file, line)
        declared_edges = []
        parsed = []
        for path in self.files:
            rel = path.relative_to(self.root).as_posix()
            try:
                text = path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as err:
                findings.append(Finding("AUD000", rel, 0, f"unreadable: {err}"))
                continue
            code_lines, annos = preprocess(text)
            tokens = tokenize(code_lines)
            parsed.append((rel, tokens))
            for line_no, tag, reason, targets in annos:
                annotations.append(Annotation(rel, line_no, tag, reason, targets))
            self._collect_unordered_names(tokens)
            self.clock_aliases[rel] = self._collect_clock_aliases(tokens)
        for rel, tokens in parsed:
            findings.extend(self._d1_unordered_iteration(rel, tokens))
            findings.extend(self._d2_pointer_comparators(rel, tokens))
            findings.extend(self._d3_banned_sources(rel, tokens))
            findings.extend(self._d4_parallel_reductions(rel, tokens))
            findings.extend(self._l1_guarded_by(rel, tokens))
            obs, dec = self._l2_lock_facts(rel, tokens)
            lock_edges.extend(obs)
            declared_edges.extend(dec)
        return findings, annotations, lock_edges, declared_edges

    # -- shared fact collection --

    def _collect_unordered_names(self, tokens):
        n = len(tokens)
        i = 0
        while i < n:
            if tokens[i][0] in UNORDERED_TYPES:
                j = i + 1
                if j < n and tokens[j][0] == "<":
                    j = skip_template_group(tokens, j)
                # Scan over closers/qualifiers of an enclosing template and
                # pointer/ref markers to the declared name.
                while j < n and tokens[j][0] in {">", ">>", "*", "&", "const"}:
                    j += 1
                if j < n and re.match(r"[A-Za-z_]\w*$", tokens[j][0]):
                    nxt = tokens[j + 1][0] if j + 1 < n else ";"
                    if nxt != "::":
                        self.unordered_names.add(tokens[j][0])
            i += 1

    def _collect_clock_aliases(self, tokens) -> set[str]:
        aliases = set()
        n = len(tokens)
        for i in range(n):
            if tokens[i][0] == "using" and i + 2 < n and tokens[i + 2][0] == "=":
                j = i + 3
                while j < n and tokens[j][0] != ";":
                    if tokens[j][0] in CLOCK_NAMES:
                        aliases.add(tokens[i + 1][0])
                        break
                    j += 1
        return aliases

    # -- AUD-D1 --

    def _d1_unordered_iteration(self, rel, tokens):
        findings = []
        n = len(tokens)
        i = 0
        while i < n:
            t, line = tokens[i]
            # Range-for whose container resolves to an unordered name.
            if t == "for" and i + 1 < n and tokens[i + 1][0] == "(":
                end = match_group(tokens, i + 1, "(", ")")
                colon = None
                depth = 0
                bracket = 0
                for j in range(i + 1, end):
                    tj = tokens[j][0]
                    if tj == "(":
                        depth += 1
                    elif tj == ")":
                        depth -= 1
                    elif tj == "[":
                        bracket += 1
                    elif tj == "]":
                        bracket -= 1
                    elif tj == ";" and depth == 1:
                        colon = None
                        break  # classic for-loop
                    elif tj == ":" and depth == 1 and bracket == 0:
                        # skip access-specifier-style false hits: ':' in a
                        # range-for is never followed by 'able:' labels here.
                        colon = j
                        break
                if colon is not None:
                    name = self._container_root(tokens, colon + 1, end - 1)
                    if name in self.unordered_names:
                        findings.append(Finding(
                            "AUD-D1", rel, tokens[colon][1],
                            f"range-for over unordered container '{name}': "
                            "iteration order is hash-order and varies across "
                            "standard libraries and runs; iterate a sorted "
                            "view or justify with "
                            "// audit: order-insensitive(<reason>)"))
            # Iterator traversal: X.begin()/X.cbegin() on an unordered name.
            if t in {"begin", "cbegin", "rbegin"} and i >= 2 and i + 1 < n \
                    and tokens[i + 1][0] == "(" \
                    and tokens[i - 1][0] in {".", "->"}:
                owner = tokens[i - 2][0]
                if owner in self.unordered_names:
                    findings.append(Finding(
                        "AUD-D1", rel, line,
                        f"iterator traversal of unordered container "
                        f"'{owner}': hash-order is not deterministic across "
                        "toolchains; justify with "
                        "// audit: order-insensitive(<reason>)"))
            i += 1
        return findings

    @staticmethod
    def _container_root(tokens, start, end):
        """Final identifier of the container expression in tokens[start:end]
        (e.g. `*memo` -> memo, `snap.jobs()` -> jobs, `m` -> m)."""
        toks = [t for t, _ in tokens[start:end]]
        while toks and toks[-1] == ")":
            # strip one trailing call group
            depth = 0
            for k in range(len(toks) - 1, -1, -1):
                if toks[k] == ")":
                    depth += 1
                elif toks[k] == "(":
                    depth -= 1
                    if depth == 0:
                        toks = toks[:k]
                        break
            else:
                break
        return toks[-1] if toks and re.match(r"[A-Za-z_]\w*$", toks[-1]) else ""

    # -- AUD-D2 --

    def _d2_pointer_comparators(self, rel, tokens):
        findings = []
        n = len(tokens)
        i = 0
        while i < n:
            t, line = tokens[i]
            # std::set<T*> / std::map<T*, V> with the default comparator;
            # std::less<T*>.
            if t in {"set", "multiset", "map", "multimap", "less"} and i >= 2 \
                    and tokens[i - 1][0] == "::" and tokens[i - 2][0] == "std" \
                    and i + 1 < n and tokens[i + 1][0] == "<":
                args = self._template_args(tokens, i + 1)
                if args is not None:
                    key_is_ptr = bool(args) and args[0].endswith("*")
                    max_args = {"set": 1, "multiset": 1, "less": 1,
                                "map": 2, "multimap": 2}[t]
                    if key_is_ptr and len(args) <= max_args:
                        findings.append(Finding(
                            "AUD-D2", rel, line,
                            f"std::{t} ordered by pointer value "
                            f"('{args[0]}'): allocation addresses differ "
                            "across runs; key on a stable id or justify "
                            "with // audit: address-stable(<reason>)"))
            # Lambda comparator with >=2 pointer params comparing the
            # pointers themselves.
            if t == "]" and i + 1 < n and tokens[i + 1][0] == "(":
                pend = match_group(tokens, i + 1, "(", ")")
                ptr_params = self._pointer_params(tokens, i + 2, pend - 1)
                if len(ptr_params) >= 2:
                    j = pend
                    while j < n and tokens[j][0] not in {"{", ";", ")"}:
                        j += 1
                    if j < n and tokens[j][0] == "{":
                        bend = match_group(tokens, j, "{", "}")
                        findings.extend(self._ptr_compares(
                            rel, tokens, j + 1, bend - 1, ptr_params))
            i += 1
        return findings

    @staticmethod
    def _template_args(tokens, i):
        """Top-level template argument strings for the '<' at tokens[i],
        or None when it is not a closed argument list."""
        end = skip_template_group(tokens, i)
        if end == i:
            return None
        args, cur, depth = [], [], 0
        for k in range(i + 1, end - 1):
            t = tokens[k][0]
            if t in {"<", "(", "["}:
                depth += 1
            elif t in {">", ")", "]"}:
                depth -= 1
            elif t == ">>":
                depth -= 2
            if t == "," and depth == 0:
                args.append("".join(cur))
                cur = []
            else:
                cur.append(t)
        if cur:
            args.append("".join(cur))
        return args

    @staticmethod
    def _pointer_params(tokens, start, end):
        """Names of pointer-typed parameters declared in tokens[start:end]."""
        params, cur = [], []
        depth = 0
        for k in range(start, end):
            t = tokens[k][0]
            if t in {"<", "(", "["}:
                depth += 1
            elif t in {">", ")", "]"}:
                depth -= 1
            if t == "," and depth == 0:
                params.append(cur)
                cur = []
            else:
                cur.append(t)
        if cur:
            params.append(cur)
        names = []
        for p in params:
            if "*" in p and p and re.match(r"[A-Za-z_]\w*$", p[-1]):
                names.append(p[-1])
        return names

    @staticmethod
    def _ptr_compares(rel, tokens, start, end, ptr_params):
        findings = []
        pset = set(ptr_params)
        for k in range(start + 1, end - 1):
            op = tokens[k][0]
            if op in RELATIONAL:
                lhs, l_line = tokens[k - 1]
                rhs, _ = tokens[k + 1]
                if lhs in pset and rhs in pset and lhs != rhs:
                    before = tokens[k - 2][0] if k - 2 >= start else ";"
                    if before in {".", "->"}:
                        continue  # member access, not the pointer itself
                    findings.append(Finding(
                        "AUD-D2", rel, l_line,
                        f"comparator orders by pointer value "
                        f"('{lhs} {op} {rhs}'): addresses are not stable "
                        "across runs; compare a stable field or justify "
                        "with // audit: address-stable(<reason>)"))
        return findings

    # -- AUD-D3 --

    def _d3_banned_sources(self, rel, tokens):
        findings = []
        aliases = self.clock_aliases.get(rel, set())
        n = len(tokens)
        for i in range(n):
            t, line = tokens[i]
            nxt = tokens[i + 1][0] if i + 1 < n else ""
            prev = tokens[i - 1][0] if i > 0 else ";"
            if t == "random_device" and prev == "::":
                findings.append(Finding(
                    "AUD-D3", rel, line,
                    "std::random_device in decision-path code: "
                    "hardware entropy breaks seeded replay; draw from "
                    "mwp::Rng"))
            elif t in {"rand", "srand"} and nxt == "(" and prev not in {
                    ".", "->", "::"}:
                findings.append(Finding(
                    "AUD-D3", rel, line,
                    f"{t}() in decision-path code breaks seeded replay; "
                    "draw from mwp::Rng"))
            elif t == "now" and nxt == "(" and prev == "::" and i >= 2:
                owner = tokens[i - 2][0]
                if owner in CLOCK_NAMES or owner in aliases:
                    via = f" (via alias '{owner}')" if owner in aliases else ""
                    findings.append(Finding(
                        "AUD-D3", rel, line,
                        f"wall-clock read{via} in decision-path code: "
                        "results would depend on the host; simulated time "
                        "only, or justify an observability stopwatch with "
                        "// audit: wall-clock-ok(<reason>)"))
            elif t == "time" and nxt == "(" and prev not in {".", "->", "::"} \
                    and i + 2 < n and tokens[i + 2][0] in {"nullptr", "NULL", "0"}:
                findings.append(Finding(
                    "AUD-D3", rel, line,
                    "time(nullptr) in decision-path code breaks seeded "
                    "replay; draw from mwp::Rng"))
        return findings

    # -- AUD-D4 --

    def _d4_parallel_reductions(self, rel, tokens):
        findings = []
        n = len(tokens)
        # File-local named lambdas: `auto name = [...] ... { body }`.
        local_lambdas = {}
        for i in range(n - 3):
            if tokens[i][0] == "auto" and tokens[i + 2][0] == "=" \
                    and tokens[i + 3][0] == "[":
                cap_end = match_group(tokens, i + 3, "[", "]")
                j = cap_end
                params = []
                if j < n and tokens[j][0] == "(":
                    p_end = match_group(tokens, j, "(", ")")
                    params = [t for t, _ in tokens[j + 1:p_end - 1]
                              if re.match(r"[A-Za-z_]\w*$", t)]
                    j = p_end
                while j < n and tokens[j][0] not in {"{", ";"}:
                    j += 1
                if j < n and tokens[j][0] == "{":
                    local_lambdas[tokens[i + 1][0]] = (
                        params, j + 1, match_group(tokens, j, "{", "}") - 1)
        i = 0
        while i < n:
            t, _ = tokens[i]
            if t in PARALLEL_ENTRY_CALLS and i + 1 < n \
                    and tokens[i + 1][0] == "(":
                # Declarations/definitions of ParallelFor itself are
                # harmless here: a parameter list contains no lambda body,
                # so _lambda_bodies yields nothing for them.
                arg_end = match_group(tokens, i + 1, "(", ")")
                bodies = self._lambda_bodies(tokens, i + 2, arg_end - 1)
                seen_ranges = set()
                for params, b_start, b_end in bodies:
                    self._scan_parallel_body(
                        rel, tokens, params, b_start, b_end, local_lambdas,
                        seen_ranges, findings, hop=0)
                i = arg_end
                continue
            i += 1
        return findings

    @staticmethod
    def _lambda_bodies(tokens, start, end):
        """(param_names, body_start, body_end) for each lambda literal in
        tokens[start:end]."""
        bodies = []
        j = start
        while j < end:
            if tokens[j][0] == "[":
                cap_end = match_group(tokens, j, "[", "]")
                k = cap_end
                params = []
                if k < end and tokens[k][0] == "(":
                    p_end = match_group(tokens, k, "(", ")")
                    params = [t for t, _ in tokens[k + 1:p_end - 1]
                              if re.match(r"[A-Za-z_]\w*$", t)]
                    k = p_end
                while k < end and tokens[k][0] not in {"{", ",", ";"}:
                    k += 1
                if k < end and tokens[k][0] == "{":
                    b_end = match_group(tokens, k, "{", "}")
                    bodies.append((params, k + 1, b_end - 1))
                    j = b_end
                    continue
            j += 1
        return bodies

    def _scan_parallel_body(self, rel, tokens, params, start, end,
                            local_lambdas, seen_ranges, findings, hop):
        if (start, end) in seen_ranges or hop > 2:
            return
        seen_ranges.add((start, end))
        locals_here = self._body_locals(tokens, start, end) | set(params)
        for k in range(start, end):
            t, line = tokens[k]
            if t in COMPOUND_ASSIGN:
                root = self._lhs_root(tokens, start, k)
                if root and root not in locals_here:
                    findings.append(Finding(
                        "AUD-D4", rel, line,
                        f"compound assignment to captured '{root}' inside a "
                        "parallel lane: either a data race or an "
                        "order-dependent reduction (FP addition is not "
                        "associative); write per-index slots and reduce in "
                        "index order, or justify with "
                        "// audit: order-fixed(<reason>)"))
            # One hop through file-local lambdas invoked from the lane.
            if t in local_lambdas and k + 1 <= end \
                    and tokens[k + 1][0] == "(":
                lb_params, lb_start, lb_end = local_lambdas[t]
                self._scan_parallel_body(rel, tokens, lb_params, lb_start,
                                         lb_end, local_lambdas, seen_ranges,
                                         findings, hop + 1)

    @staticmethod
    def _body_locals(tokens, start, end):
        """Identifiers declared inside a lambda body (approximate: enough to
        separate captured state from lane-local scratch)."""
        names = set()
        stmt_start = True
        k = start
        while k < end:
            t = tokens[k][0]
            if t in {";", "{", "}"}:
                stmt_start = True
                k += 1
                continue
            if stmt_start:
                j = k
                while j < end and tokens[j][0] in {
                        "const", "auto", "static", "constexpr", "unsigned",
                        "int", "long", "double", "float", "bool", "char",
                        "std", "::", "&", "*"} or (
                            j < end and tokens[j][0] == "<"):
                    if tokens[j][0] == "<":
                        nj = skip_template_group(tokens, j)
                        if nj == j:
                            break
                        j = nj
                        continue
                    j += 1
                # A declaration if what follows is `name =`, `name{`, `name;`
                # or `name :` (range-for variable).
                if j < end and j > k and re.match(r"[A-Za-z_]\w*$", tokens[j][0]):
                    nxt = tokens[j + 1][0] if j + 1 < end else ";"
                    if nxt in {"=", "{", ";", ":", ","}:
                        names.add(tokens[j][0])
                # Plain `Type name` where Type is a project identifier.
                if j == k and j + 1 < end \
                        and re.match(r"[A-Za-z_]\w*$", tokens[j][0]) \
                        and re.match(r"[A-Za-z_]\w*$", tokens[j + 1][0]):
                    nxt2 = tokens[j + 2][0] if j + 2 < end else ";"
                    if nxt2 in {"=", "{", ";"}:
                        names.add(tokens[j + 1][0])
                stmt_start = False
            # for-loop induction variables.
            if t == "for" and k + 1 < end and tokens[k + 1][0] == "(":
                pend = match_group(tokens, k + 1, "(", ")")
                for j in range(k + 2, min(pend, end)):
                    if tokens[j][0] in {"=", ":"} and j - 1 > k + 1 \
                            and re.match(r"[A-Za-z_]\w*$", tokens[j - 1][0]):
                        names.add(tokens[j - 1][0])
                        break
            k += 1
        return names

    @staticmethod
    def _lhs_root(tokens, start, k):
        """Root identifier of the lvalue chain ending just before tokens[k]
        (e.g. `out.cell[ i ] +=` -> out)."""
        j = k - 1
        # Walk back over `]...[`, `)`, names, `.`/`->`/`::` chains.
        while j >= start:
            t = tokens[j][0]
            if t == "]":
                depth = 0
                while j >= start:
                    if tokens[j][0] == "]":
                        depth += 1
                    elif tokens[j][0] == "[":
                        depth -= 1
                        if depth == 0:
                            break
                    j -= 1
                j -= 1
                continue
            if re.match(r"[A-Za-z_]\w*$", t):
                prev = tokens[j - 1][0] if j - 1 >= start else ";"
                if prev in {".", "->", "::"}:
                    j -= 2
                    continue
                return t
            return ""
        return ""

    # -- AUD-L1 --

    ATTR_MACROS = {"MWP_GUARDED_BY", "MWP_PT_GUARDED_BY", "MWP_ACQUIRED_BEFORE",
                   "GUARDED_BY", "PT_GUARDED_BY", "ACQUIRED_BEFORE",
                   "MWP_CAPABILITY", "alignas"}
    L1_EXEMPT_TYPES = {"Mutex", "mutex", "condition_variable",
                       "condition_variable_any", "atomic", "atomic_flag",
                       "jthread", "thread", "stop_token", "stop_source"}

    def _l1_guarded_by(self, rel, tokens):
        findings = []
        for cls_name, body_start, body_end in self._class_bodies(tokens):
            stmts = self._class_member_stmts(tokens, body_start, body_end)
            members = []
            has_mutex = False
            for stmt in stmts:
                info = self._classify_member(stmt)
                if info is None:
                    continue
                members.append(info)
                if info["kind"] == "mutex":
                    has_mutex = True
            if not has_mutex:
                continue
            for info in members:
                if info["kind"] == "plain" and not info["guarded"]:
                    findings.append(Finding(
                        "AUD-L1", rel, info["line"],
                        f"'{cls_name}::{info['name']}' is mutable state "
                        "co-located with a Mutex but names no guard: add "
                        "MWP_GUARDED_BY(<mu>) (or MWP_PT_GUARDED_BY), make "
                        "it const/atomic, or justify with "
                        "// audit: not-guarded(<reason>)"))
        return findings

    @staticmethod
    def _class_bodies(tokens):
        """Yields (name, body_start, body_end) for every class/struct
        definition, including nested ones."""
        out = []
        n = len(tokens)
        i = 0
        while i < n:
            if tokens[i][0] in {"class", "struct"}:
                if i > 0 and tokens[i - 1][0] == "enum":
                    i += 1
                    continue
                # Find the body '{' before any ';' (else forward decl).
                j = i + 1
                name = ""
                while j < n and tokens[j][0] not in {"{", ";"}:
                    if not name and re.match(r"[A-Za-z_]\w*$", tokens[j][0]) \
                            and tokens[j][0] not in {"final", "alignas"}:
                        # skip macro attribute arg lists
                        if j + 1 < n and tokens[j + 1][0] == "(":
                            j = match_group(tokens, j + 1, "(", ")")
                            continue
                        name = tokens[j][0]
                    j += 1
                if j < n and tokens[j][0] == "{" and name:
                    body_end = match_group(tokens, j, "{", "}")
                    out.append((name, j + 1, body_end - 1))
                i = j
            i += 1
        return out

    @staticmethod
    def _class_member_stmts(tokens, start, end):
        """Statements at depth 1 of a class body; method bodies and nested
        type bodies are skipped whole."""
        stmts = []
        cur = []
        k = start
        while k < end:
            t, line = tokens[k]
            if t == "{":
                k2 = match_group(tokens, k, "{", "}")
                if cur and cur[-1][0] == "=":
                    k = k2  # `= { ... }` initializer; statement runs to ';'
                    continue
                if k2 < end and tokens[k2][0] == ";" and cur:
                    # Brace-initialized member (`std::atomic<bool> x_{false};`)
                    # or a nested type body — classify_member sorts them out.
                    stmts.append(cur)
                    cur = []
                    k = k2 + 1
                    continue
                # Method body: discard the signature.
                k = k2
                if k < end and tokens[k][0] == ";":
                    k += 1
                cur = []
                continue
            if t == ";":
                if cur:
                    stmts.append(cur)
                cur = []
                k += 1
                continue
            if t in {"public", "private", "protected"} and k + 1 < end \
                    and tokens[k + 1][0] == ":":
                cur = []
                k += 2
                continue
            cur.append((t, line))
            k += 1
        if cur:
            stmts.append(cur)
        return stmts

    @classmethod
    def _classify_member(cls, stmt):
        """None for non-members (methods, usings, friends); else a dict with
        name/line/kind(guarded|mutex|exempt|plain)/guarded."""
        if not stmt:
            return None
        head = stmt[0][0]
        if head in {"using", "typedef", "friend", "static_assert", "template",
                    "enum", "class", "struct", "explicit", "virtual",
                    "operator", "MWP_REQUIRES", "MWP_EXCLUDES"}:
            return None
        texts = [t for t, _ in stmt]
        guarded = any(t in {"MWP_GUARDED_BY", "MWP_PT_GUARDED_BY",
                            "GUARDED_BY", "PT_GUARDED_BY"} for t in texts)
        # Strip attribute macros + their argument groups, then template
        # groups, to expose the declaration's skeleton.
        flat = []
        k = 0
        while k < len(stmt):
            t, line = stmt[k]
            if t in cls.ATTR_MACROS and k + 1 < len(stmt) \
                    and stmt[k + 1][0] == "(":
                k = match_group(stmt, k + 1, "(", ")")
                continue
            if t == "<":
                nk = skip_template_group(stmt, k)
                if nk != k:
                    k = nk
                    continue
            flat.append((t, line))
            k += 1
        texts_flat = [t for t, _ in flat]
        if not texts_flat:
            return None
        # Method / constructor: a top-level paren group before any '='.
        eq = texts_flat.index("=") if "=" in texts_flat else len(texts_flat)
        if "(" in texts_flat and texts_flat.index("(") < eq:
            return None
        if "operator" in texts_flat:
            return None
        # Member name: last identifier before '=', '[' or end.
        stop = len(flat)
        for marker in ("=", "["):
            if marker in texts_flat:
                stop = min(stop, texts_flat.index(marker))
        name, line = "", flat[0][1]
        for t, ln in flat[:stop]:
            if re.match(r"[A-Za-z_]\w*$", t):
                name, line = t, ln
        if not name or name in {"const", "mutable", "static"}:
            return None
        type_tokens = [t for t, _ in flat[:stop]][:-1] if stop else []
        kind = "plain"
        if any(t in {"Mutex"} for t in type_tokens) or (
                "mutex" in type_tokens):
            kind = "mutex"
        elif any(t in cls.L1_EXEMPT_TYPES for t in type_tokens):
            kind = "exempt"
        elif "static" in type_tokens or "constexpr" in type_tokens \
                or "constinit" in type_tokens:
            kind = "exempt"
        elif "const" in type_tokens and "*" not in type_tokens \
                and "&" not in type_tokens:
            kind = "exempt"  # immutable by construction
        if guarded:
            kind = "guarded" if kind == "plain" else kind
        return {"name": name, "line": line, "kind": kind, "guarded": guarded}

    # -- AUD-L2 --

    def _l2_lock_facts(self, rel, tokens):
        """Observed nesting edges from MutexLock scopes and declared
        MWP_ACQUIRED_BEFORE edges. Mutex identity is qualified by the
        innermost class (or the defining class of an out-of-line method),
        falling back to the file stem."""
        observed = []
        declared = []
        n = len(tokens)

        # Declared edges: `Mutex a_ MWP_ACQUIRED_BEFORE(b_);` inside class
        # bodies.
        for cls_name, b_start, b_end in self._class_bodies(tokens):
            for stmt in self._class_member_stmts(tokens, b_start, b_end):
                texts = [t for t, _ in stmt]
                if "MWP_ACQUIRED_BEFORE" not in texts and \
                        "ACQUIRED_BEFORE" not in texts:
                    continue
                if "Mutex" not in texts and "mutex" not in texts:
                    continue
                mk = next(i for i, t in enumerate(texts)
                          if t in {"MWP_ACQUIRED_BEFORE", "ACQUIRED_BEFORE"})
                if mk + 1 >= len(stmt) or stmt[mk + 1][0] != "(":
                    continue
                # Declared mutex name: last ident before the macro.
                name = ""
                for t, _ in stmt[:mk]:
                    if re.match(r"[A-Za-z_]\w*$", t) and t not in {
                            "Mutex", "mutable", "const", "std", "mutex"}:
                        name = t
                close = match_group(stmt, mk + 1, "(", ")")
                succ = [t for t, _ in stmt[mk + 2:close - 1]
                        if re.match(r"[A-Za-z_]\w*$", t)]
                for s in succ:
                    declared.append(((cls_name, name), (cls_name, s),
                                     rel, stmt[mk][1]))

        # Observed nesting: walk brace scopes tracking class context and
        # active MutexLock holds.
        scope_stack = []  # (kind, name)
        active_locks = []  # (depth, node, line)
        depth = 0
        i = 0
        while i < n:
            t, line = tokens[i]
            if t == "{":
                kind, name = self._scope_kind(tokens, i)
                scope_stack.append((kind, name))
                depth += 1
            elif t == "}":
                depth -= 1
                if scope_stack:
                    scope_stack.pop()
                active_locks = [l for l in active_locks if l[0] <= depth]
            elif t == "MutexLock" and i + 2 < n \
                    and re.match(r"[A-Za-z_]\w*$", tokens[i + 1][0]) \
                    and tokens[i + 2][0] in {"(", "{"}:
                closer = ")" if tokens[i + 2][0] == "(" else "}"
                end = match_group(tokens, i + 2, tokens[i + 2][0], closer)
                expr = [tok for tok, _ in tokens[i + 3:end - 1]]
                mutex = self._normalize_mutex(expr)
                if mutex:
                    ctx = self._lock_context(scope_stack, rel)
                    node = (ctx, mutex)
                    for _, held, _ in active_locks:
                        if held != node:
                            observed.append((held, node, rel, line))
                    active_locks.append((depth, node, line))
                i = end
                continue
            i += 1
        return observed, declared

    @staticmethod
    def _normalize_mutex(expr_tokens):
        toks = [t for t in expr_tokens if t not in {"*", "&", "this", "->", "."}]
        return toks[-1] if toks and re.match(r"[A-Za-z_]\w*$", toks[-1]) else ""

    @staticmethod
    def _scope_kind(tokens, i):
        """Classify the '{' at tokens[i] by looking back."""
        j = i - 1
        # Skip over initializer lists / qualifiers back to ')' or a keyword.
        guard = 0
        while j >= 0 and guard < 64:
            t = tokens[j][0]
            if t in {";", "{", "}"}:
                return ("block", "")
            if t in {"class", "struct"}:
                name = tokens[j + 1][0] if j + 1 < len(tokens) else ""
                return ("class", name)
            if t == "namespace":
                return ("namespace", "")
            if t == ")":
                # Function-ish: find name before the matching '('.
                depth = 0
                k = j
                while k >= 0:
                    if tokens[k][0] == ")":
                        depth += 1
                    elif tokens[k][0] == "(":
                        depth -= 1
                        if depth == 0:
                            break
                    k -= 1
                if k > 1 and tokens[k - 1][0] != "]" and \
                        re.match(r"[A-Za-z_]\w*$", tokens[k - 1][0]):
                    # Out-of-line `Class::Method`?
                    if k - 3 >= 0 and tokens[k - 2][0] == "::" and \
                            re.match(r"[A-Za-z_]\w*$", tokens[k - 3][0]):
                        return ("func", tokens[k - 3][0])
                    return ("func", "")
                return ("func", "")  # lambda or operator
            j -= 1
            guard += 1
        return ("block", "")

    @staticmethod
    def _lock_context(scope_stack, rel):
        # The class owning the mutex is the context: methods of one class
        # must share a node so cross-method edges close cycles. Inline
        # methods sit above their class frame; out-of-line definitions get
        # the class name recorded on the func frame (`Cls::Method`).
        for kind, name in reversed(scope_stack):
            if kind == "class" and name:
                return name
        for kind, name in reversed(scope_stack):
            if kind == "func" and name:
                return name
        return Path(rel).stem


# --- libclang engine --------------------------------------------------------

class LibclangEngine:
    """clang.cindex-based extractor feeding the same rule set. Requires a
    compile_commands.json; headers are audited through the TUs that include
    them, findings deduplicated by (rule, file, line). Detection is
    top-down (structural walks with source-range containment) rather than
    semantic_parent climbs, which are unreliable for expressions."""

    name = "libclang"

    def __init__(self, root: Path, files: list[Path], compdb_path: Path,
                 restrict_prefixes=AUDIT_DIRS):
        import clang.cindex as cindex
        self.cindex = cindex
        self.root = root
        self.files = files
        self.compdb_path = compdb_path
        self.restrict_prefixes = restrict_prefixes
        self._configure_library(cindex)

    @staticmethod
    def _configure_library(cindex):
        try:
            cindex.Index.create()
            return
        except Exception:
            pass
        import glob
        candidates = sorted(
            glob.glob("/usr/lib/llvm-*/lib/libclang-*.so*")
            + glob.glob("/usr/lib/llvm-*/lib/libclang.so*")
            + glob.glob("/usr/lib/x86_64-linux-gnu/libclang-*.so*"),
            reverse=True)
        for lib in candidates:
            try:
                cindex.Config.loaded = False
                cindex.Config.set_library_file(lib)
                cindex.Index.create()
                return
            except Exception:
                continue
        raise RuntimeError("no usable libclang shared library found")

    # -- plumbing --

    def _rel_of(self, location) -> str | None:
        if location is None or location.file is None:
            return None
        try:
            rel = Path(location.file.name).resolve().relative_to(
                self.root).as_posix()
        except ValueError:
            return None
        if self.restrict_prefixes and not any(
                rel.startswith(d + "/") for d in self.restrict_prefixes):
            return None
        return rel

    @staticmethod
    def _clang_args(entry):
        if "arguments" in entry:
            argv = entry["arguments"][1:]
        else:
            import shlex
            argv = shlex.split(entry["command"])[1:]
        args = []
        skip_next = False
        for a in argv:
            if skip_next:
                skip_next = False
                continue
            if a == "-o":
                skip_next = True
                continue
            if a == "-c" or a.endswith((".cc", ".cpp", ".o")):
                continue
            args.append(a)
        return args

    @staticmethod
    def _canon(cursor_or_type):
        t = getattr(cursor_or_type, "type", cursor_or_type)
        try:
            return t.get_canonical().spelling
        except Exception:
            return ""

    @staticmethod
    def _walk(cursor):
        yield cursor
        for child in cursor.get_children():
            yield from LibclangEngine._walk(child)

    def run(self):
        cindex = self.cindex
        index = cindex.Index.create()
        with open(self.compdb_path, encoding="utf-8") as fh:
            compdb = json.load(fh)
        findings: dict = {}
        lock_edges = []
        declared_edges = []
        parsed_any = False

        for entry in compdb:
            src = Path(entry["file"])
            if not src.is_absolute():
                src = Path(entry["directory"]) / src
            try:
                src.resolve().relative_to(self.root)
            except ValueError:
                continue
            tu = index.parse(str(src), args=self._clang_args(entry))
            parsed_any = True
            self._visit_tu(tu, findings, lock_edges, declared_edges)

        if not parsed_any:
            raise RuntimeError(
                f"no compile_commands.json entry under {self.root}")

        # Annotations come from the raw text of every audited file (headers
        # included), exactly as in the builtin engine — the allowlist layer
        # needs them for suppression and stale detection either way.
        annotations = []
        for path in self.files:
            rel = path.relative_to(self.root).as_posix()
            try:
                text = path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError):
                continue
            _, annos = preprocess(text)
            annotations.extend(Annotation(rel, ln, tag, reason, targets)
                               for ln, tag, reason, targets in annos)
        return list(findings.values()), annotations, lock_edges, declared_edges

    # -- per-TU visit --

    def _visit_tu(self, tu, findings, lock_edges, declared_edges):
        ck = self.cindex.CursorKind

        def add(rule, rel, line, message):
            f = Finding(rule, rel, line, message)
            findings.setdefault(f.key(), f)

        def is_unordered(type_obj):
            return "unordered_" in self._canon(type_obj)

        for cursor in self._walk(tu.cursor):
            rel = self._rel_of(cursor.location)
            if rel is None:
                continue
            line = cursor.location.line
            kind = cursor.kind

            if kind == ck.CXX_FOR_RANGE_STMT:
                # The range initializer is the last non-VAR_DECL child
                # before the body; checking every child for an unordered
                # type is a safe over-approximation.
                if any(is_unordered(ch.type) for ch in cursor.get_children()
                       if ch.kind != ck.COMPOUND_STMT):
                    add("AUD-D1", rel, line,
                        "range-for over unordered container: hash-order is "
                        "not deterministic across standard libraries; "
                        "iterate a sorted view or justify with "
                        "// audit: order-insensitive(<reason>)")
            elif kind == ck.CALL_EXPR:
                name = cursor.spelling
                if name in {"begin", "cbegin", "rbegin"}:
                    if any(is_unordered(d.type)
                           for d in self._walk(cursor)):
                        add("AUD-D1", rel, line,
                            "iterator traversal of unordered container: "
                            "hash-order is not deterministic; justify with "
                            "// audit: order-insensitive(<reason>)")
                elif name == "now":
                    ref = cursor.referenced
                    parent = ref.semantic_parent if ref is not None else None
                    if parent is not None and parent.spelling in CLOCK_NAMES:
                        add("AUD-D3", rel, line,
                            "wall-clock read in decision-path code; "
                            "simulated time only, or justify an "
                            "observability stopwatch with "
                            "// audit: wall-clock-ok(<reason>)")
                elif name in {"rand", "srand"}:
                    ref = cursor.referenced
                    ref_rel = self._rel_of(ref.location) if ref else None
                    if ref_rel is None:  # declared in a system header
                        add("AUD-D3", rel, line,
                            f"{name}() in decision-path code breaks seeded "
                            "replay; draw from mwp::Rng")
                elif name == "time":
                    ref = cursor.referenced
                    ref_rel = self._rel_of(ref.location) if ref else None
                    if ref_rel is None:
                        add("AUD-D3", rel, line,
                            "time(nullptr) in decision-path code breaks "
                            "seeded replay; draw from mwp::Rng")
            elif kind == ck.VAR_DECL:
                s = self._canon(cursor.type)
                if "random_device" in s:
                    add("AUD-D3", rel, line,
                        "std::random_device in decision-path code: hardware "
                        "entropy breaks seeded replay; draw from mwp::Rng")
            elif kind == ck.LAMBDA_EXPR:
                self._check_comparator_lambda(cursor, rel, add, ck)
            elif kind in (ck.TYPE_ALIAS_DECL, ck.TYPEDEF_DECL,
                          ck.FIELD_DECL):
                s = self._canon(cursor.type)
                if re.search(r"std::(?:multi)?(?:set|map)<[^<>]*\*\s*[,>]",
                             s) and re.search(r"std::less<[^<>]*\*\s*>", s):
                    add("AUD-D2", rel, line,
                        "std::set/map ordered by pointer value "
                        "(std::less<T*>): allocation addresses differ "
                        "across runs; key on a stable id or justify with "
                        "// audit: address-stable(<reason>)")
                if kind == ck.FIELD_DECL:
                    self._check_field(cursor, rel, line, add, ck)

            if kind == ck.CALL_EXPR and cursor.spelling in \
                    PARALLEL_ENTRY_CALLS:
                self._check_parallel_call(cursor, rel, add, ck)

            if kind in (ck.CXX_METHOD, ck.FUNCTION_DECL, ck.CONSTRUCTOR,
                        ck.DESTRUCTOR) and cursor.is_definition():
                self._collect_lock_nesting(cursor, rel, lock_edges, ck)
            if kind == ck.FIELD_DECL:
                self._collect_declared_edges(cursor, rel, declared_edges, ck)

    # -- AUD-D2 (lambda comparators) --

    def _check_comparator_lambda(self, cursor, rel, add, ck):
        params = [ch for ch in cursor.get_children()
                  if ch.kind == ck.PARM_DECL]
        ptr_names = {p.spelling for p in params
                     if self._canon(p.type).rstrip().endswith("*")}
        if len(ptr_names) < 2:
            return
        for d in self._walk(cursor):
            if d.kind != ck.BINARY_OPERATOR:
                continue
            kids = list(d.get_children())
            if len(kids) != 2:
                continue
            # Operator spelling: the token between the operand extents.
            toks = [t.spelling for t in d.get_tokens()]
            if not any(op in toks for op in RELATIONAL):
                continue
            sides = []
            for kid in kids:
                refs = [c.referenced.spelling for c in self._walk(kid)
                        if c.kind == ck.DECL_REF_EXPR and
                        c.referenced is not None]
                member = any(c.kind == ck.MEMBER_REF_EXPR
                             for c in self._walk(kid))
                sides.append((set(refs), member))
            (lrefs, lmem), (rrefs, rmem) = sides
            if lmem or rmem:
                continue  # compares a field, not the pointer itself
            if lrefs & ptr_names and rrefs & ptr_names and \
                    (lrefs | rrefs) >= {min(ptr_names), max(ptr_names)} \
                    and lrefs != rrefs:
                add("AUD-D2", rel, d.location.line,
                    "comparator orders by pointer value: addresses are not "
                    "stable across runs; compare a stable field or justify "
                    "with // audit: address-stable(<reason>)")

    # -- AUD-D4 --

    def _check_parallel_call(self, cursor, rel, add, ck):
        for lam in self._walk(cursor):
            if lam.kind != ck.LAMBDA_EXPR:
                continue
            ext = lam.extent
            lam_start = (ext.start.line, ext.start.column)
            lam_end = (ext.end.line, ext.end.column)

            def inside_lambda(loc):
                if loc is None or loc.file is None or \
                        ext.start.file is None or \
                        loc.file.name != ext.start.file.name:
                    return False
                p = (loc.line, loc.column)
                return lam_start <= p <= lam_end

            for d in self._walk(lam):
                if d.kind != ck.COMPOUND_ASSIGNMENT_OPERATOR:
                    continue
                kids = list(d.get_children())
                if not kids:
                    continue
                lhs_refs = [c.referenced for c in self._walk(kids[0])
                            if c.kind in (ck.DECL_REF_EXPR,
                                          ck.MEMBER_REF_EXPR)
                            and c.referenced is not None]
                # Captured state: some referenced decl lives outside the
                # lambda (member fields always do).
                if any(not inside_lambda(r.location) for r in lhs_refs):
                    add("AUD-D4", rel, d.location.line,
                        "compound assignment to captured state inside a "
                        "parallel lane: data race or order-dependent "
                        "reduction (FP addition is not associative); write "
                        "per-index slots and reduce in index order, or "
                        "justify with // audit: order-fixed(<reason>)")

    # -- AUD-L1 --

    L1_EXEMPT_BASES = {"Mutex", "mutex", "recursive_mutex", "shared_mutex",
                       "condition_variable", "condition_variable_any",
                       "atomic", "atomic_flag", "thread", "jthread",
                       "stop_token", "stop_source"}

    def _check_field(self, cursor, rel, line, add, ck):
        parent = cursor.semantic_parent
        if parent is None:
            return

        def base_of(c):
            return self._canon(c.type).split("<")[0].split("::")[-1].strip()

        fields = [c for c in parent.get_children()
                  if c.kind == ck.FIELD_DECL]
        if not any(base_of(c) in {"Mutex", "mutex"} for c in fields):
            return
        base = base_of(cursor)
        if base in self.L1_EXEMPT_BASES:
            return
        if cursor.type.is_const_qualified():
            return
        toks = {t.spelling for t in cursor.get_tokens()}
        if toks & {"MWP_GUARDED_BY", "MWP_PT_GUARDED_BY", "GUARDED_BY",
                   "PT_GUARDED_BY"}:
            return
        add("AUD-L1", rel, line,
            f"'{parent.spelling}::{cursor.spelling}' is mutable state "
            "co-located with a Mutex but names no guard: add "
            "MWP_GUARDED_BY(<mu>), make it const/atomic, or justify with "
            "// audit: not-guarded(<reason>)")

    # -- AUD-L2 --

    def _collect_lock_nesting(self, fn_cursor, rel, lock_edges, ck):
        parent = fn_cursor.semantic_parent
        if parent is not None and parent.kind in (
                ck.CLASS_DECL, ck.STRUCT_DECL, ck.CLASS_TEMPLATE):
            ctx = parent.spelling
        elif fn_cursor.kind == ck.FUNCTION_DECL and fn_cursor.spelling:
            ctx = fn_cursor.spelling
        else:
            ctx = Path(rel).stem

        def scan(block, held):
            for child in block.get_children():
                if child.kind == ck.DECL_STMT:
                    for decl in child.get_children():
                        if decl.kind == ck.VAR_DECL and \
                                self._canon(decl.type).split("::")[-1] == \
                                "MutexLock":
                            mutex = self._mutex_operand(decl)
                            if not mutex:
                                continue
                            node = (ctx, mutex)
                            for held_node in held:
                                if held_node != node:
                                    lock_edges.append(
                                        (held_node, node, rel,
                                         decl.location.line))
                            held = held + [node]
                elif child.kind == ck.COMPOUND_STMT:
                    scan(child, held)
                else:
                    # Control-flow statements own nested compounds.
                    for sub in child.get_children():
                        if sub.kind == ck.COMPOUND_STMT:
                            scan(sub, held)

        for child in fn_cursor.get_children():
            if child.kind == ck.COMPOUND_STMT:
                scan(child, [])

    @staticmethod
    def _mutex_operand(decl_cursor):
        toks = [t.spelling for t in decl_cursor.get_tokens()]
        if "(" in toks:
            inner = toks[toks.index("(") + 1:]
            if ")" in inner:
                inner = inner[:inner.index(")")]
            inner = [t for t in inner
                     if t not in {"*", "&", "this", "->", "."}]
            if inner and re.match(r"[A-Za-z_]\w*$", inner[-1]):
                return inner[-1]
        return ""

    def _collect_declared_edges(self, cursor, rel, declared_edges, ck):
        toks = [t.spelling for t in cursor.get_tokens()]
        macro = None
        for m in ("MWP_ACQUIRED_BEFORE", "ACQUIRED_BEFORE"):
            if m in toks:
                macro = m
                break
        if macro is None:
            return
        base = self._canon(cursor.type).split("::")[-1]
        if base not in {"Mutex", "mutex"}:
            return
        parent = cursor.semantic_parent
        ctx = parent.spelling if parent is not None else Path(rel).stem
        mi = toks.index(macro)
        if mi + 1 >= len(toks) or toks[mi + 1] != "(":
            return
        rest = toks[mi + 2:]
        if ")" in rest:
            rest = rest[:rest.index(")")]
        for succ in rest:
            if re.match(r"[A-Za-z_]\w*$", succ):
                declared_edges.append(((ctx, cursor.spelling), (ctx, succ),
                                       rel, cursor.location.line))


# --- allowlist + graph evaluation -------------------------------------------

def detect_cycles(edges):
    """Edges: list of (from_node, to_node, file, line). Returns list of
    cycles, each a list of edge tuples forming the loop."""
    graph = {}
    for e in edges:
        graph.setdefault(e[0], []).append(e)
    cycles = []
    seen_cycles = set()
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {}
    stack = []

    def dfs(node):
        color[node] = GRAY
        for edge in graph.get(node, ()):  # deterministic: insertion order
            nxt = edge[1]
            if color.get(nxt, WHITE) == WHITE:
                stack.append(edge)
                dfs(nxt)
                stack.pop()
            elif color.get(nxt) == GRAY:
                # Back edge closes a cycle.
                cyc = [edge]
                for e in reversed(stack):
                    cyc.append(e)
                    if e[0] == nxt:
                        break
                cyc.reverse()
                key = frozenset((e[0], e[1]) for e in cyc)
                if key not in seen_cycles:
                    seen_cycles.add(key)
                    cycles.append(cyc)
        color[node] = BLACK

    for node in list(graph):
        if color.get(node, WHITE) == WHITE:
            dfs(node)
    return cycles


def apply_allowlist(findings, annotations, observed_edges, declared_edges):
    """Marks findings allowlisted by matching annotations, converts lock
    edges into AUD-L2 cycle findings (suppressible per edge), and appends
    AUD900/AUD901 findings for stale or malformed annotations."""
    by_file = {}
    for a in annotations:
        by_file.setdefault(a.file, []).append(a)

    def annotation_for(rule, file, line):
        tag_wanted = {v: k for k, v in TAG_TO_RULE.items()}[rule]
        for a in by_file.get(file, ()):  # few per file
            if a.tag == tag_wanted and line in a.targets:
                return a
        return None

    for f in findings:
        if f.rule not in TAG_TO_RULE.values():
            continue
        a = annotation_for(f.rule, f.file, f.line)
        if a is not None and a.reason:
            f.allowlisted = True
            f.reason = a.reason
            a.used = True

    # Lock-order cycles over observed + declared edges; an edge whose
    # acquisition line carries lock-order-ok is removed (annotation counts
    # as used only when it actually breaks a cycle).
    all_edges = observed_edges + declared_edges
    cycles = detect_cycles(all_edges)
    for cyc in cycles:
        suppressed = None
        for edge in cyc:
            a = annotation_for("AUD-L2", edge[2], edge[3])
            if a is not None and a.reason:
                suppressed = (edge, a)
                break
        frm, to, file, line = cyc[0]
        path = " -> ".join(f"{n[0]}::{n[1]}" for n, _, _, _ in
                           [(e[0], None, None, None) for e in cyc])
        path += f" -> {cyc[-1][1][0]}::{cyc[-1][1][1]}"
        f = Finding("AUD-L2", file, line,
                    f"lock-order cycle: {path}; acquire in one global order "
                    "or justify the reversed edge with "
                    "// audit: lock-order-ok(<reason>)")
        if suppressed is not None:
            f.allowlisted = True
            f.reason = suppressed[1].reason
            suppressed[1].used = True
        findings.append(f)

    # Stale / malformed annotations.
    for a in annotations:
        if a.tag not in TAG_TO_RULE:
            findings.append(Finding(
                "AUD901", a.file, a.line,
                f"unknown audit tag '{a.tag}' (valid: "
                f"{', '.join(sorted(TAG_TO_RULE))})"))
        elif not a.reason:
            findings.append(Finding(
                "AUD901", a.file, a.line,
                f"audit tag '{a.tag}' has an empty reason; justify or drop"))
        elif not a.used:
            findings.append(Finding(
                "AUD900", a.file, a.line,
                f"stale allowlist entry 'audit: {a.tag}(...)': it no longer "
                "suppresses any finding — delete it (allowlists must shrink "
                "with the code)"))
    return findings


# --- driver -----------------------------------------------------------------

def collect_files(root: Path, dirs=AUDIT_DIRS) -> list[Path]:
    files = []
    for top in dirs:
        base = root / top
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in SOURCE_SUFFIXES and path.is_file():
                files.append(path)
    return files


def libclang_available() -> bool:
    try:
        import clang.cindex  # noqa: F401
        return True
    except ImportError:
        return False


def run_engine(engine_name: str, root: Path, files: list[Path],
               compdb: Path | None):
    """Returns (engine_used, findings) after allowlist application. The line
    rules and AUD-U1 run once after the engine, whichever it was.

    `auto` always runs the builtin engine and, when clang.cindex is
    importable and a compilation database exists, unions in the libclang
    engine's findings (deduplicated by rule/file/line). Union semantics keep
    the gate robust either way round: a libclang false negative cannot turn
    a justified annotation stale, and a libclang-only finding still fails
    the build. Any libclang exception in auto mode degrades to builtin-only
    with a note; `--engine libclang` makes such errors fatal."""
    if engine_name == "libclang" and (compdb is None or not compdb.is_file()):
        raise RuntimeError(
            "--engine libclang requires --compdb compile_commands.json")

    findings = []
    annotations = []
    observed = []
    declared = []
    chosen = engine_name
    if engine_name in ("auto", "builtin"):
        findings, annotations, observed, declared = \
            BuiltinEngine(root, files).run()
        chosen = "builtin"
    if engine_name == "libclang" or (
            engine_name == "auto" and libclang_available()
            and compdb is not None and compdb.is_file()):
        try:
            lc_find, lc_annos, lc_obs, lc_decl = \
                LibclangEngine(root, files, compdb).run()
            if engine_name == "libclang":
                findings, annotations = lc_find, lc_annos
                observed, declared = lc_obs, lc_decl
                chosen = "libclang"
            else:
                known = {f.key() for f in findings}
                findings.extend(f for f in lc_find if f.key() not in known)
                known_edges = {(e[0], e[1]) for e in observed}
                observed.extend(e for e in lc_obs
                                if (e[0], e[1]) not in known_edges)
                chosen = "builtin+libclang"
        except Exception as err:
            if engine_name == "libclang":
                raise
            print(f"determinism_audit: libclang engine failed ({err}); "
                  "continuing with builtin findings only", file=sys.stderr)
    findings.extend(line_findings(root, files))
    findings.extend(unused_class_findings(root))
    findings = apply_allowlist(findings, annotations, observed, declared)
    findings.sort(key=lambda f: (f.file, f.line, f.rule))
    return chosen, findings


def write_json(path: Path, engine: str, root: Path, findings):
    doc = {
        "schema": 1,
        "tool": "determinism_audit",
        "engine": engine,
        "root": str(root),
        "findings": [
            {"rule": f.rule, "file": f.file, "line": f.line,
             "message": f.message, "allowlisted": f.allowlisted,
             "reason": f.reason}
            for f in findings
        ],
        "summary": {
            "total": len(findings),
            "allowlisted": sum(1 for f in findings if f.allowlisted),
            "violations": sum(1 for f in findings if not f.allowlisted),
        },
    }
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def run_self_test(script_dir: Path) -> int:
    corpus = script_dir / "corpus"
    golden_path = corpus / "expected_findings.json"
    if not corpus.is_dir() or not golden_path.is_file():
        print(f"self-test: corpus missing under {corpus}", file=sys.stderr)
        return 1
    files = [p for p in sorted(corpus.rglob("*"))
             if p.suffix in SOURCE_SUFFIXES]
    _, findings = run_engine("builtin", corpus, files, None)
    got = sorted([f.rule, f.file, f.line, f.allowlisted] for f in findings)
    golden = json.loads(golden_path.read_text(encoding="utf-8"))
    want = sorted([g["rule"], g["file"], g["line"], g["allowlisted"]]
                  for g in golden["findings"])
    failures = 0
    if got != want:
        failures += 1
        print("self-test FAILED: corpus findings diverge from golden",
              file=sys.stderr)
        for row in got:
            if row not in want:
                print(f"  unexpected: {row}", file=sys.stderr)
        for row in want:
            if row not in got:
                print(f"  missing:    {row}", file=sys.stderr)
    # Every rule class must fire at least once as a non-allowlisted positive
    # AND, where it has a tag, be exercised by an allowlisted negative — a
    # silently dead rule cannot keep the gate green.
    for rule in RULE_CLASSES:
        pos = any(f.rule == rule and not f.allowlisted for f in findings)
        neg = any(f.rule == rule and f.allowlisted for f in findings)
        if not pos:
            failures += 1
            print(f"self-test FAILED: no seeded positive for {rule}",
                  file=sys.stderr)
        if rule in TAG_TO_RULE.values() and not neg:
            failures += 1
            print(f"self-test FAILED: no allowlisted negative for {rule}",
                  file=sys.stderr)
    if not any(f.rule == "AUD900" for f in findings):
        failures += 1
        print("self-test FAILED: seeded stale allowlist entry not detected",
              file=sys.stderr)

    # When libclang is importable (the CI static-analysis lane), the clang
    # engine must independently detect every rule class on the corpus —
    # this keeps the AST frontend honest without demanding line-exact
    # agreement with the token engine.
    if libclang_available():
        compdb = corpus / "compile_commands.json"
        entries = [{"directory": str(corpus), "file": str(p),
                    "command": f"clang++ -std=c++20 -c {p}"}
                   for p in files]
        compdb.write_text(json.dumps(entries), encoding="utf-8")
        try:
            # No path prefix filter: the corpus root is not a repo root.
            eng = LibclangEngine(corpus, files, compdb, restrict_prefixes=())
            lf, la, lo, ld = eng.run()
            lf = apply_allowlist(lf + line_findings(corpus, files)
                                 + unused_class_findings(corpus), la, lo, ld)
            lc_rules = {f.rule for f in lf}
            missing = [r for r in RULE_CLASSES if r not in lc_rules]
            if missing:
                failures += 1
                print("self-test FAILED: libclang engine misses rule "
                      f"class(es) on the corpus: {', '.join(missing)}",
                      file=sys.stderr)
            else:
                print(f"self-test: libclang engine detects all "
                      f"{len(RULE_CLASSES)} rule classes on the corpus")
        except Exception as err:
            print(f"self-test: libclang engine unavailable ({err}); "
                  "builtin-only run", file=sys.stderr)
        finally:
            compdb.unlink(missing_ok=True)

    if failures:
        return 1
    n_pos = sum(1 for f in findings if not f.allowlisted
                and f.rule.startswith("AUD-"))
    n_neg = sum(1 for f in findings if f.allowlisted)
    print(f"determinism_audit self-test: all {len(RULE_CLASSES)} rule "
          "classes fire "
          f"({n_pos} positives, {n_neg} allowlisted negatives, stale entry "
          "detected)")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parents[2],
                        help="repository root (default: two levels up)")
    parser.add_argument("--compdb", type=Path, default=None,
                        help="compile_commands.json (enables the libclang "
                             "engine; the builtin engine ignores it)")
    parser.add_argument("--engine", choices=("auto", "builtin", "libclang"),
                        default="auto")
    parser.add_argument("--json", type=Path, default=None,
                        help="write machine-readable findings to this path")
    parser.add_argument("--self-test", action="store_true",
                        help="run both engines against the seeded-violation "
                             "corpus and compare against the golden JSON")
    args = parser.parse_args(argv)

    if args.self_test:
        return run_self_test(Path(__file__).resolve().parent)

    root = args.root.resolve()
    if not (root / "src").is_dir():
        print(f"error: {root} does not look like the repo root",
              file=sys.stderr)
        return 2
    compdb = args.compdb
    if compdb is None:
        default = root / "build" / "compile_commands.json"
        compdb = default if default.is_file() else None

    files = collect_files(root)
    engine, findings = run_engine(args.engine, root, files, compdb)
    if args.json is not None:
        write_json(args.json, engine, root, findings)

    violations = [f for f in findings if not f.allowlisted]
    allowlisted = [f for f in findings if f.allowlisted]
    for f in findings:
        print(f)
    print(f"determinism_audit [{engine}]: {len(files)} files, "
          f"{len(violations)} violation(s), {len(allowlisted)} allowlisted",
          file=sys.stderr if violations else sys.stdout)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
