#!/usr/bin/env python3
"""deta_lint: repo-specific static checks for the DeTA invariants.

Line-by-line token checks over src/ (and, where noted, tests/):

Determinism
  DL-D1  nondeterminism sources (std::random_device, rand(, srand(, time(,
         system_clock, gettimeofday(, CLOCK_REALTIME) outside the whitelist.
         Aggregation must be a pure function of the workload; ambient entropy or
         wall-clock reads silently break the bitwise "decentralized ==
         centralized" guarantee.
  DL-D2  unordered_{map,set,...} anywhere in src/. Hash-order iteration reaching
         any output (wire bytes, snapshots, aggregation order) is nondeterministic
         across libc++/libstdc++ and even process runs; the repo bans the
         containers outright so nobody has to prove an iteration can't escape.
  DL-D3  raw concurrency primitives (std::thread, std::mutex, lock_guard,
         unique_lock, condition_variable, ...) outside the annotated wrappers
         (common/mutex.h, common/thread.h) and the pool internals
         (common/parallel.*). Raw primitives are invisible to clang's
         -Wthread-safety analysis, so locking through them is unchecked.

Protocol liveness
  DL-L1  unbounded blocking wait: mailbox receives with no deadline (.Receive() /
         .ReceiveType( / .Pop()) outside the transport internals, and socket
         waits that block forever (epoll_wait/poll with a -1 timeout). Every
         protocol wait must carry a timeout (the *For forms; a tick for event
         loops) so a dead peer cannot wedge an event loop — the rule PR 2
         established by hand, now machine-checked.

Secret hygiene is not a lint rule: Secret<T> (common/secret.h) makes a leak a
compile error, and scripts/deta_taintcheck.py follows what leaves an Expose*
call.

Suppressions: `// deta-lint: allow(DL-XX) <reason>` on the finding's line or the
line directly above. The reason is mandatory; unused suppressions and unused
whitelist entries fail --strict, so stale escapes rot loudly.

Usage:
  scripts/deta_lint.py [--strict] [--root DIR] [paths...]
  scripts/deta_lint.py --selftest     # run the fixture corpus (scripts/lint_fixtures)
"""

from __future__ import annotations

import argparse
import os
import re
import sys

# ---------------------------------------------------------------------------
# Rule catalogue
# ---------------------------------------------------------------------------

RULES = {
    "DL-D1": "nondeterminism source outside the whitelist",
    "DL-D2": "unordered container (hash-order iteration is nondeterministic)",
    "DL-D3": "raw concurrency primitive outside the annotated wrappers",
    "DL-L1": "unbounded blocking receive (no timeout)",
}

# (rule, repo-relative path, reason). Every entry must suppress at least one
# would-be finding or --strict fails it as stale.
WHITELIST = [
    ("DL-D1", "src/crypto/chacha20.cc",
     "SecureRng::FromEntropy seeds long-lived identity keys from OS entropy; "
     "nondeterminism is the point of this one path"),
    ("DL-D3", "src/common/mutex.h",
     "the annotated wrapper itself owns the raw std::mutex/condition_variable"),
    ("DL-D3", "src/common/thread.h",
     "ServiceThread is the one sanctioned owner of protocol std::threads"),
    ("DL-D3", "src/common/parallel.h",
     "pool internals: the worker vector holds raw std::thread handles"),
    ("DL-D3", "src/common/parallel.cc",
     "pool internals spawn/join workers under the annotated mutex"),
    ("DL-L1", "src/net/transport.cc",
     "Endpoint implements the unbounded primitives directly over the mailbox queue; "
     "Close() is their documented unblocking path"),
]

# Token patterns per rule (applied to comment/string-stripped code).
D1_TOKENS = [
    (re.compile(r"std::random_device"), "std::random_device"),
    (re.compile(r"\brand\s*\("), "rand("),
    (re.compile(r"\bsrand\s*\("), "srand("),
    (re.compile(r"\btime\s*\("), "time("),
    (re.compile(r"system_clock"), "system_clock"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday("),
    (re.compile(r"\bCLOCK_REALTIME\b"), "CLOCK_REALTIME"),
]
D2_TOKEN = re.compile(r"std::unordered_\w+")
D3_TOKENS = [
    (re.compile(r"std::thread\b"), "std::thread"),
    (re.compile(r"std::jthread\b"), "std::jthread"),
    (re.compile(r"std::(?:recursive_|timed_|shared_)?mutex\b"), "std::mutex"),
    (re.compile(r"std::condition_variable"), "std::condition_variable"),
    (re.compile(r"std::lock_guard"), "std::lock_guard"),
    (re.compile(r"std::unique_lock"), "std::unique_lock"),
    (re.compile(r"std::scoped_lock"), "std::scoped_lock"),
]
L1_TOKEN = re.compile(
    # Unbounded mailbox primitives: Receive()/Pop() with no deadline, typed ReceiveType.
    r"(?:\.|->)\s*(?:Receive|Pop)\s*\(\s*\)|(?:\.|->)\s*ReceiveType\s*\("
    # Unbounded socket waits: epoll_wait/poll with a -1 timeout block forever, so a
    # peer that dies without closing its socket wedges the transport event loop.
    r"|\bepoll_wait\s*\([^;()]*,\s*-1\s*\)"
    r"|\bpoll\s*\([^;()]*,\s*-1\s*\)")

TAG_ALLOW = re.compile(r"deta-lint:\s*allow\((DL-[A-Z]\d)\)\s*(.*)")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# ---------------------------------------------------------------------------
# Lexing: split each line into code (strings/comments blanked) and comment text
# ---------------------------------------------------------------------------

def split_code_and_comments(lines):
    """Returns (code_lines, comment_lines); both same length as input.

    String/char literal contents are blanked in code_lines, so token scans never
    fire inside literals. Block comments are handled across lines.
    """
    code_lines, comment_lines = [], []
    in_block = False
    for raw in lines:
        code, comment = [], []
        i, n = 0, len(raw)
        while i < n:
            c = raw[i]
            if in_block:
                if raw.startswith("*/", i):
                    in_block = False
                    i += 2
                else:
                    comment.append(c)
                    i += 1
                continue
            if raw.startswith("//", i):
                comment.append(raw[i + 2:])
                break
            if raw.startswith("/*", i):
                in_block = True
                i += 2
                continue
            if c in "\"'":
                quote = c
                code.append(quote)
                i += 1
                while i < n:
                    if raw[i] == "\\":
                        i += 2
                        continue
                    if raw[i] == quote:
                        break
                    i += 1
                code.append(quote)
                i += 1
                continue
            code.append(c)
            i += 1
        code_lines.append("".join(code))
        comment_lines.append("".join(comment))
    return code_lines, comment_lines


# ---------------------------------------------------------------------------
# Per-file parsing: suppressions
# ---------------------------------------------------------------------------

class Suppression:
    def __init__(self, rule, reason, path, line):
        self.rule = rule
        self.reason = reason.strip()
        self.path = path
        self.line = line  # comment's own line (1-based)
        self.used = False


def collect_suppressions(path, comment_lines):
    out = []
    for idx, comment in enumerate(comment_lines):
        m = TAG_ALLOW.search(comment)
        if m:
            out.append(Suppression(m.group(1), m.group(2), path, idx + 1))
    return out


# ---------------------------------------------------------------------------
# The lint engine
# ---------------------------------------------------------------------------

def rel(path, root):
    return os.path.relpath(path, root).replace(os.sep, "/")


class Linter:
    def __init__(self, root):
        self.root = root
        self.findings = []
        self.whitelist_used = {i: False for i in range(len(WHITELIST))}
        self.suppressions = []  # across all files

    # -- whitelist / suppression plumbing --------------------------------

    def _whitelisted(self, rule, relpath):
        for i, (wrule, wpath, _reason) in enumerate(WHITELIST):
            if wrule == rule and wpath == relpath:
                self.whitelist_used[i] = True
                return True
        return False

    def _suppressed(self, rule, path, line, file_suppressions):
        for s in file_suppressions:
            if s.rule == rule and s.line in (line, line - 1):
                if not s.reason:
                    continue  # a reasonless allow() never suppresses
                s.used = True
                return True
        return False

    def _report(self, rule, path, relpath, line, message, file_suppressions):
        if self._whitelisted(rule, relpath):
            return
        if self._suppressed(rule, path, line, file_suppressions):
            return
        self.findings.append(Finding(relpath, line, rule, message))

    # -- passes ----------------------------------------------------------

    def lint_files(self, paths):
        for path in paths:
            with open(path, "r", encoding="utf-8", errors="replace") as f:
                lines = f.read().splitlines()
            code_lines, comment_lines = split_code_and_comments(lines)
            supps = collect_suppressions(path, comment_lines)
            self.suppressions.extend(supps)
            relpath = rel(path, self.root)
            in_src = relpath.startswith("src/") or "/" not in relpath
            self._token_pass(path, relpath, code_lines, supps, in_src)

    def _token_pass(self, path, relpath, code_lines, supps, in_src):
        for idx, code in enumerate(code_lines):
            line = idx + 1
            for pattern, token in D1_TOKENS:
                if pattern.search(code):
                    self._report("DL-D1", path, relpath, line,
                                 f"nondeterminism source `{token}` — aggregation and "
                                 "protocol state must be a pure function of the workload",
                                 supps)
            if not in_src:
                continue  # D2/D3/L1 are src-only: tests drive threads/receives directly
            m = D2_TOKEN.search(code)
            if m:
                self._report("DL-D2", path, relpath, line,
                             f"`{m.group(0)}` — hash-order iteration is nondeterministic; "
                             "use std::map/std::set or a sorted vector", supps)
            for pattern, token in D3_TOKENS:
                if pattern.search(code):
                    self._report("DL-D3", path, relpath, line,
                                 f"raw `{token}` — use deta::Mutex/MutexLock/CondVar "
                                 "(common/mutex.h) or deta::ServiceThread (common/thread.h) "
                                 "so clang -Wthread-safety can check it", supps)
            if L1_TOKEN.search(code):
                self._report("DL-L1", path, relpath, line,
                             "unbounded blocking receive — use the *For variant with a "
                             "timeout so a dead peer cannot wedge this loop", supps)

    # -- strict-mode bookkeeping -----------------------------------------

    def stale_whitelist(self):
        return [WHITELIST[i] for i, used in self.whitelist_used.items() if not used]

    @staticmethod
    def whitelist_entry_location(rule, wpath):
        """(script_path, line) of a WHITELIST entry inside this script, so a
        stale-entry report is clickable and jumps straight to the tuple to
        delete. Line 1 if the tuple cannot be located (reformatted source)."""
        script = os.path.abspath(__file__)
        try:
            with open(script, "r", encoding="utf-8") as f:
                for lineno, line in enumerate(f, start=1):
                    if f'"{rule}"' in line and f'"{wpath}"' in line:
                        return script, lineno
        except OSError:
            pass
        return script, 1

    def stale_suppressions(self):
        return [s for s in self.suppressions if not s.used]

    def reasonless_suppressions(self):
        return [s for s in self.suppressions if not s.reason]


# ---------------------------------------------------------------------------
# File discovery / CLI
# ---------------------------------------------------------------------------

SOURCE_EXTENSIONS = (".h", ".cc")


def discover(root, arg_paths):
    if arg_paths:
        out = []
        for p in arg_paths:
            p = os.path.abspath(p)
            if os.path.isdir(p):
                out.extend(walk(p))
            else:
                out.append(p)
        return sorted(out)
    files = []
    for sub in ("src", "tests"):
        d = os.path.join(root, sub)
        if os.path.isdir(d):
            files.extend(walk(d))
    return sorted(files)


def walk(directory):
    out = []
    for dirpath, _dirnames, filenames in os.walk(directory):
        for name in filenames:
            if name.endswith(SOURCE_EXTENSIONS):
                out.append(os.path.join(dirpath, name))
    return out


def run_lint(root, paths, strict):
    linter = Linter(root)
    linter.lint_files(paths)
    ok = True
    for finding in sorted(linter.findings, key=lambda f: (f.path, f.line)):
        print(finding)
        ok = False
    if strict:
        for rule, path, _reason in linter.stale_whitelist():
            wfile, wline = Linter.whitelist_entry_location(rule, path)
            print(f"{rel(wfile, root)}:{wline}: stale whitelist entry "
                  f"({rule}, {path}) — it suppresses nothing; remove it")
            ok = False
        for s in linter.stale_suppressions():
            print(f"{rel(s.path, root)}:{s.line}: stale suppression allow({s.rule}) — "
                  "it suppresses nothing; remove it")
            ok = False
        for s in linter.reasonless_suppressions():
            print(f"{rel(s.path, root)}:{s.line}: suppression allow({s.rule}) has no "
                  "reason — a written reason is mandatory")
            ok = False
    if ok:
        print(f"deta_lint: OK ({len(paths)} files, 0 findings)")
    return ok


def run_selftest(root):
    """Fixture corpus: every rule has >= 1 must-fail (bad_*) fixture that the
    engine must flag with exactly that rule, and every good_* fixture must be
    clean for its rule. Fixtures are linted as if they lived under src/."""
    fixtures = os.path.join(os.path.dirname(os.path.abspath(__file__)), "lint_fixtures")
    if not os.path.isdir(fixtures):
        print(f"deta_lint: fixture directory missing: {fixtures}")
        return False
    ok = True
    rules_with_bad_fixture = set()
    for rule in sorted(os.listdir(fixtures)):
        rule_dir = os.path.join(fixtures, rule)
        if not os.path.isdir(rule_dir):
            continue
        for name in sorted(os.listdir(rule_dir)):
            if not name.endswith(SOURCE_EXTENSIONS):
                continue
            path = os.path.join(rule_dir, name)
            # Root the linter at the rule directory so the fixture's relpath has
            # no directory prefix and is treated as src/ scope (see lint_files).
            linter = Linter(rule_dir)
            linter.lint_files([path])
            hits = [f for f in linter.findings if f.rule == rule]
            if name.startswith("bad_"):
                rules_with_bad_fixture.add(rule)
                if not hits:
                    print(f"selftest FAIL: {rule}/{name} should trigger {rule} "
                          "but produced no such finding")
                    ok = False
            elif name.startswith("good_"):
                if hits:
                    print(f"selftest FAIL: {rule}/{name} should be clean for {rule} "
                          f"but produced: {hits[0]}")
                    ok = False
            else:
                print(f"selftest FAIL: {rule}/{name} must be named bad_* or good_*")
                ok = False
    missing = sorted(set(RULES) - rules_with_bad_fixture)
    if missing:
        print(f"selftest FAIL: rules without a must-fail fixture: {', '.join(missing)}")
        ok = False
    if ok:
        print("deta_lint selftest: OK")
    return ok


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--strict", action="store_true",
                        help="also fail on stale whitelist entries / suppressions")
    parser.add_argument("--selftest", action="store_true",
                        help="run the fixture corpus instead of linting the tree")
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script)")
    parser.add_argument("paths", nargs="*", help="files or directories (default: src/ tests/)")
    args = parser.parse_args(argv)

    root = os.path.abspath(args.root) if args.root else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if args.selftest:
        return 0 if run_selftest(root) else 1
    paths = discover(root, args.paths)
    if not paths:
        print("deta_lint: no source files found")
        return 2
    return 0 if run_lint(root, paths, args.strict) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
