#!/usr/bin/env python3
"""deta_taintcheck: interprocedural secret-flow checker for the DeTA tree.

Secret<T> (common/secret.h) makes a leak of a wrapped secret a compile error;
this pass tracks what happens after an audited exposure. A secret exposed from
its wrapper is followed through local assignments, call arguments, return
values, and builder objects (net::Writer and friends) across functions and
translation units, and reported when it reaches a forbidden sink without
passing a sanitizer.

Taint seeds
  * every `x.ExposeForCrypto() / x.ExposeForSeal() / x.ExposeMutable()` call —
    the complete exposure surface of Secret<T>; inside the wrapper a secret is
    compile-time contained, so exposure sites are exactly where the type
    system hands responsibility to this checker.

Propagation
  * `lhs = <tainted expr>` taints lhs (strong updates: a clean reassignment
    clears it);
  * a call with a tainted argument taints the callee's matching parameter
    (summaries are context-insensitive unions over call sites, linked by
    simple name across translation units);
  * `return <tainted>` taints the function's result at call sites — but only
    when *every* definition sharing the simple name returns taint, so an
    unrelated `Serialize()` on a public type is not poisoned by
    `TransformMaterial::Serialize()` (name-based linking has no overload
    resolution; requiring unanimity keeps cross-class noise out at the cost
    of missing flows through ambiguous names — the fixture corpus pins the
    shapes that must keep working);
  * a method call with a tainted argument taints its receiver (a Writer that
    absorbed key bytes is key material); reads back off that receiver
    (`w.Take()`) are tainted;
  * calls into functions this pass cannot see propagate taint through to
    their result (conservative); `std::make_shared<X>(...)`/`make_unique`
    resolve to X's constructor, so handing a secret to a type that re-wraps
    it in a Secret member (Shuffler, ModelMapper) is not reported as a leak.

Sanitizers (a statement containing one neither propagates nor sinks)
  * Seal(        — SealKey::Seal / SecureChannel::Seal / Aead::Seal: the value
                   becomes ciphertext;
  * SecureWipe(  — erasure (also clears the wiped name's taint);
  * Secret<T>(   — re-wrapping restores compile-time containment.

Declassified callees (results are public by design even though they compute
over exposed secrets): EcdsaSign (signatures are published), Decrypt /
DecryptBatch / PaillierDecryptPackedSum (aggregate model data, not key
material), Open (the payload an authorized endpoint is meant to receive),
Sha256 / HmacSha256 (one-way outputs: MAC tags ship on the wire by design,
and the PRF-derived shuffle/mapper layouts feed the masked data path the
protocol deliberately puts on the wire). HKDF-style expansion is NOT
declassified — derived subkeys are still key material.

Forbidden sinks (finding classes)
  TC-LOG        tainted value in a DETA_LOG / LOG_* statement
  TC-TELEMETRY  tainted value in a metric name/label/value expression
  TC-PERSIST    tainted value in a Snapshot section Add() without Seal()
  TC-WIRE       tainted value in an Endpoint/Transport Send() or
                RequestReply() payload without Seal()

Findings carry the full flow: seed site, each propagation hop, sink site.
Suppress a deliberate sink with `// deta-taintcheck: allow(<class>) <reason>`
on the sink's line or the line above (the reason is mandatory).

Parser: a dependency-free C++ text parser (Python only, no compiler) finds
function definitions, out-of-line `Class::Method` names, parameter lists
spanning lines, and constructor initializer lists (`member(expr)` is modelled
as `member = expr`); the log/ fixtures pin each of these shapes. Statements
are text chunks ending at ';', '{', '}' or ':'. The parser does not expand
macros, and a declaration head longer than 13 lines is not read as a
function.

Known limits (documented, fixture-pinned): linking is by simple name (no
overload/receiver-type resolution); member-field taint does not transfer
between methods of the same class (Secret<T> members make the compile layer
carry that); loop bodies get one forward pass per fixpoint round.

Usage:
  scripts/deta_taintcheck.py [--root DIR] [--report out.json] [paths...]
  scripts/deta_taintcheck.py --selftest   # fixture corpus (scripts/taint_fixtures)
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

# ---------------------------------------------------------------------------
# Configuration: seeds, sanitizers, declassification, sinks
# ---------------------------------------------------------------------------

EXPOSE_RE = re.compile(
    r"(?P<recv>[A-Za-z_][\w\.\[\]>-]*?)\s*(?:\.|->)\s*"
    r"(?P<which>ExposeForCrypto|ExposeForSeal|ExposeMutable)\s*\(")

SANITIZER_RE = re.compile(r"\bSeal\s*\(|\bSecureWipe\s*\(|\bSecret\s*<[^;=]*>\s*[({]")

DECLASSIFIED_CALLEES = {
    "EcdsaSign",                 # signatures are public protocol outputs
    "Decrypt", "DecryptBatch",   # decrypted aggregates are model data
    "PaillierDecryptPackedSum",
    "Open",                      # AEAD/channel Open yields the protected payload
    "Seal",                      # ciphertext
    "Sha256", "HmacSha256",      # one-way outputs (MAC tags are wire-public)
}

LOG_SINK = re.compile(r"\bDETA_LOG\b|\bLOG_(?:DEBUG|INFO|WARNING|ERROR)\b")
TELEMETRY_CALLEES = {"GetCounter", "GetGauge", "GetHistogram",
                     "DETA_COUNTER", "DETA_HISTOGRAM"}
WIRE_CALLEES = {"Send", "RequestReply"}

SINK_CLASSES = ("log", "telemetry", "persist", "wire")

TAG_ALLOW = re.compile(r"deta-taintcheck:\s*allow\((log|telemetry|persist|wire)\)\s*(\S.*)")

ASSIGN_RE = re.compile(
    r"^\s*(?:(?:const\s+)?[\w:]+(?:\s*<[^=;]*>)?[&\s\*]+)?"
    r"(?P<lhs>[A-Za-z_]\w*(?:(?:\.|->)[A-Za-z_]\w*)*)\s*=(?P<rhs>[^=].*)$")

RETURN_RE = re.compile(r"^\s*return\b(?P<expr>[^;]*)")

CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "catch", "static_cast",
    "dynamic_cast", "reinterpret_cast", "const_cast", "decltype", "alignof",
    "new", "delete", "throw", "assert", "defined", "noexcept",
}

MAX_GLOBAL_ROUNDS = 12
MAX_CHAIN = 12


# ---------------------------------------------------------------------------
# Shared lexing helpers (string/comment stripping; mirrors deta_lint.py)
# ---------------------------------------------------------------------------

def split_code_and_comments(lines):
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
# Function model
# ---------------------------------------------------------------------------

class FunctionModel:
    def __init__(self, path, line, qname, params):
        self.path = path
        self.line = line
        self.qname = qname                      # e.g. SecureChannel::SerializeState
        self.simple = qname.rsplit("::", 1)[-1]
        self.params = params                    # parameter names, positional
        self.statements = []                    # (line, text)
        # Interprocedural summaries (filled by the engine):
        self.tainted_params = {}                # index -> provenance chain
        self.returns_taint = None               # provenance chain or None

    def __repr__(self):
        return f"<fn {self.qname} @ {self.path}:{self.line}>"


class Suppression:
    def __init__(self, sink_class, reason, path, line):
        self.sink_class = sink_class
        self.reason = reason
        self.path = path
        self.line = line
        self.used = False


# ---------------------------------------------------------------------------
# Parser: dependency-free C++ text parser
# ---------------------------------------------------------------------------

PARAM_NAME_RE = re.compile(r"([A-Za-z_]\w*)\s*(?:\[\s*\])?$")
FUNC_NAME_RE = re.compile(r"((?:[A-Za-z_][\w]*::)*~?[A-Za-z_]\w*)\s*\(")
CLASS_DECL = re.compile(r"\b(?:class|struct)\s+(?:[A-Z_]+\s*(?:\([^)]*\))?\s*)?"
                        r"(?P<name>[A-Za-z_]\w*)[^;{]*$")


def _split_top_level(text, sep=","):
    parts, depth, buf = [], 0, []
    for c in text:
        if c in "(<[{":
            depth += 1
        elif c in ")>]}":
            depth -= 1
        if c == sep and depth == 0:
            parts.append("".join(buf))
            buf = []
        else:
            buf.append(c)
    if buf:
        parts.append("".join(buf))
    return parts


def _param_names(sig_args):
    names = []
    for part in _split_top_level(sig_args):
        part = part.strip()
        if not part or part == "void":
            continue
        m = PARAM_NAME_RE.search(part.split("=")[0].strip())
        names.append(m.group(1) if m else f"__anon{len(names)}")
    return names


def collect_suppressions(path, comment_lines):
    """Collects `deta-taintcheck: allow(<class>) <reason>` suppressions."""
    suppressions = []
    for idx, comment in enumerate(comment_lines):
        m = TAG_ALLOW.search(comment)
        if m:
            suppressions.append(Suppression(m.group(1), m.group(2).strip(),
                                            path, idx + 1))
    return suppressions


def parse_file(path, text):
    """Extracts function definitions and their statement lists from raw text."""
    lines = text.splitlines()
    code_lines, comment_lines = split_code_and_comments(lines)
    suppressions = collect_suppressions(path, comment_lines)

    functions = []
    n = len(code_lines)
    class_stack = []       # (name, brace_depth_inside_the_class)
    depth = 0

    def scan_braces(line_text):
        nonlocal depth
        for ch in line_text:
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                while class_stack and class_stack[-1][1] > depth:
                    class_stack.pop()

    def body_statements(fn, start_idx, end_idx, first_line_override=None):
        buf, start = [], None
        for k in range(start_idx, end_idx):
            seg = code_lines[k]
            if k == start_idx and first_line_override is not None:
                seg = first_line_override
            stripped = seg.strip()
            if not stripped:
                continue
            if start is None:
                start = k + 1
            buf.append(seg)
            if stripped.endswith((";", "{", "}", ":")) or stripped.startswith("#"):
                fn.statements.append((start, " ".join(buf)))
                buf, start = [], None
        if buf:
            fn.statements.append((start, " ".join(buf)))

    i = 0
    while i < n:
        code = code_lines[i]
        depth_before = depth

        if "(" in code and not code.lstrip().startswith("#"):
            # Accumulate the declaration until its '{' or ';' at paren depth 0.
            decl_parts = [code]
            j = i
            pdepth = code.count("(") - code.count(")")
            found_open = pdepth <= 0 and "{" in code
            ended = pdepth <= 0 and ";" in code.split("{")[0]
            while not found_open and not ended and j + 1 < n and j - i < 12:
                j += 1
                nxt = code_lines[j]
                decl_parts.append(nxt)
                pdepth += nxt.count("(") - nxt.count(")")
                if pdepth <= 0 and "{" in nxt:
                    found_open = True
                elif pdepth <= 0 and ";" in nxt:
                    ended = True
            decl = " ".join(decl_parts)
            head = decl.split("{")[0]
            if found_open and "=" not in head.split("(")[0]:
                m = FUNC_NAME_RE.search(head)
                name = m.group(1) if m else None
                if name and name.split("::")[-1] not in CONTROL_KEYWORDS and \
                        not re.match(r"^\s*(?:else|do|try)\b", head):
                    astart = head.find("(", head.find(name) + len(name))
                    aend, d = astart, 0
                    for k in range(astart, len(head)):
                        if head[k] == "(":
                            d += 1
                        elif head[k] == ")":
                            d -= 1
                            if d == 0:
                                aend = k
                                break
                    qname = name if "::" in name or not class_stack else \
                        f"{class_stack[-1][0]}::{name}"
                    fn = FunctionModel(path, i + 1, qname,
                                       _param_names(head[astart + 1:aend]))
                    # Constructor init list: model `member(expr)` as `member = expr`.
                    tail = head[aend + 1:]
                    if ":" in tail:
                        for init in _split_top_level(tail.split(":", 1)[1]):
                            im = re.match(r"\s*([A-Za-z_]\w*)\s*[({](.*)[)}]\s*$",
                                          init.strip())
                            if im:
                                fn.statements.append(
                                    (i + 1, f"{im.group(1)} = {im.group(2)} ;"))
                    # Brace-match the body.
                    open_line = j
                    bdepth, end_line, started = 0, open_line, False
                    for k in range(open_line, n):
                        seg = code_lines[k]
                        if k == open_line:
                            seg = seg[seg.find("{"):]
                        for ch in seg:
                            if ch == "{":
                                bdepth += 1
                                started = True
                            elif ch == "}":
                                bdepth -= 1
                        if started and bdepth <= 0:
                            end_line = k
                            break
                    else:
                        end_line = n - 1
                    first_extra = code_lines[open_line][code_lines[open_line]
                                                        .find("{") + 1:]
                    if first_extra.strip():
                        body_statements(fn, open_line, end_line + 1,
                                        first_line_override=first_extra)
                    else:
                        body_statements(fn, open_line + 1, end_line + 1)
                    functions.append(fn)
                    for k in range(i, min(end_line + 1, n)):
                        scan_braces(code_lines[k])
                    i = end_line + 1
                    continue

        scan_braces(code)
        if "class" in code or "struct" in code:
            cm = CLASS_DECL.search(code.split("{")[0])
            if cm and depth > depth_before:
                class_stack.append((cm.group("name"), depth))
            elif cm and "{" not in code and ";" not in code and i + 1 < n and \
                    code_lines[i + 1].lstrip().startswith("{"):
                class_stack.append((cm.group("name"), depth + 1))
        i += 1
    return functions, suppressions


# ---------------------------------------------------------------------------
# The taint engine
# ---------------------------------------------------------------------------

class Finding:
    def __init__(self, path, line, sink_class, name, chain):
        self.path = path
        self.line = line
        self.sink_class = sink_class
        self.name = name
        self.chain = chain

    def render(self, root):
        relpath = os.path.relpath(self.path, root).replace(os.sep, "/")
        head = (f"{relpath}:{self.line}: [TC-{self.sink_class.upper()}] tainted "
                f"`{self.name}` reaches a {self.sink_class} sink")
        steps = "\n".join(f"    {step}" for step in self.chain[-MAX_CHAIN:])
        return f"{head}\n{steps}" if steps else head

    def to_json(self, root):
        return {
            "file": os.path.relpath(self.path, root).replace(os.sep, "/"),
            "line": self.line,
            "class": self.sink_class,
            "name": self.name,
            "flow": self.chain[-MAX_CHAIN:],
        }


CALL_RE = re.compile(r"([A-Za-z_]\w*)\s*(?:<(?P<targs>[\w:,\s<>]*)>)?\s*\(")
LAST_IDENT = re.compile(r"([A-Za-z_]\w*)\s*>*\s*$")


def _calls_in(stmt):
    """Yields (callee_simple_name, [arg_texts], receiver_or_None, (start, end)).

    `std::make_shared<X>(...)` / `make_unique<X>(...)` resolve to X — the
    constructor that actually receives the arguments."""
    for m in CALL_RE.finditer(stmt):
        name = m.group(1)
        if name in CONTROL_KEYWORDS:
            continue
        targs = m.group("targs")
        if name in ("make_shared", "make_unique") and targs:
            lm = LAST_IDENT.search(targs.split(",")[0])
            if lm:
                name = lm.group(1)
        prefix = stmt[:m.start()].rstrip()
        receiver = None
        if prefix.endswith(".") or prefix.endswith("->"):
            base = prefix[:-1] if prefix.endswith(".") else prefix[:-2]
            rm = re.search(r"([A-Za-z_]\w*(?:(?:\.|->)[A-Za-z_]\w*)*)$", base)
            if rm:
                receiver = rm.group(1)
        start = m.end() - 1
        d, end = 0, None
        for k in range(start, len(stmt)):
            if stmt[k] == "(":
                d += 1
            elif stmt[k] == ")":
                d -= 1
                if d == 0:
                    end = k
                    break
        if end is None:
            continue
        args = [a.strip() for a in _split_top_level(stmt[start + 1:end])]
        if args == [""]:
            args = []
        yield name, args, receiver, (m.start(1), end + 1)


def _token_re(token):
    return re.compile(r"(?<![\w\.])" + re.escape(token) + r"\b")


class Engine:
    def __init__(self, functions, suppressions, root):
        self.root = root
        self.functions = functions
        self.suppressions = suppressions
        self.by_simple = {}
        for fn in functions:
            # Secret<T>'s own accessors must never register as resolvable
            # callees — a visible `ExposeForCrypto` definition whose body is
            # `return value_;` would mask every exposure in the tree.
            if fn.simple.startswith("Expose") or fn.simple in DECLASSIFIED_CALLEES:
                continue
            self.by_simple.setdefault(fn.simple, []).append(fn)
        self.findings = []

    def _rel(self, path):
        return os.path.relpath(path, self.root).replace(os.sep, "/")

    # -- expression evaluation -------------------------------------------

    def _eval_expr(self, expr, tainted, loc):
        """Taint of an expression: (name, chain) or None.

        Calls to declassified or visible-and-clean callees are masked out, so
        `seal.Seal(blob, rng)` or `Pack(x)` (with Pack visible and returning
        clean) do not leak `blob`/`x` into the textual residue. A visible
        callee's result is tainted only when every same-named definition
        returns taint (see the unanimity note in the module docstring)."""
        taint = None
        masked = []
        for cname, _args, _recv, span in _calls_in(expr):
            if any(s <= span[0] < e for s, e in masked):
                continue
            if cname.startswith("Expose"):
                continue
            if cname in DECLASSIFIED_CALLEES:
                masked.append(span)
                continue
            callees = self.by_simple.get(cname, [])
            if callees:
                if all(c.returns_taint is not None for c in callees):
                    c = callees[0]
                    taint = taint or (cname, c.returns_taint + [
                        f"{loc}: tainted result of {c.qname}()"])
                masked.append(span)
        if taint:
            return taint
        residue = expr
        for s, e in masked:
            residue = residue[:s] + " " * (e - s) + residue[e:]
        em = EXPOSE_RE.search(residue)
        if em:
            return (em.group("recv"),
                    [f"{loc}: {em.group('which')}() exposure of `{em.group('recv')}`"])
        for token, chain in tainted.items():
            if _token_re(token).search(residue):
                return token, chain
        return None

    # -- per-function analysis -------------------------------------------

    def analyze_function(self, fn):
        """One forward pass; returns True if interprocedural summaries grew."""
        changed = False
        tainted = {}  # token -> provenance chain
        for idx, chain in fn.tainted_params.items():
            if idx < len(fn.params):
                tainted[fn.params[idx]] = chain

        for line, stmt in fn.statements:
            loc = f"{self._rel(fn.path)}:{line}"

            if SANITIZER_RE.search(stmt):
                # Sealed / wiped / re-wrapped: the statement neither propagates
                # nor sinks, and it scrubs what it erased or overwrote.
                for wm in re.finditer(r"SecureWipe\s*\(\s*\*?\s*"
                                      r"([A-Za-z_]\w*(?:(?:\.|->)[A-Za-z_]\w*)*)",
                                      stmt):
                    tainted.pop(wm.group(1), None)
                am = ASSIGN_RE.match(stmt)
                if am:
                    tainted.pop(am.group("lhs"), None)
                continue

            # Call-argument propagation into visible callees + receiver
            # absorption (a Writer fed secret bytes is secret).
            for cname, args, receiver, _span in _calls_in(stmt):
                if cname in DECLASSIFIED_CALLEES or cname.startswith("Expose"):
                    continue
                callees = self.by_simple.get(cname, [])
                for ai, arg in enumerate(args):
                    at = self._eval_expr(arg, tainted, loc)
                    if at is None:
                        continue
                    for callee in callees:
                        if ai < len(callee.params) and \
                                ai not in callee.tainted_params:
                            callee.tainted_params[ai] = at[1] + [
                                f"{loc}: passed to {callee.qname}() as "
                                f"`{callee.params[ai]}`"]
                            changed = True
                    if receiver is not None and receiver not in tainted:
                        tainted[receiver] = at[1] + [
                            f"{loc}: absorbed into `{receiver}`"]

            # Assignment: strong update.
            am = ASSIGN_RE.match(stmt)
            if am:
                lhs = am.group("lhs")
                rt = self._eval_expr(am.group("rhs"), tainted, loc)
                if rt is not None:
                    tainted[lhs] = rt[1] + [f"{loc}: assigned to `{lhs}`"]
                elif lhs in tainted:
                    del tainted[lhs]

            # Return propagation.
            rm = RETURN_RE.match(stmt)
            if rm and fn.simple not in DECLASSIFIED_CALLEES and \
                    fn.returns_taint is None:
                rt = self._eval_expr(rm.group("expr"), tainted, loc)
                if rt is not None:
                    fn.returns_taint = rt[1] + [
                        f"{loc}: returned from {fn.qname}()"]
                    changed = True

            self._check_sinks(fn, line, stmt, tainted, loc)
        return changed

    # -- sinks ------------------------------------------------------------

    def _check_sinks(self, fn, line, stmt, tainted, loc):
        hits = []
        if LOG_SINK.search(stmt):
            t = self._eval_expr(stmt, tainted, loc)
            if t:
                hits.append(("log", t))
        for cname, args, _recv, _span in _calls_in(stmt):
            if cname in TELEMETRY_CALLEES:
                for arg in args:
                    t = self._eval_expr(arg, tainted, loc)
                    if t:
                        hits.append(("telemetry", t))
            elif cname == "Add" and args and "SectionType" in args[0]:
                for arg in args[1:]:
                    t = self._eval_expr(arg, tainted, loc)
                    if t:
                        hits.append(("persist", t))
            elif cname in WIRE_CALLEES:
                for arg in args:
                    t = self._eval_expr(arg, tainted, loc)
                    if t:
                        hits.append(("wire", t))
        for sink_class, (name, chain) in hits:
            if self._suppressed(sink_class, fn.path, line):
                continue
            key = (fn.path, line, sink_class, name)
            if any((f.path, f.line, f.sink_class, f.name) == key
                   for f in self.findings):
                continue
            self.findings.append(Finding(
                fn.path, line, sink_class, name,
                chain + [f"{loc}: {sink_class} sink in {fn.qname}()"]))

    def _suppressed(self, sink_class, path, line):
        for s in self.suppressions:
            if s.sink_class == sink_class and s.path == path and \
                    s.line in (line, line - 1) and s.reason:
                s.used = True
                return True
        return False

    # -- driver -----------------------------------------------------------

    def run(self):
        for _round in range(MAX_GLOBAL_ROUNDS):
            self.findings = []
            changed = False
            for fn in self.functions:
                if self.analyze_function(fn):
                    changed = True
            if not changed:
                break
        self.findings.sort(key=lambda f: (f.path, f.line, f.sink_class))
        return self.findings


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
                for dirpath, _d, filenames in os.walk(p):
                    out.extend(os.path.join(dirpath, f) for f in filenames
                               if f.endswith(SOURCE_EXTENSIONS))
            else:
                out.append(p)
        return sorted(set(out))
    src = os.path.join(root, "src")
    out = []
    for dirpath, _d, filenames in os.walk(src):
        out.extend(os.path.join(dirpath, f) for f in filenames
                   if f.endswith(SOURCE_EXTENSIONS))
    return sorted(out)


def load_model(paths):
    """Returns (functions, suppressions) over every file in |paths|."""
    functions, supps = [], []
    for path in paths:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            text = f.read()
        fns, s = parse_file(path, text)
        functions.extend(fns)
        supps.extend(s)
    return functions, supps


def run_check(root, paths, report_path):
    functions, supps = load_model(paths)
    engine = Engine(functions, supps, root)
    findings = engine.run()
    for f in findings:
        print(f.render(root))
    if report_path:
        payload = {
            "files": len(paths),
            "functions": len(functions),
            "findings": [f.to_json(root) for f in findings],
        }
        with open(report_path, "w", encoding="utf-8") as out:
            json.dump(payload, out, indent=2)
        print(f"deta_taintcheck: report written to {report_path}")
    if not findings:
        print(f"deta_taintcheck: OK ({len(paths)} files, {len(functions)} "
              f"functions, 0 flows)")
    return not findings


def run_selftest(root):
    """Fixture corpus: scripts/taint_fixtures/<class>/flow_*.cc must each yield
    >= 1 finding of that class (>= 2 flow fixtures per class, covering a
    multi-statement and a cross-function leak); clean_*.cc must yield nothing."""
    fixtures = os.path.join(os.path.dirname(os.path.abspath(__file__)), "taint_fixtures")
    if not os.path.isdir(fixtures):
        print(f"deta_taintcheck: fixture directory missing: {fixtures}")
        return False
    ok = True
    for sink_class in SINK_CLASSES:
        class_dir = os.path.join(fixtures, sink_class)
        if not os.path.isdir(class_dir):
            print(f"selftest FAIL: no fixture directory for sink class "
                  f"`{sink_class}`")
            ok = False
            continue
        flow_count = 0
        for name in sorted(os.listdir(class_dir)):
            if not name.endswith(SOURCE_EXTENSIONS):
                continue
            path = os.path.join(class_dir, name)
            functions, supps = load_model([path])
            engine = Engine(functions, supps, class_dir)
            findings = engine.run()
            hits = [f for f in findings if f.sink_class == sink_class]
            if name.startswith("flow_"):
                flow_count += 1
                if not hits:
                    print(f"selftest FAIL: {sink_class}/{name} must produce a "
                          f"TC-{sink_class.upper()} flow but produced "
                          f"{[f.sink_class for f in findings] or 'nothing'}")
                    ok = False
            elif name.startswith("clean_"):
                if findings:
                    print(f"selftest FAIL: {sink_class}/{name} must be clean "
                          f"but produced:\n{findings[0].render(class_dir)}")
                    ok = False
            else:
                print(f"selftest FAIL: {sink_class}/{name} must be named "
                      f"flow_* or clean_*")
                ok = False
        if flow_count < 2:
            print(f"selftest FAIL: sink class `{sink_class}` has {flow_count} "
                  f"flow fixture(s); at least 2 required (multi-statement + "
                  f"cross-function)")
            ok = False
    if ok:
        print("deta_taintcheck selftest: OK")
    return ok


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--report", default=None,
                        help="write a JSON flow report here")
    parser.add_argument("--selftest", action="store_true",
                        help="run the fixture corpus instead of checking the tree")
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script)")
    parser.add_argument("paths", nargs="*",
                        help="files or directories (default: src/)")
    args = parser.parse_args(argv)

    root = os.path.abspath(args.root) if args.root else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if args.selftest:
        return 0 if run_selftest(root) else 1
    paths = discover(root, args.paths)
    if not paths:
        print("deta_taintcheck: no source files found")
        return 2
    return 0 if run_check(root, paths, args.report) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
