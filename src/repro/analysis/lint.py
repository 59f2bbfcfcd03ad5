"""Simulator-invariant lint: ``ast``-based checks of this repo's own code.

The simulation's credibility rests on engineering contracts no unit test
states globally:

* **REX101** — code on a *charged* path (a function that charges
  simulated resource time via ``charge_*``) must never read the host's
  wall clock; mixing the two silently couples simulated results to host
  speed.
* **REX102** — ``time.time()`` is a civil-time read, not a duration
  source; durations must use ``time.perf_counter()`` (monotonic,
  unaffected by NTP steps).
* **REX103** — charge totals are floats; accumulating them with ``+=``
  in a loop makes the result depend on arrival order, breaking the
  bit-identical-metrics contract between execution modes.  Totals must
  go through an order-independent tally (``math.fsum`` over a collected
  multiset — see ``repro.cluster.cluster._tally_total``).  Inherently
  sequential series (prefix sums) carry a ``# noqa: REX103`` waiver.
* **REX104** — hot-path record dataclasses (deltas, punctuation,
  network messages) must declare ``slots=True`` (and the immutable ones
  ``frozen=True``): they are allocated per tuple/batch.
* **REX105** — :class:`Delta` / :class:`Punctuation` are immutable value
  objects; attribute assignment on them (including via
  ``object.__setattr__``) is a contract violation even where the frozen
  dataclass machinery would not catch it until runtime.
* **REX106** — iterating a ``set`` while routing work (``emit*``,
  ``send``, ``deposit``, ``_route``, ``_flush``) couples cross-worker
  message order — and hence emitted delta order — to hash-seed
  iteration order.  Sets are the one builtin container whose iteration
  order is genuinely unspecified (dicts preserve insertion order);
  wrap the iterable in ``sorted(...)`` or carry a list.
* **REX107** — a delta handler declaring ``reads=`` metadata whose
  ``update`` body reads a ``delta.row``/``delta.old`` position the
  declaration omits.  The column-lineage analyzer trusts ``reads=`` as
  an upper bound; an under-declaration would license narrowing a column
  the handler actually needs.  Extraction
  is conservative (only constant subscripts and tuple unpacks count as
  reads), so the rule is escape-silent: an aliased or escaping row
  never fires it.

Suppression: append ``# noqa: REXnnn`` (or a bare ``# noqa``) to the
offending line.  Run as ``python -m repro.analysis.lint [paths...]`` or
``python -m repro.cli lint``.
"""

from __future__ import annotations

import ast
import os
import re
import sys
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.analysis.diagnostics import (
    Diagnostic,
    DiagnosticReport,
    Severity,
    make,
)

#: Callables that read the host wall clock.
_WALL_CLOCK_ATTRS = {
    ("time", "time"), ("time", "perf_counter"), ("time", "monotonic"),
    ("time", "process_time"), ("time", "perf_counter_ns"),
    ("time", "monotonic_ns"), ("time", "time_ns"),
    ("datetime", "now"), ("datetime", "utcnow"),
}

#: Method-name prefix marking a charged simulation path.
_CHARGE_PREFIXES = ("charge_",)
_CHARGE_NAMES = {"add_state_bytes"}

#: Identifier fragments that mark a float charge total (REX103).
_CHARGE_TOTAL_RE = re.compile(
    r"(seconds|elapsed|_wall$|^wall$|wall_seconds|sim_time)", re.IGNORECASE)

#: Modules whose dataclasses are hot-path records (REX104).  Keys are
#: path suffixes (POSIX style); values say whether records there must
#: also be frozen.
_HOT_RECORD_MODULES: Dict[str, bool] = {
    "repro/common/deltas.py": True,
    "repro/common/punctuation.py": True,
    "repro/net/network.py": False,
}

#: Frozen record attributes guarded by REX105, per type-name fragment.
_IMMUTABLE_ATTRS = {
    "delta": {"op", "row", "old", "payload"},
    "punct": {"kind", "stratum"},
}

#: Files allowed to touch record internals (they define them).
_RECORD_DEFINERS = ("repro/common/deltas.py", "repro/common/punctuation.py")

#: Callee names that route deltas/messages across workers or emit them
#: downstream (REX106): iteration order at these call sites becomes
#: observable message/delta order.
_ROUTING_CALLEES = {
    "emit", "emit_batch", "emit_all", "send", "deposit",
    "route", "_route", "flush", "_flush",
}


def _posix(path: str) -> str:
    return path.replace(os.sep, "/")


class _NoqaIndex:
    """Per-line ``# noqa`` suppression parsed from the raw source."""

    _NOQA_RE = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?",
                          re.IGNORECASE)

    def __init__(self, source: str):
        self.by_line: Dict[int, Optional[Set[str]]] = {}
        for i, line in enumerate(source.splitlines(), start=1):
            m = self._NOQA_RE.search(line)
            if not m:
                continue
            codes = m.group("codes")
            self.by_line[i] = (None if codes is None else
                               {c.strip().upper()
                                for c in codes.split(",") if c.strip()})

    def suppressed(self, line: int, code: str) -> bool:
        if line not in self.by_line:
            return False
        codes = self.by_line[line]
        return codes is None or code in codes


def _is_wall_clock_call(call: ast.Call,
                        from_imports: Set[str]) -> Optional[str]:
    """Return a printable name if ``call`` reads the wall clock."""
    func = call.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        pair = (func.value.id, func.attr)
        if pair in _WALL_CLOCK_ATTRS:
            return f"{pair[0]}.{pair[1]}"
    if isinstance(func, ast.Name):
        # ``from time import perf_counter`` style.
        for module, attr in _WALL_CLOCK_ATTRS:
            if func.id == attr and f"{module}.{attr}" in from_imports:
                return f"{module}.{attr}"
    return None


def _is_charge_call(call: ast.Call) -> bool:
    func = call.func
    name = None
    if isinstance(func, ast.Attribute):
        name = func.attr
    elif isinstance(func, ast.Name):
        name = func.id
    if name is None:
        return False
    return name in _CHARGE_NAMES or any(
        name.startswith(p) for p in _CHARGE_PREFIXES)


def _terminal_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):
        return _terminal_name(node.value)
    return None


def _mentions_charge_total(node: ast.expr) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Name, ast.Attribute)):
            name = sub.id if isinstance(sub, ast.Name) else sub.attr
            if _CHARGE_TOTAL_RE.search(name):
                return True
    return False


def _is_set_expr(node: ast.expr, set_names: Set[str]) -> bool:
    """True when ``node`` evaluates to a set (literal forms, set()/
    frozenset() calls, comprehensions, set algebra, or a name/attribute
    the module-level prepass saw assigned from one)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.Attribute):
        return node.attr in set_names
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)):
        return (_is_set_expr(node.left, set_names)
                or _is_set_expr(node.right, set_names))
    return False


def _collect_set_names(tree: ast.AST) -> Set[str]:
    """Names (and ``self.x`` attribute names) assigned from set
    expressions anywhere in the module.  Two passes so a name assigned
    from another tracked set name is caught."""
    names: Set[str] = set()
    for _ in range(2):
        for node in ast.walk(tree):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets, value = list(node.targets), node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            if not _is_set_expr(value, names):
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
                elif isinstance(target, ast.Attribute):
                    names.add(target.attr)
    return names


def _routing_call_in(body: Sequence[ast.stmt]) -> Optional[str]:
    """First cross-worker routing/emission callee inside ``body``."""
    for stmt in body:
        for sub in ast.walk(stmt):
            if not isinstance(sub, ast.Call):
                continue
            func = sub.func
            name = (func.attr if isinstance(func, ast.Attribute)
                    else func.id if isinstance(func, ast.Name) else None)
            if name in _ROUTING_CALLEES:
                return name
    return None


class _Linter(ast.NodeVisitor):
    def __init__(self, filename: str, source: str):
        self.filename = filename
        self.posix_name = _posix(filename)
        self.findings: List[Diagnostic] = []
        self.noqa = _NoqaIndex(source)
        self.from_imports: Set[str] = set()
        self._loop_depth = 0
        self._func_stack: List[ast.AST] = []
        self._set_names: Set[str] = set()

    def visit_Module(self, node: ast.Module) -> None:
        self._set_names = _collect_set_names(node)
        self.generic_visit(node)

    # -- helpers ---------------------------------------------------------
    def emit(self, code: str, message: str, node: ast.AST,
             hint: str = "", severity: Optional[Severity] = None) -> None:
        line = getattr(node, "lineno", 0)
        if self.noqa.suppressed(line, code):
            return
        self.findings.append(make(
            code, message, location=f"{self.filename}:{line}",
            hint=hint, severity=severity))

    def _suffix_config(self, table) -> Optional[object]:
        for suffix, value in table.items():
            if self.posix_name.endswith(suffix):
                return value
        return None

    # -- imports ---------------------------------------------------------
    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module:
            for alias in node.names:
                self.from_imports.add(f"{node.module}.{alias.name}")
        self.generic_visit(node)

    # -- REX101 / REX102 -------------------------------------------------
    def _visit_function(self, node) -> None:
        calls = [n for n in ast.walk(node) if isinstance(n, ast.Call)]
        charges = any(_is_charge_call(c) for c in calls)
        for call in calls:
            clock = _is_wall_clock_call(call, self.from_imports)
            if clock is None:
                continue
            if charges:
                self.emit(
                    "REX101",
                    f"{clock}() read inside {node.name!r}, which charges "
                    f"simulated resource time: wall-clock must never "
                    f"influence charged paths",
                    call,
                    hint="hoist the timing out of the charged function "
                         "or derive the duration from the cost model")
        self._func_stack.append(node)
        self.generic_visit(node)
        self._func_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Call(self, node: ast.Call) -> None:
        clock = _is_wall_clock_call(node, self.from_imports)
        if clock == "time.time":
            self.emit(
                "REX102",
                "time.time() measures civil time; durations must use "
                "time.perf_counter()",
                node,
                hint="use time.perf_counter() (monotonic) for intervals; "
                     "noqa only for genuine timestamps")
        self._check_setattr_mutation(node)
        self.generic_visit(node)

    # -- REX103 ----------------------------------------------------------
    def _visit_loop(self, node) -> None:
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    visit_AsyncFor = _visit_loop
    visit_While = _visit_loop

    # -- REX106 ----------------------------------------------------------
    def visit_For(self, node: ast.For) -> None:
        # sorted(...) (or any other wrapping call) breaks the set-expr
        # match, so ordered iteration is exempt by construction.
        if _is_set_expr(node.iter, self._set_names):
            callee = _routing_call_in(node.body)
            if callee is not None:
                self.emit(
                    "REX106",
                    f"iteration over a set drives {callee}(): message/"
                    f"delta order inherits unspecified set iteration "
                    f"order",
                    node,
                    hint="wrap the iterable in sorted(...) or keep an "
                         "ordered list; set iteration order varies with "
                         "hash seeding and insertion history")
        self._visit_loop(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if self._loop_depth and isinstance(node.op, ast.Add):
            target_name = _terminal_name(node.target) or ""
            if (_CHARGE_TOTAL_RE.search(target_name)
                    or _mentions_charge_total(node.value)):
                self.emit(
                    "REX103",
                    f"order-dependent float accumulation "
                    f"'{target_name} += ...' in a loop",
                    node,
                    hint="collect the addends and combine with math.fsum "
                         "(or a {value: count} tally); noqa for "
                         "inherently sequential prefix sums")
        self.generic_visit(node)

    # -- REX104 / REX107 -------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        must_freeze = self._suffix_config(_HOT_RECORD_MODULES)
        if must_freeze is not None:
            self._check_hot_record(node, bool(must_freeze))
        self._check_reads_declaration(node)
        self.generic_visit(node)

    def _check_reads_declaration(self, node: ast.ClassDef) -> None:
        """REX107: an ``update`` body reading delta-row positions its
        class-level ``reads=`` declaration omits."""
        declared: Optional[Set[int]] = None
        for stmt in node.body:
            target = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                target, value = stmt.target, stmt.value
            if not (isinstance(target, ast.Name) and target.id == "reads"):
                continue
            if isinstance(value, (ast.Tuple, ast.List)) and all(
                    isinstance(e, ast.Constant) and isinstance(e.value, int)
                    for e in value.elts):
                declared = {e.value for e in value.elts}
        if declared is None:
            return
        update = next(
            (s for s in node.body
             if isinstance(s, ast.FunctionDef) and s.name == "update"),
            None)
        if update is None:
            return
        params = [a.arg for a in
                  update.args.posonlyargs + update.args.args]
        if "delta" not in params:
            return
        # Reuse the effect extractor's read collector on the method AST.
        # Every collected read is a real read even when the row also
        # escapes (escapes widen exactness, they never add positions),
        # so firing on extracted-minus-declared is sound and the rule
        # stays silent on opaque/escaping bodies.
        from repro.analysis.effects import _RowReads
        visitor = _RowReads({"delta.row", "delta.old"})
        for stmt in update.body:
            visitor.visit(stmt)
        undeclared = sorted(visitor.reads - declared)
        if undeclared:
            self.emit(
                "REX107",
                f"{node.name}.update reads delta-row position"
                f"{'s' if len(undeclared) > 1 else ''} {undeclared} "
                f"not covered by its declared reads= metadata",
                update,
                hint="extend reads= to cover every position the body "
                     "touches; the lineage analyzer and narrowing "
                     "rewrites trust the declaration")

    def _check_hot_record(self, node: ast.ClassDef,
                          must_freeze: bool) -> None:
        for deco in node.decorator_list:
            name = None
            kwargs: Dict[str, object] = {}
            if isinstance(deco, ast.Name):
                name = deco.id
            elif isinstance(deco, ast.Call):
                if isinstance(deco.func, ast.Name):
                    name = deco.func.id
                kwargs = {kw.arg: getattr(kw.value, "value", None)
                          for kw in deco.keywords if kw.arg}
            if name != "dataclass":
                continue
            if not kwargs.get("slots"):
                self.emit(
                    "REX104",
                    f"hot-path record {node.name!r} is a dataclass "
                    f"without slots=True",
                    node,
                    hint="declare @dataclass(slots=True) — per-tuple "
                         "records must not carry instance dicts")
            if must_freeze and not kwargs.get("frozen"):
                self.emit(
                    "REX104",
                    f"hot-path record {node.name!r} must be frozen "
                    f"(immutable value object)",
                    node,
                    hint="declare @dataclass(frozen=True, slots=True)")

    # -- REX105 ----------------------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_attr_mutation(target, node)
        self.generic_visit(node)

    def _check_attr_mutation(self, target: ast.expr,
                             node: ast.AST) -> None:
        if not isinstance(target, ast.Attribute):
            return
        base = target.value
        base_name = (base.id if isinstance(base, ast.Name) else
                     base.attr if isinstance(base, ast.Attribute) else "")
        for fragment, attrs in _IMMUTABLE_ATTRS.items():
            if fragment in base_name.lower() and target.attr in attrs:
                if any(self.posix_name.endswith(d)
                       for d in _RECORD_DEFINERS):
                    return
                self.emit(
                    "REX105",
                    f"assignment to {base_name}.{target.attr}: "
                    f"Delta/Punctuation are immutable value objects",
                    node,
                    hint="build a new record instead of mutating "
                         "(dataclasses.replace or the constructor)")

    def _check_setattr_mutation(self, call: ast.Call) -> None:
        func = call.func
        is_setattr = (
            (isinstance(func, ast.Attribute) and func.attr == "__setattr__")
            or (isinstance(func, ast.Name) and func.id == "setattr"))
        if not is_setattr or not call.args:
            return
        first = call.args[0]
        name = (first.id if isinstance(first, ast.Name) else
                first.attr if isinstance(first, ast.Attribute) else "")
        for fragment in _IMMUTABLE_ATTRS:
            if fragment in name.lower():
                if any(self.posix_name.endswith(d)
                       for d in _RECORD_DEFINERS):
                    return
                self.emit(
                    "REX105",
                    f"__setattr__ on {name!r} bypasses Delta/Punctuation "
                    f"immutability",
                    call,
                    hint="build a new record instead of mutating")


def lint_source(source: str, filename: str = "<string>"
                ) -> List[Diagnostic]:
    """Lint one module's source text."""
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        return [make("REX100", f"could not parse: {exc.msg}",
                     location=f"{filename}:{exc.lineno or 0}")]
    linter = _Linter(filename, source)
    linter.visit(tree)
    return linter.findings


def _python_files(paths: Sequence[str]) -> Iterable[str]:
    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = [d for d in dirnames
                           if d not in ("__pycache__", ".git")]
            for name in sorted(filenames):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)


def lint_paths(paths: Sequence[str]) -> DiagnosticReport:
    """Lint every ``.py`` file under the given files/directories."""
    report = DiagnosticReport()
    for path in _python_files(paths):
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        report.extend(lint_source(source, path))
    return report


def main(argv: Optional[List[str]] = None) -> int:  # pragma: no cover
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="Run the simulator-invariant linter.")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories (default: src)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text")
    args = parser.parse_args(argv)
    report = lint_paths(args.paths or ["src"])
    if args.format == "json":
        print(report.to_json(indent=2))
    else:
        print(report.format())
    return 1 if report else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
