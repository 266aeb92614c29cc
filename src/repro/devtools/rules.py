"""The built-in rule catalogue for ``repro lint``.

Each rule machine-checks one invariant that generic linters cannot see
because it spans comments, files, or runtime conventions:

============== =====================================================
rule id        invariant
============== =====================================================
guarded-by     attributes declared ``# guarded-by: _lock`` are only
               touched inside ``with self._lock:`` (or in a method
               annotated ``# holds: _lock`` / named ``*_locked``)
fsync-discipline  under ``src/repro/live/`` and ``src/repro/codec/``
               every rename/truncate is fsynced in the same function
               and raw ``write_text`` / ``write_bytes`` is banned
               (use ``atomic_write_bytes``)
wire-parity    every ``*Request`` has a dispatch arm in
               ``api/database.py``, a helper in ``api/surface.py``,
               a ``REQUEST_TYPES`` registration, and every error code
               constructed anywhere maps in ``responses.ERROR_TYPES``;
               under ``src/repro/codec/`` struct layouts live at
               module scope, every ``KIND_``/``WIRE_`` constant is
               referenced at a pack/unpack call site, and public
               ``encode_*``/``decode_*`` functions come in pairs
metric-registry  ``repro_*`` metric names come from the
               ``repro.obs.names`` catalogue (no literals at call
               sites) and the catalogue is exactly what the README
               metrics section documents
no-bare-except broad handlers must log, count, re-raise, or convert
               the error (``error_response``) — never swallow it
export-hygiene ``__all__`` lists exactly the public defs/constants a
               module defines, and nothing undefined
============== =====================================================

Annotation grammar (trailing comments, parsed from raw source lines):

* ``self._stats = Stats()  # guarded-by: _lock`` — declares the guard
  (dotted locks like ``_collection._lock`` are supported);
* ``def _apply(self, record):  # holds: _lock`` — the caller holds the
  lock; a ``*_locked`` method-name suffix means the same thing;
* ``# repro: noqa[rule-id] <justification>`` — scoped suppression.

Known blind spots, by design (kept simple over clever): accesses through
a local alias (``coll = self; coll._stats``), nested functions/lambdas
inside a method, and manual ``acquire()``/``release()`` pairs are not
tracked — restructure to ``with`` blocks or annotate.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator, Optional

from repro.devtools.lint import Finding, ModuleInfo, Project, Rule

__all__ = [
    "ExportHygieneRule",
    "FsyncDisciplineRule",
    "GuardedByRule",
    "MetricRegistryRule",
    "NoBareExceptRule",
    "WireParityRule",
    "default_rules",
]

_GUARDED_RE = re.compile(r"#\s*guarded-by:\s*([A-Za-z_][A-Za-z0-9_.]*)")
_HOLDS_RE = re.compile(r"#\s*holds:\s*([A-Za-z_][A-Za-z0-9_.]*(?:\s*,\s*[A-Za-z_][A-Za-z0-9_.]*)*)")


def _dotted(node: ast.expr) -> Optional[str]:
    """``self._collection._lock`` -> the dotted path, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _self_attr(node: ast.expr) -> Optional[str]:
    """``self._x`` -> ``"_x"``; anything else -> ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


class GuardedByRule(Rule):
    """Declared-guard lock discipline, lockdep's static little sibling."""

    id = "guarded-by"
    description = (
        "attributes declared '# guarded-by: <lock>' must only be touched while"
        " holding that lock ('with self.<lock>:', '# holds: <lock>', or a"
        " '*_locked' method name)"
    )

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        for classdef in (n for n in ast.walk(module.tree) if isinstance(n, ast.ClassDef)):
            guards = self._declared_guards(module, classdef)
            if not guards:
                continue
            for item in classdef.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if item.name == "__init__":
                    continue  # construction precedes sharing; no lock needed
                yield from self._check_method(module, classdef, item, guards)

    def _declared_guards(
        self, module: ModuleInfo, classdef: ast.ClassDef
    ) -> dict[str, str]:
        guards: dict[str, str] = {}
        for node in ast.walk(classdef):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            lock = None
            end = getattr(node, "end_lineno", node.lineno) or node.lineno
            for line_no in range(node.lineno, end + 1):
                match = _GUARDED_RE.search(module.line_text(line_no))
                if match is not None:
                    lock = match.group(1)
                    break
            if lock is None:
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                attr = _self_attr(target)
                if attr is not None:
                    guards[attr] = lock
        return guards

    def _held_at_entry(
        self, module: ModuleInfo, func: ast.AST, guards: dict[str, str]
    ) -> set[str]:
        held: set[str] = set()
        first_body_line = func.body[0].lineno if func.body else func.lineno
        # the annotation may trail the signature or sit on the line above it
        for line_no in range(func.lineno - 1, first_body_line + 1):
            match = _HOLDS_RE.search(module.line_text(line_no))
            if match is not None:
                held.update(part.strip() for part in match.group(1).split(","))
        if func.name.endswith("_locked"):
            held.update(guards.values())
        return held

    def _check_method(
        self,
        module: ModuleInfo,
        classdef: ast.ClassDef,
        func: ast.AST,
        guards: dict[str, str],
    ) -> Iterator[Finding]:
        findings: list[Finding] = []
        held = self._held_at_entry(module, func, guards)

        def visit(node: ast.AST, held: set[str]) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                return  # nested defs run later, possibly unlocked: blind spot
            if isinstance(node, (ast.With, ast.AsyncWith)):
                inner = set(held)
                for item in node.items:
                    path = _dotted(item.context_expr)
                    if path is not None and path.startswith("self."):
                        inner.add(path[len("self.") :])
                for child in node.body:
                    visit(child, inner)
                return
            attr = _self_attr(node)
            if attr is not None and attr in guards and guards[attr] not in held:
                findings.append(
                    Finding(
                        path=module.relpath,
                        line=node.lineno,
                        rule=self.id,
                        message=(
                            f"{classdef.name}.{func.name} touches '{attr}'"
                            f" (guarded-by: {guards[attr]}) without holding the lock;"
                            f" wrap in 'with self.{guards[attr]}:' or annotate"
                            f" '# holds: {guards[attr]}'"
                        ),
                    )
                )
            for child in ast.iter_child_nodes(node):
                visit(child, held)

        for statement in func.body:
            visit(statement, held)
        yield from findings


class FsyncDisciplineRule(Rule):
    """Crash safety under ``src/repro/live/`` + ``src/repro/codec/``."""

    id = "fsync-discipline"
    description = (
        "under src/repro/live/ and src/repro/codec/ renames and truncates need"
        " os.fsync in the same function, and raw write_text/write_bytes must go"
        " through atomic_write_bytes"
    )

    _PATHS = ("src/repro/live/", "src/repro/codec/")
    _SYNCED = frozenset(
        {"fsync", "fsync_directory", "atomic_write_bytes", "append_record"}
    )

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if not module.relpath.startswith(self._PATHS):
            return
        for func in (
            n
            for n in ast.walk(module.tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ):
            calls = [n for n in ast.walk(func) if isinstance(n, ast.Call)]
            synced = any(self._is_sync(call) for call in calls)
            for call in calls:
                kind = self._risky(call)
                if kind is None:
                    continue
                if kind == "raw-write":
                    yield Finding(
                        path=module.relpath,
                        line=call.lineno,
                        rule=self.id,
                        message=(
                            f"{func.name} uses .write_text/.write_bytes, which"
                            " bypasses the temp-file + fsync + rename discipline"
                            " (use atomic_write_bytes or an"
                            " explicit fsync path)"
                        ),
                    )
                elif not synced:
                    yield Finding(
                        path=module.relpath,
                        line=call.lineno,
                        rule=self.id,
                        message=(
                            f"{func.name} performs a {kind} with no os.fsync /"
                            " fsync_directory in the same function — a crash can"
                            " publish or drop unsynced data"
                        ),
                    )

    def _is_sync(self, call: ast.Call) -> bool:
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr in self._SYNCED:
            return True
        return isinstance(func, ast.Name) and func.id in self._SYNCED

    def _risky(self, call: ast.Call) -> Optional[str]:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return None
        if func.attr in ("replace", "rename"):
            if isinstance(func.value, ast.Name) and func.value.id == "os":
                return "rename"
            # Path.replace(target) takes one argument; str.replace takes two
            if len(call.args) == 1 and not call.keywords:
                return "rename"
            return None
        if func.attr == "truncate":
            return "truncate"
        if func.attr in ("write_text", "write_bytes"):
            return "raw-write"
        return None


class WireParityRule(Rule):
    """The wire schema, dispatcher, client surface, and error codes agree."""

    id = "wire-parity"
    description = (
        "every *Request in api/requests.py is registered in REQUEST_TYPES, has a"
        " Session dispatch arm in api/database.py and an ExecutorSurface helper"
        " in api/surface.py; every constructed error code maps in"
        " responses.ERROR_TYPES (and vice versa); under src/repro/codec/ struct"
        " layouts are module-level constants, KIND_/WIRE_ record kinds are"
        " referenced at pack/unpack call sites, and public encode_*/decode_*"
        " functions are paired"
    )

    _REQUESTS = "src/repro/api/requests.py"
    _DATABASE = "src/repro/api/database.py"
    _SURFACE = "src/repro/api/surface.py"
    _RESPONSES = "src/repro/api/responses.py"
    _CODEC_PREFIX = "src/repro/codec/"
    _KIND_RE = re.compile(r"^(KIND|WIRE)_[A-Z0-9_]+$")

    def check_project(self, project: Project) -> Iterator[Finding]:
        yield from self._check_codec(project)
        requests = project.module(self._REQUESTS)
        database = project.module(self._DATABASE)
        surface = project.module(self._SURFACE)
        responses = project.module(self._RESPONSES)
        if requests is None or database is None or surface is None or responses is None:
            return  # partial lint (explicit paths): nothing to cross-check
        classes = self._request_classes(requests)
        registered = self._registered_names(requests)
        dispatched = self._isinstance_names(database)
        constructed = self._constructed_names(surface)
        for name, line in classes:
            if name not in registered:
                yield Finding(
                    path=requests.relpath,
                    line=line,
                    rule=self.id,
                    message=f"{name} is not registered in REQUEST_TYPES",
                )
            if name not in dispatched:
                yield Finding(
                    path=requests.relpath,
                    line=line,
                    rule=self.id,
                    message=(
                        f"{name} has no Session dispatch arm"
                        f" (isinstance check) in {self._DATABASE}"
                    ),
                )
            if name not in constructed:
                yield Finding(
                    path=requests.relpath,
                    line=line,
                    rule=self.id,
                    message=(
                        f"{name} is never constructed by an ExecutorSurface"
                        f" helper in {self._SURFACE}"
                    ),
                )
        mapped, error_types_line = self._error_types(responses)
        built: dict[str, tuple[str, int]] = {}
        for module in project.modules:
            for code, line in self._built_codes(module):
                built.setdefault(code, (module.relpath, line))
        for code, (relpath, line) in sorted(built.items()):
            if code not in mapped:
                yield Finding(
                    path=relpath,
                    line=line,
                    rule=self.id,
                    message=(
                        f"error code '{code}' is constructed here but not mapped"
                        f" in responses.ERROR_TYPES"
                    ),
                )
        for code in sorted(mapped - set(built)):
            yield Finding(
                path=responses.relpath,
                line=error_types_line,
                rule=self.id,
                message=(
                    f"error code '{code}' is mapped in ERROR_TYPES but never"
                    f" constructed anywhere under src/repro"
                ),
            )

    def _check_codec(self, project: Project) -> Iterator[Finding]:
        """Binary-format parity: layouts, record kinds, codec pairs."""
        codec_modules = [
            m for m in project.modules if m.relpath.startswith(self._CODEC_PREFIX)
        ]
        if not codec_modules:
            return
        kinds: dict[str, tuple[str, int]] = {}
        for module in codec_modules:
            yield from self._check_inline_layouts(module)
            yield from self._check_codec_pairs(module)
            for name, line in self._kind_constants(module):
                kinds.setdefault(name, (module.relpath, line))
        used: set[str] = set()
        for module in project.modules:
            for node in ast.walk(module.tree):
                if (
                    isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)
                    and node.id in kinds
                ):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute) and node.attr in kinds:
                    used.add(node.attr)
        for name, (relpath, line) in sorted(kinds.items()):
            if name not in used:
                yield Finding(
                    path=relpath,
                    line=line,
                    rule=self.id,
                    message=(
                        f"codec record kind {name} is never referenced at any"
                        f" pack/unpack call site (dead wire/storage kind)"
                    ),
                )

    def _check_inline_layouts(self, module: ModuleInfo) -> Iterator[Finding]:
        """``struct.Struct(...)`` belongs at module scope, shared by both sides."""
        for func in (
            n
            for n in ast.walk(module.tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ):
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                callee = node.func
                name = (
                    callee.attr
                    if isinstance(callee, ast.Attribute)
                    else callee.id
                    if isinstance(callee, ast.Name)
                    else None
                )
                if name == "Struct":
                    yield Finding(
                        path=module.relpath,
                        line=node.lineno,
                        rule=self.id,
                        message=(
                            f"{func.name} constructs a struct layout inline; hoist"
                            " it to a module-level constant so pack and unpack"
                            " share one layout"
                        ),
                    )

    def _check_codec_pairs(self, module: ModuleInfo) -> Iterator[Finding]:
        """A public ``encode_x`` without ``decode_x`` cannot round-trip."""
        functions = {
            node.name: node.lineno
            for node in module.tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for name, line in sorted(functions.items()):
            if name.startswith("encode_"):
                partner = "decode_" + name[len("encode_") :]
            elif name.startswith("decode_"):
                partner = "encode_" + name[len("decode_") :]
            else:
                continue
            if partner not in functions:
                yield Finding(
                    path=module.relpath,
                    line=line,
                    rule=self.id,
                    message=(
                        f"codec function {name} has no {partner} counterpart in"
                        f" the same module (one-way codecs cannot round-trip)"
                    ),
                )

    def _kind_constants(self, module: ModuleInfo) -> Iterator[tuple[str, int]]:
        for node in module.tree.body:
            targets: list[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if not (isinstance(value, ast.Constant) and isinstance(value.value, int)):
                continue
            for target in targets:
                if isinstance(target, ast.Name) and self._KIND_RE.match(target.id):
                    yield target.id, node.lineno

    def _request_classes(self, module: ModuleInfo) -> list[tuple[str, int]]:
        classes = []
        for node in module.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            if not node.name.endswith("Request") or node.name == "Request":
                continue
            has_type = any(
                (isinstance(item, ast.AnnAssign) and _dotted(item.target) == "TYPE")
                or (
                    isinstance(item, ast.Assign)
                    and any(_dotted(t) == "TYPE" for t in item.targets)
                )
                for item in node.body
            )
            if has_type:
                classes.append((node.name, node.lineno))
        return classes

    def _registered_names(self, module: ModuleInfo) -> set[str]:
        for node in module.tree.body:
            targets: list[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if value is not None and any(
                isinstance(t, ast.Name) and t.id == "REQUEST_TYPES" for t in targets
            ):
                return {n.id for n in ast.walk(value) if isinstance(n, ast.Name)}
        return set()

    def _isinstance_names(self, module: ModuleInfo) -> set[str]:
        names: set[str] = set()
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2
            ):
                spec = node.args[1]
                elts = spec.elts if isinstance(spec, ast.Tuple) else [spec]
                names.update(e.id for e in elts if isinstance(e, ast.Name))
        return names

    def _constructed_names(self, module: ModuleInfo) -> set[str]:
        return {
            node.func.id
            for node in ast.walk(module.tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        }

    def _error_types(self, module: ModuleInfo) -> tuple[set[str], int]:
        for node in module.tree.body:
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            if not any(isinstance(t, ast.Name) and t.id == "ERROR_TYPES" for t in targets):
                continue
            value = node.value
            if isinstance(value, ast.Dict):
                keys = {
                    k.value
                    for k in value.keys
                    if isinstance(k, ast.Constant) and isinstance(k.value, str)
                }
                return keys, node.lineno
        return set(), 1

    def _built_codes(self, module: ModuleInfo) -> Iterator[tuple[str, int]]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assign):
                if (
                    any(isinstance(t, ast.Name) and t.id == "code" for t in node.targets)
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)
                ):
                    yield node.value.value, node.lineno
            elif isinstance(node, ast.Call):
                for keyword in node.keywords:
                    if (
                        keyword.arg == "code"
                        and isinstance(keyword.value, ast.Constant)
                        and isinstance(keyword.value.value, str)
                    ):
                        yield keyword.value.value, node.lineno
                callee = node.func
                callee_name = callee.id if isinstance(callee, ast.Name) else (
                    callee.attr if isinstance(callee, ast.Attribute) else None
                )
                if (
                    callee_name == "ResponseError"
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)
                ):
                    yield node.args[0].value, node.lineno


class MetricRegistryRule(Rule):
    """All ``repro_*`` metric names flow through ``repro.obs.names``."""

    id = "metric-registry"
    description = (
        "metric names must come from the repro.obs.names catalogue (no string"
        " literals at .counter/.gauge/.histogram call sites), every catalogue"
        " entry must be used, and the README metrics section must match the"
        " catalogue exactly"
    )

    _CATALOGUE = "src/repro/obs/names.py"
    _METHODS = frozenset({"counter", "gauge", "histogram"})
    _TOKEN_RE = re.compile(r"\brepro_[a-z][a-z0-9_]*\b")
    _HEADING_RE = re.compile(r"^#{2,}\s")
    _METRICS_HEADING_RE = re.compile(r"^#{2,}\s.*\bmetrics\b", re.IGNORECASE)

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.relpath == self._CATALOGUE:
            return  # the one place literals belong
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr in self._METHODS):
                continue
            first = node.args[0]
            literal = (
                isinstance(first, ast.Constant)
                and isinstance(first.value, str)
                and first.value.startswith("repro_")
            ) or isinstance(first, ast.JoinedStr)
            if literal:
                shown = first.value if isinstance(first, ast.Constant) else "<f-string>"
                yield Finding(
                    path=module.relpath,
                    line=node.lineno,
                    rule=self.id,
                    message=(
                        f".{func.attr}({shown!r}, ...) uses a metric-name literal;"
                        f" add it to repro.obs.names and reference the constant"
                    ),
                )

    def check_project(self, project: Project) -> Iterator[Finding]:
        catalogue = project.module(self._CATALOGUE)
        if catalogue is None:
            if project.module("src/repro/obs/metrics.py") is not None:
                yield Finding(
                    path=self._CATALOGUE,
                    line=1,
                    rule=self.id,
                    message="metric-name catalogue module src/repro/obs/names.py is missing",
                )
            return
        constants = self._constants(catalogue)
        by_value: dict[str, str] = {}
        for name, (value, line) in constants.items():
            if value in by_value:
                yield Finding(
                    path=catalogue.relpath,
                    line=line,
                    rule=self.id,
                    message=(
                        f"duplicate metric name {value!r} ({by_value[value]} and {name})"
                    ),
                )
            else:
                by_value[value] = name
        used: set[str] = set()
        for module in project.modules:
            if module.relpath == catalogue.relpath:
                continue
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Name) and node.id in constants:
                    used.add(node.id)
                elif isinstance(node, ast.Attribute) and node.attr in constants:
                    used.add(node.attr)
        for name, (value, line) in sorted(constants.items()):
            if name not in used:
                yield Finding(
                    path=catalogue.relpath,
                    line=line,
                    rule=self.id,
                    message=(
                        f"catalogue metric {name} ({value!r}) is never referenced"
                        f" by any instrumentation site"
                    ),
                )
        yield from self._check_readme(project, catalogue, constants)

    def _constants(self, module: ModuleInfo) -> dict[str, tuple[str, int]]:
        constants: dict[str, tuple[str, int]] = {}
        for node in module.tree.body:
            targets: list[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if not (isinstance(value, ast.Constant) and isinstance(value.value, str)):
                continue
            if not value.value.startswith("repro_"):
                continue
            for target in targets:
                if isinstance(target, ast.Name) and target.id == target.id.upper():
                    constants[target.id] = (value.value, node.lineno)
        return constants

    def _check_readme(
        self,
        project: Project,
        catalogue: ModuleInfo,
        constants: dict[str, tuple[str, int]],
    ) -> Iterator[Finding]:
        text = project.read_text("README.md")
        if text is None:
            return
        section: list[tuple[int, str]] = []
        inside = False
        for number, line in enumerate(text.splitlines(), start=1):
            if self._METRICS_HEADING_RE.match(line):
                inside = True
                continue
            if inside and self._HEADING_RE.match(line):
                inside = False
            if inside:
                section.append((number, line))
        if not section:
            yield Finding(
                path="README.md",
                line=1,
                rule=self.id,
                message="README has no metrics section (heading containing 'metrics')",
            )
            return
        documented: dict[str, int] = {}
        for number, line in section:
            for token in self._TOKEN_RE.findall(line):
                documented.setdefault(token, number)
        values = {value for value, _ in constants.values()}
        for name, (value, line) in sorted(constants.items()):
            if value not in documented:
                yield Finding(
                    path=catalogue.relpath,
                    line=line,
                    rule=self.id,
                    message=f"metric {value!r} is not documented in the README metrics section",
                )
        for token, number in sorted(documented.items()):
            if token not in values:
                yield Finding(
                    path="README.md",
                    line=number,
                    rule=self.id,
                    message=(
                        f"README documents metric {token!r} which is not in the"
                        f" repro.obs.names catalogue"
                    ),
                )


class NoBareExceptRule(Rule):
    """Broad exception handlers must do *something* with the error."""

    id = "no-bare-except"
    description = (
        "bare 'except:' and broad 'except Exception/BaseException:' handlers must"
        " log, count (.inc), re-raise, or convert (error_response) the error"
    )

    _BROAD = frozenset({"Exception", "BaseException"})
    _LOGGING = frozenset({"debug", "info", "warning", "error", "exception", "critical"})
    _CONVERTERS = frozenset({"error_response", "inc"})

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            broad_name = self._broad_name(node.type)
            if broad_name is None:
                continue
            if self._handles(node):
                continue
            yield Finding(
                path=module.relpath,
                line=node.lineno,
                rule=self.id,
                message=(
                    f"{broad_name} swallows the error without logging, counting,"
                    f" re-raising, or converting it to a typed envelope"
                ),
            )

    def _broad_name(self, spec: Optional[ast.expr]) -> Optional[str]:
        if spec is None:
            return "bare 'except:'"
        names = spec.elts if isinstance(spec, ast.Tuple) else [spec]
        for name in names:
            if isinstance(name, ast.Name) and name.id in self._BROAD:
                return f"broad 'except {name.id}:'"
        return None

    def _handles(self, handler: ast.ExceptHandler) -> bool:
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                return True
            if isinstance(node, ast.Call):
                func = node.func
                name = (
                    func.attr
                    if isinstance(func, ast.Attribute)
                    else func.id
                    if isinstance(func, ast.Name)
                    else None
                )
                if name in self._LOGGING or name in self._CONVERTERS:
                    return True
        return False


class ExportHygieneRule(Rule):
    """``__all__`` is the module's public surface, exactly."""

    id = "export-hygiene"
    description = (
        "modules declaring __all__ must export every public top-level"
        " def/class/UPPER_CASE constant they define, and list nothing undefined"
    )

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        exported: Optional[set[str]] = None
        all_line = 1
        for node in module.tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                value = node.value
                if isinstance(value, (ast.List, ast.Tuple)) and all(
                    isinstance(e, ast.Constant) and isinstance(e.value, str)
                    for e in value.elts
                ):
                    exported = {e.value for e in value.elts}
                    all_line = node.lineno
        if exported is None:
            return
        bound: set[str] = set()
        public: dict[str, int] = {}
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound.add(node.name)
                if not node.name.startswith("_"):
                    public.setdefault(node.name, node.lineno)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if not isinstance(target, ast.Name):
                        continue
                    bound.add(target.id)
                    name = target.id
                    if not name.startswith("_") and name == name.upper():
                        public.setdefault(name, node.lineno)
            elif isinstance(node, ast.Import):
                bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                bound.update(alias.asname or alias.name for alias in node.names)
        for name in sorted(exported - bound):
            yield Finding(
                path=module.relpath,
                line=all_line,
                rule=self.id,
                message=f"__all__ lists {name!r} but the module never defines or imports it",
            )
        for name, line in sorted(public.items()):
            if name not in exported:
                yield Finding(
                    path=module.relpath,
                    line=line,
                    rule=self.id,
                    message=(
                        f"public top-level {name!r} is not in __all__"
                        f" (export it or rename it with a leading underscore)"
                    ),
                )


def default_rules() -> list[Rule]:
    """The built-in catalogue, in the order reports list them."""
    return [
        GuardedByRule(),
        FsyncDisciplineRule(),
        WireParityRule(),
        MetricRegistryRule(),
        NoBareExceptRule(),
        ExportHygieneRule(),
    ]
