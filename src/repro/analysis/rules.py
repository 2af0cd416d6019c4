"""The initial rule set: six repo-specific invariant checks.

Each rule encodes a bug class this repository has actually hit (or
defended against by convention only); the architecture notes
(docs/architecture.md, "Invariant lint") tell each rule's war story.

* ``TDX001`` — pickle purity: frozen value types that cache salted
  state (``_hash`` / sort keys / lazy lifted forms) must define
  identity-only ``__getstate__``/``__setstate__``.
* ``TDX002`` — trusted-constructor boundary: validation-skipping
  constructors may only be called from the engine-module allowlist.
* ``TDX003`` — ordered-output discipline: functions marked
  ``# repro: ordered-output`` must not iterate sets in hash order.
* ``TDX004`` — shared-memory lifecycle: every created segment reaches
  ``close()`` on all paths and has exactly one ``unlink()`` owner.
* ``TDX005`` — no salted hashes in persisted artifacts or replay
  signatures.
* ``TDX006`` — no wall-clock / RNG in deterministic core modules.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.framework import Finding, ModuleContext, Rule, register

__all__ = [
    "PicklePurityRule",
    "TrustedConstructorRule",
    "OrderedOutputRule",
    "SharedMemoryLifecycleRule",
    "PersistedHashRule",
    "DeterministicCoreRule",
    "TRUSTED_CALLER_ALLOWLIST",
]


def _call_func_name(node: ast.Call) -> str | None:
    """``foo`` for ``foo(...)``, ``attr`` for ``x.attr(...)``."""
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _contains_hash_call(node: ast.AST) -> ast.AST | None:
    """The first ``hash(...)`` / ``x.__hash__(...)`` call under *node*."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            if isinstance(sub.func, ast.Name) and sub.func.id == "hash":
                return sub
            if isinstance(sub.func, ast.Attribute) and sub.func.attr == "__hash__":
                return sub
    return None


# ---------------------------------------------------------------------------
# TDX001 — pickle purity
# ---------------------------------------------------------------------------

#: Methods where a cache write is part of construction/restoration, not
#: a lazy mutation that could already have happened before pickling.
_INIT_LIKE = {"__init__", "__post_init__", "__setstate__"}


@register
class PicklePurityRule(Rule):
    """Cached-state classes need identity-only pickling.

    Cached hashes are PYTHONHASHSEED-salted (string hashes feed them),
    and lazily-built derived forms (sort keys, lifted conjunctions,
    search plans) are pure dead weight on the wire — a stale cached
    ``Interval`` hash silently defeated cross-process normalization
    replay in PR 5.  A class counts as *caching* when it declares a
    ``field(init=False, ...)`` dataclass attribute with a leading
    underscore, or writes such an attribute on ``self`` through
    ``object.__setattr__`` outside construction.  Such a class must
    define ``__getstate__`` and ``__setstate__`` (possibly on a
    same-module base class), and the ``__getstate__`` body must not
    mention any cache attribute.
    """

    code = "TDX001"
    name = "pickle-purity"
    summary = (
        "classes caching _hash/sort-key state must pickle identity fields only"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        class_map = {
            node.name: node
            for node in ctx.tree.body
            if isinstance(node, ast.ClassDef)
        }
        for cls in ctx.iter_classes():
            caches = self._cache_attrs(cls)
            if not caches:
                continue
            getstate = self._resolve_method(cls, "__getstate__", class_map)
            setstate = self._resolve_method(cls, "__setstate__", class_map)
            names = ", ".join(sorted(caches))
            if getstate is None or setstate is None:
                missing = " and ".join(
                    name
                    for name, node in (
                        ("__getstate__", getstate),
                        ("__setstate__", setstate),
                    )
                    if node is None
                )
                yield ctx.finding(
                    cls,
                    self.code,
                    f"class {cls.name} caches {names} but defines no {missing}; "
                    "cached hashes are PYTHONHASHSEED-salted and must not cross "
                    "a process boundary — pickle identity fields only",
                )
                continue
            leaked = sorted(self._mentions(getstate, caches))
            if leaked:
                yield ctx.finding(
                    getstate,
                    self.code,
                    f"{cls.name}.__getstate__ mentions cache attribute(s) "
                    f"{', '.join(leaked)}; identity fields only — a cached "
                    "salted hash shipped across processes poisons every "
                    "derived hash on the other side",
                )

    @staticmethod
    def _cache_attrs(cls: ast.ClassDef) -> set[str]:
        found: set[str] = set()
        for stmt in cls.body:
            target = None
            value = None
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                target, value = stmt.target.id, stmt.value
            elif (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
            ):
                target, value = stmt.targets[0].id, stmt.value
            if (
                target
                and target.startswith("_")
                and not target.startswith("__")
                and isinstance(value, ast.Call)
                and _call_func_name(value) == "field"
            ):
                for keyword in value.keywords:
                    if (
                        keyword.arg == "init"
                        and isinstance(keyword.value, ast.Constant)
                        and keyword.value.value is False
                    ):
                        found.add(target)
        for method in cls.body:
            if not isinstance(method, ast.FunctionDef):
                continue
            if method.name in _INIT_LIKE:
                continue
            for node in ast.walk(method):
                if not isinstance(node, ast.Call) or len(node.args) < 2:
                    continue
                func = node.func
                if not (
                    isinstance(func, ast.Attribute)
                    and func.attr == "__setattr__"
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "object"
                ):
                    continue
                receiver, attr = node.args[0], node.args[1]
                if (
                    isinstance(receiver, ast.Name)
                    and receiver.id == "self"
                    and isinstance(attr, ast.Constant)
                    and isinstance(attr.value, str)
                    and attr.value.startswith("_")
                    and not attr.value.startswith("__")
                ):
                    found.add(attr.value)
        return found

    @staticmethod
    def _resolve_method(
        cls: ast.ClassDef, name: str, class_map: dict[str, ast.ClassDef]
    ) -> ast.FunctionDef | None:
        seen: set[str] = set()
        stack = [cls]
        while stack:
            current = stack.pop()
            if current.name in seen:
                continue
            seen.add(current.name)
            for stmt in current.body:
                if isinstance(stmt, ast.FunctionDef) and stmt.name == name:
                    return stmt
            for base in current.bases:
                if isinstance(base, ast.Name) and base.id in class_map:
                    stack.append(class_map[base.id])
        return None

    @staticmethod
    def _mentions(func: ast.FunctionDef, caches: set[str]) -> set[str]:
        hits: set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Attribute) and node.attr in caches:
                hits.add(node.attr)
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value in caches
            ):
                hits.add(node.value)
        return hits


# ---------------------------------------------------------------------------
# TDX002 — trusted-constructor boundary
# ---------------------------------------------------------------------------

#: Validation-skipping constructor *names* callable on any receiver.
_TRUSTED_ATTRS = {"trusted", "_from_canonical", "fragment_sorted", "split_at_sorted"}
#: ``.make(...)`` is trusted only on these class names (``make`` alone is
#: too generic to flag everywhere).
_TRUSTED_MAKE_OWNERS = {"Fact", "ConcreteFact", "Interval", "TemplateFact"}

#: Engine modules entitled to skip validation: they construct from
#: values whose invariants hold *by construction* (match bindings,
#: sweep-vetted cut points, region-annotated chase output).  Everything
#: else goes through the validating constructors.
TRUSTED_CALLER_ALLOWLIST = frozenset(
    {
        "repro.temporal.interval",
        "repro.temporal.interval_set",
        "repro.relational.fact",
        "repro.concrete.concrete_fact",
        "repro.concrete.normalization",
        "repro.concrete.cchase",
        "repro.chase.standard",
        "repro.chase.engine",
        "repro.chase.incremental",
        "repro.query.answers",
        "repro.query.eval",
        "repro.abstract_view.abstract_instance",
        "repro.abstract_view.abstract_chase",
    }
)


@register
class TrustedConstructorRule(Rule):
    """Trusted constructors stay behind the engine boundary.

    ``Fact.make`` / ``Interval.make`` / ``ConcreteFact.fragment_sorted``
    / ``IntervalSet._from_canonical`` skip the dataclass validation
    machinery; a call from outside the engine allowlist can build facts
    that violate the construction invariants every downstream pass
    assumes (ground args, annotation == stamp, canonical piece order).
    """

    code = "TDX002"
    name = "trusted-constructor-boundary"
    summary = "validation-skipping constructors callable only from engine modules"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.module in TRUSTED_CALLER_ALLOWLIST:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            rendered = None
            if func.attr in _TRUSTED_ATTRS:
                rendered = func.attr
            elif (
                func.attr == "make"
                and isinstance(func.value, ast.Name)
                and func.value.id in _TRUSTED_MAKE_OWNERS
            ):
                rendered = f"{func.value.id}.make"
            if rendered is None:
                continue
            yield ctx.finding(
                node,
                self.code,
                f"trusted constructor {rendered}() bypasses validation and is "
                f"only callable from the engine allowlist (module {ctx.module} "
                "is not on repro.analysis.rules.TRUSTED_CALLER_ALLOWLIST); use "
                "the validating constructor instead",
            )


# ---------------------------------------------------------------------------
# TDX003 — ordered-output discipline
# ---------------------------------------------------------------------------

#: Repo methods/properties known to return ``set``/``frozenset``.
_SET_RETURNING_METHODS = {"facts", "facts_of", "variable_set"}
_SET_ATTRS = {"templates"}
_SET_COMBINATORS = {"union", "intersection", "difference", "symmetric_difference"}
#: Consumers whose result does not depend on iteration order.
_ORDER_FREE_SINKS = {"sorted", "min", "max", "sum", "any", "all", "len", "set", "frozenset"}


@register
class OrderedOutputRule(Rule):
    """No hash-order iteration in ``# repro: ordered-output`` functions.

    Set iteration order is salted per process; in a function feeding a
    trace, a merge, or a wire/rendered encoding, it turns byte-identical
    outputs into luck (the PR 4 premerge regression was caught only by
    interleaved A/B benchmarking).  Mark such functions with
    ``# repro: ordered-output`` on or directly above the ``def``; inside
    them, everything this rule can prove to be a set must be iterated
    through ``sorted(...)`` (or consumed order-insensitively).
    """

    code = "TDX003"
    name = "ordered-output-discipline"
    summary = "marked output/merge/encode functions must not iterate sets bare"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for func in ctx.iter_functions():
            if "ordered-output" not in ctx.markers_for(func):
                continue
            set_locals = self._set_locals(func)
            for node in ast.walk(func):
                iterables: list[ast.expr] = []
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    iterables.append(node.iter)
                elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                    if self._order_free_context(ctx, node):
                        continue
                    iterables.extend(gen.iter for gen in node.generators)
                for expr in iterables:
                    if self._is_set_expr(expr, set_locals):
                        yield ctx.finding(
                            expr,
                            self.code,
                            "ordered-output function iterates a set "
                            f"({ast.unparse(expr)}) in salted hash order; wrap "
                            "it in sorted(...) or iterate a recorded order",
                        )

    @classmethod
    def _set_locals(cls, func: ast.AST) -> set[str]:
        known: set[str] = set()
        # Two passes so chained aliases (s2 = s1 | other) resolve.
        for _ in range(2):
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and cls._is_set_expr(node.value, known)
                ):
                    known.add(node.targets[0].id)
        return known

    @classmethod
    def _is_set_expr(cls, node: ast.expr, set_locals: set[str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in set_locals
        if isinstance(node, ast.Attribute):
            return node.attr in _SET_ATTRS
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return cls._is_set_expr(node.left, set_locals) or cls._is_set_expr(
                node.right, set_locals
            )
        if isinstance(node, ast.Call):
            name = _call_func_name(node)
            if name in {"set", "frozenset"} and isinstance(node.func, ast.Name):
                return True
            if name in _SET_RETURNING_METHODS and isinstance(node.func, ast.Attribute):
                return True
            if (
                name in _SET_COMBINATORS
                and isinstance(node.func, ast.Attribute)
                and cls._is_set_expr(node.func.value, set_locals)
            ):
                return True
        return False

    @staticmethod
    def _order_free_context(ctx: ModuleContext, node: ast.AST) -> bool:
        parent = ctx.parents.get(node)
        return (
            isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Name)
            and parent.func.id in _ORDER_FREE_SINKS
            and node in parent.args
        )


# ---------------------------------------------------------------------------
# TDX004 — shared-memory lifecycle
# ---------------------------------------------------------------------------


@register
class SharedMemoryLifecycleRule(Rule):
    """Created segments must be closed and owned by exactly one unlink.

    A ``SharedMemory(create=True)`` that misses ``close()`` on an error
    path leaks a mapping; one that never reaches ``unlink()`` leaves a
    ``/dev/shm`` block behind after the process exits (the PR 7 leak
    class).  Within the creating function this rule requires a
    ``close()`` reached on every control-flow path (``finally`` or an
    unconditional statement) and at least one ``unlink()`` — a function
    that hands ownership to another process (or calls ``give_away``)
    documents that with a suppression naming the owner.
    """

    code = "TDX004"
    name = "shared-memory-lifecycle"
    summary = "SharedMemory(create=True) must reach close() and one unlink() owner"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for func in ctx.iter_functions():
            yield from self._check_function(ctx, func)

    def _check_function(
        self, ctx: ModuleContext, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        creations: list[tuple[str | None, ast.AST]] = []
        for node in ast.walk(func):
            if ctx.enclosing_function(node) is not func and node is not func:
                continue
            if isinstance(node, ast.Call) and self._is_create_call(node):
                parent = ctx.parents.get(node)
                if (
                    isinstance(parent, ast.Assign)
                    and len(parent.targets) == 1
                    and isinstance(parent.targets[0], ast.Name)
                ):
                    creations.append((parent.targets[0].id, parent))
                else:
                    creations.append((None, node))
        if not creations:
            return
        hands_off = any(
            isinstance(node, ast.Call) and _call_func_name(node) == "give_away"
            for node in ast.walk(func)
        )
        for name, creation in creations:
            if name is None:
                yield ctx.finding(
                    creation,
                    self.code,
                    "SharedMemory(create=True) result is not bound to a name; "
                    "the segment can never be close()d or unlink()ed",
                )
                continue
            closes = self._method_calls(ctx, func, name, "close")
            unlinks = self._method_calls(ctx, func, name, "unlink")
            creation_frames = self._frames(ctx, creation, func)
            if not closes:
                yield ctx.finding(
                    creation,
                    self.code,
                    f"shared-memory segment {name!r} is created but never "
                    "close()d in this function; unmap it on every path "
                    "(finally block)",
                )
            elif not any(
                self._always_runs(creation_frames, self._frames(ctx, node, func))
                for node in closes
            ):
                yield ctx.finding(
                    creation,
                    self.code,
                    f"close() of shared-memory segment {name!r} is not reached "
                    "on all control-flow paths; move it into a finally block",
                )
            if not unlinks and not hands_off:
                yield ctx.finding(
                    creation,
                    self.code,
                    f"shared-memory segment {name!r} has no unlink() owner in "
                    "this function; unlink it here, give_away() to a "
                    "documented owner, or suppress naming who unlinks",
                )
            elif (
                len(unlinks) > 1
                and sum(
                    self._always_runs(
                        creation_frames, self._frames(ctx, node, func)
                    )
                    for node in unlinks
                )
                > 1
            ):
                yield ctx.finding(
                    creation,
                    self.code,
                    f"shared-memory segment {name!r} is unlink()ed more than "
                    "once on the same path; exactly one owner may unlink",
                )

    @staticmethod
    def _is_create_call(node: ast.Call) -> bool:
        func = node.func
        named = (
            isinstance(func, ast.Name)
            and func.id == "SharedMemory"
            or isinstance(func, ast.Attribute)
            and func.attr == "SharedMemory"
        )
        if not named:
            return False
        return any(
            keyword.arg == "create"
            and isinstance(keyword.value, ast.Constant)
            and keyword.value.value is True
            for keyword in node.keywords
        )

    @staticmethod
    def _method_calls(
        ctx: ModuleContext, func: ast.AST, name: str, method: str
    ) -> list[ast.Call]:
        calls = []
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == method
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == name
            ):
                calls.append(node)
        return calls

    @staticmethod
    def _frames(
        ctx: ModuleContext, node: ast.AST, stop: ast.AST
    ) -> list[tuple[int, str]]:
        """Conditional frames between *stop* and *node*, outermost first.

        Each frame is ``(id(container), role)``; ``finally`` and ``with``
        roles always execute, everything else is conditional.
        """
        chain: list[tuple[int, str]] = []
        current = node
        for ancestor in ctx.parent_chain(node):
            role = None
            if isinstance(ancestor, ast.Try):
                if current in ancestor.finalbody:
                    role = "finally"
                elif current in ancestor.handlers or any(
                    current is h for h in ancestor.handlers
                ):
                    role = "except"
                else:
                    role = "try"
            elif isinstance(ancestor, ast.ExceptHandler):
                role = "except"
            elif isinstance(ancestor, ast.If):
                role = "if"
            elif isinstance(ancestor, (ast.For, ast.AsyncFor, ast.While)):
                role = "loop"
            elif isinstance(ancestor, (ast.With, ast.AsyncWith)):
                role = "with"
            elif isinstance(
                ancestor, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                role = "closure"
            if role is not None:
                chain.append((id(ancestor), role))
            current = ancestor
            if ancestor is stop:
                break
        chain.reverse()
        return chain

    @staticmethod
    def _always_runs(
        creation_frames: list[tuple[int, str]], frames: list[tuple[int, str]]
    ) -> bool:
        """Whether a statement executes whenever the creation did.

        Strip the frames shared with the creation; what remains must be
        unconditional (``finally``/``with`` only).
        """
        shared = 0
        for left, right in zip(creation_frames, frames, strict=False):
            if left != right:
                break
            shared += 1
        return all(role in ("finally", "with") for _, role in frames[shared:])


# ---------------------------------------------------------------------------
# TDX005 — no salted hashes in persisted artifacts
# ---------------------------------------------------------------------------

#: Modules whose output is persisted or crosses process boundaries
#: (Skolem null names reach the shard wire, the cache and the spool;
#: the region scheduler builds the shard wire's pickles).
_PERSIST_MODULES = frozenset(
    {
        "repro.chase.nulls",
        "repro.abstract_view.abstract_chase",
        "repro.serialize.digest",
        "repro.serialize.jsonio",
        "repro.serialize.csvio",
        "repro.serialize.render",
    }
)
_SIGNATURE_SINKS = {"record", "recall"}
_SIGNATURE_NAME_HINTS = ("signature", "digest")


@register
class PersistedHashRule(Rule):
    """``hash()`` never flows into wire payloads or replay signatures.

    Python hashes are salted per process (PYTHONHASHSEED); a hash value
    inside a shard wire payload or a ``ReplayLedger`` signature
    compares unequal on replay in another process, silently turning
    every replay into a cache miss (or worse, a false match under a
    fixed seed).  Use ``term_sort_key``/``sort_key()`` or a stable
    digest (``hashlib``) instead.
    """

    code = "TDX005"
    name = "no-salted-hash-persisted"
    summary = "hash() must not reach shard payloads or ReplayLedger signatures"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.module in _PERSIST_MODULES:
            for node in ast.walk(ctx.tree):
                found = (
                    _contains_hash_call(node)
                    if isinstance(node, ast.Call)
                    and _contains_hash_call(node) is node
                    else None
                )
                if found is not None:
                    yield ctx.finding(
                        node,
                        self.code,
                        "salted hash() computed in a persistence module "
                        f"({ctx.module}); persisted artifacts need "
                        "process-stable keys (term_sort_key / hashlib)",
                    )
            return
        for func in ctx.iter_functions():
            tainted = self._tainted_names(func)
            in_signature_fn = any(
                hint in func.name.lower() for hint in _SIGNATURE_NAME_HINTS
            )
            for node in ast.walk(func):
                if isinstance(node, ast.Call):
                    name = _call_func_name(node)
                    if name in _SIGNATURE_SINKS and isinstance(
                        node.func, ast.Attribute
                    ):
                        for arg in list(node.args) + [
                            kw.value for kw in node.keywords
                        ]:
                            if self._hashy(arg, tainted):
                                yield ctx.finding(
                                    arg,
                                    self.code,
                                    f"salted hash() flows into .{name}() — "
                                    "ledger signatures must be process-stable "
                                    "(frozensets of facts, sort keys, hashlib "
                                    "digests)",
                                )
                elif isinstance(node, ast.Assign):
                    targets = [
                        t.id for t in node.targets if isinstance(t, ast.Name)
                    ]
                    if any(
                        hint in t.lower()
                        for t in targets
                        for hint in _SIGNATURE_NAME_HINTS
                    ) and self._hashy(node.value, tainted):
                        yield ctx.finding(
                            node,
                            self.code,
                            "salted hash() assigned to a signature/digest "
                            "variable; signatures must be process-stable",
                        )
                elif (
                    isinstance(node, ast.Return)
                    and in_signature_fn
                    and node.value is not None
                    and self._hashy(node.value, tainted)
                ):
                    yield ctx.finding(
                        node,
                        self.code,
                        f"{func.name}() returns a salted hash(); replay "
                        "signatures must be process-stable",
                    )

    @staticmethod
    def _tainted_names(func: ast.AST) -> set[str]:
        tainted: set[str] = set()
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Assign)
                and _contains_hash_call(node.value) is not None
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        tainted.add(target.id)
        return tainted

    @staticmethod
    def _hashy(node: ast.AST, tainted: set[str]) -> bool:
        if _contains_hash_call(node) is not None:
            return True
        return any(
            isinstance(sub, ast.Name) and sub.id in tainted
            for sub in ast.walk(node)
        )


# ---------------------------------------------------------------------------
# TDX006 — deterministic core
# ---------------------------------------------------------------------------

#: Module prefixes exempt from the determinism ban (data generators and
#: scenario builders seed their RNGs explicitly and never run inside the
#: chase; benchmarks live outside ``src/`` entirely).
_NONDETERMINISM_EXEMPT_PREFIXES = ("repro.workloads",)
_BANNED_IMPORTS = {"random", "secrets"}
#: ``from time import ...`` names that read the wall clock.  Monotonic /
#: perf counters measure *durations* for ShardReport timings and stay
#: allowed: they never shape outputs.
_BANNED_TIME_NAMES = {"time", "time_ns", "ctime", "localtime", "gmtime"}
_BANNED_DATETIME_ATTRS = {"now", "utcnow", "today"}
_BANNED_MISC_CALLS = {("os", "urandom"), ("uuid", "uuid1"), ("uuid", "uuid4")}


@register
class DeterministicCoreRule(Rule):
    """Core modules never read the wall clock or an unseeded RNG.

    Byte-identical chase/replay outputs are the repository's core
    guarantee; any wall-clock or RNG read in the engine can leak into
    outputs, traces or replay decisions.  ``time.perf_counter`` /
    ``monotonic`` remain allowed (duration reporting only).  Workload
    generators (``repro.workloads``) are exempt — they own explicitly
    seeded ``random.Random`` instances.
    """

    code = "TDX006"
    name = "deterministic-core"
    summary = "no wall-clock/random in deterministic core modules"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.module.startswith(_NONDETERMINISM_EXEMPT_PREFIXES):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in _BANNED_IMPORTS:
                        yield ctx.finding(
                            node,
                            self.code,
                            f"import of {alias.name!r} in deterministic core "
                            f"module {ctx.module}; seed-free randomness breaks "
                            "byte-identical replay (workload generators are "
                            "exempt)",
                        )
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if root in _BANNED_IMPORTS:
                    yield ctx.finding(
                        node,
                        self.code,
                        f"import from {node.module!r} in deterministic core "
                        f"module {ctx.module}",
                    )
                elif root == "time":
                    for alias in node.names:
                        if alias.name in _BANNED_TIME_NAMES:
                            yield ctx.finding(
                                node,
                                self.code,
                                f"wall-clock import time.{alias.name} in "
                                f"deterministic core module {ctx.module}; "
                                "perf_counter/monotonic are the allowed "
                                "duration clocks",
                            )
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                func = node.func
                owner = func.value.id if isinstance(func.value, ast.Name) else None
                if owner == "time" and func.attr in _BANNED_TIME_NAMES:
                    yield ctx.finding(
                        node,
                        self.code,
                        f"wall-clock read time.{func.attr}() in deterministic "
                        f"core module {ctx.module}; use perf_counter/monotonic "
                        "for durations",
                    )
                elif (
                    func.attr in _BANNED_DATETIME_ATTRS
                    and owner in {"datetime", "date"}
                ):
                    yield ctx.finding(
                        node,
                        self.code,
                        f"wall-clock read {owner}.{func.attr}() in "
                        f"deterministic core module {ctx.module}",
                    )
                elif (owner, func.attr) in _BANNED_MISC_CALLS:
                    yield ctx.finding(
                        node,
                        self.code,
                        f"nondeterministic call {owner}.{func.attr}() in "
                        f"deterministic core module {ctx.module}",
                    )
