"""Async-safety rules (ASY001, ASY002, ASY004).

The query service (:mod:`repro.serve`) runs every connected client on
one event loop: a single blocking call inside a coroutine stalls *all*
of them at once, which no test exercising one connection will notice.
ASY001 pins the invariant statically -- coroutines in the serve package
must off-load blocking work (``loop.run_in_executor``) or use the
asyncio-native equivalent (``asyncio.sleep``, stream APIs).

ASY002 pins the companion invariant: no *fire-and-forget* tasks.  A
task spawned by ``asyncio.create_task(...)`` whose handle is discarded
can be garbage-collected mid-flight, and -- worse for a robustness
suite -- its exceptions vanish into the "Task exception was never
retrieved" log instead of failing anything.  Every spawned task must be
retained (assigned, awaited, gathered, or registered in a tracking set)
so shutdown can drain it and its failures have an owner.

ASY004 catches the subtler cousin of blocking: a *read-modify-write of
shared state that straddles an ``await``*.  Between the read and the
write the event loop may run any other coroutine, so the write
clobbers concurrent updates -- the classic lost-update race, invisible
to every single-connection test.  The fix is to hold the matching
``asyncio.Lock`` across the whole span (the serve package's
``_session_locks`` discipline), which the rule recognizes and accepts.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..context import (
    ASYNC_PACKAGES,
    ModuleUnderLint,
    classify_call,
    resolve_origin,
)
from ..findings import LintFinding, Severity
from ..registry import Rule, register


def _coroutine_calls(fn: ast.AsyncFunctionDef) -> Iterator[ast.Call]:
    """Calls lexically on this coroutine's own stack.

    Nested ``def``/``async def``/``lambda`` bodies are separate scopes
    -- a sync thunk handed to ``run_in_executor`` *should* block, and a
    nested coroutine gets its own sweep from the outer walk.
    """
    stack: list[ast.AST] = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


@register
class BlockingCallInCoroutineRule(Rule):
    """ASY001: a blocking call inside an event-loop coroutine freezes
    every connected client for its duration.  ``time.sleep``, the
    ``subprocess`` synchronous API, ``urllib.request.urlopen``,
    ``socket.create_connection``, ``os.fsync``/``os.fdatasync``, builtin
    ``open`` and the pathlib ``read_text``/``write_text`` family must not
    run on the loop."""

    id = "ASY001"
    summary = "blocking call inside an event-loop coroutine"
    hint = (
        "use the asyncio-native API (asyncio.sleep, stream readers) or "
        "off-load the blocking work with loop.run_in_executor(None, fn, ...)"
    )

    def check(self, mod: ModuleUnderLint) -> Iterator[LintFinding]:
        if not mod.in_packages(ASYNC_PACKAGES):
            return
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.AsyncFunctionDef):
                continue
            for call in _coroutine_calls(node):
                classified = classify_call(mod.aliases, call)
                if classified is None or classified[0] != "blocking":
                    continue
                detail = classified[1]
                if detail == "open()" or detail.startswith("."):
                    what = "builtin open()" if detail == "open()" else detail
                    message = (
                        f"{what} inside coroutine {node.name!r} "
                        f"does synchronous file I/O on the event loop"
                    )
                else:
                    message = (
                        f"blocking call {detail}() inside coroutine "
                        f"{node.name!r} stalls every connected client"
                    )
                yield self.finding(mod, call.lineno, call.col_offset, message)


#: spawning functions whose returned task must not be discarded
_SPAWN_CALLS = frozenset({"asyncio.create_task", "asyncio.ensure_future"})

#: attribute spellings of the same spawns on an event-loop object
#: (``loop.create_task(...)``); TaskGroup.create_task is exempt because
#: the group itself retains the task, so only loop-named receivers count.
_SPAWN_METHODS = frozenset({"create_task", "ensure_future"})


def _is_fire_and_forget_spawn(call: ast.Call, aliases: dict[str, str]) -> bool:
    """Does this call spawn a task (so discarding its result loses it)?"""
    origin = resolve_origin(aliases, call.func)
    if origin in _SPAWN_CALLS:
        return True
    func = call.func
    if (
        isinstance(func, ast.Attribute)
        and func.attr in _SPAWN_METHODS
        and isinstance(func.value, ast.Name)
        and (func.value.id == "loop" or func.value.id.endswith("_loop"))
    ):
        return True
    return False


@register
class FireAndForgetTaskRule(Rule):
    """ASY002: a task spawned without retaining its handle can be
    garbage-collected mid-flight, and its exceptions are silently
    swallowed -- exactly the failures a robustness layer must surface.
    Assign the task, await it, or register it in a tracked set with a
    done-callback."""

    id = "ASY002"
    summary = "fire-and-forget asyncio task (spawned handle discarded)"
    hint = (
        "retain the task: assign it (and cancel/await it on teardown), "
        "await it, or add it to a tracked set with a done-callback"
    )

    def check(self, mod: ModuleUnderLint) -> Iterator[LintFinding]:
        if not mod.in_packages(ASYNC_PACKAGES):
            return
        for node in ast.walk(mod.tree):
            # A spawn as a bare expression statement: the only reference
            # to the new task is dropped on the spot.
            discarded: ast.Call | None = None
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                discarded = node.value
            elif (
                # `_ = create_task(...)` discards just as surely.
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and all(
                    isinstance(t, ast.Name) and t.id == "_" for t in node.targets
                )
            ):
                discarded = node.value
            if discarded is None or not _is_fire_and_forget_spawn(
                discarded, mod.aliases
            ):
                continue
            yield self.finding(
                mod,
                discarded.lineno,
                discarded.col_offset,
                "task spawned and immediately discarded: it may be "
                "garbage-collected mid-flight and its exceptions are "
                "never observed",
            )


# --------------------------------------------------------------------------
# ASY004: read-modify-write of shared state straddling an await
# --------------------------------------------------------------------------

#: bare names treated as shared mutable state inside serve coroutines
_SHARED_ROOTS = frozenset({"state", "session", "server"})


def _shared_key(node: ast.expr) -> str | None:
    """Canonical key for a shared-state location, or ``None``.

    ``self.metrics["served"]`` -> ``self.metrics[served]``;
    ``state.sessions[sid]`` -> ``state.sessions[sid]``.  Dynamic
    subscripts keep a simple variable name when they have one so two
    sites indexing by the same local compare equal.
    """
    parts: list[str] = []
    cur = node
    while True:
        if isinstance(cur, ast.Attribute):
            parts.append(f".{cur.attr}")
            cur = cur.value
        elif isinstance(cur, ast.Subscript):
            sl = cur.slice
            if isinstance(sl, ast.Constant):
                parts.append(f"[{sl.value!r}]")
            elif isinstance(sl, ast.Name):
                parts.append(f"[{sl.id}]")
            else:
                parts.append("[<?>]")
            cur = cur.value
        elif isinstance(cur, ast.Name):
            if cur.id == "self" or cur.id in _SHARED_ROOTS:
                if not parts:
                    return None  # a bare root is not a location
                return cur.id + "".join(reversed(parts))
            return None
        else:
            return None


def _shared_reads(node: ast.expr) -> Iterator[str]:
    """Canonical keys of the *maximal* shared locations read in ``node``.

    Only the outermost chain counts (``state.counters[key]``, not its
    ``state.counters`` prefix), so a parked read matches the write to
    the same full location.  Subscript indices are still descended into:
    they may read shared state of their own.
    """
    stack: list[ast.AST] = [node]
    while stack:
        cur = stack.pop()
        if isinstance(cur, (ast.Attribute, ast.Subscript)):
            key = _shared_key(cur)
            if key is not None:
                yield key
                if isinstance(cur, ast.Subscript):
                    stack.append(cur.slice)
                continue
        stack.extend(ast.iter_child_nodes(cur))


def _contains_await(node: ast.AST) -> bool:
    """Does this expression await, on its own stack (no nested scopes)?"""
    stack: list[ast.AST] = [node]
    while stack:
        cur = stack.pop()
        if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(cur, ast.Await):
            return True
        stack.extend(ast.iter_child_nodes(cur))
    return False


def _count_awaits(node: ast.AST) -> int:
    count = 0
    stack: list[ast.AST] = [node]
    while stack:
        cur = stack.pop()
        if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(cur, ast.Await):
            count += 1
        stack.extend(ast.iter_child_nodes(cur))
    return count


def _looks_like_lock(item: ast.withitem) -> bool:
    """Is this ``async with`` item plausibly an asyncio.Lock acquire?"""
    return "lock" in ast.unparse(item.context_expr).lower()


class _SharedRead:
    """A shared value parked in a local: where and under which locks."""

    __slots__ = ("key", "awaits", "locks")

    def __init__(self, key: str, awaits: int, locks: frozenset[int]) -> None:
        self.key = key
        self.awaits = awaits
        self.locks = locks


class _CoroutineRaceScan:
    """Linear scan of one coroutine body for await-straddling RMW.

    The scan walks statements in source order, counting awaits on the
    coroutine's own stack and tracking which lock-looking ``async
    with`` blocks are active.  Two shapes are flagged:

    1. a single statement that both reads and writes the same shared
       location with an ``await`` in between (``state.n += await f()``,
       ``self.x = combine(self.x, await g())``);
    2. a shared read parked in a local (``cur = state.hits[k]``), an
       ``await`` later, then a write to the same location computed from
       that local (``state.hits[k] = cur + 1``).

    Both are accepted when a common lock-looking ``async with`` spans
    the read and the write: the lock serializes the whole RMW.
    """

    def __init__(self) -> None:
        self.awaits = 0
        self.locks: list[int] = []
        self._next_lock = 0
        self.reads: dict[str, _SharedRead] = {}
        self.races: list[tuple[int, int, str, str]] = []  # line, col, key, why

    def scan(self, fn: ast.AsyncFunctionDef) -> None:
        self._stmts(fn.body)

    # -- statement walk ------------------------------------------------------

    def _stmts(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            return  # nested scope: separate stack, separate sweep
        if isinstance(stmt, ast.AsyncWith):
            for item in stmt.items:
                self.awaits += _count_awaits(item.context_expr)
            lock_ids = []
            for item in stmt.items:
                if _looks_like_lock(item):
                    self._next_lock += 1
                    lock_ids.append(self._next_lock)
            self.locks.extend(lock_ids)
            # Entering an async with suspends, but a lock acquire
            # serializes rather than races: only count the suspension
            # for non-lock context managers.
            if not lock_ids:
                self.awaits += 1
            self._stmts(stmt.body)
            del self.locks[len(self.locks) - len(lock_ids) :]
            return
        if isinstance(stmt, ast.With):
            for item in stmt.items:
                self.awaits += _count_awaits(item.context_expr)
            self._stmts(stmt.body)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.awaits += _count_awaits(stmt.iter)
            if isinstance(stmt, ast.AsyncFor):
                self.awaits += 1  # each iteration suspends
            self._stmts(stmt.body)
            self._stmts(stmt.orelse)
            return
        if isinstance(stmt, ast.While):
            self.awaits += _count_awaits(stmt.test)
            self._stmts(stmt.body)
            self._stmts(stmt.orelse)
            return
        if isinstance(stmt, ast.If):
            self.awaits += _count_awaits(stmt.test)
            self._stmts(stmt.body)
            self._stmts(stmt.orelse)
            return
        if isinstance(stmt, ast.Try):
            self._stmts(stmt.body)
            for handler in stmt.handlers:
                self._stmts(handler.body)
            self._stmts(stmt.orelse)
            self._stmts(stmt.finalbody)
            return
        if isinstance(stmt, ast.AugAssign):
            self._aug_assign(stmt)
            return
        if isinstance(stmt, ast.Assign):
            self._assign(stmt)
            return
        for child in ast.iter_child_nodes(stmt):
            self.awaits += _count_awaits(child)

    # -- the two race shapes -------------------------------------------------

    def _locked(self) -> frozenset[int]:
        return frozenset(self.locks)

    def _aug_assign(self, stmt: ast.AugAssign) -> None:
        key = _shared_key(stmt.target)
        had_await = _contains_await(stmt.value)
        self.awaits += _count_awaits(stmt.value)
        if key is None:
            return
        if had_await and not self.locks:
            self.races.append(
                (
                    stmt.lineno,
                    stmt.col_offset,
                    key,
                    "the augmented assignment reads it, then awaits, "
                    "then writes it back",
                )
            )

    def _assign(self, stmt: ast.Assign) -> None:
        rhs_keys = set(_shared_reads(stmt.value))
        had_await = _contains_await(stmt.value)
        rhs_names = {
            n.id for n in ast.walk(stmt.value) if isinstance(n, ast.Name)
        }
        self.awaits += _count_awaits(stmt.value)
        for target in stmt.targets:
            key = _shared_key(target)
            if key is None:
                continue
            if had_await and key in rhs_keys and not self.locks:
                self.races.append(
                    (
                        stmt.lineno,
                        stmt.col_offset,
                        key,
                        "the right-hand side reads it and awaits before "
                        "the write lands",
                    )
                )
                continue
            for name in sorted(rhs_names):
                read = self.reads.get(name)
                if read is None or read.key != key:
                    continue
                if read.awaits >= self.awaits:
                    continue  # no suspension between read and write
                if read.locks & self._locked():
                    continue  # a common lock spans the whole RMW
                self.races.append(
                    (
                        stmt.lineno,
                        stmt.col_offset,
                        key,
                        f"it was read into {name!r} before an await; "
                        f"concurrent updates between the read and this "
                        f"write are lost",
                    )
                )
                break
        # Park shared reads bound to simple locals for the write check.
        if len(stmt.targets) == 1 and isinstance(stmt.targets[0], ast.Name):
            local = stmt.targets[0].id
            keys = sorted(rhs_keys)
            if keys:
                self.reads[local] = _SharedRead(
                    keys[0], self.awaits, self._locked()
                )
            else:
                self.reads.pop(local, None)


@register
class AwaitBoundaryRaceRule(Rule):
    """ASY004: a coroutine reads shared state, suspends at an
    ``await``, then writes a value computed from the stale read.  Every
    other coroutine the loop ran in between had its updates silently
    overwritten.  Hold the matching ``asyncio.Lock`` across the whole
    read-modify-write instead."""

    id = "ASY004"
    summary = "read-modify-write of shared state straddles an await"
    severity = Severity.WARNING
    hint = (
        "hold the matching asyncio.Lock across the whole read-modify-"
        "write (async with self._lock: ...), or re-read the state after "
        "the await"
    )

    def check(self, mod: ModuleUnderLint) -> Iterator[LintFinding]:
        if not mod.in_packages(ASYNC_PACKAGES):
            return
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.AsyncFunctionDef):
                continue
            scan = _CoroutineRaceScan()
            scan.scan(node)
            for line, col, key, why in scan.races:
                yield self.finding(
                    mod,
                    line,
                    col,
                    f"coroutine {node.name!r} writes {key} after an "
                    f"await boundary: {why}",
                )
