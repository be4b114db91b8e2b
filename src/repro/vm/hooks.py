"""Execution hook interface.

The paper instruments the JVM at four points — method invocation, data
field access, object creation, and object deletion — plus the garbage
collector's free-memory reports.  :class:`ExecutionListener` is the
Python face of those hooks: the execution monitor, the trace recorder,
and tests all subscribe through it.

An invocation or access is handed to listeners as an
:class:`InvokeRecord` or :class:`AccessRecord` whenever a subscriber
needs one (the trace recorder does, for instance).  When every
subscriber of the hook takes the record-free form instead (see
:class:`HookFanout`), the execution context builds no record.  Records
can still be built once per guest interaction, so they are plain
``__slots__`` classes rather than dataclasses: no per-instance
``__dict__``, and the cheapest constructor Python offers.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from .gc import GCReport
from .objectmodel import JObject, MethodDef


class InvokeRecord:
    """One completed method invocation."""

    __slots__ = (
        "caller_class",
        "caller_oid",
        "callee_class",
        "callee_oid",
        "method",
        "kind",
        "native_stateless",
        "arg_bytes",
        "ret_bytes",
        "cpu_seconds",
        "caller_site",
        "exec_site",
        "remote",
    )

    def __init__(
        self,
        caller_class: str,
        caller_oid: Optional[int],
        callee_class: str,
        callee_oid: Optional[int],
        method: str,
        kind: str,
        native_stateless: bool,
        arg_bytes: int,
        ret_bytes: int,
        cpu_seconds: float,
        caller_site: str,
        exec_site: str,
        remote: bool,
    ) -> None:
        self.caller_class = caller_class
        self.caller_oid = caller_oid
        self.callee_class = callee_class
        self.callee_oid = callee_oid
        self.method = method
        self.kind = kind
        self.native_stateless = native_stateless
        self.arg_bytes = arg_bytes
        self.ret_bytes = ret_bytes
        self.cpu_seconds = cpu_seconds
        self.caller_site = caller_site
        self.exec_site = exec_site
        self.remote = remote

    @property
    def is_native(self) -> bool:
        return self.kind == "native"

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InvokeRecord):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__
        )
        return f"InvokeRecord({fields})"


class AccessRecord:
    """One data field access."""

    __slots__ = (
        "accessor_class",
        "accessor_oid",
        "owner_class",
        "owner_oid",
        "field",
        "value_bytes",
        "is_write",
        "is_static",
        "accessor_site",
        "exec_site",
        "remote",
        "cached",
    )

    def __init__(
        self,
        accessor_class: str,
        accessor_oid: Optional[int],
        owner_class: str,
        owner_oid: Optional[int],
        field: str,
        value_bytes: int,
        is_write: bool,
        is_static: bool,
        accessor_site: str,
        exec_site: str,
        remote: bool,
        cached: bool = False,
    ) -> None:
        self.accessor_class = accessor_class
        self.accessor_oid = accessor_oid
        self.owner_class = owner_class
        self.owner_oid = owner_oid
        self.field = field
        self.value_bytes = value_bytes
        self.is_write = is_write
        self.is_static = is_static
        self.accessor_site = accessor_site
        self.exec_site = exec_site
        self.remote = remote
        #: True when a remote read was served from the accessor site's
        #: remote-read cache: logically remote, zero bytes on the wire.
        self.cached = cached

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AccessRecord):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__
        )
        return f"AccessRecord({fields})"


class ExecutionListener:
    """Base class with no-op hook methods; subclass and override."""

    def on_alloc(self, obj: JObject, site: str) -> None:
        """An object or array was created on ``site``."""

    def on_free(self, obj: JObject) -> None:
        """An object was reclaimed by the collector."""

    def on_invoke(self, record: InvokeRecord) -> None:
        """A method invocation completed."""

    def on_invoke_enter(self, callee_class: str, method: MethodDef, site: str) -> None:
        """A method invocation is about to run its body."""

    def on_access(self, record: AccessRecord) -> None:
        """A field read or write completed."""

    def on_cpu(self, class_name: str, site: str, seconds: float) -> None:
        """Reference CPU seconds were charged to ``class_name``.

        This is how per-class execution time reaches the execution graph
        (paper Figure 9): time is attributed directly to the class whose
        method is on top of the stack, which equals gross time minus
        nested-call time by construction.
        """

    def on_gc_report(self, report: GCReport, site: str) -> None:
        """The collector on ``site`` finished a cycle."""

    def on_offload(self, class_names: List[str], nbytes: int, site_from: str,
                   site_to: str) -> None:
        """A partition of classes was migrated between sites."""


#: The hooks of :class:`ExecutionListener`, in declaration order.
HOOKS = (
    "on_alloc", "on_free", "on_invoke", "on_invoke_enter", "on_access",
    "on_cpu", "on_gc_report", "on_offload",
)


def _ignore(*args) -> None:
    """What a hook no subscriber overrides is bound to."""


def _overrides(listener: ExecutionListener, hook: str) -> bool:
    method = getattr(listener, hook)
    return getattr(method, "__func__", None) is not getattr(
        ExecutionListener, hook)


def _dispatcher(handlers: List[Callable]) -> Callable:
    if not handlers:
        return _ignore
    if len(handlers) == 1:
        return handlers[0]

    def broadcast(*args) -> None:
        for handler in handlers:
            handler(*args)

    return broadcast


class HookFanout(ExecutionListener):
    """Broadcasts each hook to an ordered list of listeners.

    Each hook attribute is bound to just the listeners that override
    it, in subscription order: directly to the listener's method when
    there is one, to a no-op when there is none.  The binding is redone
    whenever a listener is added or removed, so callers must look a
    hook up on the fanout when they call it, not keep the bound
    attribute.

    :attr:`invoked` and :attr:`accessed` are the record-free forms of
    ``on_invoke`` and ``on_access``.  A listener offers them by defining
    ``invoked(caller_class, caller_oid, callee_class, callee_oid,
    nbytes, remote, native)`` and ``accessed(accessor_class,
    accessor_oid, owner_class, owner_oid, nbytes, remote, cached)``,
    equivalent to its record-taking hooks.  When every listener that
    overrides the hook offers the form, the attribute is bound to those
    forms and the caller need not build a record; otherwise it is
    ``None`` and the caller builds the record and calls the hook.
    """

    invoked: Optional[Callable[..., None]]
    accessed: Optional[Callable[..., None]]

    def __init__(self) -> None:
        self.listeners: List[ExecutionListener] = []
        self._bind()

    def add(self, listener: ExecutionListener) -> None:
        self.listeners.append(listener)
        self._bind()

    def remove(self, listener: ExecutionListener) -> None:
        self.listeners.remove(listener)
        self._bind()

    def _bind(self) -> None:
        for hook in HOOKS:
            setattr(self, hook, _dispatcher([
                getattr(listener, hook) for listener in self.listeners
                if _overrides(listener, hook)
            ]))
        self.invoked = self._record_free("on_invoke", "invoked")
        self.accessed = self._record_free("on_access", "accessed")

    def _record_free(self, hook: str, form: str) -> Optional[Callable]:
        handlers = []
        for listener in self.listeners:
            if _overrides(listener, hook):
                handler = getattr(listener, form, None)
                if handler is None:
                    return None
                handlers.append(handler)
        return _dispatcher(handlers)
