"""Kernel IR: what a spec kernel *does*, extracted once for every pass.

Every spec-level analyzer reads the same summary of a kernel's effects.
The TW1xx conformance passes (:mod:`repro.transform.lint.backend`) ask
"does the batched kernel do the same thing as the scalar one?"; the
passes in :mod:`repro.transform.lint.lower` ask "could a fused/compiled
backend run this kernel at all, and can two outer tasks run it
concurrently?"; the TW30x locality pass asks how much data the inner
traversal touches.  This module extracts the summary from the live
function objects of a :class:`~repro.core.spec.NestedRecursionSpec`
(``work``, ``work_batch``, ``work_batch_soa``, and the truncation
guards), and :func:`spec_kernel_irs` caches it per kernel family, so
the three analyzers walk each kernel once.

The extractor is a *fact extractor*: it never emits diagnostics itself
— the passes interpret the facts.  Extraction is abstract
interpretation over the kernel's AST with a small value-kind lattice:

====================  =============================================
``("rank", a)``       a scalar position in axis ``a``'s rank space
``("rankvec", a, c, k)``  a vector of positions, affine ``c*r + k``
``("node", a)``       one tree node of axis ``a``
``("nodeseq", a)``    a sequence of axis-``a`` nodes (a batch)
``("view", a)``       the axis-``a`` :class:`~repro.spaces.soa.SoATree`
``("column", a, f)``  a full payload column ``f`` of axis ``a``
``("gather", a, f)``  per-node values of field ``f`` along axis ``a``
``("array", label)``  a typed ndarray captured from the environment
``("state", key, label)``  a live state object (e.g. an accumulator)
``("pyobject", label)``    an untyped Python container/object
``("mask",)``         a data-dependent boolean/index vector
``("nonaffine", a, why)``  rank-derived but not affine in the rank
``("scalar",)`` / ``("data",)`` / ``("unknown",)``
====================  =============================================

Axes are ``"outer"``/``"inner"`` — the two dimensions of the Figure 2
iteration space.  Affine tracking is deliberately 1-D per axis: the
paper's transformations never mix ranks inside one index dimension, so
``c*r + k`` per axis is exactly the precision the disjointness proof
in §7.3 needs.

Alongside the typed facts, each :class:`KernelIR` carries the
:class:`Conformance` facts the TW1xx passes compare across a spec's
kernels: reads and writes of live state keyed by object identity
(:class:`Effect`), node fields read, dispatcher-block escapes, rebound
captured variables, and calls the comparison cannot see into.  Helpers
marked ``__conformance_staged__`` (pure reads of pre-staged copies of
tree data) or ``__conformance_pure__`` are summarized by their marker
in those facts; the typed facts still follow them.
"""
from __future__ import annotations

import ast
import builtins
import importlib
import inspect
import numbers
import textwrap
import types
from dataclasses import dataclass, field, replace
from typing import Any, Optional

import numpy as np

from repro.transform.lint.footprints import (
    FRESH_CONSTRUCTORS,
    KNOWN_MUTATING_METHODS,
    KNOWN_PURE_METHODS,
    PURE_BUILTINS,
    PURE_MODULES,
)

__all__ = [
    "AllocSite",
    "ArrayAccess",
    "Conformance",
    "Effect",
    "HelperCall",
    "IndexDim",
    "KernelIR",
    "NodeFieldWrite",
    "ObjectUse",
    "StateAccess",
    "clear_ir_cache",
    "extract_kernel_ir",
    "ROLE_PARAM_KINDS",
    "spec_cache_key",
    "spec_kernel_irs",
]

# --------------------------------------------------------------------
# IR records
# --------------------------------------------------------------------

#: index-dimension classifications
AFFINE = "affine"
GATHER = "gather"
CONST = "const"
SLICE = "slice"
MASK = "mask"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class IndexDim:
    """One dimension of a subscript, classified for the footprint.

    ``affine`` dims carry the rank axis plus coefficient/offset of the
    ``coeff * rank + const`` form (``const=None`` = statically unknown
    but rank-independent).  ``gather`` dims index through the per-node
    values of payload field ``column`` along ``axis`` — disjointness
    then hinges on that column being injective, which the independence
    pass checks on the live tree.
    """

    kind: str
    axis: Optional[str] = None
    column: Optional[str] = None
    coeff: Optional[int] = None
    const: Optional[int] = None
    detail: str = ""

    def describe(self) -> str:
        """Compact human-readable form, e.g. ``affine(1*outer_rank+0)``."""
        if self.kind == AFFINE:
            return f"affine({self.coeff}*{self.axis}_rank+{self.const})"
        if self.kind == GATHER:
            return f"gather({self.axis}.{self.column})"
        if self.kind == UNKNOWN and self.detail:
            return f"unknown({self.detail})"
        return self.kind


@dataclass(frozen=True)
class ArrayAccess:
    """A read or write of a typed array (or SoA payload column)."""

    array: str
    dims: tuple[IndexDim, ...]
    is_write: bool
    #: write folded in via a commutative augmented assignment
    reduction: bool = False
    line: int = 0

    def describe(self) -> str:
        """One-line summary: ``array[dim, ...]`` plus the access kind."""
        op = "+=" if self.reduction else ("=" if self.is_write else "read")
        dims = ", ".join(d.describe() for d in self.dims)
        return f"{self.array}[{dims}] {op}"


@dataclass(frozen=True)
class StateAccess:
    """A read or write of a scalar field on a live state object."""

    label: str
    is_write: bool
    reduction: bool = False
    #: the live field value was numeric (or absent: ``False``)
    typed: bool = True
    line: int = 0


@dataclass(frozen=True)
class NodeFieldWrite:
    """A write to an attribute of a traversal node."""

    axis: str
    attr: str
    line: int = 0


@dataclass(frozen=True)
class AllocSite:
    """An allocation in the kernel body (``kind``: list/dict/set/
    comprehension/ndarray)."""

    kind: str
    in_loop: bool
    line: int = 0


@dataclass(frozen=True)
class ObjectUse:
    """A Python-object operation a compiled loop could not express."""

    what: str
    line: int = 0


@dataclass(frozen=True)
class HelperCall:
    """A call whose effects could not be summarized."""

    name: str
    line: int = 0


#: Pseudo-roots of conformance locations that are not live objects:
#: traversal nodes, a rebound captured variable, an unresolvable target.
NODE_ROOT = "<node>"
CELL_ROOT = "<cell>"
OPAQUE_ROOT = "<opaque>"
#: Store location of a dispatcher block argument (never a write effect).
_BLOCK = ("<block>", "")


@dataclass(frozen=True)
class Effect:
    """A read or write of kernel-visible state, keyed for comparison.

    ``root`` is the ``id()`` of the live object the access starts from
    — ``acc`` in one kernel and ``self`` in a bound method of the same
    object share it — or one of :data:`NODE_ROOT`, :data:`CELL_ROOT`,
    :data:`OPAQUE_ROOT`.  ``field`` is the first attribute below the
    root (``""`` for the root itself); deeper attribute chains and
    subscripts fold onto it.
    """

    root: Any
    field: str
    is_write: bool
    #: write folded in by a commutative augmented assignment
    reduction: bool = False
    #: write inside a for/while loop (a literal per-pair replay)
    in_loop: bool = False
    #: read made only as an argument to a ``__conformance_staged__`` helper
    staged: bool = False
    line: int = 0

    @property
    def key(self) -> tuple:
        """The ``(root, field)`` location this effect touches."""
        return (self.root, self.field)


@dataclass
class Conformance:
    """The facts the TW1xx passes compare across a spec's kernels."""

    effects: list[Effect] = field(default_factory=list)
    #: effect root -> the name it was first reached under (display only)
    labels: dict[Any, str] = field(default_factory=dict)
    #: node fields read: attributes, ``view.column("f")`` names, and
    #: methods called on nodes
    node_reads: set[str] = field(default_factory=set)
    #: names of ``__conformance_staged__`` helpers called
    staged_helpers: set[str] = field(default_factory=set)
    #: ``(what, line)``: writes into, mutation or retention of a
    #: dispatcher block argument
    block_escapes: list[tuple[str, int]] = field(default_factory=list)
    #: ``(name, line)``: ``nonlocal``/``global`` names the kernel rebinds
    rebinds: list[tuple[str, int]] = field(default_factory=list)
    #: calls whose effects the comparison cannot see
    opaque_calls: list[HelperCall] = field(default_factory=list)
    #: helpers whose source could not be read
    sourceless: list[str] = field(default_factory=list)

    def write_keys(self) -> set[tuple]:
        """The ``(root, field)`` locations written."""
        return {e.key for e in self.effects if e.is_write}

    def state_reads(self) -> set[tuple]:
        """The locations read outside staged-helper arguments."""
        return {e.key for e in self.effects if not e.is_write and not e.staged}


@dataclass
class KernelIR:
    """The extracted effect summary of one kernel."""

    role: str
    name: str = "<kernel>"
    #: False when the source could not be fetched/parsed at all
    analyzable: bool = True
    array_accesses: list[ArrayAccess] = field(default_factory=list)
    state_accesses: list[StateAccess] = field(default_factory=list)
    node_writes: list[NodeFieldWrite] = field(default_factory=list)
    #: ``(axis, attr)`` node fields read as typed gathers — the
    #: lowerability pass validates their typedness on the live tree
    attr_reads: set[tuple[str, str]] = field(default_factory=set)
    allocations: list[AllocSite] = field(default_factory=list)
    object_uses: list[ObjectUse] = field(default_factory=list)
    unknown_helpers: list[HelperCall] = field(default_factory=list)
    #: ``(description, line)`` of values that stayed untyped
    untyped: list[tuple[str, int]] = field(default_factory=list)
    #: lines where a data-dependent extent (mask index) appeared
    dynamic_shapes: list[tuple[str, int]] = field(default_factory=list)
    conformance: Conformance = field(default_factory=Conformance)

    def writes(self) -> list[ArrayAccess]:
        """The array accesses that mutate their target."""
        return [a for a in self.array_accesses if a.is_write]

    def reads(self) -> list[ArrayAccess]:
        """The array accesses that only observe their target."""
        return [a for a in self.array_accesses if not a.is_write]

    def state_writes(self) -> list[StateAccess]:
        """The state-field accesses that mutate their field."""
        return [s for s in self.state_accesses if s.is_write]

    def to_json(self) -> dict:
        """Compact JSON summary (embedded in the lowerability report)."""
        return {
            "role": self.role,
            "name": self.name,
            "analyzable": self.analyzable,
            "array_accesses": [a.describe() for a in self.array_accesses],
            "state_writes": sorted(
                {f"{s.label} {'+=' if s.reduction else '='}" for s in self.state_writes()}
            ),
            "node_writes": sorted({f"{w.axis}.{w.attr}" for w in self.node_writes}),
            "attr_reads": sorted(f"{a}.{f}" for a, f in self.attr_reads),
            "allocations": [f"{a.kind}@{a.line}" for a in self.allocations],
            "object_uses": [f"{o.what}@{o.line}" for o in self.object_uses],
            "unknown_helpers": sorted({h.name for h in self.unknown_helpers}),
            "untyped": [f"{d}@{line}" for d, line in self.untyped],
            "dynamic_shapes": [f"{d}@{line}" for d, line in self.dynamic_shapes],
        }


# --------------------------------------------------------------------
# Role signatures
# --------------------------------------------------------------------

#: kernel role -> kinds its positional parameters are bound to
ROLE_PARAM_KINDS: dict[str, tuple[tuple, ...]] = {
    "work": (("node", "outer"), ("node", "inner")),
    "work_batch": (("nodeseq", "outer"), ("nodeseq", "inner")),
    "work_batch_soa": (
        ("view", "outer"),
        ("view", "inner"),
        ("rankvec", "outer", 1, 0),
        ("rankvec", "inner", 1, 0),
    ),
    "truncate_outer": (("node", "outer"),),
    "truncate_inner1": (("node", "inner"),),
    "truncate_inner2": (("node", "outer"), ("node", "inner")),
    "truncate_inner2_batch": (("node", "outer"),),
}

#: builtins that stay inside the typed world
_PURE_BUILTINS = frozenset(
    {"len", "int", "float", "bool", "abs", "min", "max", "range", "sum", "round"}
)

#: container constructors — an allocation plus an untyped result
_CONTAINER_BUILTINS = frozenset({"list", "dict", "set", "tuple"})

#: numpy callables that stage/convert without changing index meaning
_NP_STAGING = frozenset(
    {"fromiter", "asarray", "array", "ascontiguousarray", "asanyarray"}
)

#: numpy callables that allocate a fresh array
_NP_ALLOC = frozenset({"zeros", "empty", "ones", "full", "zeros_like", "empty_like"})

#: numpy callables producing data-dependent index sets
_NP_DYNSHAPE = frozenset({"nonzero", "flatnonzero", "where", "argwhere", "unique"})

#: Methods that read their receiver without mutating it: the container
#: queries of the TW0xx footprint pass, the ndarray surface the batch
#: kernels use, and the staging accessors ``LeafBlocks.rows`` and
#: ``SoATree.column``.
PURE_VALUE_METHODS = KNOWN_PURE_METHODS | frozenset(
    {
        "all",
        "any",
        "argmax",
        "argmin",
        "argsort",
        "astype",
        "column",
        "dot",
        "item",
        "max",
        "max_dist",
        "mean",
        "min",
        "min_dist",
        "nonzero",
        "prod",
        "ravel",
        "reshape",
        "rows",
        "sum",
        "take",
        "tobytes",
    }
)

#: ndarray methods that mutate their receiver in place
_ARRAY_MUTATORS = frozenset({"fill", "sort", "put", "setfield", "resize"})

#: augmented-assignment operators recognized as commutative reductions
_REDUCTION_OPS = (ast.Add, ast.Mult, ast.BitOr, ast.BitAnd, ast.BitXor)

#: helper-recursion depth past which a call stays unsummarized
_MAX_DEPTH = 6

_MISSING = object()


def _is_repro_function(obj: Any) -> bool:
    module = getattr(obj, "__module__", "") or ""
    return isinstance(obj, types.FunctionType) and module.split(".")[0] == "repro"


def _literal_int(node: ast.AST) -> Optional[int]:
    """The value of a compile-time integer literal, else ``None``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value
    if (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and isinstance(node.operand, ast.Constant)
        and isinstance(node.operand.value, int)
    ):
        return -node.operand.value
    return None


def _classify_live(value: Any, label: str) -> tuple:
    """Kind of a live object captured from a closure or globals."""
    if isinstance(value, np.ndarray):
        return ("array", label)
    if isinstance(value, (bool, numbers.Number, np.generic, str)) or value is None:
        return ("scalar",)
    if isinstance(value, types.ModuleType):
        return ("module", value, label)
    if isinstance(value, (types.FunctionType, types.BuiltinFunctionType, type)) or (
        callable(value) and isinstance(value, types.MethodType)
    ):
        return ("callable", value, label)
    if isinstance(value, (dict, list, set, tuple, frozenset)):
        return ("pyobject", label)
    # Any other instance: a state object whose fields we resolve live.
    return ("state", id(value), label)


def _import(name: str) -> Any:
    try:
        return importlib.import_module(name)
    except ImportError:  # pragma: no cover - broken import in a kernel
        return None


class _Extractor(ast.NodeVisitor):
    """Walks one kernel's AST, recording facts into a shared IR.

    Typed facts go to ``ir``; conformance facts go to ``cf``.  A helper
    call is walked at most once per argument signature for each: a
    repeat call whose conformance view is new (another live object
    behind the same parameter) is re-walked with the typed facts sent
    to a throwaway IR (``typed=False``), and the body of a helper marked
    ``__conformance_staged__``/``__conformance_pure__`` is walked with
    the conformance facts sent to a throwaway sink (``muted=True``).
    """

    def __init__(
        self,
        ir: KernelIR,
        fn: types.FunctionType,
        param_kinds: tuple[tuple, ...],
        live: dict[int, Any],
        cf: Conformance,
        self_kind: Optional[tuple] = None,
        depth: int = 0,
        loop_depth: int = 0,
        memo: Optional[set] = None,
        typed: bool = True,
        muted: bool = False,
        arg_locs: tuple = (),
        kw_locs: Optional[dict] = None,
    ) -> None:
        self.ir = ir
        self.cf = cf
        self.fn = fn
        self.live = live
        self.depth = depth
        self.loop_depth = loop_depth
        self.memo = memo if memo is not None else set()
        self.typed = typed
        self.muted = muted
        self.kinds: dict[str, tuple] = {}
        #: local name -> conformance location of the value it aliases
        self.locs: dict[str, Optional[tuple]] = {}
        #: names declared ``nonlocal``/``global``
        self.cells: set[str] = set()
        #: names bound by imports inside the kernel body
        self.imports: dict[str, Any] = {}
        self.line_offset = 0
        self.parsed = False
        self._in_target = 0
        self._followed = False
        self._window = (0, 0)
        try:
            source = textwrap.dedent(inspect.getsource(fn))
            tree = ast.parse(source)
        except (OSError, TypeError, SyntaxError, IndentationError):
            return
        self.line_offset = fn.__code__.co_firstlineno - 1
        fndef = next(
            (
                node
                for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            ),
            None,
        )
        if fndef is None:
            return
        self.parsed = True
        params = [arg.arg for arg in fndef.args.args]
        if self_kind is not None and params and params[0] == "self":
            self.kinds[params[0]] = self_kind
            self.locs[params[0]] = (self_kind[1], "")
            self._label(self_kind[1], type(live[self_kind[1]]).__name__.lower())
            params = params[1:]
        for name, kind in zip(params, param_kinds):
            self.kinds[name] = kind
        for name in params[len(param_kinds):]:
            self.kinds[name] = ("unknown",)
        self.locs.update(zip(params, arg_locs))
        for name, loc in (kw_locs or {}).items():
            if name in params:
                self.locs[name] = loc
        for stmt in fndef.body:
            self.visit(stmt)

    # -- helpers -----------------------------------------------------

    def _line(self, node: ast.AST) -> int:
        return getattr(node, "lineno", 0) + self.line_offset

    def _register(self, value: Any) -> None:
        self.live[id(value)] = value

    def _free_value(self, name: str) -> Any:
        """Live value of a free name: closure, then globals."""
        closure = self.fn.__closure__ or ()
        for var, cell in zip(self.fn.__code__.co_freevars, closure):
            if var == name:
                try:
                    return cell.cell_contents
                except ValueError:
                    return _MISSING
        return self.fn.__globals__.get(name, _MISSING)

    def resolve_name(self, name: str) -> tuple:
        """Kind of a bare name: locals, then closure, then globals."""
        if name in self.kinds:
            return self.kinds[name]
        value = self._free_value(name)
        if value is not _MISSING:
            self._register(value)
            return _classify_live(value, name)
        if hasattr(builtins, name):
            return ("callable", getattr(builtins, name), name)
        return ("unknown",)

    # -- conformance facts -------------------------------------------

    def _label(self, root: Any, name: str) -> None:
        self.cf.labels.setdefault(root, name)

    def _lookup(self, name: str) -> Any:
        """Live value of a free name, in-body imports first."""
        if name in self.imports:
            return self.imports[name]
        return self._free_value(name)

    def _name_loc(self, name: str) -> Optional[tuple]:
        """Conformance location a bare name denotes, if it is state."""
        if name in self.locs:
            return self.locs[name]
        if name in self.kinds:
            return None
        value = self._lookup(name)
        if value is _MISSING:
            return None
        if _classify_live(value, name)[0] in ("module", "callable"):
            return None
        self._label(id(value), name)
        return (id(value), "")

    def _loc(self, node: ast.AST) -> Optional[tuple]:
        """``(root, field)`` of the live state an expression reaches."""
        if isinstance(node, ast.Name):
            return self._name_loc(node.id)
        if isinstance(node, (ast.Attribute, ast.Subscript, ast.Starred)):
            base = self._loc(node.value)
            if base is None or base[1] or not isinstance(node, ast.Attribute):
                return base
            return (base[0], node.attr)
        return None

    def _read(self, loc: Optional[tuple], node: ast.AST) -> None:
        if loc is not None and not self._in_target:
            self.cf.effects.append(
                Effect(loc[0], loc[1], is_write=False, line=self._line(node))
            )

    def _write(self, loc: tuple, node: ast.AST, reduction: bool) -> None:
        if loc[0] == CELL_ROOT:
            self.cf.rebinds.append((loc[1], self._line(node)))
        self.cf.effects.append(
            Effect(
                loc[0],
                loc[1],
                is_write=True,
                reduction=reduction,
                in_loop=self.loop_depth > 0,
                line=self._line(node),
            )
        )

    def _block_escape(self, what: str, node: ast.AST) -> None:
        self.cf.block_escapes.append((what, self._line(node)))

    def _opaque(self, name: str, node: ast.AST) -> None:
        self.cf.opaque_calls.append(HelperCall(name, self._line(node)))

    def _staged(self, name: str) -> None:
        """A staged-helper call: its argument reads read staged copies."""
        self.cf.staged_helpers.add(name)
        effects = self.cf.effects
        for index in range(*self._window):
            if not effects[index].is_write:
                effects[index] = replace(effects[index], staged=True)

    def _peek(self, node: ast.AST) -> tuple:
        """Node/block kind of a target holder, without recording."""
        if isinstance(node, ast.Name):
            return self.kinds.get(node.id, ("unknown",))
        if isinstance(node, ast.Subscript):
            holder = self._peek(node.value)
            if holder[0] == "nodeseq":
                return ("node", holder[1])
        return ("unknown",)

    def _target_loc(self, node: ast.AST) -> Optional[tuple]:
        """Where a store into ``node`` lands, for the conformance view."""
        if isinstance(node, ast.Subscript):
            return self._target_loc(node.value)
        if isinstance(node, ast.Name):
            if node.id in self.cells:
                return (CELL_ROOT, node.id)
            holder = self._peek(node)
        elif isinstance(node, ast.Attribute):
            holder = self._peek(node.value)
        else:
            return (OPAQUE_ROOT, ast.dump(node)[:60])
        if holder[0] == "node":
            return (NODE_ROOT, "")
        if holder[0] in ("nodeseq", "view"):
            return _BLOCK
        return self._loc(node)

    def _note_store(self, target: ast.AST, stmt: ast.AST, reduction: bool) -> None:
        loc = self._target_loc(target)
        if loc == _BLOCK:
            self._block_escape("writes into a dispatcher block argument", stmt)
        elif loc is not None:
            self._write(loc, stmt, reduction)
        self._note_retention(getattr(stmt, "value", None), stmt)

    def _note_retention(self, value: Optional[ast.AST], stmt: ast.AST) -> None:
        """A block reference (not a value derived from it) stored away."""
        if isinstance(value, ast.Name):
            if self.kinds.get(value.id, ("",))[0] in ("nodeseq", "view"):
                self._block_escape(
                    f"retains block argument {value.id!r} beyond the dispatch",
                    stmt,
                )
        elif isinstance(value, (ast.Tuple, ast.List, ast.Set)):
            for element in value.elts:
                self._note_retention(element, stmt)
        elif isinstance(value, ast.Dict):
            for element in value.values:
                self._note_retention(element, stmt)
        elif isinstance(value, ast.Starred):
            self._note_retention(value.value, stmt)

    def _module_rooted(self, node: ast.AST) -> bool:
        """True when a dotted chain bottoms out in a module."""
        while isinstance(node, ast.Attribute):
            node = node.value
        if not isinstance(node, ast.Name):
            return False
        if node.id in PURE_MODULES:
            return True
        if node.id in self.kinds:
            return self.kinds[node.id][0] == "module"
        return isinstance(self._lookup(node.id), types.ModuleType)

    def _note_unfollowed_call(self, target: Any, name: str, node: ast.AST) -> None:
        """Conformance view of a call target the walk did not enter."""
        if getattr(target, "__conformance_staged__", False):
            self._staged(getattr(target, "__name__", name))
            return
        if getattr(target, "__conformance_pure__", False) or isinstance(target, type):
            return
        if not isinstance(getattr(target, "__func__", target), types.FunctionType):
            module = getattr(target, "__module__", "") or ""
            if module.split(".")[0] in PURE_MODULES:
                return
        self._opaque(name, node)

    def _note_named_call(self, name: str, node: ast.AST) -> None:
        if name in PURE_BUILTINS or name in FRESH_CONSTRUCTORS:
            return
        if name in self.kinds:
            kind = self.kinds[name]
            if kind[0] == "callable":
                self._note_unfollowed_call(kind[1], name, node)
            elif self._name_loc(name) is not None:
                self._opaque(name, node)
            return
        value = self._lookup(name)
        kind = ("unknown",) if value is _MISSING else _classify_live(value, name)
        if kind[0] == "callable":
            self._note_unfollowed_call(value, name, node)
        elif kind[0] != "module":
            self._opaque(name, node)  # unresolved, or calling a state object

    def _note_method_call(
        self, func: ast.Attribute, node: ast.Call, base: tuple
    ) -> None:
        attr = func.attr
        mutating = attr in KNOWN_MUTATING_METHODS
        pure = attr in PURE_VALUE_METHODS
        if base[0] == "node":
            self.cf.node_reads.add(attr)
            if mutating:
                self._write((NODE_ROOT, ""), node, False)
            return
        if base[0] == "view" and attr == "column":
            for arg in node.args:
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    self.cf.node_reads.add(arg.value)
            return
        if base[0] in ("nodeseq", "view"):
            if mutating:
                self._block_escape(f"mutates its block argument via .{attr}()", node)
            elif not pure:
                self._opaque(attr, node)
            return
        loc = self._loc(func.value)
        if loc is not None:
            bound = getattr(self.live.get(loc[0]), attr, None) if not loc[1] else None
            if isinstance(getattr(bound, "__func__", bound), types.FunctionType):
                self._note_unfollowed_call(bound, attr, node)
            elif mutating:
                self._write(loc, node, False)
            elif not pure:
                self._opaque(attr, node)
            return
        if base[0] != "pyobject" and not pure and not mutating:
            # A fresh container may do anything to itself; any other
            # value's unknown method is an unknown effect.
            self._opaque(attr, node)

    # -- expression evaluation ---------------------------------------

    def _eval(self, node: ast.AST) -> tuple:
        """Evaluate an expression to a value kind, recording effects."""
        method = getattr(self, f"_eval_{type(node).__name__}", None)
        if method is not None:
            return method(node)
        # Anything unmodeled: visit children conservatively.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._eval(child)
        return ("unknown",)

    def _eval_Constant(self, node: ast.Constant) -> tuple:
        return ("scalar",)

    def _eval_Name(self, node: ast.Name) -> tuple:
        loc = self._name_loc(node.id)
        if loc is not None and not loc[1]:
            self._read(loc, node)
        return self.resolve_name(node.id)

    def _eval_Tuple(self, node: ast.Tuple) -> tuple:
        kinds = tuple(self._eval(elt) for elt in node.elts)
        return ("tuple", kinds)

    def _eval_List(self, node: ast.List) -> tuple:
        for elt in node.elts:
            self._eval(elt)
        self.ir.allocations.append(
            AllocSite("list", self.loop_depth > 0, self._line(node))
        )
        return ("pyobject", "list literal")

    def _eval_Set(self, node: ast.Set) -> tuple:
        for elt in node.elts:
            self._eval(elt)
        self.ir.allocations.append(
            AllocSite("set", self.loop_depth > 0, self._line(node))
        )
        return ("pyobject", "set literal")

    def _eval_Dict(self, node: ast.Dict) -> tuple:
        for key in node.keys:
            if key is not None:
                self._eval(key)
        for value in node.values:
            self._eval(value)
        self.ir.allocations.append(
            AllocSite("dict", self.loop_depth > 0, self._line(node))
        )
        return ("pyobject", "dict literal")

    def _comp_kind(self, node) -> tuple:
        """Comprehensions: bind targets from the iterable, eval elt."""
        saved = dict(self.kinds), dict(self.locs)
        for comp in node.generators:
            iter_kind = self._eval(comp.iter)
            self._bind_target(comp.target, self._element_kind(iter_kind))
            for cond in comp.ifs:
                self._eval(cond)
        if isinstance(node, ast.DictComp):
            self._eval(node.key)
            elt_kind = self._eval(node.value)
        else:
            elt_kind = self._eval(node.elt)
        self.kinds, self.locs = saved
        return elt_kind

    def _eval_ListComp(self, node: ast.ListComp) -> tuple:
        elt_kind = self._comp_kind(node)
        self.ir.allocations.append(
            AllocSite("list", self.loop_depth > 0, self._line(node))
        )
        # A listcomp of per-node gathers is itself a gather vector —
        # np.array([o.data for o in os]) keeps its index meaning.
        if elt_kind[0] in ("gather", "rank"):
            return self._vector_of(elt_kind)
        return ("pyobject", "list comprehension")

    def _eval_SetComp(self, node: ast.SetComp) -> tuple:
        self._comp_kind(node)
        self.ir.allocations.append(
            AllocSite("set", self.loop_depth > 0, self._line(node))
        )
        return ("pyobject", "set comprehension")

    def _eval_DictComp(self, node: ast.DictComp) -> tuple:
        self._comp_kind(node)
        self.ir.allocations.append(
            AllocSite("dict", self.loop_depth > 0, self._line(node))
        )
        return ("pyobject", "dict comprehension")

    def _eval_GeneratorExp(self, node: ast.GeneratorExp) -> tuple:
        elt_kind = self._comp_kind(node)
        if elt_kind[0] in ("gather", "rank"):
            return self._vector_of(elt_kind)
        return ("data",)

    @staticmethod
    def _vector_of(elt_kind: tuple) -> tuple:
        if elt_kind[0] == "gather":
            return elt_kind
        if elt_kind[0] == "rank":
            return ("rankvec", elt_kind[1], 1, 0)
        return ("data",)

    @staticmethod
    def _element_kind(iter_kind: tuple) -> tuple:
        """Kind of one element drawn from an iterable of ``iter_kind``."""
        if iter_kind[0] == "nodeseq":
            return ("node", iter_kind[1])
        if iter_kind[0] == "rankvec":
            return ("rank", iter_kind[1])
        if iter_kind[0] in ("gather", "column"):
            return ("data",)
        if iter_kind[0] == "array":
            return ("data",)
        if iter_kind[0] == "tuple":
            return ("unknown",)
        return ("unknown",)

    def _eval_Starred(self, node: ast.Starred) -> tuple:
        return self._eval(node.value)

    def _eval_IfExp(self, node: ast.IfExp) -> tuple:
        self._eval(node.test)
        body = self._eval(node.body)
        orelse = self._eval(node.orelse)
        return body if body == orelse else ("data",)

    def _eval_JoinedStr(self, node: ast.JoinedStr) -> tuple:
        for value in node.values:
            if isinstance(value, ast.FormattedValue):
                self._eval(value.value)
        return ("scalar",)

    def _eval_BoolOp(self, node: ast.BoolOp) -> tuple:
        for value in node.values:
            self._eval(value)
        return ("scalar",)

    def _eval_Compare(self, node: ast.Compare) -> tuple:
        kinds = [self._eval(node.left)]
        kinds.extend(self._eval(comp) for comp in node.comparators)
        if any(
            k[0] in ("rankvec", "gather", "column", "array", "mask", "nonaffine")
            for k in kinds
        ):
            return ("mask",)
        return ("scalar",)

    def _eval_UnaryOp(self, node: ast.UnaryOp) -> tuple:
        operand = self._eval(node.operand)
        if isinstance(node.op, ast.USub):
            if operand[0] == "rankvec":
                return ("rankvec", operand[1], -operand[2], _neg(operand[3]))
            if operand[0] in ("rank", "gather"):
                return ("nonaffine", operand[1], "negated index")
        return operand if operand[0] in ("scalar", "data", "mask") else ("data",)

    def _eval_BinOp(self, node: ast.BinOp) -> tuple:
        left = self._eval(node.left)
        right = self._eval(node.right)
        lit_left = _literal_int(node.left)
        lit_right = _literal_int(node.right)
        return _combine_binop(node.op, left, right, lit_left, lit_right)

    def _eval_Attribute(self, node: ast.Attribute) -> tuple:
        base = self._eval(node.value)
        attr = node.attr
        self._read(self._loc(node), node)
        if base[0] == "node":
            self.ir.attr_reads.add((base[1], attr))
            if not self._in_target:
                self.cf.node_reads.add(attr)
            return ("gather", base[1], attr)
        if base[0] == "state":
            obj = self.live.get(base[1], _MISSING)
            label = f"{base[2]}.{attr}"
            if obj is _MISSING:
                return ("unknown",)
            value = getattr(obj, attr, _MISSING)
            if value is _MISSING:
                # A field first assigned by the kernel itself.
                return ("statefield", base[1], base[2], attr)
            if isinstance(value, np.ndarray):
                self._register(value)
                return ("array", label)
            if callable(value):
                return ("callable", value, label)
            if isinstance(value, (bool, numbers.Number, np.generic)):
                self.ir.state_accesses.append(
                    StateAccess(label, is_write=False, line=self._line(node))
                )
                return ("statefield", base[1], base[2], attr)
            if isinstance(value, (dict, list, set)):
                return ("pyobject", label)
            self._register(value)
            return ("state", id(value), label)
        if base[0] == "module":
            value = getattr(base[1], attr, _MISSING)
            if value is _MISSING:
                return ("unknown",)
            kind = _classify_live(value, f"{base[2]}.{attr}")
            if kind[0] == "array":
                self._register(value)
            return kind
        if base[0] == "pyobject":
            self.ir.object_uses.append(
                ObjectUse(f"attribute access on {base[1]}", self._line(node))
            )
            return ("unknown",)
        if base[0] in ("array", "rankvec", "gather", "column"):
            # shape/dtype/T and friends: typed metadata, not an escape.
            if attr in ("shape", "size", "ndim", "dtype", "T"):
                return ("scalar",) if attr != "T" else base
            return ("data",)
        if base[0] == "callable" or base[0] == "statefield":
            return ("unknown",)
        return ("unknown",)

    def _eval_Subscript(self, node: ast.Subscript) -> tuple:
        base = self._eval(node.value)
        if base[0] in ("array", "column"):
            dims = self._classify_dims(node.slice)
            label = base[1] if base[0] == "array" else f"{base[1]}.{base[2]}"
            self.ir.array_accesses.append(
                ArrayAccess(label, dims, is_write=False, line=self._line(node))
            )
            self._note_dim_effects(dims, node)
            if base[0] == "column" and len(dims) == 1:
                dim = dims[0]
                if dim.kind == AFFINE:
                    return ("gather", base[1], base[2])
                if dim.kind == SLICE:
                    return ("column", base[1], base[2])
            return ("data",)
        if base[0] == "nodeseq":
            return ("node", base[1])
        if base[0] == "rankvec":
            index = node.slice
            if _literal_int(index) is not None:
                return ("rank", base[1])
            if isinstance(index, ast.Slice):
                return ("rankvec", base[1], base[2], None)
            index_kind = self._eval(index)
            if index_kind[0] == "mask":
                self.ir.dynamic_shapes.append(
                    ("mask-selected rank subset", self._line(node))
                )
                return ("rankvec", base[1], base[2], None)
            return ("nonaffine", base[1], "rank vector indexed by a value")
        if base[0] == "gather":
            self._eval(node.slice)
            return ("data",)
        if base[0] == "pyobject":
            self._eval(node.slice)
            self.ir.object_uses.append(
                ObjectUse(f"subscript of {base[1]}", self._line(node))
            )
            return ("unknown",)
        if base[0] == "state":
            self.ir.object_uses.append(
                ObjectUse(f"subscript of state object {base[2]}", self._line(node))
            )
            return ("unknown",)
        if base[0] == "tuple":
            lit = _literal_int(node.slice)
            if lit is not None and 0 <= lit < len(base[1]):
                return base[1][lit]
            return ("unknown",)
        self._eval(node.slice)
        return ("data",) if base[0] in ("data", "mask") else ("unknown",)

    # -- calls -------------------------------------------------------

    def _eval_Call(self, node: ast.Call) -> tuple:
        func = node.func
        start = len(self.cf.effects)
        arg_kinds = [self._eval(arg) for arg in node.args]
        for keyword in node.keywords:
            self._eval(keyword.value)
        outer_window = self._window
        self._window = (start, len(self.cf.effects))
        try:
            if isinstance(func, ast.Name):
                self._followed = False
                kind = self._call_named(func.id, node, arg_kinds)
                if not self._followed:
                    self._note_named_call(func.id, node)
                return kind
            if isinstance(func, ast.Attribute):
                rooted = self._module_rooted(func.value)
                base = self._eval(func.value)
                self._followed = False
                kind = self._call_method(func, node, arg_kinds, base)
                if not self._followed and not rooted:
                    self._note_method_call(func, node, base)
                return kind
        finally:
            self._window = outer_window
        self.ir.unknown_helpers.append(HelperCall("<dynamic call>", self._line(node)))
        return ("unknown",)

    def _call_named(self, name: str, node: ast.Call, arg_kinds: list) -> tuple:
        if name in _PURE_BUILTINS:
            if name in ("int", "float", "bool", "abs") and arg_kinds:
                k = arg_kinds[0]
                if k[0] in ("rank", "gather", "rankvec"):
                    return k
            return ("scalar",)
        if name in _CONTAINER_BUILTINS:
            self.ir.allocations.append(
                AllocSite(name, self.loop_depth > 0, self._line(node))
            )
            return ("pyobject", f"{name}() call")
        kind = self.resolve_name(name)
        return self._dispatch_kind(kind, name, node, arg_kinds)

    def _call_method(
        self, func: ast.Attribute, node: ast.Call, arg_kinds: list, base: tuple
    ) -> tuple:
        attr = func.attr
        if base[0] == "view":
            if attr == "column":
                if node.args and isinstance(node.args[0], ast.Constant):
                    return ("column", base[1], str(node.args[0].value))
                self.ir.untyped.append(
                    ("view.column() with a non-literal name", self._line(node))
                )
                return ("unknown",)
            return ("unknown",)
        if base[0] == "module":
            live_fn = getattr(base[1], attr, _MISSING)
            module_name = getattr(base[1], "__name__", "")
            root = module_name.split(".")[0]
            if root == "numpy":
                return self._numpy_call(attr, node, arg_kinds)
            if root == "math":
                return ("scalar",)
            if live_fn is not _MISSING and _is_repro_function(live_fn):
                return self._dispatch_function(live_fn, arg_kinds, node)
            self.ir.unknown_helpers.append(
                HelperCall(f"{module_name}.{attr}", self._line(node))
            )
            return ("unknown",)
        if base[0] in ("array", "column", "gather", "rankvec", "nodeseq"):
            if attr in PURE_VALUE_METHODS:
                return ("data",)
            if attr in _ARRAY_MUTATORS:
                label = base[1] if base[0] == "array" else str(base[1])
                self.ir.array_accesses.append(
                    ArrayAccess(
                        label,
                        (IndexDim(SLICE),),
                        is_write=True,
                        line=self._line(node),
                    )
                )
                return ("scalar",)
            if attr == "tolist":
                self.ir.allocations.append(
                    AllocSite("list", self.loop_depth > 0, self._line(node))
                )
                return ("pyobject", "tolist()")
            return ("data",)
        if base[0] == "state":
            obj = self.live.get(base[1], _MISSING)
            if obj is not _MISSING:
                bound = getattr(obj, attr, _MISSING)
                if bound is not _MISSING and callable(bound):
                    return self._dispatch_bound_method(
                        bound, base, attr, arg_kinds, node
                    )
            self.ir.unknown_helpers.append(
                HelperCall(f"{base[2]}.{attr}", self._line(node))
            )
            return ("unknown",)
        if base[0] == "node":
            self.ir.unknown_helpers.append(
                HelperCall(f"<{base[1]} node>.{attr}", self._line(node))
            )
            return ("unknown",)
        if base[0] == "pyobject":
            self.ir.object_uses.append(
                ObjectUse(f"method {attr}() on {base[1]}", self._line(node))
            )
            # Appending nodes to a fresh list makes it a node block.
            nodes = [k for k in arg_kinds if k[0] in ("node", "nodeseq")]
            if nodes and isinstance(func.value, ast.Name) and attr in (
                "append", "extend", "insert", "add"
            ):
                self.kinds[func.value.id] = ("nodeseq", nodes[0][1])
            return ("unknown",)
        if base[0] == "callable":
            return ("unknown",)
        if base[0] in ("scalar", "data", "mask"):
            return base
        self.ir.unknown_helpers.append(HelperCall(attr, self._line(node)))
        return ("unknown",)

    def _numpy_call(self, attr: str, node: ast.Call, arg_kinds: list) -> tuple:
        if attr in _NP_STAGING:
            if arg_kinds and arg_kinds[0][0] in ("rankvec", "gather", "rank"):
                return self._vector_of(arg_kinds[0]) if arg_kinds[0][0] != "rankvec" else arg_kinds[0]
            return ("data",)
        if attr in _NP_ALLOC:
            self.ir.allocations.append(
                AllocSite("ndarray", self.loop_depth > 0, self._line(node))
            )
            # The "<fresh ...>" label marks a kernel-local temporary:
            # the independence pass exempts writes into it.
            return ("array", f"<fresh np.{attr}>")
        if attr in _NP_DYNSHAPE:
            self.ir.dynamic_shapes.append((f"np.{attr}", self._line(node)))
            return ("mask",)
        # Everything else in numpy is a typed intrinsic over its args.
        return ("data",)

    def _dispatch_kind(
        self, kind: tuple, name: str, node: ast.Call, arg_kinds: list
    ) -> tuple:
        if kind[0] == "callable":
            target = kind[1]
            if _is_repro_function(target):
                return self._dispatch_function(target, arg_kinds, node)
            module = getattr(target, "__module__", "") or ""
            if module.split(".")[0] in ("numpy", "math"):
                return ("data",)
            if isinstance(target, type):
                self.ir.allocations.append(
                    AllocSite("object", self.loop_depth > 0, self._line(node))
                )
                self.ir.object_uses.append(
                    ObjectUse(f"constructs {name}()", self._line(node))
                )
                return ("unknown",)
            if isinstance(target, types.MethodType):
                self_obj = target.__self__
                self._register(self_obj)
                return self._dispatch_bound_method(
                    target,
                    ("state", id(self_obj), name),
                    getattr(target, "__name__", name),
                    arg_kinds,
                    node,
                )
            self.ir.unknown_helpers.append(HelperCall(name, self._line(node)))
            return ("unknown",)
        if kind[0] in ("unknown", "pyobject", "state"):
            self.ir.unknown_helpers.append(HelperCall(name, self._line(node)))
        return ("unknown",)

    def _dispatch_function(
        self,
        target: types.FunctionType,
        arg_kinds: list,
        node: ast.Call,
        self_kind: Optional[tuple] = None,
    ) -> tuple:
        name = getattr(target, "__name__", "<fn>")
        self._followed = True
        marked = getattr(target, "__conformance_pure__", False)
        if getattr(target, "__conformance_staged__", False):
            self._staged(name)
            marked = True
        if self.depth >= _MAX_DEPTH:
            self.ir.unknown_helpers.append(HelperCall(name, self._line(node)))
            if not marked:
                self._opaque(name, node)
            return ("unknown",)
        typed_key = (target.__code__, tuple(k[0] for k in arg_kinds))
        arg_locs = tuple(self._loc(arg) for arg in node.args)
        kw_locs = {kw.arg: self._loc(kw.value) for kw in node.keywords if kw.arg}
        cf_key = typed_key + (
            arg_locs,
            tuple(sorted(kw_locs.items())),
            self_kind[1] if self_kind else None,
        )
        walk_typed = self.typed and typed_key not in self.memo
        walk_cf = not (self.muted or marked) and cf_key not in self.memo
        if not (walk_typed or walk_cf):
            return ("data",)
        if walk_typed:
            self.memo.add(typed_key)
        if walk_cf:
            self.memo.add(cf_key)
        sub = _Extractor(
            self.ir if walk_typed else KernelIR(role=self.ir.role),
            target,
            tuple(arg_kinds),
            self.live,
            self.cf if walk_cf else Conformance(),
            self_kind=self_kind,
            depth=self.depth + 1,
            loop_depth=self.loop_depth,
            memo=self.memo,
            typed=walk_typed,
            muted=not walk_cf,
            arg_locs=arg_locs,
            kw_locs=kw_locs,
        )
        if not sub.parsed:
            # Helper source unavailable: record, but do not poison the
            # whole kernel — the caller's body was parseable.
            if walk_typed:
                self.ir.unknown_helpers.append(HelperCall(name, self._line(node)))
            if walk_cf:
                self.cf.sourceless.append(name)
        return ("data",)

    def _dispatch_bound_method(
        self,
        bound: Any,
        base: tuple,
        attr: str,
        arg_kinds: list,
        node: ast.Call,
    ) -> tuple:
        func = getattr(bound, "__func__", None)
        if func is None or not _is_repro_function(func):
            self.ir.unknown_helpers.append(
                HelperCall(f"{base[2]}.{attr}", self._line(node))
            )
            return ("unknown",)
        return self._dispatch_function(func, arg_kinds, node, self_kind=base)

    # -- index classification ----------------------------------------

    def _classify_dims(self, index: ast.AST) -> tuple[IndexDim, ...]:
        if isinstance(index, ast.Tuple):
            return tuple(self._classify_dim(elt) for elt in index.elts)
        return (self._classify_dim(index),)

    def _classify_dim(self, node: ast.AST) -> IndexDim:
        if isinstance(node, ast.Slice):
            if node.lower is not None:
                self._eval(node.lower)
            if node.upper is not None:
                self._eval(node.upper)
            return IndexDim(SLICE)
        if _literal_int(node) is not None:
            return IndexDim(CONST, const=_literal_int(node))
        kind = self._eval(node)
        if kind[0] == "rank":
            return IndexDim(AFFINE, axis=kind[1], coeff=1, const=0)
        if kind[0] == "rankvec":
            return IndexDim(AFFINE, axis=kind[1], coeff=kind[2], const=kind[3])
        if kind[0] == "gather":
            return IndexDim(GATHER, axis=kind[1], column=kind[2])
        if kind[0] == "nonaffine":
            return IndexDim(UNKNOWN, axis=kind[1], detail=kind[2])
        if kind[0] == "mask":
            return IndexDim(MASK)
        if kind[0] == "scalar":
            # A scalar *variable*: rank-independent as far as the IR can
            # see, but its provenance (a data value? a loop counter?) is
            # lost — claiming a definite location would overreach.
            return IndexDim(UNKNOWN, detail="scalar of unknown provenance")
        return IndexDim(UNKNOWN, detail="value-dependent index")

    def _note_dim_effects(self, dims: tuple[IndexDim, ...], node: ast.AST) -> None:
        for dim in dims:
            if dim.kind == MASK:
                self.ir.dynamic_shapes.append(
                    ("boolean-mask index", self._line(node))
                )

    # -- statements --------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        value_kind = self._eval(node.value)
        for target in node.targets:
            self._store(
                target, value_kind, node, reduction=False, aug=False, value=node.value
            )

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is None:
            return
        value_kind = self._eval(node.value)
        self._store(
            node.target, value_kind, node, reduction=False, aug=False, value=node.value
        )

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._eval(node.value)
        # The augmented target is read *and* written.
        self._eval(node.target)
        reduction = isinstance(node.op, _REDUCTION_OPS)
        self._store(node.target, ("data",), node, reduction=reduction, aug=True)

    def _store(
        self,
        target: ast.AST,
        value_kind: tuple,
        node: ast.AST,
        reduction: bool,
        aug: bool,
        value: Optional[ast.AST] = None,
    ) -> None:
        """Record a store; ``value`` is the stored expression, if known."""
        line = self._line(node)
        if isinstance(target, ast.Name):
            if target.id in self.cells:
                self._write((CELL_ROOT, target.id), node, reduction and aug)
            if target.id in self.fn.__code__.co_freevars:
                self.ir.object_uses.append(
                    ObjectUse(f"rebinds captured variable {target.id!r}", line)
                )
                return
            self.kinds[target.id] = value_kind
            self.locs[target.id] = None if value is None else self._loc(value)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            kinds = (
                value_kind[1]
                if value_kind[0] == "tuple" and len(value_kind[1]) == len(target.elts)
                else tuple(("unknown",) for _ in target.elts)
            )
            values = (
                value.elts
                if isinstance(value, (ast.Tuple, ast.List))
                and len(value.elts) == len(target.elts)
                else [None] * len(target.elts)
            )
            for elt, kind, elt_value in zip(target.elts, kinds, values):
                self._store(
                    elt, kind, node, reduction=False, aug=False, value=elt_value
                )
            return
        if isinstance(target, ast.Starred):
            self._store(target.value, ("unknown",), node, reduction=False, aug=False)
            return
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            self._note_store(target, node, reduction and aug)
            # The store target is written, not read: its base and index
            # are evaluated for the typed facts only.
            self._in_target += 1
            if isinstance(target, ast.Attribute):
                self._store_attribute(target, node, reduction, aug)
            else:
                self._store_subscript(target, node, reduction)
            self._in_target -= 1
            return
        self.ir.untyped.append(("unresolvable store target", line))

    def _store_attribute(
        self, target: ast.Attribute, node: ast.AST, reduction: bool, aug: bool
    ) -> None:
        base = self._eval(target.value)
        attr = target.attr
        line = self._line(node)
        if base[0] == "state":
            obj = self.live.get(base[1], _MISSING)
            label = f"{base[2]}.{attr}"
            typed = True
            if obj is not _MISSING:
                value = getattr(obj, attr, _MISSING)
                typed = value is _MISSING or isinstance(
                    value, (bool, numbers.Number, np.generic)
                )
            self.ir.state_accesses.append(
                StateAccess(
                    label,
                    is_write=True,
                    reduction=reduction and aug,
                    typed=typed,
                    line=line,
                )
            )
            return
        if base[0] == "node":
            self.ir.node_writes.append(NodeFieldWrite(base[1], attr, line))
            return
        if base[0] == "pyobject":
            self.ir.object_uses.append(
                ObjectUse(f"attribute store on {base[1]}", line)
            )
            return
        if base[0] == "view":
            self.ir.object_uses.append(
                ObjectUse(f"attribute store on the {base[1]} SoA view", line)
            )
            return
        self.ir.untyped.append((f"store to attribute {attr!r} of {base[0]}", line))

    def _store_subscript(
        self, target: ast.Subscript, node: ast.AST, reduction: bool
    ) -> None:
        base = self._eval(target.value)
        line = self._line(node)
        if base[0] in ("array", "column"):
            dims = self._classify_dims(target.slice)
            label = base[1] if base[0] == "array" else f"{base[1]}.{base[2]}"
            self.ir.array_accesses.append(
                ArrayAccess(label, dims, is_write=True, reduction=reduction, line=line)
            )
            self._note_dim_effects(dims, node)
            return
        if base[0] in ("pyobject", "state"):
            label = base[1] if base[0] == "pyobject" else base[2]
            self._eval(target.slice)
            self.ir.object_uses.append(ObjectUse(f"item store into {label}", line))
            return
        self._eval(target.slice)
        self.ir.untyped.append((f"store through a {base[0]} subscript", line))

    def visit_For(self, node: ast.For) -> None:
        iter_kind = self._eval(node.iter)
        if isinstance(node.iter, ast.Call) and isinstance(node.iter.func, ast.Name):
            fname = node.iter.func.id
            if fname == "enumerate" and node.iter.args:
                inner = self._eval(node.iter.args[0])
                iter_kind = ("tuple", (("scalar",), self._element_kind(inner)))
                self._bind_target(node.target, iter_kind)
                self._loop_body(node)
                return
            if fname == "zip":
                kinds = tuple(
                    self._element_kind(self._eval(arg)) for arg in node.iter.args
                )
                self._bind_target(node.target, ("tuple", kinds))
                self._loop_body(node)
                return
            if fname == "range":
                self._bind_target(node.target, ("scalar",))
                self._loop_body(node)
                return
        self._bind_target(node.target, self._element_kind(iter_kind))
        self._loop_body(node)

    def _loop_body(self, node: ast.For) -> None:
        self.loop_depth += 1
        for stmt in node.body:
            self.visit(stmt)
        self.loop_depth -= 1
        for stmt in node.orelse:
            self.visit(stmt)

    def _bind_target(self, target: ast.AST, kind: tuple) -> None:
        if isinstance(target, ast.Name):
            self.kinds[target.id] = kind
            self.locs.pop(target.id, None)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            kinds = (
                kind[1]
                if kind[0] == "tuple" and len(kind[1]) == len(target.elts)
                else tuple(("unknown",) for _ in target.elts)
            )
            for elt, sub in zip(target.elts, kinds):
                self._bind_target(elt, sub)

    def visit_While(self, node: ast.While) -> None:
        self._eval(node.test)
        self.loop_depth += 1
        for stmt in node.body:
            self.visit(stmt)
        self.loop_depth -= 1
        for stmt in node.orelse:
            self.visit(stmt)

    def visit_If(self, node: ast.If) -> None:
        self._eval(node.test)
        for stmt in node.body:
            self.visit(stmt)
        for stmt in node.orelse:
            self.visit(stmt)

    def visit_Expr(self, node: ast.Expr) -> None:
        self._eval(node.value)

    def visit_Return(self, node: ast.Return) -> None:
        if node.value is not None:
            self._eval(node.value)

    def visit_Assert(self, node: ast.Assert) -> None:
        self._eval(node.test)

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            self._eval(item.context_expr)
        for stmt in node.body:
            self.visit(stmt)

    def visit_Try(self, node: ast.Try) -> None:
        for stmt in node.body:
            self.visit(stmt)
        for handler in node.handlers:
            for stmt in handler.body:
                self.visit(stmt)
        for stmt in node.orelse:
            self.visit(stmt)
        for stmt in node.finalbody:
            self.visit(stmt)

    def visit_Nonlocal(self, node: ast.Nonlocal) -> None:
        self.cells.update(node.names)

    visit_Global = visit_Nonlocal

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            name = alias.name if alias.asname else alias.name.split(".")[0]
            module = _import(name)
            if module is not None:
                self.imports[alias.asname or name] = module

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = _import(node.module) if node.module and not node.level else None
        for alias in node.names if module is not None else ():
            value = getattr(module, alias.name, _MISSING)
            if value is not _MISSING:
                self.imports[alias.asname or alias.name] = value

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # A nested def is a closure the compiled loop cannot have.
        self.ir.object_uses.append(
            ObjectUse(f"defines nested function {node.name!r}", self._line(node))
        )

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node: ast.Lambda) -> None:  # pragma: no cover
        self.ir.object_uses.append(
            ObjectUse("defines a lambda", self._line(node))
        )

    def generic_visit(self, node: ast.AST) -> None:
        # Statements without a dedicated handler: evaluate expression
        # children so reads are still recorded.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._eval(child)
            else:
                self.visit(child)


def _neg(value: Optional[int]) -> Optional[int]:
    return None if value is None else -value


def _combine_binop(
    op: ast.operator,
    left: tuple,
    right: tuple,
    lit_left: Optional[int],
    lit_right: Optional[int],
) -> tuple:
    """Kind algebra for binary operators, preserving affineness."""
    rankish = ("rank", "rankvec")
    # Normalize: rank behaves as rankvec(1, 0) of width one.
    def as_affine(kind):
        if kind[0] == "rank":
            return ("rankvec", kind[1], 1, 0)
        return kind

    lk, rk = as_affine(left), as_affine(right)
    if lk[0] == "rankvec" and rk[0] == "rankvec":
        return ("nonaffine", lk[1], "combines two rank expressions")
    for vec, other, lit in ((lk, rk, lit_right), (rk, lk, lit_left)):
        if vec[0] == "rankvec" and other[0] == "scalar":
            if isinstance(op, (ast.Add, ast.Sub)):
                if vec is rk and isinstance(op, ast.Sub):
                    # k - (c*r + d) = -c*r + (k - d)
                    const = (
                        lit - vec[3]
                        if lit is not None and vec[3] is not None
                        else None
                    )
                    return ("rankvec", vec[1], -vec[2], const)
                if lit is None:
                    return ("rankvec", vec[1], vec[2], None)
                delta = lit if isinstance(op, ast.Add) else -lit
                const = None if vec[3] is None else vec[3] + delta
                return ("rankvec", vec[1], vec[2], const)
            if isinstance(op, ast.Mult):
                if lit is None:
                    return ("nonaffine", vec[1], "scaled by a runtime value")
                if lit == 0:
                    return ("scalar",)
                return (
                    "rankvec",
                    vec[1],
                    vec[2] * lit,
                    None if vec[3] is None else vec[3] * lit,
                )
            return ("nonaffine", vec[1], f"{type(op).__name__} of a rank expression")
    if lk[0] == "gather" and rk[0] == "scalar":
        if isinstance(op, (ast.Add, ast.Sub)):
            return lk
        if isinstance(op, ast.Mult) and lit_right not in (None, 0):
            return lk
        return ("data",)
    if rk[0] == "gather" and lk[0] == "scalar":
        if isinstance(op, ast.Add):
            return rk
        if isinstance(op, ast.Mult) and lit_left not in (None, 0):
            return rk
        return ("data",)
    if lk[0] == "gather" and rk[0] == "gather":
        return ("data",)
    if any(k[0] in rankish for k in (left, right)):
        axis = left[1] if left[0] in rankish else right[1]
        return ("nonaffine", axis, "rank combined with non-scalar data")
    if lk[0] == "mask" or rk[0] == "mask":
        return ("mask",)
    if lk[0] == "scalar" and rk[0] == "scalar":
        return ("scalar",)
    return ("data",)


# --------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------


def extract_kernel_ir(fn: Any, role: str) -> KernelIR:
    """Extract the IR of one live kernel function.

    ``role`` must be a key of :data:`ROLE_PARAM_KINDS`; it fixes the
    kinds the kernel's positional parameters are bound to.  A kernel
    whose source cannot be fetched yields ``analyzable=False`` (the
    passes turn that into TW100/TW200/TW300).
    """
    if role not in ROLE_PARAM_KINDS:
        raise ValueError(f"unknown kernel role {role!r}")
    ir = KernelIR(role=role, name=getattr(fn, "__name__", "<kernel>"))
    target = fn
    self_kind: Optional[tuple] = None
    live: dict[int, Any] = {}
    if isinstance(fn, types.MethodType):
        self_obj = fn.__self__
        live[id(self_obj)] = self_obj
        label = type(self_obj).__name__.lower()
        self_kind = ("state", id(self_obj), label)
        target = fn.__func__
    if not isinstance(target, types.FunctionType):
        ir.analyzable = False
        return ir
    ir.analyzable = _Extractor(
        ir, target, ROLE_PARAM_KINDS[role], live, ir.conformance, self_kind=self_kind
    ).parsed
    return ir


# --------------------------------------------------------------------
# One extraction per kernel family
# --------------------------------------------------------------------

#: The kernel roles the spec-level passes read: exactly the kernels
#: :func:`spec_cache_key` is built from.
SPEC_ROLES = (
    "work",
    "work_batch",
    "work_batch_soa",
    "truncate_inner2",
    "truncate_inner2_batch",
)

#: spec_cache_key -> {role: KernelIR}.  Holds no live objects: effect
#: roots are ``id()`` integers, every other fact is a string or number.
_IR_CACHE: dict[tuple, dict[str, KernelIR]] = {}


def _kernel_cache_key(fn: Any) -> object:
    if fn is None:
        return None
    fn0 = getattr(fn, "__func__", fn)
    code = getattr(fn0, "__code__", None)
    if code is None:
        return ("opaque", type(fn).__name__)
    cells = []
    closure = getattr(fn0, "__closure__", None) or ()
    for name, cell in zip(code.co_freevars, closure):
        try:
            value = cell.cell_contents
        except ValueError:  # pragma: no cover - unfilled cell
            cells.append((name, None))
            continue
        inner = getattr(value, "__func__", value)
        inner_code = getattr(inner, "__code__", None)
        cells.append(
            (name, inner_code if inner_code is not None else type(value).__name__)
        )
    return (code, tuple(cells))


def spec_cache_key(spec: Any) -> tuple:
    """Key of a spec's kernel family: code objects plus closure shapes.

    Fresh specs from one factory (new closures, same code) share a key;
    so do the parallel runtime's task specs (same kernels, new roots).
    """
    return (
        _kernel_cache_key(spec.work),
        _kernel_cache_key(spec.work_batch),
        _kernel_cache_key(spec.work_batch_soa),
        _kernel_cache_key(spec.truncate_inner2),
        _kernel_cache_key(spec.truncate_inner2_batch),
        bool(spec.truncation_observes_work),
    )


def spec_kernel_irs(spec: Any) -> dict[str, KernelIR]:
    """The IR of every :data:`SPEC_ROLES` kernel the spec defines.

    Extracted once per kernel family and shared by the conformance,
    lowerability and locality passes (each pass's ``clear_cache``
    drops it).  The passes must treat the returned IRs as read-only.
    """
    key = spec_cache_key(spec)
    if key not in _IR_CACHE:
        _IR_CACHE[key] = {
            role: extract_kernel_ir(getattr(spec, role), role)
            for role in SPEC_ROLES
            if getattr(spec, role, None) is not None
        }
    return _IR_CACHE[key]


def clear_ir_cache() -> None:
    """Drop every cached kernel IR (each pass's ``clear_cache`` calls this)."""
    _IR_CACHE.clear()
