"""Fused-kernel code generation for the ``compiled`` backend.

The TW20x pass (:mod:`repro.transform.lint.lower`) *certifies* that a
spec's ``work_batch_soa`` kernel is lowerable: every access is a typed
column gather, rank indexing is affine, and the hot loop allocates
nothing beyond staging.  This module *consumes* that certificate.  It
translates the kernel's AST into a standalone fused function over plain
``ndarray`` arguments — position arrays, packed SoA columns, captured
environment arrays/scalars, and the numeric fields of captured state
objects — so the whole cross product runs as one allocation-free
dispatch with no attribute walks, no ``SoAView`` indirection, and no
per-block Python overhead.

Two execution tiers share one generated source:

* ``numba`` importable → the source is wrapped in ``numba.njit``.
  Compilation is lazy; if the first call raises (e.g. an einsum the
  nopython frontend rejects) the artifact permanently downgrades to
  the NumPy tier and records why in ``jit_note``.
* otherwise → the generated pure-NumPy function runs directly.  It is
  already a win over the block-dispatch SoA path because the staging
  copies, column lookups, and state attribute traffic are hoisted out.

Translation covers the *certified* subset only — straight-line bodies,
``view.column("name")`` gathers, NumPy staging calls over the position
iterables, captured ``ndarray``/scalar environment, and one level of
method calls on captured state objects (inlined; their numeric fields
become in/out parameters).  Anything outside that subset raises
:class:`LoweringUnsupported` and the caller falls back to dispatching
the original kernel over the same position blocks (still
fused-traversal — just not regenerated source).
"""

from __future__ import annotations

import ast
import inspect
import textwrap
import types
from collections import ChainMap
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

import numpy as np

from repro.errors import ReproError

__all__ = [
    "FusedKernel",
    "LoweringUnsupported",
    "generate_fused_kernel",
]


class LoweringUnsupported(ReproError):
    """The kernel uses a construct outside the code generator's subset.

    This is *not* a safety failure — the TW20x verdict still holds and
    the fused traversal is still valid.  Callers respond by dispatching
    the original ``work_batch_soa`` over the same position blocks
    instead of running regenerated source.
    """


#: NumPy staging constructors the TW20x pass treats as IR-friendly.
#: When one of these is applied to a position iterable the generated
#: code collapses it away: the fused function already receives the
#: positions as a typed ``np.intp`` array.
_STAGING_CALLS = frozenset(
    {"fromiter", "asarray", "array", "ascontiguousarray", "asanyarray"}
)

#: Scalar/array types that may travel as environment parameters.
_ENV_VALUE_TYPES = (np.ndarray, np.generic, int, float, bool)

#: Hard ceiling on state-method inlining (defends against recursive
#: helper methods; certified kernels use at most one level).
_MAX_INLINE = 16


def _import_numba():
    """Import hook for numba, isolated so tests can monkeypatch it."""
    try:
        import numba  # noqa: PLC0415
    except Exception:
        return None
    return numba


def _capture_env(fn: Callable) -> Mapping[str, Any]:
    """The kernel's name-resolution environment: closure over globals."""
    closure: dict[str, Any] = {}
    if getattr(fn, "__closure__", None):
        for name, cell in zip(fn.__code__.co_freevars, fn.__closure__):
            try:
                closure[name] = cell.cell_contents
            except ValueError:  # pragma: no cover - unfilled cell
                continue
    return ChainMap(closure, fn.__globals__)


def _kernel_ast(fn: Callable) -> ast.FunctionDef:
    """The kernel's FunctionDef, or LoweringUnsupported if unreadable."""
    try:
        source = textwrap.dedent(inspect.getsource(fn))
    except (OSError, TypeError) as exc:
        raise LoweringUnsupported(
            f"cannot read the source of {getattr(fn, '__qualname__', fn)!r}: {exc}"
        ) from exc
    try:
        module = ast.parse(source)
    except SyntaxError as exc:  # pragma: no cover - getsource artifacts
        raise LoweringUnsupported(f"kernel source does not parse: {exc}") from exc
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if isinstance(node, ast.AsyncFunctionDef):
                raise LoweringUnsupported("async kernels are not lowerable")
            return node
    raise LoweringUnsupported("no function definition found in kernel source")


@dataclass
class FusedKernel:
    """A generated fused kernel plus everything needed to call it.

    The artifact is bound to a kernel *family* (code objects), not to
    one spec instance: every :meth:`call` re-resolves the live columns,
    environment values, and state fields from the kernel actually
    passed in, so a cached artifact serves fresh spec instances (new
    closures, reset accumulators) without regeneration.
    """

    source: str
    o_columns: tuple[str, ...]
    i_columns: tuple[str, ...]
    env_names: tuple[str, ...]
    state_fields: tuple[tuple[str, str], ...]
    python_fn: Callable
    jit: str
    jit_note: str
    _jitted: Optional[Callable] = field(default=None, repr=False)

    def call(self, kernel, o_view, i_view, o_positions, i_positions) -> None:
        """Run the fused kernel against live views/positions.

        ``kernel`` is the spec's current ``work_batch_soa`` — used only
        to resolve captured names; its body never executes here.
        """
        env = _capture_env(kernel)
        args: list[Any] = [o_positions, i_positions]
        for name in self.o_columns:
            args.append(o_view.column(name))
        for name in self.i_columns:
            args.append(i_view.column(name))
        for name in self.env_names:
            if name not in env:
                raise LoweringUnsupported(
                    f"captured name {name!r} missing from the live kernel"
                )
            args.append(env[name])
        state_objs = []
        for obj_name, field_name in self.state_fields:
            if obj_name not in env:
                raise LoweringUnsupported(
                    f"captured state object {obj_name!r} missing from the live kernel"
                )
            obj = env[obj_name]
            state_objs.append(obj)
            args.append(getattr(obj, field_name))
        out = self._invoke(args)
        if self.state_fields:
            for (obj_name, field_name), obj, value in zip(
                self.state_fields, state_objs, out
            ):
                setattr(obj, field_name, value)

    def _invoke(self, args: list) -> tuple:
        if self._jitted is not None:
            try:
                return self._jitted(*args)
            except Exception as exc:
                # Permanent downgrade: the nopython frontend rejected
                # the generated source (or typing failed).  The NumPy
                # tier is semantically identical.
                self._jitted = None
                self.jit = "numpy"
                self.jit_note = (
                    "njit compilation failed at first call "
                    f"({type(exc).__name__}: {exc}); using the generated NumPy loop"
                )
        return self.python_fn(*args)


class _Translator:
    """AST-to-AST translation of one certified ``work_batch_soa``."""

    def __init__(self, fn: Callable) -> None:
        self.fn = fn
        self.tree = _kernel_ast(fn)
        params = [a.arg for a in self.tree.args.args]
        if len(params) != 4 or self.tree.args.vararg or self.tree.args.kwarg:
            raise LoweringUnsupported(
                "work_batch_soa must take exactly "
                "(o_view, i_view, o_positions, i_positions)"
            )
        self.o_view_name, self.i_view_name, self.o_pos_name, self.i_pos_name = params
        self.env = _capture_env(fn)
        # Registration order == parameter order == call-time arg order.
        self.o_columns: dict[str, str] = {}
        self.i_columns: dict[str, str] = {}
        self.env_params: dict[str, str] = {}
        self.state_params: dict[tuple[str, str], str] = {}
        self.modules: dict[str, Any] = {}
        self._inline_count = 0

    # -- registration -------------------------------------------------

    def column_param(self, side: str, name: str) -> str:
        table = self.o_columns if side == "o" else self.i_columns
        if name not in table:
            table[name] = f"_{side}_col_{name}"
        return table[name]

    def env_param(self, name: str) -> str:
        if name not in self.env_params:
            self.env_params[name] = f"_env_{name}"
        return self.env_params[name]

    def state_param(self, obj_name: str, field_name: str) -> str:
        key = (obj_name, field_name)
        if key not in self.state_params:
            self.state_params[key] = f"_state_{obj_name}_{field_name}"
        return self.state_params[key]

    # -- translation --------------------------------------------------

    def translate(self) -> list[ast.stmt]:
        scope = _Scope(self, subst={}, locals_prefix="", self_binding=None)
        out: list[ast.stmt] = []
        self._translate_block(self.tree.body, scope, out)
        if not out:
            raise LoweringUnsupported("kernel body is empty after translation")
        return out

    def _translate_block(
        self, stmts: list[ast.stmt], scope: "_Scope", out: list[ast.stmt]
    ) -> None:
        for index, stmt in enumerate(stmts):
            if isinstance(stmt, ast.Expr):
                if isinstance(stmt.value, ast.Constant):
                    continue  # docstring
                inlined = self._maybe_inline_state_call(stmt.value, scope, out)
                if inlined:
                    continue
                out.append(
                    ast.Expr(value=scope.rewriter().visit(stmt.value))
                )
                continue
            if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                out.append(self._translate_assignment(stmt, scope))
                continue
            if isinstance(stmt, ast.Return):
                bare = stmt.value is None or (
                    isinstance(stmt.value, ast.Constant) and stmt.value.value is None
                )
                if bare and index == len(stmts) - 1:
                    continue
                raise LoweringUnsupported(
                    "only a trailing bare return is lowerable"
                )
            if isinstance(stmt, ast.Pass):
                continue
            raise LoweringUnsupported(
                f"statement {type(stmt).__name__} is outside the lowerable subset"
            )

    def _translate_assignment(self, stmt: ast.stmt, scope: "_Scope") -> ast.stmt:
        rewriter = scope.rewriter()
        if isinstance(stmt, ast.AugAssign):
            target = self._rewrite_store_target(stmt.target, scope)
            return ast.AugAssign(
                target=target, op=stmt.op, value=rewriter.visit(stmt.value)
            )
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is None:
                raise LoweringUnsupported("bare annotations are not lowerable")
            target = self._rewrite_store_target(stmt.target, scope)
            return ast.Assign(targets=[target], value=rewriter.visit(stmt.value))
        assert isinstance(stmt, ast.Assign)
        if len(stmt.targets) != 1:
            raise LoweringUnsupported("chained assignments are not lowerable")
        target = self._rewrite_store_target(stmt.targets[0], scope)
        return ast.Assign(targets=[target], value=rewriter.visit(stmt.value))

    def _rewrite_store_target(self, target: ast.expr, scope: "_Scope") -> ast.expr:
        if isinstance(target, ast.Name):
            local = scope.bind_local(target.id)
            return ast.Name(id=local, ctx=ast.Store())
        if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name):
            owner = scope.resolve_state_object(target.value.id)
            if owner is not None:
                obj_name, _obj = owner
                param = self.state_param(obj_name, target.attr)
                return ast.Name(id=param, ctx=ast.Store())
            raise LoweringUnsupported(
                f"attribute store target {ast.unparse(target)!r} does not "
                "resolve to a captured state object"
            )
        if isinstance(target, ast.Subscript):
            rewriter = scope.rewriter()
            return ast.Subscript(
                value=rewriter.visit(target.value),
                slice=rewriter.visit(target.slice),
                ctx=ast.Store(),
            )
        if isinstance(target, ast.Tuple):
            return ast.Tuple(
                elts=[self._rewrite_store_target(e, scope) for e in target.elts],
                ctx=ast.Store(),
            )
        raise LoweringUnsupported(
            f"store target {type(target).__name__} is outside the lowerable subset"
        )

    def _maybe_inline_state_call(
        self, call: ast.expr, scope: "_Scope", out: list[ast.stmt]
    ) -> bool:
        """Inline ``obj.method(args)`` when obj is captured state."""
        if not (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and isinstance(call.func.value, ast.Name)
        ):
            return False
        owner = scope.resolve_state_object(call.func.value.id)
        if owner is None:
            return False
        if call.keywords:
            raise LoweringUnsupported(
                "keyword arguments in state-method calls are not lowerable"
            )
        obj_name, obj = owner
        method = getattr(type(obj), call.func.attr, None)
        if not isinstance(method, types.FunctionType):
            raise LoweringUnsupported(
                f"{obj_name}.{call.func.attr} is not a plain method"
            )
        self._inline_count += 1
        if self._inline_count > _MAX_INLINE:
            raise LoweringUnsupported("state-method inlining exceeded its depth cap")
        tag = self._inline_count
        tree = _kernel_ast(method)
        params = [a.arg for a in tree.args.args]
        if not params:
            raise LoweringUnsupported("state methods must take self")
        positional = params[1:]
        if tree.args.vararg or tree.args.kwarg or len(call.args) > len(positional):
            raise LoweringUnsupported(
                f"cannot match the arguments of {obj_name}.{call.func.attr}"
            )
        missing = positional[len(call.args) :]
        defaults = list(tree.args.defaults[-len(missing) :]) if missing else []
        if len(defaults) != len(missing) or not all(
            isinstance(d, ast.Constant) for d in defaults
        ):
            if missing:
                raise LoweringUnsupported(
                    f"cannot match the arguments of {obj_name}.{call.func.attr}"
                )
        outer_rewriter = scope.rewriter()
        subst: dict[str, str] = {}
        bound_args = list(call.args) + defaults
        for offset, (pname, arg) in enumerate(zip(positional, bound_args)):
            tmp = f"_inl{tag}_{pname}"
            rewritten = (
                outer_rewriter.visit(arg)
                if offset < len(call.args)
                else arg  # constant default, usable verbatim
            )
            out.append(
                ast.Assign(targets=[ast.Name(id=tmp, ctx=ast.Store())], value=rewritten)
            )
            subst[pname] = tmp
        inner = _Scope(
            self,
            subst=subst,
            locals_prefix=f"_inl{tag}_",
            self_binding=(params[0], obj_name, obj),
            env=_capture_env(method),
        )
        self._translate_block(tree.body, inner, out)
        return True

    # -- rendering ----------------------------------------------------

    def render(self, body: list[ast.stmt]) -> str:
        param_names = ["_o_positions", "_i_positions"]
        param_names += list(self.o_columns.values())
        param_names += list(self.i_columns.values())
        param_names += list(self.env_params.values())
        param_names += list(self.state_params.values())
        args = ast.arguments(
            posonlyargs=[],
            args=[ast.arg(arg=name) for name in param_names],
            vararg=None,
            kwonlyargs=[],
            kw_defaults=[],
            kwarg=None,
            defaults=[],
        )
        body = list(body) + [
            ast.Return(
                value=ast.Tuple(
                    elts=[
                        ast.Name(id=name, ctx=ast.Load())
                        for name in self.state_params.values()
                    ],
                    ctx=ast.Load(),
                )
            )
        ]
        func = ast.FunctionDef(
            name="_fused",
            args=args,
            body=body,
            decorator_list=[],
            returns=None,
        )
        module = ast.Module(body=[func], type_ignores=[])
        ast.fix_missing_locations(module)
        return ast.unparse(module)


class _Scope:
    """One lexical scope during translation (kernel body or inlined method)."""

    def __init__(
        self,
        ctx: _Translator,
        subst: dict[str, str],
        locals_prefix: str,
        self_binding: Optional[tuple[str, str, Any]],
        env: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.ctx = ctx
        self.subst = subst
        self.locals_prefix = locals_prefix
        self.self_binding = self_binding  # (self_param, obj_name, obj)
        self.env = ctx.env if env is None else env
        self.locals: dict[str, str] = {}
        self.is_kernel_scope = self_binding is None and not locals_prefix

    def bind_local(self, name: str) -> str:
        if name in self.subst:
            # Rebinding an inlined parameter shadows it locally.
            del self.subst[name]
        if name not in self.locals:
            self.locals[name] = f"{self.locals_prefix}{name}" if self.locals_prefix else name
        return self.locals[name]

    def resolve_state_object(self, name: str) -> Optional[tuple[str, Any]]:
        """(obj_name, obj) when ``name`` denotes captured mutable state."""
        if name in self.locals or name in self.subst:
            return None
        if self.self_binding is not None and name == self.self_binding[0]:
            return self.self_binding[1], self.self_binding[2]
        if self.is_kernel_scope and name in (
            self.ctx.o_view_name,
            self.ctx.i_view_name,
            self.ctx.o_pos_name,
            self.ctx.i_pos_name,
        ):
            return None
        value = self.env.get(name)
        if value is None:
            return None
        if isinstance(value, (types.ModuleType, types.FunctionType)):
            return None
        if isinstance(value, _ENV_VALUE_TYPES):
            return None
        return name, value

    def rewriter(self) -> "_ExprRewriter":
        return _ExprRewriter(self)


class _ExprRewriter(ast.NodeTransformer):
    """Expression translation for one scope."""

    def __init__(self, scope: _Scope) -> None:
        self.scope = scope
        self.ctx = scope.ctx

    # Python-level constructs that cannot appear in an allocation-free
    # fused body.
    def _unsupported(self, node: ast.AST) -> ast.AST:
        raise LoweringUnsupported(
            f"expression {type(node).__name__} is outside the lowerable subset"
        )

    visit_Lambda = _unsupported
    visit_ListComp = _unsupported
    visit_SetComp = _unsupported
    visit_DictComp = _unsupported
    visit_GeneratorExp = _unsupported
    visit_Await = _unsupported
    visit_Yield = _unsupported
    visit_YieldFrom = _unsupported
    visit_NamedExpr = _unsupported

    def visit_Call(self, node: ast.Call) -> ast.AST:
        scope = self.scope
        func = node.func
        # view.column("name") -> packed-column parameter
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and scope.is_kernel_scope
            and func.value.id not in scope.locals
            and func.value.id not in scope.subst
        ):
            side = None
            if func.value.id == self.ctx.o_view_name:
                side = "o"
            elif func.value.id == self.ctx.i_view_name:
                side = "i"
            if side is not None:
                if (
                    func.attr != "column"
                    or len(node.args) != 1
                    or node.keywords
                    or not isinstance(node.args[0], ast.Constant)
                    or not isinstance(node.args[0].value, str)
                ):
                    raise LoweringUnsupported(
                        "views may only be used as view.column('name')"
                    )
                param = self.ctx.column_param(side, node.args[0].value)
                return ast.Name(id=param, ctx=ast.Load())
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and scope.resolve_state_object(func.value.id) is not None
        ):
            raise LoweringUnsupported(
                "state-method calls are only lowerable as bare statements"
            )
        node = self.generic_visit(node)  # type: ignore[assignment]
        assert isinstance(node, ast.Call)
        # Collapse staging calls over the position arrays: the fused
        # function already receives np.intp arrays.
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _STAGING_CALLS
            and isinstance(func.value, ast.Name)
            and self._is_numpy_name(func.value.id)
            and node.args
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id in ("_o_positions", "_i_positions")
        ):
            return node.args[0]
        return node

    def _is_numpy_name(self, name: str) -> bool:
        value = self.ctx.modules.get(name)
        if value is None:
            value = self.scope.env.get(name)
        return isinstance(value, types.ModuleType) and value.__name__ == "numpy"

    def visit_Name(self, node: ast.Name) -> ast.AST:
        scope = self.scope
        name = node.id
        if isinstance(node.ctx, ast.Store):
            return ast.Name(id=scope.bind_local(name), ctx=ast.Store())
        if name in scope.subst:
            return ast.Name(id=scope.subst[name], ctx=ast.Load())
        if name in scope.locals:
            return ast.Name(id=scope.locals[name], ctx=ast.Load())
        if scope.is_kernel_scope:
            if name == self.ctx.o_pos_name:
                return ast.Name(id="_o_positions", ctx=ast.Load())
            if name == self.ctx.i_pos_name:
                return ast.Name(id="_i_positions", ctx=ast.Load())
            if name in (self.ctx.o_view_name, self.ctx.i_view_name):
                raise LoweringUnsupported(
                    "views may only be used as view.column('name')"
                )
        if scope.self_binding is not None and name == scope.self_binding[0]:
            raise LoweringUnsupported(
                "self may only be used for field access in state methods"
            )
        if name in scope.env:
            value = scope.env[name]
            if isinstance(value, types.ModuleType):
                self.ctx.modules[name] = value
                return node
            if isinstance(value, _ENV_VALUE_TYPES):
                return ast.Name(id=self.ctx.env_param(name), ctx=ast.Load())
            raise LoweringUnsupported(
                f"captured object {name!r} ({type(value).__name__}) is only "
                "lowerable through state-method calls or field access"
            )
        # Builtins (len, int, float, range, ...) stay by name.
        return node

    def visit_Attribute(self, node: ast.Attribute) -> ast.AST:
        scope = self.scope
        if isinstance(node.value, ast.Name):
            owner = scope.resolve_state_object(node.value.id)
            if owner is not None:
                if not isinstance(node.ctx, ast.Load):
                    raise LoweringUnsupported(
                        "state fields may only be stored via =/augmented assignment"
                    )
                obj_name, _obj = owner
                param = self.ctx.state_param(obj_name, node.attr)
                return ast.Name(id=param, ctx=ast.Load())
            if self._is_module_chain(node.value):
                return node  # np.intp, math.pi, ...
        if isinstance(node.value, ast.Attribute) and self._is_module_chain(node.value):
            return node
        return self.generic_visit(node)

    def _is_module_chain(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            value = self.scope.env.get(node.id)
            if isinstance(value, types.ModuleType):
                self.ctx.modules[node.id] = value
                return True
            return False
        if isinstance(node, ast.Attribute):
            return self._is_module_chain(node.value)
        return False


def generate_fused_kernel(fn: Callable) -> FusedKernel:
    """Translate a certified ``work_batch_soa`` into a fused artifact.

    Raises :class:`LoweringUnsupported` when the kernel falls outside
    the translator's subset; the compiled executor then degrades to
    per-block dispatch of the original kernel.
    """
    translator = _Translator(fn)
    body = translator.translate()
    source = translator.render(body)
    namespace: dict[str, Any] = {"np": np}
    namespace.update(translator.modules)
    code = compile(source, f"<fused:{getattr(fn, '__qualname__', 'kernel')}>", "exec")
    exec(code, namespace)  # noqa: S102 - source generated from certified AST
    python_fn = namespace["_fused"]
    jitted, jit, jit_note = _maybe_njit(python_fn)
    return FusedKernel(
        source=source,
        o_columns=tuple(translator.o_columns),
        i_columns=tuple(translator.i_columns),
        env_names=tuple(translator.env_params),
        state_fields=tuple(translator.state_params),
        python_fn=python_fn,
        jit=jit,
        jit_note=jit_note,
        _jitted=jitted,
    )


def _maybe_njit(fn: Callable) -> tuple[Optional[Callable], str, str]:
    numba = _import_numba()
    if numba is None:
        return (
            None,
            "numpy",
            "numba not importable; running the generated NumPy fused loop",
        )
    try:
        jitted = numba.njit(fn)
    except Exception as exc:  # pragma: no cover - depends on numba internals
        return (
            None,
            "numpy",
            f"njit wrapping failed ({type(exc).__name__}: {exc}); "
            "running the generated NumPy fused loop",
        )
    return (
        jitted,
        "numba",
        "numba.njit artifact (downgrades to the NumPy loop if "
        "first-call compilation fails)",
    )
