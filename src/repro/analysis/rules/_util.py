"""Shared AST helpers for the rule pack."""

from __future__ import annotations

import ast
from typing import Iterator

#: Method names that mutate a list/dict/set receiver in place.
MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "popitem",
        "clear",
        "update",
        "setdefault",
        "add",
        "discard",
        "sort",
        "reverse",
    }
)


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def is_self_attr(node: ast.AST, attr: str | None = None) -> bool:
    """True for ``self.X`` (optionally a specific ``X``)."""
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and (attr is None or node.attr == attr)
    )


def subscript_root(node: ast.AST) -> ast.AST:
    """Peel subscripts: the root of ``x[i][j]`` is ``x``."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return node


def assign_targets(node: ast.AST) -> list[ast.expr]:
    """The target expressions of any assignment-ish statement."""
    if isinstance(node, ast.Assign):
        targets = []
        for target in node.targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                targets.extend(target.elts)
            else:
                targets.append(target)
        return targets
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return [node.target]
    if isinstance(node, ast.Delete):
        return list(node.targets)
    return []


def tracked_receivers(
    tree: ast.Module, constructors: frozenset[str], factory_attrs: frozenset[str] = frozenset()
) -> tuple[set[str], set[str]]:
    """Names bound to instances of the given classes, file-wide.

    Returns ``(local_names, self_attr_names)``: plain variables and
    ``self.X`` attributes assigned from a constructor call — either
    ``Cls(...)``, a classmethod on the class (``Cls.anything(...)``), or a
    factory method listed in ``factory_attrs`` on any receiver
    (``frozen.without_attrs()``).  File-wide on purpose: re-using a tracked
    name for an unrelated object in the same file is itself confusing
    enough to deserve the finding.
    """
    local_names: set[str] = set()
    self_attrs: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        value = node.value
        if not isinstance(value, ast.Call):
            continue
        func = value.func
        constructed = False
        if isinstance(func, ast.Name) and func.id in constructors:
            constructed = True
        elif isinstance(func, ast.Attribute):
            root = func.value
            if isinstance(root, ast.Name) and root.id in constructors:
                constructed = True  # Cls.freeze(...), Cls.from_buffers(...)
            elif func.attr in factory_attrs:
                constructed = True  # receiver.without_attrs()
        if not constructed:
            continue
        for target in assign_targets(node):
            if isinstance(target, ast.Name):
                local_names.add(target.id)
            elif is_self_attr(target):
                self_attrs.add(target.attr)  # type: ignore[union-attr]
    return local_names, self_attrs


def receiver_matches(
    node: ast.AST, local_names: set[str], self_attrs: set[str]
) -> bool:
    """True when ``node`` is a tracked plain name or tracked ``self.X``."""
    if isinstance(node, ast.Name):
        return node.id in local_names
    if isinstance(node, ast.Attribute) and is_self_attr(node):
        return node.attr in self_attrs
    return False


def methods_of(cls: ast.ClassDef) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for item in cls.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield item


def is_classmethod(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for decorator in func.decorator_list:
        name = dotted_name(decorator)
        if name in {"classmethod", "staticmethod"}:
            return True
    return False


def arg_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    args = func.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return set(names)


def contains_constant(node: ast.AST, value: object) -> bool:
    return any(
        isinstance(child, ast.Constant) and child.value == value
        for child in ast.walk(node)
    )
