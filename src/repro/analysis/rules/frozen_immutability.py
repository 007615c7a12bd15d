"""frozen-immutability: FrozenGraph/DistanceOracle buffers are never mutated.

Every hot kernel (PR 4's CSR traversals, PR 5's oracle joins) assumes the
frozen snapshot it was handed cannot change under it; the parallel
executor even fork-shares snapshots across processes on that assumption.
A single in-place mutation after construction is a cross-request
correctness leak waiting for the ROADMAP's concurrent service.

What this rule matches:

* inside ``class FrozenGraph`` / ``class DistanceOracle``: any assignment,
  augmented assignment, subscript store, delete, or in-place mutating
  method call (``append``/``update``/...) on a **public** ``self``
  attribute outside ``__init__``, ``__setstate__`` and classmethod
  constructors.  Single-underscore attributes are exempt: they are the
  documented derived/lazy views (``_ids``, ``_succ_sets``,
  ``_reach_out``), rebuilt idempotently and never shipped;
* anywhere else: the same operations on receivers bound to a frozen
  constructor (``FrozenGraph.freeze(...)``, ``DistanceOracle.build(...)``,
  ``.without_attrs()``) or on parameters named
  ``frozen``/``snapshot``/``oracle``.

Known miss: aliases (``x = frozen; x.labels = ...``) are not tracked.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import ModuleUnderLint, Rule, register
from repro.analysis.rules._util import (
    MUTATING_METHODS,
    assign_targets,
    is_classmethod,
    is_self_attr,
    methods_of,
    receiver_matches,
    subscript_root,
    tracked_receivers,
)

FROZEN_CLASSES = frozenset({"FrozenGraph", "DistanceOracle"})
FACTORY_ATTRS = frozenset({"freeze", "from_buffers", "build", "without_attrs"})
ALLOWED_METHODS = frozenset({"__init__", "__setstate__"})
PARAM_NAMES = frozenset({"frozen", "snapshot", "oracle"})


def _attr_of_interest(node: ast.AST, receiver_ok) -> str | None:
    """The public attribute name when ``node`` is ``<recv>.attr`` with a
    matching receiver, else None."""
    if (
        isinstance(node, ast.Attribute)
        and not node.attr.startswith("_")
        and receiver_ok(node.value)
    ):
        return node.attr
    return None


def _mutations(body: list[ast.stmt], receiver_ok) -> Iterator[tuple[ast.AST, int, str]]:
    """Yield (node, line, description) for every mutation through a
    matching receiver inside ``body``."""
    for stmt in body:
        for node in ast.walk(stmt):
            # x.attr = ... / x.attr += ... / del x.attr, and the subscript
            # forms x.attr[i] = ... rooted at a matching receiver.
            for target in assign_targets(node):
                root = subscript_root(target)
                attr = _attr_of_interest(root, receiver_ok)
                if attr is not None:
                    kind = (
                        "subscript store into"
                        if isinstance(target, ast.Subscript)
                        else "assignment to"
                    )
                    yield (node, node.lineno, f"{kind} frozen field {attr!r}")
            # x.attr.append(...) and friends.
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                method = node.func.attr
                if method in MUTATING_METHODS:
                    root = subscript_root(node.func.value)
                    attr = _attr_of_interest(root, receiver_ok)
                    if attr is not None:
                        yield (
                            node,
                            node.lineno,
                            f"in-place {method}() on frozen field {attr!r}",
                        )


@register
class FrozenImmutabilityRule(Rule):
    id = "frozen-immutability"
    description = (
        "no mutation of FrozenGraph/DistanceOracle buffer fields after "
        "construction"
    )

    def check(self, module: ModuleUnderLint) -> Iterator[tuple[int, str]]:
        # -- part A: inside the frozen classes themselves ---------------
        frozen_method_nodes: set[ast.AST] = set()
        for cls in module.classes():
            if cls.name not in FROZEN_CLASSES:
                continue
            for method in methods_of(cls):
                frozen_method_nodes.add(method)
                if method.name in ALLOWED_METHODS or is_classmethod(method):
                    continue
                for _node, line, what in _mutations(
                    method.body, lambda recv: is_self_attr(recv)
                ):
                    yield (
                        line,
                        f"{what} outside {cls.name} constructors "
                        f"(in {method.name}) — frozen objects are shared "
                        "across queries and processes",
                    )

        # -- part B: instances anywhere else ----------------------------
        local_names, self_attrs = tracked_receivers(
            module.tree, FROZEN_CLASSES, factory_attrs=FACTORY_ATTRS
        )
        param_locals = set()
        for func in module.functions():
            for arg in func.args.posonlyargs + func.args.args + func.args.kwonlyargs:
                if arg.arg in PARAM_NAMES:
                    param_locals.add(arg.arg)
        names = local_names | param_locals

        def receiver_ok(recv: ast.AST) -> bool:
            return receiver_matches(recv, names, self_attrs)

        # Skip statements that live inside the frozen classes' own
        # constructor-adjacent methods (freeze builds via a local `frozen`).
        allowed_regions = {
            method
            for cls in module.classes()
            if cls.name in FROZEN_CLASSES
            for method in methods_of(cls)
            if method.name in ALLOWED_METHODS or is_classmethod(method)
        }

        skip_regions = allowed_regions | frozen_method_nodes

        def skipped(node: ast.AST) -> bool:
            # Constructor contexts are allowed; part A already covered the
            # remaining method bodies of the frozen classes themselves.
            return any(anc in skip_regions for anc in module.ancestors(node))

        for node, line, what in _mutations(list(module.tree.body), receiver_ok):
            if skipped(node):
                continue
            yield (
                line,
                f"{what} after construction — frozen objects are "
                "shared across queries and processes",
            )
