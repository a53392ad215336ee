"""R013 — interned array planes are read-only outside their owners.

The dense-int structures backing the hot paths — the graph's interned
adjacency arrays (``_out_ids`` / ``_in_ids``), the per-length packed
join views (:data:`repro.core.index.PackedLevel`, returned by
``packed`` / ``packed_left`` / ``packed_right``) and the cached join
program (``packed_program()`` and its :class:`~repro.core.index.JoinStep`
``probes`` / ``buckets``) — are *derived* views kept in lockstep with
the authoritative dict planes.  A packed view's lists are shared by
the cached program, so a direct ``append`` / ``remove`` /
item-assignment on one of them from outside the owning modules
desynchronizes the planes silently: the buckets still answer
correctly, the join reads wrong data, and no invariant check fires.
All writes must flow through the graph's edge API or the index
maintenance layer, which drop the stale views.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator

from repro.analysis.findings import Finding
from repro.analysis.registry import LintContext, Rule, register
from repro.analysis.sources import SourceModule
from repro.analysis.visitor import RuleVisitor

#: Modules that own an interned plane and may write to it.
ALLOWED_MODULES: FrozenSet[str] = frozenset(
    {
        "repro.graph.digraph",
        "repro.core.index",
        "repro.core.construction",
        "repro.core.maintenance",
        "repro.core.maintenance_strict",
    }
)

#: Attribute names of the interned/packed planes.  Each only counts with
#: a mutating verb, a subscript-store or a rebinding.
_PLANE_ATTRS = frozenset({"_out_ids", "_in_ids", "probes", "buckets"})

#: Methods whose result is a packed view or the cached join program.
_PLANE_CALLS = frozenset(
    {"packed", "packed_left", "packed_right", "packed_program"}
)

#: In-place mutators of ``list`` / ``array`` / ``dict`` receivers.
_MUTATORS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "clear",
        "sort",
        "reverse",
        "setdefault",
        "update",
    }
)


def _plane_receiver(node: ast.expr) -> str | None:
    """The plane attribute name if ``node`` reads one, else None.

    Matches a direct attribute (``x.probes``), a packed-view call
    (``x.packed_left(2)``) and one level of subscripting of either
    (``x._out_ids[uid]`` — the per-vertex array, ``x.packed_right(1)[v]``
    — one vertex's pairs).
    """
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute) and node.attr in _PLANE_ATTRS:
        return node.attr
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _PLANE_CALLS
    ):
        return node.func.attr + "()"
    return None


class _InternedArrayVisitor(RuleVisitor):
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _MUTATORS:
            plane = _plane_receiver(func.value)
            if plane is not None:
                self.report(
                    node,
                    f"in-place mutation '.{plane}…{func.attr}()' of an "
                    "interned array plane outside its owner (allowed: "
                    f"{', '.join(sorted(ALLOWED_MODULES))})",
                )
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_target(node.target)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_target(target)
        self.generic_visit(node)

    def _check_target(self, target: ast.expr) -> None:
        if isinstance(target, ast.Subscript):
            plane = _plane_receiver(target)
            if plane is not None:
                self.report(
                    target,
                    f"item store into interned array plane '.{plane}[…]' "
                    "outside its owner",
                )
        elif isinstance(target, ast.Attribute) and target.attr in _PLANE_ATTRS:
            self.report(
                target,
                f"rebinding of interned array plane '.{target.attr}' "
                "outside its owner",
            )


@register
class InternedArrayMutationRule(Rule):
    """No writes to interned adjacency/packed-level arrays outside owners."""

    code = "R013"
    name = "interned-array-mutation"
    description = (
        "interned adjacency and packed join-level arrays may only be "
        "written by repro.graph.digraph and the index/maintenance modules"
    )

    def check(
        self, module: SourceModule, context: LintContext
    ) -> Iterator[Finding]:
        if module.name in ALLOWED_MODULES:
            return
        visitor = _InternedArrayVisitor(module, self.code)
        visitor.visit(module.tree)
        yield from visitor.findings


__all__ = ["ALLOWED_MODULES", "InternedArrayMutationRule"]
