"""Stateless operators: scan, filter, project, union, sort-passthrough.

Stateless operators transform each change independently, preserving its
kind — an insert projects to an insert, a retract to a retract.  That
is exactly why they need no state (Appendix B.2.3: "operators that
process a single row at a time ... can simply adjust and forward or
filter change messages").
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from ...core.changelog import Change
from ...core.schema import Schema
from .base import Operator

__all__ = ["ScanOperator", "FilterOperator", "ProjectOperator", "UnionOperator",
           "SortOperator"]


class ScanOperator(Operator):
    """Leaf operator bound to a registered source; pure passthrough."""

    supports_columnar = True

    def __init__(self, schema: Schema, source_name: str):
        super().__init__(schema, arity=1)
        self.source_name = source_name

    def on_batch(self, port: int, changes: Sequence[Change]) -> list[Change]:
        return list(changes)

    def on_cols(self, port: int, batch):
        return batch

    def name(self) -> str:
        return f"Scan({self.source_name})"


class FilterOperator(Operator):
    """Keeps changes whose row satisfies the predicate.

    The predicate is deterministic, so an insert and its later retract
    agree on whether they pass — the changelog stays consistent.
    """

    def __init__(self, schema: Schema, predicate: Callable[[tuple], Any]):
        super().__init__(schema, arity=1)
        self._predicate = predicate

    def on_batch(self, port: int, changes: Sequence[Change]) -> list[Change]:
        predicate = self._predicate
        return [c for c in changes if predicate(c.values) is True]


class ProjectOperator(Operator):
    """Computes the output row from each input row; kind-preserving."""

    def __init__(self, schema: Schema, exprs: Sequence[Callable[[tuple], Any]]):
        super().__init__(schema, arity=1)
        self._exprs = list(exprs)

    def on_batch(self, port: int, changes: Sequence[Change]) -> list[Change]:
        exprs = self._exprs
        make = Change
        # Unrolled small arities: a tuple display beats the generic
        # tuple(generator) by a wide margin on the hot projection path.
        if len(exprs) == 1:
            (e0,) = exprs
            return [make(c.kind, (e0(c.values),), c.ptime) for c in changes]
        if len(exprs) == 2:
            e0, e1 = exprs
            return [
                make(c.kind, (e0(c.values), e1(c.values)), c.ptime)
                for c in changes
            ]
        if len(exprs) == 3:
            e0, e1, e2 = exprs
            return [
                make(c.kind, (e0(c.values), e1(c.values), e2(c.values)), c.ptime)
                for c in changes
            ]
        return [
            make(c.kind, tuple(expr(c.values) for expr in exprs), c.ptime)
            for c in changes
        ]


class UnionOperator(Operator):
    """Bag union: forwards changes from every input port."""

    supports_columnar = True

    def __init__(self, schema: Schema, arity: int):
        super().__init__(schema, arity=arity)

    def on_batch(self, port: int, changes: Sequence[Change]) -> list[Change]:
        return list(changes)

    def on_cols(self, port: int, batch):
        return batch


class SortOperator(Operator):
    """ORDER BY / LIMIT placeholder.

    Ordering is a property of *table* materialization, not of a
    changelog, so the operator forwards changes untouched; the engine
    applies the sort keys and limit when rendering a snapshot
    (and rejects ``EMIT STREAM`` over LIMIT queries).
    """

    supports_columnar = True

    def __init__(self, schema: Schema):
        super().__init__(schema, arity=1)

    def on_batch(self, port: int, changes: Sequence[Change]) -> list[Change]:
        return list(changes)

    def on_cols(self, port: int, batch):
        return batch
