"""Translate a logical plan into a physical operator tree."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.errors import PlanError
from ..plan import rex
from ..plan.match import MatchRecognizeNode
from ..plan.pipeline import PipelineNode
from ..plan.logical import (
    AggregateNode,
    FilterNode,
    TemporalFilterNode,
    TemporalJoinNode,
    JoinKind,
    JoinNode,
    LogicalNode,
    OverNode,
    PartialAggregateNode,
    ProjectNode,
    ScanNode,
    SemiJoinNode,
    SetOpNode,
    SortNode,
    UnionNode,
    ValuesNode,
    WindowKind,
    WindowNode,
)
from .operators.aggregate import AggregateOperator, PartialAggregateOperator
from .operators.base import Operator
from .operators.join import JoinOperator, TimeBound
from .operators.outer_join import OuterJoinOperator
from .operators.semi_join import SemiJoinOperator
from .operators.session import SessionOperator
from .operators.setop import SetOpOperator
from .operators.stateless import (
    FilterOperator,
    ProjectOperator,
    ScanOperator,
    SortOperator,
    UnionOperator,
)
from .operators.match import MatchRecognizeOperator
from .operators.over import OverOperator
from .operators.pipeline import PipelineOperator
from .operators.temporal import TemporalFilterOperator
from .operators.temporal_join import TemporalJoinOperator
from .operators.window import HopOperator, TumbleOperator

__all__ = ["CompiledPlan", "build_operator", "compile_plan"]


@dataclass
class CompiledPlan:
    """The physical tree plus the wiring the executor needs."""

    root: Operator
    #: every operator, children before parents (post-order)
    operators: list[Operator]
    #: leaf scans in plan (left-to-right) order, with their source names
    leaves: list[ScanOperator]
    #: id(op) -> (parent op, input port)
    parents: dict[int, tuple[Operator, int]] = field(default_factory=dict)
    #: inline rows for ValuesNode leaves, keyed by operator identity
    values_rows: dict[int, tuple] = field(default_factory=dict)
    #: (logical node, operator) pairs in post-order — the correlation
    #: the DAG executor's subplan grafting is built on
    node_ops: list[tuple[LogicalNode, Operator]] = field(default_factory=list)


def compile_plan(root: LogicalNode, allowed_lateness: int = 0) -> CompiledPlan:
    """Compile the logical tree rooted at ``root``.

    ``allowed_lateness`` extends every watermark-driven decision (late
    dropping, state retention, join-state expiry) by the given slack —
    the configurable lateness Extension 2 alludes to.
    """
    compiled = CompiledPlan(root=None, operators=[], leaves=[])  # type: ignore[arg-type]
    compiled.root = _compile(root, compiled, allowed_lateness)
    return compiled


def _compile(node: LogicalNode, out: CompiledPlan, lateness: int) -> Operator:
    children = [_compile(child, out, lateness) for child in node.inputs]
    op = build_operator(node, children, lateness)
    for port, child in enumerate(children):
        out.parents[id(child)] = (op, port)
    out.operators.append(op)
    out.node_ops.append((node, op))
    if isinstance(op, ScanOperator):
        out.leaves.append(op)
    if isinstance(node, ValuesNode):
        out.values_rows[id(op)] = node.rows
    return op


def build_operator(
    node: LogicalNode, children: list[Operator], lateness: int
) -> Operator:
    """Build the physical operator for one logical node (children given)."""
    if isinstance(node, ScanNode):
        return ScanOperator(node.schema, node.name)
    if isinstance(node, ValuesNode):
        # Values relations are fed by the executor like a tiny bounded
        # source; the scan operator is just the entry point.
        return ScanOperator(node.schema, f"$values{id(node)}")
    if isinstance(node, FilterNode):
        (child,) = children
        return FilterOperator(node.schema, rex.compile_rex(node.condition))
    if isinstance(node, PipelineNode):
        # Fused Filter/Project chain (batching flows); the operator runs
        # the whole chain in one generated loop.
        return PipelineOperator(
            node.schema, len(node.input.schema), node.steps
        )
    if isinstance(node, TemporalFilterNode):
        return TemporalFilterOperator(node.schema, node.bounds)
    if isinstance(node, ProjectNode):
        return ProjectOperator(node.schema, [rex.compile_rex(e) for e in node.exprs])
    if isinstance(node, WindowNode):
        if node.kind is WindowKind.TUMBLE:
            return TumbleOperator(node.schema, node.timecol, node.size, node.offset)
        if node.kind is WindowKind.HOP:
            assert node.slide is not None
            return HopOperator(
                node.schema, node.timecol, node.size, node.slide, node.offset
            )
        return SessionOperator(
            node.schema,
            node.timecol,
            node.size,
            node.key_indices,
            allowed_lateness=lateness,
        )
    if isinstance(node, PartialAggregateNode):
        # Checked before AggregateNode only by convention; the classes
        # are unrelated.  ``delta_mode`` is stamped on the node by the
        # sharded runtime (it tracks the flow's coalesce_updates flag).
        return PartialAggregateOperator(
            node.schema,
            node.group_indices,
            node.aggs,
            node.event_time_key_positions,
            node.input.bounded,
            allowed_lateness=lateness,
            delta_mode=getattr(node, "delta_mode", False),
        )
    if isinstance(node, AggregateNode):
        return AggregateOperator(
            node.schema,
            node.group_indices,
            node.aggs,
            node.event_time_key_positions,
            node.input.bounded,
            allowed_lateness=lateness,
        )
    if isinstance(node, OverNode):
        return OverOperator(
            node.schema,
            node.partition_indices,
            node.order_index,
            node.calls,
            node.frame_rows,
        )
    if isinstance(node, MatchRecognizeNode):
        return MatchRecognizeOperator(
            node.schema,
            node.partition_indices,
            node.order_index,
            node.measures,
            node.pattern,
            node.defines,
            node.after_match,
        )
    if isinstance(node, TemporalJoinNode):
        return TemporalJoinOperator(
            node.schema,
            node.left_time_index,
            node.right_time_index,
            node.left_keys,
            node.right_keys,
        )
    if isinstance(node, JoinNode):
        condition = (
            rex.compile_rex(node.condition) if node.condition is not None else None
        )
        if node.kind in (JoinKind.LEFT, JoinKind.FULL):
            return OuterJoinOperator(
                node.schema,
                left_width=len(node.left.schema),
                right_width=len(node.right.schema),
                condition=condition,
                left_key=node.hash_left or None,
                right_key=node.hash_right or None,
                outer=(True, node.kind is JoinKind.FULL),
            )
        if node.kind not in (JoinKind.INNER, JoinKind.CROSS):
            raise PlanError(f"{node.kind.value} JOIN execution is not supported yet")
        left_bound = (
            TimeBound(node.expire_left[0], node.expire_left[1] + lateness)
            if node.expire_left is not None
            else None
        )
        right_bound = (
            TimeBound(node.expire_right[0], node.expire_right[1] + lateness)
            if node.expire_right is not None
            else None
        )
        return JoinOperator(
            node.schema,
            left_width=len(node.left.schema),
            condition=condition,
            left_key=node.hash_left or None,
            right_key=node.hash_right or None,
            left_bound=left_bound,
            right_bound=right_bound,
        )
    if isinstance(node, SemiJoinNode):
        return SemiJoinOperator(
            node.schema,
            probe=rex.compile_rex(node.left_expr),
            negated=node.negated,
        )
    if isinstance(node, SetOpNode):
        return SetOpOperator(node.schema, node.op, node.all)
    if isinstance(node, UnionNode):
        return UnionOperator(node.schema, arity=len(node.inputs))
    if isinstance(node, SortNode):
        return SortOperator(node.schema)
    raise PlanError(f"cannot compile {type(node).__name__}")
