"""Pipeline fusion: collapse adjacent Filter/Project chains.

When a flow batches (``batch_size > 1``) the executor rewrites the
logical tree so that every maximal chain of
:class:`~repro.plan.logical.FilterNode` and
:class:`~repro.plan.logical.ProjectNode` becomes one
:class:`PipelineNode`.  The compiled
:class:`~repro.exec.operators.pipeline.PipelineOperator` then executes
the whole chain in a single generated loop (:mod:`repro.exec.codegen`)
instead of shuttling intermediate row lists between operators.

The rewrite is purely physical — the fused node copies its schema and
streaming metadata (boundedness, completion columns, emit keys)
verbatim from the top of the chain, so EMIT handling, watermark
alignment, and EXPLAIN metadata are unchanged.

Fusion is memoized per plan object (:func:`get_fused_root`).  That is
load-bearing, not a convenience: the executor's sharing machinery —
operator-state donor transplants in ``attach_output``, checkpoint
recipes in ``from_structure``, sharded shard construction from one
shared ``shard_plan`` — correlates operators by the *identity* of
logical nodes.  Re-fusing per dataflow would mint fresh node objects
each time and silently break every one of those id-keyed maps.
"""

from __future__ import annotations

from typing import Any, Sequence, Union

from .logical import FilterNode, LogicalNode, ProjectNode
from .rex import Rex

__all__ = ["PipelineNode", "fuse_pipelines", "get_fused_root"]

# ("filter", Rex) or ("project", tuple[Rex, ...])
PipelineStep = tuple


class PipelineNode(LogicalNode):
    """A fused chain of filter/project steps over one input.

    ``steps`` run bottom-up: ``steps[0]`` sees the input row, each
    project replaces the row the following steps observe.  The node
    carries the chain top's schema and streaming metadata unchanged.
    """

    def __init__(
        self,
        input: LogicalNode,
        steps: Sequence[PipelineStep],
        like: LogicalNode,
    ):
        self.input = input
        self.steps = tuple(steps)
        self.inputs = (input,)
        self.schema = like.schema
        self.bounded = like.bounded
        self.completion_indices = like.completion_indices
        self.emit_key_indices = like.emit_key_indices
        # Retained so with_inputs can rebuild without re-deriving
        # metadata from the (discarded) original chain.
        self._like = like

    def with_inputs(self, inputs: Sequence[LogicalNode]) -> "PipelineNode":
        (child,) = inputs
        return PipelineNode(child, self.steps, self._like)

    def step_kinds(self) -> str:
        return "+".join(kind for kind, _ in self.steps)

    def _describe(self) -> str:
        return f"Pipeline[{self.step_kinds()}]"


def fuse_pipelines(root: LogicalNode) -> LogicalNode:
    """Rewrite ``root`` so maximal Filter/Project chains become
    :class:`PipelineNode`.  Nodes with unchanged children are returned
    as-is (identity preserved); rebuilt nodes keep any physical
    attributes stamped on the originals (``delta_mode``)."""

    def rewrite(node: LogicalNode) -> LogicalNode:
        if isinstance(node, (FilterNode, ProjectNode)):
            chain = [node]
            cursor = node.inputs[0]
            while isinstance(cursor, (FilterNode, ProjectNode)):
                chain.append(cursor)
                cursor = cursor.inputs[0]
            steps = []
            for link in reversed(chain):
                if isinstance(link, FilterNode):
                    steps.append(("filter", link.condition))
                else:
                    steps.append(("project", link.exprs))
            return PipelineNode(rewrite(cursor), steps, like=node)
        children = [rewrite(child) for child in node.inputs]
        if all(new is old for new, old in zip(children, node.inputs)):
            return node
        rebuilt = node.with_inputs(children)
        # Physical annotations (e.g. the two-phase splitter stamping
        # delta_mode on the partial aggregate) live outside the
        # constructor; carry them across the rebuild.
        delta_mode = getattr(node, "delta_mode", None)
        if delta_mode is not None:
            rebuilt.delta_mode = delta_mode
        return rebuilt

    return rewrite(root)


def get_fused_root(plan: Any) -> LogicalNode:
    """The fused tree for ``plan`` (a QueryPlan-like object with a
    ``root``), computed once and cached on the plan object so every
    dataflow built from the same plan sees identical node objects."""
    cached = getattr(plan, "_fused_root", None)
    if cached is not None and getattr(plan, "_fused_from", None) is plan.root:
        return cached
    fused = fuse_pipelines(plan.root)
    plan._fused_root = fused
    plan._fused_from = plan.root
    return fused
