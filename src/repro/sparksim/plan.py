"""Physical execution plans: operator DAGs with cardinality estimates.

Plans carry the information the workload embedder (Sec. 4.1) and the cost
model consume: operator types, estimated input/output row counts, and the
DAG structure.  A stable *query signature* hashes the plan shape — the paper
fine-tunes per "query signature [30] (each corresponds to a distinct query
execution plan)".
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

import networkx as nx

__all__ = ["OpType", "Operator", "PhysicalPlan", "OP_TYPES", "check_scale"]


class OpType:
    """Physical operator vocabulary (a subset of Spark's)."""

    TABLE_SCAN = "TableScan"
    FILTER = "Filter"
    PROJECT = "Project"
    HASH_AGGREGATE = "HashAggregate"
    JOIN = "Join"               # strategy resolved at runtime vs broadcast threshold
    EXCHANGE = "Exchange"       # shuffle boundary
    SORT = "Sort"
    WINDOW = "Window"
    UNION = "Union"
    LIMIT = "Limit"


OP_TYPES: Tuple[str, ...] = (
    OpType.TABLE_SCAN,
    OpType.FILTER,
    OpType.PROJECT,
    OpType.HASH_AGGREGATE,
    OpType.JOIN,
    OpType.EXCHANGE,
    OpType.SORT,
    OpType.WINDOW,
    OpType.UNION,
    OpType.LIMIT,
)


@dataclass(frozen=True)
class Operator:
    """One node of a physical plan.

    Attributes:
        op_id: Unique id within the plan.
        op_type: One of :data:`OP_TYPES`.
        est_rows_in: Optimizer-estimated total input rows (sum over children;
            for scans, the table row count).
        est_rows_out: Optimizer-estimated output rows.
        row_bytes: Average row width in bytes.
        children: Ids of child operators (inputs).
    """

    op_id: int
    op_type: str
    est_rows_in: float
    est_rows_out: float
    row_bytes: float = 100.0
    children: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.op_type not in OP_TYPES:
            raise ValueError(f"unknown operator type {self.op_type!r}")
        if self.est_rows_in < 0 or self.est_rows_out < 0:
            raise ValueError("row estimates must be >= 0")
        if self.row_bytes <= 0:
            raise ValueError("row_bytes must be > 0")

    @property
    def bytes_in(self) -> float:
        return self.est_rows_in * self.row_bytes

    @property
    def bytes_out(self) -> float:
        return self.est_rows_out * self.row_bytes


class PhysicalPlan:
    """A single-rooted operator DAG.

    The topology (graph, root, leaves, execution order) is validated once,
    at construction, and frozen; :meth:`scaled` copies share it.
    """

    def __init__(self, operators: Sequence[Operator], name: str = "query"):
        if not operators:
            raise ValueError("a plan needs at least one operator")
        self.name = name
        self._ops: Dict[int, Operator] = {}
        graph = nx.DiGraph()
        for op in operators:
            if op.op_id in self._ops:
                raise ValueError(f"duplicate operator id {op.op_id}")
            self._ops[op.op_id] = op
            graph.add_node(op.op_id)
        for op in operators:
            for child in op.children:
                if child not in self._ops:
                    raise ValueError(f"operator {op.op_id} references unknown child {child}")
                graph.add_edge(child, op.op_id)  # data flows child -> parent
        try:
            topo_ids = tuple(nx.topological_sort(graph))
        except nx.NetworkXUnfeasible:
            raise ValueError("plan contains a cycle") from None
        roots = [n for n in graph.nodes if graph.out_degree(n) == 0]
        if len(roots) != 1:
            raise ValueError(f"plan must have exactly one root, found {len(roots)}")
        # Plans are immutable once constructed.  The frozen graph, root, leaf
        # ids and execution order are shared by every scaled copy; only the
        # signature (which hashes per-copy ratios) is computed lazily.
        self._graph = nx.freeze(graph)
        self._root_id = roots[0]
        self._topo_ids = topo_ids
        self._leaf_ids = tuple(n for n in graph.nodes if graph.in_degree(n) == 0)
        self._signature = ""
        self._set_leaf_totals()

    def _set_leaf_totals(self) -> None:
        """Sum leaf rows and bytes in leaf order (the order every copy shares),
        folded from 0.0 as the batch kernels add them — not with the builtin
        sum(), which compensates float rounding since Python 3.12."""
        rows = input_bytes = 0.0
        for n in self._leaf_ids:
            op = self._ops[n]
            rows += op.est_rows_in
            input_bytes += op.bytes_in
        self._total_leaf_cardinality = float(rows)
        self._total_input_bytes = float(input_bytes)

    # -- accessors --------------------------------------------------------------

    @property
    def graph(self) -> nx.DiGraph:
        return self._graph

    @property
    def root(self) -> Operator:
        return self._ops[self._root_id]

    @property
    def operators(self) -> List[Operator]:
        """Operators in topological (execution) order."""
        return [self._ops[i] for i in self._topo_ids]

    @property
    def leaves(self) -> List[Operator]:
        return [self._ops[n] for n in self._leaf_ids]

    def exchange_ops(self) -> List[Operator]:
        """The shuffle boundaries, in topological (execution) order.

        Covers explicit ``Exchange`` nodes *and* the operators whose cost
        embeds a shuffle (joins resolve to sort-merge past the broadcast
        threshold; aggregates, sorts and windows always repartition).
        These are the stage cut points: per-exchange overrides
        (``repro.sparksim.overlay``) and the AQE-style re-plan hook
        (``repro.sparksim.replan``) key on their ``op_id``.
        """
        boundaries = (
            OpType.EXCHANGE,
            OpType.JOIN,
            OpType.HASH_AGGREGATE,
            OpType.SORT,
            OpType.WINDOW,
        )
        return [op for op in self.operators if op.op_type in boundaries]

    def operator(self, op_id: int) -> Operator:
        return self._ops[op_id]

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[Operator]:
        return iter(self.operators)

    # -- embedding ingredients (Sec. 4.1) ----------------------------------------

    @property
    def root_cardinality(self) -> float:
        """Estimated cardinality of the root node operator."""
        return self.root.est_rows_out

    @property
    def total_leaf_cardinality(self) -> float:
        """Total input cardinality of all leaf node operators."""
        return self._total_leaf_cardinality

    @property
    def total_input_bytes(self) -> float:
        return self._total_input_bytes

    def operator_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for op in self._ops.values():
            counts[op.op_type] = counts.get(op.op_type, 0) + 1
        return counts

    # -- identity -----------------------------------------------------------------

    def signature(self) -> str:
        """Stable hash of the plan identity.

        Covers the topology, operator types, row widths, and per-operator
        selectivity *ratios* — all invariant under uniform input scaling —
        so two runs of the same recurrent query with different input sizes
        share a signature (which is what groups observations for per-query
        tuning), while different queries with the same shape do not collide.
        """
        if self._signature:
            return self._signature
        shape = [
            (
                op.op_id,
                op.op_type,
                tuple(sorted(op.children)),
                round(op.row_bytes, 3),
                round(op.est_rows_out / op.est_rows_in, 9) if op.est_rows_in > 0 else 1.0,
            )
            for op in sorted(self._ops.values(), key=lambda o: o.op_id)
        ]
        digest = hashlib.sha256(json.dumps(shape).encode()).hexdigest()
        self._signature = digest[:16]
        return self._signature

    def scaled(self, factor: float) -> "PhysicalPlan":
        """Return a copy with all cardinalities multiplied by ``factor``.

        Models the same recurrent query running over a grown/shrunk input.
        Scaling cannot change the topology, so the copy shares this plan's
        frozen graph, root, leaves and execution order and rebuilds only
        its operators.
        """
        check_scale(factor)
        twin = copy.copy(self)
        twin._ops = {
            op_id: Operator(
                op_id=op_id,
                op_type=op.op_type,
                est_rows_in=op.est_rows_in * factor,
                est_rows_out=op.est_rows_out * factor,
                row_bytes=op.row_bytes,
                children=op.children,
            )
            for op_id, op in self._ops.items()
        }
        twin._signature = ""
        twin._set_leaf_totals()
        return twin


def check_scale(scale: float, name: str = "scale factor") -> None:
    """Raise ``ValueError`` unless ``scale`` is finite and > 0 (NaN fails too)."""
    if not 0.0 < scale < math.inf:
        raise ValueError(f"{name} must be finite and > 0, got {scale}")
