"""Analytic operator cost model.

This stands in for real Spark cluster executions.  It maps
``(physical plan, configuration, executor layout)`` to an execution time
whose *shape* over each knob matches the behaviors the paper's knobs are
known for (and that Fig. 1 shows):

* ``spark.sql.files.maxPartitionBytes`` — small values create many tiny scan
  tasks (scheduling overhead dominates); large values under-utilize cores.
* ``spark.sql.shuffle.partitions`` — few partitions concentrate data (skew
  stragglers + memory spills); many partitions pay per-task overhead.
* ``spark.sql.autoBroadcastJoinThreshold`` — too low forces shuffle joins on
  small build sides; too high broadcasts large tables and causes memory
  pressure.

Each knob therefore has a convex response with a query-dependent optimum,
exactly the structure the Centroid Learning algorithm assumes locally.

Two entry points share these formulas.  :meth:`CostModel.estimate` is the
scalar kernel, one pass over the operators under one configuration that
every single-run caller uses; it takes the run's data scale itself, so a
drifting run prices its plan without building a scaled copy.
:meth:`CostModel.estimate_batch` prices N configurations at once, replaying
the same arithmetic column-wise so that row *i* is bitwise
``estimate(plan, configs[i])``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Union

import numpy as np

from .. import telemetry
from .batch import ConfigColumns, LayoutArrays, plan_arrays, resolve_layouts
from .cluster import ExecutorLayout, GIB, Pool
from .overlay import StageConfigOverlay, StageOverride
from .plan import OpType, PhysicalPlan, check_scale

__all__ = ["CostParameters", "CostBreakdown", "BatchCostBreakdown", "CostModel"]


@dataclass(frozen=True)
class CostParameters:
    """Physical constants of the simulated cluster software stack."""

    scan_throughput_mb_s: float = 250.0       # per core, columnar scan
    shuffle_throughput_mb_s: float = 80.0     # per core, write+read combined
    network_throughput_mb_s: float = 900.0    # broadcast distribution
    cpu_rows_per_s: float = 4.0e6             # per core, narrow transforms
    task_overhead_s: float = 0.03             # JVM task launch + commit
    scheduling_overhead_s: float = 0.0005     # driver-side, per task
    skew_coefficient: float = 0.3             # straggler severity at P=reference
    skew_reference_partitions: float = 200.0
    spill_coefficient: float = 1.6            # slowdown per x of memory overflow
    executor_memory_fraction: float = 0.6     # usable fraction of heap
    broadcast_memory_fraction: float = 0.3    # safe broadcast share of memory
    offheap_shuffle_discount: float = 0.85    # off-heap reduces GC-bound shuffles
    fixed_query_overhead_s: float = 1.0       # planning + session setup


# Categorical-knob effects (see repro.core.categorical for the tuning side).
# Compression trades CPU for shuffle I/O: zstd compresses harder (faster
# effective shuffle for large exchanges, slight CPU tax), snappy is cheap but
# lighter than lz4's balance.
_CODEC_SHUFFLE_FACTOR = {"lz4": 1.0, "snappy": 0.94, "zstd": 1.18}
_CODEC_CPU_TAX = {"lz4": 1.0, "snappy": 0.98, "zstd": 1.06}
# Kryo serializes rows ~25% faster than Java serialization.
_SERIALIZER_CPU_FACTOR = {"java": 1.0, "kryo": 1.25}


def _elementwise_log2(values: np.ndarray) -> np.ndarray:
    """``math.log2`` applied per element.

    ``np.log2`` and ``math.log2`` disagree in the last ulp on a small
    fraction of inputs, which would break the kernel's bitwise contract for
    per-config data scales; plans have few ``n·log2(n)`` operators, so the
    Python-level loop stays cheap relative to the batch.
    """
    return np.fromiter(
        (math.log2(v) for v in values), dtype=float, count=len(values)
    )


@dataclass
class CostBreakdown:
    """Estimated cost of one query execution (noiseless)."""

    total_seconds: float
    per_operator: Dict[int, float] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)


@dataclass
class BatchCostBreakdown:
    """Vectorized cost breakdown: one plan evaluated under N configurations.

    ``metric_values[key][i]`` holds config *i*'s accumulated value for
    ``key``; ``metric_masks[key][i]`` says whether the scalar path would
    have emitted that key at all for config *i* (the broadcast/sort-merge
    branch changes which join metrics exist row by row).
    """

    total_seconds: np.ndarray                 # (N,)
    per_operator: Dict[int, np.ndarray]       # op_id -> (N,), topological order
    metric_values: Dict[str, np.ndarray]      # key -> (N,)
    metric_masks: Dict[str, np.ndarray]       # key -> (N,) bool
    input_bytes: float
    input_rows: float

    @property
    def n(self) -> int:
        return int(self.total_seconds.shape[0])

    def breakdown_at(self, i: int) -> CostBreakdown:
        """Config *i*'s result as the scalar :class:`CostBreakdown` shape."""
        metrics: Dict[str, float] = {}
        for key, values in self.metric_values.items():
            if self.metric_masks[key][i]:
                metrics[key] = float(values[i])
        metrics["input_bytes"] = self.input_bytes
        metrics["input_rows"] = self.input_rows
        return CostBreakdown(
            total_seconds=float(self.total_seconds[i]),
            per_operator={op: float(costs[i]) for op, costs in self.per_operator.items()},
            metrics=metrics,
        )


class CostModel:
    """Maps (plan, config, layout) to a deterministic execution time."""

    def __init__(self, params: Optional[CostParameters] = None):
        self.params = params or CostParameters()

    # -- plan-level estimate ---------------------------------------------------------

    def estimate(
        self,
        plan: PhysicalPlan,
        config: Mapping[str, float],
        layout: Optional[ExecutorLayout] = None,
        overlay: Optional[StageConfigOverlay] = None,
        data_scale: float = 1.0,
    ) -> CostBreakdown:
        """Noiseless execution-time estimate for ``plan`` under ``config``.

        The scalar kernel: one pass over the operators in topological
        order, with the per-operator metrics the simulator reports.  Every
        single-configuration caller (``SparkSimulator.run``, ``true_time``
        and ``run_to_event``, the tuning step) lands here;
        :meth:`estimate_batch` replays this arithmetic column-wise for N
        configurations and is pinned bitwise against it
        (tests/sparksim/test_batch.py).  ``overlay`` applies per-stage knob
        overrides (see ``repro.sparksim.overlay``).

        ``data_scale`` prices the query over a grown or shrunk input
        without building ``plan.scaled(data_scale)``: each operator's rows
        are multiplied in that copy's order (rows first, bytes from the
        scaled rows), so the result is bitwise the estimate of the scaled
        copy.  Config-, layout- and parameter-derived terms are computed
        once per call; stage overrides are resolved per operator.
        """
        if data_scale != 1.0:
            check_scale(data_scale)
        p = self.params
        layout = layout or ExecutorLayout.from_config(config)
        cores = layout.total_cores
        max_part = max(
            float(config.get("spark.sql.files.maxPartitionBytes", 128 * 1024 * 1024)), 1.0
        )
        partitions = max(1.0, float(config.get("spark.sql.shuffle.partitions", 200)))
        threshold = float(
            config.get("spark.sql.autoBroadcastJoinThreshold", 10 * 1024 * 1024)
        )
        throughput = p.shuffle_throughput_mb_s * 1e6
        if layout.offheap_gb_per_executor > 0:
            throughput /= p.offheap_shuffle_discount  # faster with off-heap
        codec = str(config.get("spark.io.compression.codec", "lz4"))
        throughput *= _CODEC_SHUFFLE_FACTOR.get(codec, 1.0)
        throughput /= _CODEC_CPU_TAX.get(codec, 1.0)
        serializer = str(config.get("spark.serializer", "java"))
        cpu_rate_cores = (
            p.cpu_rows_per_s * _SERIALIZER_CPU_FACTOR.get(serializer, 1.0)
        ) * max(cores, 1)
        scan_denom = p.scan_throughput_mb_s * 1e6
        net_denom = p.network_throughput_mb_s * 1e6
        memory_per_core = layout.memory_gb_per_core * GIB
        shuffle_mem_budget = memory_per_core * p.executor_memory_fraction
        bc_mem_budget = layout.memory_gb_per_executor * GIB * p.broadcast_memory_fraction

        per_op: Dict[int, float] = {}
        metrics: Dict[str, float] = {"tasks": 0.0}
        get = metrics.get

        def shuffle(data_bytes: float, ov: Optional[StageOverride]) -> float:
            """Seconds of one exchange of ``data_bytes``; adds its metrics.

            The map side writes all data once, fully parallel.  On the
            reduce side the slowest task governs each wave: skewed keys make
            the hottest partition larger, more partitions dilute the skew,
            and reducers that exceed their memory share spill to disk.
            """
            parts, c, mem_budget = partitions, cores, shuffle_mem_budget
            if ov is not None:
                if ov.shuffle_partitions is not None:
                    parts = max(1.0, float(ov.shuffle_partitions))
                if ov.task_parallelism is not None:
                    c = min(cores, max(int(ov.task_parallelism), 1))
                if ov.memory_fraction is not None:
                    mem_budget = memory_per_core * float(ov.memory_fraction)
            straggler = 1.0 + p.skew_coefficient * math.sqrt(
                p.skew_reference_partitions / parts
            )
            hot_task_bytes = (data_bytes / parts) * straggler
            spill = 0.0
            if hot_task_bytes > mem_budget:
                overflow = hot_task_bytes / mem_budget - 1.0
                spill = min(p.spill_coefficient * overflow, 8.0)
            per_task_s = (hot_task_bytes / throughput) * (1.0 + spill) + p.task_overhead_s
            waves = math.ceil(max(parts, 1.0) / max(c, 1))
            metrics["tasks"] += parts
            metrics["shuffle_bytes"] = get("shuffle_bytes", 0.0) + data_bytes
            metrics["spilled"] = get("spilled", 0.0) + (1.0 if spill > 0 else 0.0)
            return (
                data_bytes / (throughput * c) + waves * per_task_s
                + parts * p.scheduling_overhead_s
            )

        for op in plan.operators:
            op_type = op.op_type
            ov = overlay.get(op.op_id) if overlay is not None else None
            rows = op.est_rows_in * data_scale
            row_bytes = op.row_bytes
            if op_type == OpType.TABLE_SCAN:
                bytes_total = rows * row_bytes
                mp, c = max_part, cores
                if ov is not None:
                    if ov.max_partition_bytes is not None:
                        mp = max(float(ov.max_partition_bytes), 1.0)
                    if ov.task_parallelism is not None:
                        c = min(cores, max(int(ov.task_parallelism), 1))
                n_parts = max(1.0, math.ceil(bytes_total / mp))
                per_task_s = (bytes_total / n_parts) / scan_denom + p.task_overhead_s
                cost = math.ceil(max(n_parts, 1.0) / max(c, 1)) * per_task_s
                cost += n_parts * p.scheduling_overhead_s
                metrics["tasks"] += n_parts
                metrics["scan_bytes"] = get("scan_bytes", 0.0) + bytes_total
            elif op_type == OpType.EXCHANGE:
                cost = shuffle(rows * row_bytes, ov)
            elif op_type == OpType.JOIN:
                children = [plan.operator(c) for c in op.children]
                if len(children) >= 2:
                    # The smallest input is the build side, the largest the
                    # probe side; sorted() is stable, so ties keep the
                    # children's order.
                    sides = sorted(
                        children,
                        key=lambda c: (c.est_rows_out * data_scale) * c.row_bytes,
                    )
                    build, probe = sides[0], sides[-1]
                    build_bytes = (build.est_rows_out * data_scale) * build.row_bytes
                    probe_rows = probe.est_rows_out * data_scale
                else:
                    # Self-join / degenerate single-input join: split the input.
                    build_bytes = (rows * row_bytes) * 0.2
                    probe_rows = rows * 0.8
                if build_bytes <= threshold:
                    # Broadcast hash join: ship the build side to every
                    # executor, hash it and probe it.
                    cost = (
                        build_bytes * layout.executors / net_denom
                        + 2.0 * (build_bytes / max(row_bytes, 1.0)) / cpu_rate_cores
                        + 1.5 * probe_rows / cpu_rate_cores
                    )
                    # Memory pressure when a large build side is broadcast anyway.
                    if build_bytes > bc_mem_budget:
                        pressure = build_bytes / bc_mem_budget
                        cost *= 1.0 + min(pressure * pressure, 25.0)
                        metrics["broadcast_memory_pressure"] = (
                            get("broadcast_memory_pressure", 0.0) + pressure
                        )
                    metrics["broadcast_joins"] = get("broadcast_joins", 0.0) + 1.0
                else:
                    # Sort-merge join: shuffle both sides on the join key,
                    # then merge.  Stage overrides scope to the shuffle
                    # terms; the broadcast branch above has no per-stage
                    # knob in the catalog this models.
                    n = max(rows, 2.0)
                    cost = (
                        shuffle(rows * row_bytes, ov)
                        + (n * math.log2(n) / 20.0) / cpu_rate_cores
                        + 1.2 * rows / cpu_rate_cores
                    )
                    metrics["sort_merge_joins"] = get("sort_merge_joins", 0.0) + 1.0
            elif op_type == OpType.HASH_AGGREGATE:
                cost = shuffle((rows * 0.5) * row_bytes, ov) + 1.3 * rows / cpu_rate_cores
            elif op_type in (OpType.SORT, OpType.WINDOW):
                n = max(rows, 2.0)
                factor = 1.5 if op_type == OpType.WINDOW else 1.0
                cost = (
                    shuffle(rows * row_bytes, ov)
                    + factor * (n * math.log2(n) / 25.0) / cpu_rate_cores
                )
            else:  # Filter, Project, Union, Limit — narrow transforms
                cost = 0.5 * rows / cpu_rate_cores
            per_op[op.op_id] = cost

        # Every total here is folded in order from 0.0, as the batch kernel
        # adds its columns: the builtin sum() compensates float rounding
        # since Python 3.12, which would break the bitwise contract.
        total = 0.0
        for cost in per_op.values():
            total += cost
        total += p.fixed_query_overhead_s
        if data_scale == 1.0:
            metrics["input_bytes"] = plan.total_input_bytes
            metrics["input_rows"] = plan.total_leaf_cardinality
        else:
            # Leaf sums in leaf order at the scale, as a scaled copy sums them.
            input_bytes = input_rows = 0.0
            for op in plan.leaves:
                rows = op.est_rows_in * data_scale
                input_bytes += rows * op.row_bytes
                input_rows += rows
            metrics["input_bytes"] = float(input_bytes)
            metrics["input_rows"] = float(input_rows)
        return CostBreakdown(total_seconds=total, per_operator=per_op, metrics=metrics)

    # The scalar kernel's former name; the end-to-end benchmark's cost check
    # (perfbench/workloads.py) still calls it.
    estimate_scalar = estimate

    # -- vectorized batch estimate ----------------------------------------------------

    def estimate_batch(
        self,
        plan: PhysicalPlan,
        configs: Union[Sequence[Mapping[str, float]], np.ndarray, ConfigColumns],
        layout: Optional[ExecutorLayout] = None,
        *,
        space=None,
        pool: Optional[Pool] = None,
        data_scale: float = 1.0,
        data_scales: Optional[np.ndarray] = None,
        overlay: Optional[StageConfigOverlay] = None,
        breakdown: bool = False,
    ) -> Union[np.ndarray, BatchCostBreakdown]:
        """Noiseless estimates for all N configurations at once.

        ``configs`` may be a sequence of config dicts, an ``(N, dim)`` array
        of internal vectors (then ``space`` is required), or a prebuilt
        :class:`ConfigColumns`.  Returns ``(N,)`` seconds, or the full
        :class:`BatchCostBreakdown` when ``breakdown=True``.  Every value is
        bit-identical to N calls of :meth:`estimate` — the kernel replays
        the scalar arithmetic operation-for-operation on arrays.

        ``data_scales`` gives every configuration its *own* input scale (an
        ``(N,)`` array): row counts scale per element in the exact
        multiplication order of ``plan.scaled(s)``, and each join picks its
        build and probe sides per element, so element *i* is bit-identical
        to ``estimate(plan, configs[i], data_scale=data_scales[i])``.
        This is what lets the lock-step engine evaluate K sessions with
        heterogeneous data-size drift in one kernel pass.  Mutually
        exclusive with a non-unit ``data_scale`` and with ``breakdown``.

        ``overlay`` applies the same per-stage knob overrides to every row
        (see ``repro.sparksim.overlay``); results stay bit-identical to N
        calls of ``estimate(..., overlay=overlay)``.
        """
        started = time.perf_counter() if telemetry.enabled() else None
        cols = ConfigColumns.coerce(configs, space)
        if data_scales is not None:
            data_scales = np.asarray(data_scales, dtype=float)
            if data_scales.shape != (cols.n,):
                raise ValueError(
                    f"data_scales must have shape ({cols.n},), got {data_scales.shape}"
                )
            if cols.n:
                # NaN propagates through min/max, so the extremes carry any bad value.
                check_scale(float(data_scales.min()), "data_scales")
                check_scale(float(data_scales.max()), "data_scales")
            if data_scale != 1.0:
                raise ValueError("pass data_scale or data_scales, not both")
            if breakdown:
                raise ValueError("breakdown is not supported with data_scales")
            if np.all(data_scales == 1.0):
                data_scales = None  # uniform unit scales: plain fast path
        arrays = plan_arrays(plan, data_scale)
        if layout is not None:
            layouts = LayoutArrays.from_layout(layout)
        else:
            layouts = resolve_layouts(cols, pool)
        with np.errstate(divide="ignore", invalid="ignore"):
            result = self._batch_kernel(arrays, cols, layouts, breakdown,
                                        scales=data_scales, overlay=overlay)
        if started is not None:
            telemetry.counter("sparksim.batch_estimates").inc()
            telemetry.counter("sparksim.batch_configs").inc(cols.n)
            telemetry.histogram("sparksim.batch_kernel_seconds").observe(
                time.perf_counter() - started
            )
        return result if breakdown else result.total_seconds

    def _batch_kernel(
        self, arrays, cols: ConfigColumns, layouts: LayoutArrays,
        want_breakdown: bool, scales: Optional[np.ndarray] = None,
        overlay: Optional[StageConfigOverlay] = None,
    ) -> BatchCostBreakdown:
        """The vectorized analogue of :meth:`estimate`.

        Per-operator costs stay a short Python loop (plans have ~10 nodes);
        the N-config axis is pure NumPy.  Arithmetic mirrors the scalar
        kernel term for term — same association, same evaluation order —
        so results match bitwise, not just to tolerance.  When
        ``want_breakdown`` is false only ``total_seconds`` is populated —
        per-operator and metric accumulation (pure bookkeeping, no effect
        on totals) is skipped.

        With per-config ``scales`` (an ``(N,)`` array; ``arrays`` must then
        be compiled at scale 1.0) row counts become per-config arrays.  The
        ``n·log2(n)`` sort terms go through :func:`_elementwise_log2` —
        ``np.log2`` differs from ``math.log2`` in the last ulp on a few
        inputs, so the scalar ``math.log2`` is applied per element to keep
        the bitwise contract.
        """
        p = self.params
        n = cols.n
        cores = layouts.total_cores                       # already max(·, 1)
        executors = layouts.executors

        # Config columns (arrays, or plain floats for knobs no row sets).
        max_part_col = cols.numeric(
            "spark.sql.files.maxPartitionBytes", 128 * 1024 * 1024
        )
        partitions_col = cols.numeric("spark.sql.shuffle.partitions", 200)
        threshold = cols.numeric(
            "spark.sql.autoBroadcastJoinThreshold", 10 * 1024 * 1024
        )
        codec_shuffle = cols.factor(
            "spark.io.compression.codec", "lz4", _CODEC_SHUFFLE_FACTOR
        )
        codec_tax = cols.factor("spark.io.compression.codec", "lz4", _CODEC_CPU_TAX)
        ser_factor = cols.factor("spark.serializer", "java", _SERIALIZER_CPU_FACTOR)

        max_part = np.maximum(max_part_col, 1.0)
        partitions = np.maximum(1.0, partitions_col)

        # Shuffle throughput, same op order as estimate(): base, optional
        # off-heap division, codec multiply, CPU-tax division.
        tp_base = p.shuffle_throughput_mb_s * 1e6
        throughput = (
            np.where(layouts.offheap_positive, tp_base / p.offheap_shuffle_discount, tp_base)
            * codec_shuffle
            / codec_tax
        )
        cpu_rate_cores = (p.cpu_rows_per_s * ser_factor) * cores
        scan_denom = p.scan_throughput_mb_s * 1e6
        net_denom = p.network_throughput_mb_s * 1e6
        shuffle_mem_budget = layouts.memory_gb_per_core * GIB * p.executor_memory_fraction
        bc_mem_budget = (
            layouts.memory_gb_per_executor * GIB * p.broadcast_memory_fraction
        )
        shuffle_waves = np.ceil(np.maximum(partitions, 1.0) / cores)
        shuffle_sched = partitions * p.scheduling_overhead_s
        straggler = 1.0 + p.skew_coefficient * np.sqrt(
            p.skew_reference_partitions / partitions
        )

        def shuffle(data_bytes, parts=partitions, strag=straggler,
                    waves=shuffle_waves, sched=shuffle_sched,
                    budget=shuffle_mem_budget, c=cores):
            """(read+write time, spill slowdown) for one exchange of data_bytes.

            Defaults are the app-level columns bound at definition time; a
            stage override passes its own terms via :func:`stage_terms`.
            """
            write_s = data_bytes / (throughput * c)
            hot = (data_bytes / parts) * strag
            overflow = hot / budget - 1.0
            spill = np.where(
                hot > budget,
                np.minimum(p.spill_coefficient * overflow, 8.0),
                0.0,
            )
            per_task_s = (hot / throughput) * (1.0 + spill) + p.task_overhead_s
            total = write_s + waves * per_task_s + sched
            return total, spill

        def stage_terms(ov):
            """Per-stage shuffle terms for one override, mirroring the
            scalar ``shuffle`` arithmetic order exactly."""
            if ov.task_parallelism is None:
                c = cores
            else:
                c = np.minimum(cores, float(max(int(ov.task_parallelism), 1)))
            if ov.shuffle_partitions is None:
                parts = partitions
            else:
                parts = np.maximum(1.0, float(ov.shuffle_partitions))
            strag = 1.0 + p.skew_coefficient * np.sqrt(
                p.skew_reference_partitions / parts
            )
            waves = np.ceil(np.maximum(parts, 1.0) / c)
            sched = parts * p.scheduling_overhead_s
            if ov.memory_fraction is None:
                budget = shuffle_mem_budget
            else:
                budget = (
                    layouts.memory_gb_per_core * GIB * float(ov.memory_fraction)
                )
            return parts, strag, waves, sched, budget, c

        def cpu(rows, factor):
            return factor * rows / cpu_rate_cores

        per_op: Dict[int, np.ndarray] = {}
        metric_values: Dict[str, np.ndarray] = {}
        metric_masks: Dict[str, np.ndarray] = {}
        total = np.zeros(n)
        if want_breakdown:
            metric_values["tasks"] = np.zeros(n)
            metric_masks["tasks"] = np.ones(n, dtype=bool)

        def add_metric(key, value, mask=None):
            if not want_breakdown:
                return
            if key not in metric_values:
                metric_values[key] = np.zeros(n)
                metric_masks[key] = np.zeros(n, dtype=bool)
            if mask is None:
                metric_values[key] = metric_values[key] + value
                metric_masks[key] |= True
            else:
                metric_values[key] = metric_values[key] + np.where(mask, value, 0.0)
                metric_masks[key] |= mask

        def add_tasks(value):
            if want_breakdown:
                metric_values["tasks"] = metric_values["tasks"] + value

        for i in range(arrays.n_ops):
            op_type = arrays.op_types[i]
            # Stage override for this operator (None on every existing path).
            ov = overlay.get(arrays.op_ids[i]) if overlay is not None else None
            sh = () if ov is None else stage_terms(ov)
            op_parts = partitions if ov is None else sh[0]
            # Per-config scales multiply the *rows* first; bytes derive from
            # the scaled rows — the exact order of plan.scaled(s).
            rows_in = (
                arrays.rows_in[i] if scales is None else arrays.rows_in[i] * scales
            )
            row_bytes = arrays.row_bytes[i]
            if op_type == OpType.TABLE_SCAN:
                bytes_total = (
                    arrays.bytes_in[i] if scales is None else rows_in * row_bytes
                )
                if ov is None:
                    mp, c = max_part, cores
                else:
                    if ov.max_partition_bytes is None:
                        mp = max_part
                    else:
                        mp = np.maximum(float(ov.max_partition_bytes), 1.0)
                    c = sh[5]
                n_parts = np.maximum(1.0, np.ceil(bytes_total / mp))
                per_task_s = (
                    (bytes_total / n_parts) / scan_denom + p.task_overhead_s
                )
                cost = np.ceil(np.maximum(n_parts, 1.0) / c) * per_task_s
                cost = cost + n_parts * p.scheduling_overhead_s
                add_tasks(n_parts)
                add_metric("scan_bytes", bytes_total)
            elif op_type == OpType.EXCHANGE:
                cost, spill = shuffle(rows_in * row_bytes, *sh)
                add_tasks(op_parts)
                add_metric("shuffle_bytes", rows_in * row_bytes)
                add_metric("spilled", np.where(spill > 0, 1.0, 0.0))
            elif op_type == OpType.JOIN:
                if scales is None:
                    build_bytes = arrays.join_build_bytes[i]
                    probe_rows = arrays.join_probe_rows[i]
                elif arrays.join_degenerate[i]:
                    build_bytes = (rows_in * row_bytes) * 0.2
                    probe_rows = rows_in * 0.8
                else:
                    # Sides per row, as the scalar kernel's stable sort picks
                    # them at that row's scale: the build side brings the
                    # smallest scaled bytes, and the probe side is the last
                    # child with the largest (tied children can differ in rows).
                    sides = zip(arrays.join_child_rows[i], arrays.join_child_row_bytes[i])
                    child_rows, width = next(sides)
                    probe_rows = child_rows * scales
                    build_bytes = probe_bytes = probe_rows * width
                    for child_rows, width in sides:
                        rows_s = child_rows * scales
                        bytes_s = rows_s * width
                        build_bytes = np.minimum(build_bytes, bytes_s)
                        later = bytes_s >= probe_bytes
                        probe_bytes = np.where(later, bytes_s, probe_bytes)
                        probe_rows = np.where(later, rows_s, probe_rows)
                is_broadcast = build_bytes <= threshold
                # Broadcast hash join (computed for every config, selected
                # by mask — matches the scalar branch arithmetic exactly).
                t_bc = (
                    build_bytes * executors / net_denom
                    + cpu(build_bytes / max(row_bytes, 1.0), 2.0)
                    + cpu(probe_rows, 1.5)
                )
                pressure = build_bytes / bc_mem_budget
                pressured = build_bytes > bc_mem_budget
                t_bc = np.where(
                    pressured,
                    t_bc * (1.0 + np.minimum(pressure * pressure, 25.0)),
                    t_bc,
                )
                # Sort-merge join (stage overrides scope to its shuffle).
                shuffle_s, spill = shuffle(rows_in * row_bytes, *sh)
                if scales is None:
                    n_rows = max(rows_in, 2.0)
                    nlogn = n_rows * math.log2(n_rows)
                else:
                    n_rows = np.maximum(rows_in, 2.0)
                    nlogn = n_rows * _elementwise_log2(n_rows)
                t_smj = (
                    shuffle_s
                    + cpu(nlogn / 20.0, 1.0)
                    + cpu(rows_in, 1.2)
                )
                cost = np.where(is_broadcast, t_bc, t_smj)
                if want_breakdown:
                    is_broadcast = np.broadcast_to(is_broadcast, (n,))
                    smj = ~is_broadcast
                    add_tasks(np.where(smj, op_parts, 0.0))
                    add_metric(
                        "broadcast_memory_pressure", pressure,
                        is_broadcast & pressured,
                    )
                    add_metric("broadcast_joins", 1.0, is_broadcast)
                    add_metric("shuffle_bytes", rows_in * row_bytes, smj)
                    add_metric("spilled", np.where(spill > 0, 1.0, 0.0), smj)
                    add_metric("sort_merge_joins", 1.0, smj)
            elif op_type == OpType.HASH_AGGREGATE:
                shuffle_s, spill = shuffle((rows_in * 0.5) * row_bytes, *sh)
                cost = shuffle_s + cpu(rows_in, 1.3)
                add_tasks(op_parts)
                add_metric("shuffle_bytes", (rows_in * 0.5) * row_bytes)
                add_metric("spilled", np.where(spill > 0, 1.0, 0.0))
            elif op_type in (OpType.SORT, OpType.WINDOW):
                shuffle_s, spill = shuffle(rows_in * row_bytes, *sh)
                if scales is None:
                    n_rows = max(rows_in, 2.0)
                    nlogn = n_rows * math.log2(n_rows)
                else:
                    n_rows = np.maximum(rows_in, 2.0)
                    nlogn = n_rows * _elementwise_log2(n_rows)
                factor = 1.5 if op_type == OpType.WINDOW else 1.0
                cost = shuffle_s + cpu(nlogn / 25.0, factor)
                add_tasks(op_parts)
                add_metric("shuffle_bytes", rows_in * row_bytes)
                add_metric("spilled", np.where(spill > 0, 1.0, 0.0))
            else:  # Filter, Project, Union, Limit — narrow transforms
                cost = cpu(rows_in, 0.5)
            if want_breakdown:
                per_op[arrays.op_ids[i]] = np.broadcast_to(cost, (n,))
            total = total + cost

        total = total + p.fixed_query_overhead_s
        return BatchCostBreakdown(
            total_seconds=total,
            per_operator=per_op,
            metric_values=metric_values,
            metric_masks=metric_masks,
            input_bytes=arrays.total_input_bytes,
            input_rows=arrays.total_leaf_cardinality,
        )
