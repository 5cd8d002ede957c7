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
scalar kernel, a per-operator loop over one configuration that every
single-run caller uses.  :meth:`CostModel.estimate_batch` prices N
configurations at once, replaying the same arithmetic column-wise so that
row *i* is bitwise ``estimate(plan, configs[i])``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .. import telemetry
from .batch import ConfigColumns, LayoutArrays, plan_arrays, resolve_layouts
from .cluster import ExecutorLayout, GIB, Pool
from .overlay import StageConfigOverlay, StageOverride
from .plan import Operator, OpType, PhysicalPlan, check_scale

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

    # -- primitive cost kernels ---------------------------------------------------

    def _wave_time(self, n_tasks: float, per_task_s: float, total_cores: int) -> float:
        """Tasks execute in waves of ``total_cores``; time = waves × task time."""
        waves = math.ceil(max(n_tasks, 1.0) / max(total_cores, 1))
        return waves * per_task_s

    def _scan_cost(
        self, op: Operator, config: Mapping[str, float], layout: ExecutorLayout,
        override: Optional[StageOverride] = None,
    ) -> Tuple[float, Dict[str, float]]:
        bytes_total = op.bytes_in
        if override is not None and override.max_partition_bytes is not None:
            max_part = float(override.max_partition_bytes)
        else:
            max_part = float(config.get("spark.sql.files.maxPartitionBytes", 128 * 1024 * 1024))
        cores = layout.total_cores
        if override is not None and override.task_parallelism is not None:
            cores = min(cores, max(int(override.task_parallelism), 1))
        n_parts = max(1.0, math.ceil(bytes_total / max(max_part, 1.0)))
        per_task_bytes = bytes_total / n_parts
        per_task_s = (
            per_task_bytes / (self.params.scan_throughput_mb_s * 1e6)
            + self.params.task_overhead_s
        )
        time = self._wave_time(n_parts, per_task_s, cores)
        time += n_parts * self.params.scheduling_overhead_s
        return time, {"scan_tasks": n_parts, "scan_bytes": bytes_total}

    def _shuffle_cost(
        self, rows: float, row_bytes: float, config: Mapping[str, float],
        layout: ExecutorLayout, override: Optional[StageOverride] = None,
    ) -> Tuple[float, Dict[str, float]]:
        data_bytes = rows * row_bytes
        if override is not None and override.shuffle_partitions is not None:
            partitions = max(1.0, float(override.shuffle_partitions))
        else:
            partitions = max(1.0, float(config.get("spark.sql.shuffle.partitions", 200)))
        throughput = self.params.shuffle_throughput_mb_s * 1e6
        if layout.offheap_gb_per_executor > 0:
            throughput /= self.params.offheap_shuffle_discount  # faster with off-heap
        codec = str(config.get("spark.io.compression.codec", "lz4"))
        throughput *= _CODEC_SHUFFLE_FACTOR.get(codec, 1.0)
        throughput /= _CODEC_CPU_TAX.get(codec, 1.0)

        cores = layout.total_cores
        if override is not None and override.task_parallelism is not None:
            cores = min(cores, max(int(override.task_parallelism), 1))

        # Map side: write all data once, fully parallel.
        write_s = data_bytes / (throughput * cores)

        # Reduce side: the slowest task governs each wave.  Skewed keys make
        # the hottest partition larger; more partitions dilute the skew.
        per_task_bytes = data_bytes / partitions
        straggler = 1.0 + self.params.skew_coefficient * math.sqrt(
            self.params.skew_reference_partitions / partitions
        )
        hot_task_bytes = per_task_bytes * straggler

        # Memory spill: reducers that exceed their memory share hit disk.
        fraction = self.params.executor_memory_fraction
        if override is not None and override.memory_fraction is not None:
            fraction = float(override.memory_fraction)
        mem_budget = layout.memory_gb_per_core * GIB * fraction
        spill = 0.0
        if hot_task_bytes > mem_budget:
            overflow = hot_task_bytes / mem_budget - 1.0
            spill = min(self.params.spill_coefficient * overflow, 8.0)
        per_task_s = (hot_task_bytes / throughput) * (1.0 + spill) + self.params.task_overhead_s
        read_s = self._wave_time(partitions, per_task_s, cores)
        sched_s = partitions * self.params.scheduling_overhead_s
        total = write_s + read_s + sched_s
        return total, {
            "shuffle_bytes": data_bytes,
            "shuffle_partitions": partitions,
            "spilled": 1.0 if spill > 0 else 0.0,
        }

    def _cpu_cost(
        self, rows: float, layout: ExecutorLayout, factor: float = 1.0,
        config: Optional[Mapping[str, float]] = None,
    ) -> float:
        rate = self.params.cpu_rows_per_s
        if config is not None:
            serializer = str(config.get("spark.serializer", "java"))
            rate *= _SERIALIZER_CPU_FACTOR.get(serializer, 1.0)
        return factor * rows / (rate * max(layout.total_cores, 1))

    def _join_cost(
        self, op: Operator, plan: PhysicalPlan, config: Mapping[str, float],
        layout: ExecutorLayout, override: Optional[StageOverride] = None,
    ) -> Tuple[float, Dict[str, float]]:
        children = [plan.operator(c) for c in op.children]
        if len(children) >= 2:
            sides = sorted(children, key=lambda c: c.bytes_out)
            build, probe = sides[0], sides[-1]
            build_bytes, probe_rows = build.bytes_out, probe.est_rows_out
        else:
            # Self-join / degenerate single-input join: split the input.
            build_bytes = op.bytes_in * 0.2
            probe_rows = op.est_rows_in * 0.8

        threshold = float(
            config.get("spark.sql.autoBroadcastJoinThreshold", 10 * 1024 * 1024)
        )
        metrics: Dict[str, float] = {}
        if build_bytes <= threshold:
            # Broadcast hash join: ship the build side to every executor.
            broadcast_s = (
                build_bytes * layout.executors
                / (self.params.network_throughput_mb_s * 1e6)
            )
            hash_build_s = self._cpu_cost(build_bytes / max(op.row_bytes, 1.0), layout, 2.0, config)
            probe_s = self._cpu_cost(probe_rows, layout, 1.5, config)
            time = broadcast_s + hash_build_s + probe_s
            # Memory pressure when a large build side is broadcast anyway.
            mem_budget = (
                layout.memory_gb_per_executor * GIB
                * self.params.broadcast_memory_fraction
            )
            if build_bytes > mem_budget:
                pressure = build_bytes / mem_budget
                time *= 1.0 + min(pressure * pressure, 25.0)
                metrics["broadcast_memory_pressure"] = pressure
            metrics["broadcast_joins"] = 1.0
        else:
            # Sort-merge join: shuffle both sides on the join key, then merge.
            # Stage overrides scope to the shuffle terms; the broadcast
            # branch above has no per-stage knob in the catalog this models.
            shuffle_s, shuffle_m = self._shuffle_cost(
                op.est_rows_in, op.row_bytes, config, layout, override
            )
            n = max(op.est_rows_in, 2.0)
            sort_s = self._cpu_cost(n * math.log2(n) / 20.0, layout, 1.0, config)
            merge_s = self._cpu_cost(op.est_rows_in, layout, 1.2, config)
            time = shuffle_s + sort_s + merge_s
            metrics.update(shuffle_m)
            metrics["sort_merge_joins"] = 1.0
        return time, metrics

    # -- plan-level estimate ---------------------------------------------------------

    def estimate(
        self,
        plan: PhysicalPlan,
        config: Mapping[str, float],
        layout: Optional[ExecutorLayout] = None,
        overlay: Optional[StageConfigOverlay] = None,
    ) -> CostBreakdown:
        """Noiseless execution-time estimate for ``plan`` under ``config``.

        The scalar kernel: one pass over the operators in topological
        order, with the per-operator metrics the simulator reports.  Every
        single-configuration caller (``SparkSimulator.run`` and
        ``true_time``, the tuning step) lands here; :meth:`estimate_batch`
        replays this arithmetic column-wise for N configurations and is
        pinned bitwise against it (tests/sparksim/test_batch.py).
        ``overlay`` applies per-stage knob overrides (see
        ``repro.sparksim.overlay``).
        """
        layout = layout or ExecutorLayout.from_config(config)
        per_op: Dict[int, float] = {}
        metrics: Dict[str, float] = {"tasks": 0.0}
        for op in plan.operators:
            ov = overlay.get(op.op_id) if overlay is not None else None
            if op.op_type == OpType.TABLE_SCAN:
                cost, m = self._scan_cost(op, config, layout, ov)
                metrics["tasks"] += m.get("scan_tasks", 0.0)
            elif op.op_type == OpType.EXCHANGE:
                cost, m = self._shuffle_cost(op.est_rows_in, op.row_bytes, config, layout, ov)
                metrics["tasks"] += m.get("shuffle_partitions", 0.0)
            elif op.op_type == OpType.JOIN:
                cost, m = self._join_cost(op, plan, config, layout, ov)
                metrics["tasks"] += m.get("shuffle_partitions", 0.0)
            elif op.op_type == OpType.HASH_AGGREGATE:
                shuffle_s, m = self._shuffle_cost(
                    op.est_rows_in * 0.5, op.row_bytes, config, layout, ov
                )
                cost = shuffle_s + self._cpu_cost(op.est_rows_in, layout, 1.3, config)
                metrics["tasks"] += m.get("shuffle_partitions", 0.0)
            elif op.op_type in (OpType.SORT, OpType.WINDOW):
                shuffle_s, m = self._shuffle_cost(op.est_rows_in, op.row_bytes, config, layout, ov)
                n = max(op.est_rows_in, 2.0)
                factor = 1.5 if op.op_type == OpType.WINDOW else 1.0
                cost = shuffle_s + self._cpu_cost(n * math.log2(n) / 25.0, layout, factor, config)
                metrics["tasks"] += m.get("shuffle_partitions", 0.0)
            else:  # Filter, Project, Union, Limit — narrow transforms
                cost = self._cpu_cost(op.est_rows_in, layout, 0.5, config)
                m = {}
            per_op[op.op_id] = cost
            for key, value in m.items():
                if key not in ("scan_tasks", "shuffle_partitions"):
                    metrics[key] = metrics.get(key, 0.0) + value

        total = sum(per_op.values()) + self.params.fixed_query_overhead_s
        metrics["input_bytes"] = plan.total_input_bytes
        metrics["input_rows"] = plan.total_leaf_cardinality
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
        multiplication order of ``plan.scaled(s)``, so element *i* is
        bit-identical to a scalar estimate on ``plan.scaled(data_scales[i])``.
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
        kernels term for term — same association, same evaluation order —
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

        # Shuffle throughput, same op order as _shuffle_cost: base, optional
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
            scalar ``_shuffle_cost`` arithmetic order exactly."""
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
                    build_bytes = (
                        arrays.join_build_rows[i] * scales
                    ) * arrays.join_build_row_bytes[i]
                    probe_rows = arrays.join_probe_rows[i] * scales
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
