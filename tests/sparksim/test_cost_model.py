"""Tests for the analytic cost model — the knob-response shapes the paper
relies on."""

import functools
import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.experiments.ext_stage_tuning import stage_plans
from repro.service.fleet import build_fleet
from repro.sparksim.cluster import GIB, ExecutorLayout
from repro.sparksim.configs import full_space, query_level_space
from repro.sparksim.cost_model import (
    _CODEC_CPU_TAX,
    _CODEC_SHUFFLE_FACTOR,
    _SERIALIZER_CPU_FACTOR,
    CostBreakdown,
    CostModel,
    CostParameters,
)
from repro.sparksim.overlay import StageConfigOverlay, StageOverride
from repro.sparksim.plan import Operator, OpType, PhysicalPlan
from repro.workloads.tables import TPCH_TABLES
from repro.workloads.tpcds import TPCDS_QUERY_IDS, tpcds_plan
from repro.workloads.tpch import TPCH_QUERY_IDS, tpch_plan


@pytest.fixture
def model():
    return CostModel()


@pytest.fixture
def layout():
    return ExecutorLayout(executors=4, cores_per_executor=4,
                          memory_gb_per_executor=8.0)


def scan_plan(rows=50_000_000, row_bytes=100.0):
    return PhysicalPlan([
        Operator(op_id=0, op_type=OpType.TABLE_SCAN, est_rows_in=rows,
                 est_rows_out=rows, row_bytes=row_bytes),
        Operator(op_id=1, op_type=OpType.PROJECT, est_rows_in=rows,
                 est_rows_out=rows, row_bytes=row_bytes, children=(0,)),
    ])


def shuffle_plan(rows=20_000_000, row_bytes=100.0):
    return PhysicalPlan([
        Operator(op_id=0, op_type=OpType.TABLE_SCAN, est_rows_in=rows,
                 est_rows_out=rows, row_bytes=row_bytes),
        Operator(op_id=1, op_type=OpType.EXCHANGE, est_rows_in=rows,
                 est_rows_out=rows, row_bytes=row_bytes, children=(0,)),
        Operator(op_id=2, op_type=OpType.PROJECT, est_rows_in=rows,
                 est_rows_out=rows, row_bytes=row_bytes, children=(1,)),
    ])


def join_plan(build_rows, probe_rows=10_000_000, row_bytes=100.0):
    return PhysicalPlan([
        Operator(op_id=0, op_type=OpType.TABLE_SCAN, est_rows_in=probe_rows,
                 est_rows_out=probe_rows, row_bytes=row_bytes),
        Operator(op_id=1, op_type=OpType.TABLE_SCAN, est_rows_in=build_rows,
                 est_rows_out=build_rows, row_bytes=row_bytes),
        Operator(op_id=2, op_type=OpType.JOIN, est_rows_in=probe_rows + build_rows,
                 est_rows_out=probe_rows, row_bytes=row_bytes, children=(0, 1)),
    ])


class TestKnobShapes:
    def test_max_partition_bytes_is_convex_like(self, model, layout):
        """Tiny partitions pay overhead; huge ones under-parallelize."""
        plan = scan_plan()
        grid = np.logspace(np.log10(1 << 20), np.log10(1 << 30), 15)
        times = [
            model.estimate(plan, {"spark.sql.files.maxPartitionBytes": m}, layout).total_seconds
            for m in grid
        ]
        best = int(np.argmin(times))
        assert 0 < best < len(grid) - 1           # interior optimum
        assert times[0] > times[best]
        assert times[-1] > times[best]

    def test_shuffle_partitions_is_convex_like(self, model, layout):
        plan = shuffle_plan()
        grid = np.unique(np.logspace(np.log10(8), np.log10(4000), 15).round())
        times = [
            model.estimate(plan, {"spark.sql.shuffle.partitions": p}, layout).total_seconds
            for p in grid
        ]
        best = int(np.argmin(times))
        assert times[0] > times[best]
        assert times[-1] > times[best]

    def test_broadcast_good_for_small_build_side(self, model, layout):
        plan = join_plan(build_rows=50_000)  # 5 MB build side
        smj = model.estimate(
            plan, {"spark.sql.autoBroadcastJoinThreshold": 1024}, layout
        ).total_seconds
        bhj = model.estimate(
            plan, {"spark.sql.autoBroadcastJoinThreshold": 64 << 20}, layout
        ).total_seconds
        assert bhj < smj

    def test_broadcast_penalized_for_huge_build_side(self, model, layout):
        # Build side = the smaller input; make it 8 GB (way past memory).
        plan = join_plan(build_rows=80_000_000, probe_rows=200_000_000)
        smj = model.estimate(
            plan, {"spark.sql.autoBroadcastJoinThreshold": 1024}, layout
        ).total_seconds
        forced_bhj = model.estimate(
            plan, {"spark.sql.autoBroadcastJoinThreshold": float(2 << 40)}, layout
        ).total_seconds
        assert forced_bhj > smj

    def test_more_cores_never_slower_on_scans(self, model):
        plan = scan_plan()
        small = ExecutorLayout(executors=2, cores_per_executor=2,
                               memory_gb_per_executor=8.0)
        big = ExecutorLayout(executors=16, cores_per_executor=8,
                             memory_gb_per_executor=8.0)
        config = {"spark.sql.files.maxPartitionBytes": 64 << 20}
        assert (model.estimate(plan, config, big).total_seconds
                <= model.estimate(plan, config, small).total_seconds)

    def test_memory_relieves_spill(self, model):
        plan = shuffle_plan(rows=200_000_000)
        config = {"spark.sql.shuffle.partitions": 16}  # few, fat reducers
        starved = ExecutorLayout(executors=4, cores_per_executor=4,
                                 memory_gb_per_executor=2.0)
        roomy = ExecutorLayout(executors=4, cores_per_executor=4,
                               memory_gb_per_executor=64.0)
        assert (model.estimate(plan, config, roomy).total_seconds
                < model.estimate(plan, config, starved).total_seconds)


def self_join_plan(rows=5_000_000, row_bytes=100.0):
    """A degenerate JOIN with a single input (self-join)."""
    return PhysicalPlan([
        Operator(op_id=0, op_type=OpType.TABLE_SCAN, est_rows_in=rows,
                 est_rows_out=rows, row_bytes=row_bytes),
        Operator(op_id=1, op_type=OpType.JOIN, est_rows_in=rows,
                 est_rows_out=rows // 2, row_bytes=row_bytes, children=(0,)),
    ])


class TestJoinCostBranches:
    def test_single_input_join_splits_the_input(self, model, layout):
        # build = 20% of the input bytes, so a threshold straddling that
        # boundary flips the strategy: just above it broadcasts, just below
        # falls back to sort-merge.
        plan = self_join_plan(rows=1_000_000)
        build_bytes = 1_000_000 * 100.0 * 0.2
        bhj = model.estimate(
            plan, {"spark.sql.autoBroadcastJoinThreshold": build_bytes + 1.0},
            layout,
        )
        smj = model.estimate(
            plan, {"spark.sql.autoBroadcastJoinThreshold": build_bytes - 1.0},
            layout,
        )
        assert bhj.metrics.get("broadcast_joins") == 1.0
        assert "sort_merge_joins" not in bhj.metrics
        assert smj.metrics.get("sort_merge_joins") == 1.0
        assert "broadcast_joins" not in smj.metrics
        assert bhj.total_seconds != smj.total_seconds

    def test_single_input_join_finite_and_positive(self, model, layout):
        for rows in (1, 2, 10, 1_000_000):
            breakdown = model.estimate(plan := self_join_plan(rows=rows), {}, layout)
            assert np.isfinite(breakdown.total_seconds)
            assert breakdown.total_seconds > 0
            assert set(breakdown.per_operator) == {op.op_id for op in plan.operators}

    def test_broadcast_memory_pressure_metric_and_penalty(self, model, layout):
        # Forcing a broadcast past the executor memory budget must surface
        # the pressure metric and cost more than a comfortable broadcast.
        comfortable = join_plan(build_rows=50_000)          # ~5 MB build side
        oversized = join_plan(build_rows=80_000_000,        # ~8 GB build side
                              probe_rows=200_000_000)
        force = {"spark.sql.autoBroadcastJoinThreshold": float(2 << 40)}
        ok = model.estimate(comfortable, force, layout)
        pressured = model.estimate(oversized, force, layout)
        assert "broadcast_memory_pressure" not in ok.metrics
        assert pressured.metrics["broadcast_memory_pressure"] > 1.0
        assert pressured.metrics.get("broadcast_joins") == 1.0

    def test_memory_pressure_penalty_is_capped(self, model):
        # The quadratic penalty saturates (min(pressure^2, 25)); past that
        # point, shrinking memory further must not change the estimate at
        # all — the join-heavy plan below saturates under both layouts.
        plan = join_plan(build_rows=200_000_000, probe_rows=2_000_000_000)
        force = {"spark.sql.autoBroadcastJoinThreshold": float(1 << 50)}

        def run(memory_gb):
            layout = ExecutorLayout(executors=2, cores_per_executor=2,
                                    memory_gb_per_executor=memory_gb)
            return model.estimate(plan, force, layout)

        one_gb, two_gb = run(1.0), run(2.0)
        assert one_gb.metrics["broadcast_memory_pressure"] > 5.0
        assert two_gb.metrics["broadcast_memory_pressure"] > 5.0
        assert np.isfinite(one_gb.total_seconds)
        assert one_gb.total_seconds == two_gb.total_seconds


class TestEstimates:
    def test_breakdown_covers_every_operator(self, model, layout, spark_space):
        plan = tpch_plan(3, 1.0)
        breakdown = model.estimate(plan, spark_space.default_dict(), layout)
        assert set(breakdown.per_operator) == {op.op_id for op in plan.operators}
        assert breakdown.total_seconds > sum(breakdown.per_operator.values()) - 1e-9

    def test_metrics_present(self, model, layout, spark_space):
        plan = tpch_plan(3, 1.0)
        metrics = model.estimate(plan, spark_space.default_dict(), layout).metrics
        assert metrics["tasks"] > 0
        assert metrics["input_rows"] == plan.total_leaf_cardinality

    def test_monotone_in_data_scale(self, model, layout, spark_space):
        config = spark_space.default_dict()
        t1 = model.estimate(tpch_plan(6, 1.0), config, layout).total_seconds
        t10 = model.estimate(tpch_plan(6, 10.0), config, layout).total_seconds
        assert t10 > t1

    def test_deterministic(self, model, layout, spark_space):
        plan = tpch_plan(5, 1.0)
        config = spark_space.default_dict()
        a = model.estimate(plan, config, layout).total_seconds
        b = model.estimate(plan, config, layout).total_seconds
        assert a == b


# -- the per-operator helper kernel the single pass replaced ------------------------
#
# ``CostModel.estimate`` used to be a loop over five helpers on a plan that
# ``SparkSimulator`` had scaled with ``plan.scaled(s)``.  They are kept here,
# verbatim apart from ``self.params`` becoming ``params``, as the reference
# the single-pass kernel must match byte for byte.


def _wave_time(n_tasks, per_task_s, total_cores):
    waves = math.ceil(max(n_tasks, 1.0) / max(total_cores, 1))
    return waves * per_task_s


def _scan_cost(params, op, config, layout, override=None):
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
        per_task_bytes / (params.scan_throughput_mb_s * 1e6)
        + params.task_overhead_s
    )
    time = _wave_time(n_parts, per_task_s, cores)
    time += n_parts * params.scheduling_overhead_s
    return time, {"scan_tasks": n_parts, "scan_bytes": bytes_total}


def _shuffle_cost(params, rows, row_bytes, config, layout, override=None):
    data_bytes = rows * row_bytes
    if override is not None and override.shuffle_partitions is not None:
        partitions = max(1.0, float(override.shuffle_partitions))
    else:
        partitions = max(1.0, float(config.get("spark.sql.shuffle.partitions", 200)))
    throughput = params.shuffle_throughput_mb_s * 1e6
    if layout.offheap_gb_per_executor > 0:
        throughput /= params.offheap_shuffle_discount
    codec = str(config.get("spark.io.compression.codec", "lz4"))
    throughput *= _CODEC_SHUFFLE_FACTOR.get(codec, 1.0)
    throughput /= _CODEC_CPU_TAX.get(codec, 1.0)

    cores = layout.total_cores
    if override is not None and override.task_parallelism is not None:
        cores = min(cores, max(int(override.task_parallelism), 1))

    write_s = data_bytes / (throughput * cores)

    per_task_bytes = data_bytes / partitions
    straggler = 1.0 + params.skew_coefficient * math.sqrt(
        params.skew_reference_partitions / partitions
    )
    hot_task_bytes = per_task_bytes * straggler

    fraction = params.executor_memory_fraction
    if override is not None and override.memory_fraction is not None:
        fraction = float(override.memory_fraction)
    mem_budget = layout.memory_gb_per_core * GIB * fraction
    spill = 0.0
    if hot_task_bytes > mem_budget:
        overflow = hot_task_bytes / mem_budget - 1.0
        spill = min(params.spill_coefficient * overflow, 8.0)
    per_task_s = (hot_task_bytes / throughput) * (1.0 + spill) + params.task_overhead_s
    read_s = _wave_time(partitions, per_task_s, cores)
    sched_s = partitions * params.scheduling_overhead_s
    total = write_s + read_s + sched_s
    return total, {
        "shuffle_bytes": data_bytes,
        "shuffle_partitions": partitions,
        "spilled": 1.0 if spill > 0 else 0.0,
    }


def _cpu_cost(params, rows, layout, factor=1.0, config=None):
    rate = params.cpu_rows_per_s
    if config is not None:
        serializer = str(config.get("spark.serializer", "java"))
        rate *= _SERIALIZER_CPU_FACTOR.get(serializer, 1.0)
    return factor * rows / (rate * max(layout.total_cores, 1))


def _join_cost(params, op, plan, config, layout, override=None):
    children = [plan.operator(c) for c in op.children]
    if len(children) >= 2:
        sides = sorted(children, key=lambda c: c.bytes_out)
        build, probe = sides[0], sides[-1]
        build_bytes, probe_rows = build.bytes_out, probe.est_rows_out
    else:
        build_bytes = op.bytes_in * 0.2
        probe_rows = op.est_rows_in * 0.8

    threshold = float(
        config.get("spark.sql.autoBroadcastJoinThreshold", 10 * 1024 * 1024)
    )
    metrics = {}
    if build_bytes <= threshold:
        broadcast_s = (
            build_bytes * layout.executors
            / (params.network_throughput_mb_s * 1e6)
        )
        hash_build_s = _cpu_cost(params, build_bytes / max(op.row_bytes, 1.0), layout, 2.0, config)
        probe_s = _cpu_cost(params, probe_rows, layout, 1.5, config)
        time = broadcast_s + hash_build_s + probe_s
        mem_budget = (
            layout.memory_gb_per_executor * GIB
            * params.broadcast_memory_fraction
        )
        if build_bytes > mem_budget:
            pressure = build_bytes / mem_budget
            time *= 1.0 + min(pressure * pressure, 25.0)
            metrics["broadcast_memory_pressure"] = pressure
        metrics["broadcast_joins"] = 1.0
    else:
        shuffle_s, shuffle_m = _shuffle_cost(
            params, op.est_rows_in, op.row_bytes, config, layout, override
        )
        n = max(op.est_rows_in, 2.0)
        sort_s = _cpu_cost(params, n * math.log2(n) / 20.0, layout, 1.0, config)
        merge_s = _cpu_cost(params, op.est_rows_in, layout, 1.2, config)
        time = shuffle_s + sort_s + merge_s
        metrics.update(shuffle_m)
        metrics["sort_merge_joins"] = 1.0
    return time, metrics


def reference_estimate(plan, config, layout=None, overlay=None, params=None):
    """The former ``CostModel.estimate`` body: one helper call per operator."""
    params = params or CostParameters()
    layout = layout or ExecutorLayout.from_config(config)
    per_op = {}
    metrics = {"tasks": 0.0}
    for op in plan.operators:
        ov = overlay.get(op.op_id) if overlay is not None else None
        if op.op_type == OpType.TABLE_SCAN:
            cost, m = _scan_cost(params, op, config, layout, ov)
            metrics["tasks"] += m.get("scan_tasks", 0.0)
        elif op.op_type == OpType.EXCHANGE:
            cost, m = _shuffle_cost(params, op.est_rows_in, op.row_bytes, config, layout, ov)
            metrics["tasks"] += m.get("shuffle_partitions", 0.0)
        elif op.op_type == OpType.JOIN:
            cost, m = _join_cost(params, op, plan, config, layout, ov)
            metrics["tasks"] += m.get("shuffle_partitions", 0.0)
        elif op.op_type == OpType.HASH_AGGREGATE:
            shuffle_s, m = _shuffle_cost(
                params, op.est_rows_in * 0.5, op.row_bytes, config, layout, ov
            )
            cost = shuffle_s + _cpu_cost(params, op.est_rows_in, layout, 1.3, config)
            metrics["tasks"] += m.get("shuffle_partitions", 0.0)
        elif op.op_type in (OpType.SORT, OpType.WINDOW):
            shuffle_s, m = _shuffle_cost(params, op.est_rows_in, op.row_bytes, config, layout, ov)
            n = max(op.est_rows_in, 2.0)
            factor = 1.5 if op.op_type == OpType.WINDOW else 1.0
            cost = shuffle_s + _cpu_cost(params, n * math.log2(n) / 25.0, layout, factor, config)
            metrics["tasks"] += m.get("shuffle_partitions", 0.0)
        else:
            cost = _cpu_cost(params, op.est_rows_in, layout, 0.5, config)
            m = {}
        per_op[op.op_id] = cost
        for key, value in m.items():
            if key not in ("scan_tasks", "shuffle_partitions"):
                metrics[key] = metrics.get(key, 0.0) + value

    total = sum(per_op.values()) + params.fixed_query_overhead_s
    metrics["input_bytes"] = plan.total_input_bytes
    metrics["input_rows"] = plan.total_leaf_cardinality
    return CostBreakdown(total_seconds=total, per_operator=per_op, metrics=metrics)


# -- the single pass against the reference ------------------------------------------


def tied_join_plan(rows, ratio, width, wide_first=True):
    """A join whose inputs tie in bytes at scale 1 with different splits.

    One input has ``rows`` rows of ``ratio * width`` bytes, the other
    ``ratio * rows`` rows of ``width`` bytes; every product is exact, so
    they tie.  At another scale ``(rows * s) * row_bytes`` rounds
    differently for each, and either input can come out smaller.
    """
    wide = (rows, float(ratio * width))
    narrow = (ratio * rows, float(width))
    first, second = (wide, narrow) if wide_first else (narrow, wide)
    return PhysicalPlan([
        Operator(op_id=0, op_type=OpType.TABLE_SCAN, est_rows_in=first[0],
                 est_rows_out=first[0], row_bytes=first[1]),
        Operator(op_id=1, op_type=OpType.TABLE_SCAN, est_rows_in=second[0],
                 est_rows_out=second[0], row_bytes=second[1]),
        Operator(op_id=2, op_type=OpType.JOIN, est_rows_in=first[0] + second[0],
                 est_rows_out=ratio * rows, row_bytes=100.0, children=(0, 1)),
        Operator(op_id=3, op_type=OpType.HASH_AGGREGATE,
                 est_rows_in=ratio * rows, est_rows_out=rows, row_bytes=100.0,
                 children=(2,)),
    ])


tied_join_plans = st.builds(
    tied_join_plan,
    rows=st.integers(1_000, 10_000_000),
    ratio=st.integers(2, 100),
    width=st.integers(8, 500),
    wide_first=st.booleans(),
)


@functools.lru_cache(maxsize=None)
def catalog_plans():
    """TPC-H and TPC-DS at SF 1 and 100, a 24-notebook fleet's plans, and
    the stage-tuning plans (the only ones with explicit exchanges), one
    tuple per source so each is drawn as often as the others."""
    return (
        tuple(tpch_plan(q, sf) for q in TPCH_QUERY_IDS for sf in (1.0, 100.0)),
        tuple(tpcds_plan(q, sf) for q in TPCDS_QUERY_IDS for sf in (1.0, 100.0)),
        tuple(session.plan for session in build_fleet(24, seed=0)),
        tuple(stage_plans().values()),
    )


def stage_overrides(plan):
    """Random overrides on a random subset of the plan's stages and scans."""
    parts = st.one_of(st.none(), st.integers(1, 4000))
    fraction = st.one_of(st.none(), st.floats(0.05, 1.0))
    parallelism = st.one_of(st.none(), st.integers(1, 64))
    split = st.one_of(st.none(), st.floats(2.0**10, 2.0**31))
    overrides = {
        op.op_id: st.builds(
            StageOverride, max_partition_bytes=split, task_parallelism=parallelism
        )
        for op in plan.leaves
    }
    for op in plan.exchange_ops():
        overrides[op.op_id] = st.builds(
            StageOverride, shuffle_partitions=parts, memory_fraction=fraction,
            task_parallelism=parallelism,
        )
    return st.fixed_dictionaries({}, optional=overrides).map(StageConfigOverlay)


@st.composite
def full_configs(draw):
    """A full-space config, with codec, serializer and threshold drawn too."""
    space = full_space()
    bounds = space.internal_bounds
    unit = draw(st.lists(st.floats(0.0, 1.0), min_size=space.dim, max_size=space.dim))
    config = space.to_dict(bounds[:, 0] + np.array(unit) * (bounds[:, 1] - bounds[:, 0]))
    codec = draw(st.sampled_from([None, "lz4", "snappy", "zstd", "unknown"]))
    if codec is not None:
        config["spark.io.compression.codec"] = codec
    serializer = draw(st.sampled_from([None, "java", "kryo"]))
    if serializer is not None:
        config["spark.serializer"] = serializer
    threshold = draw(st.one_of(st.none(), st.floats(1e3, 1e13)))
    if threshold is not None:
        config["spark.sql.autoBroadcastJoinThreshold"] = threshold
    return config


layouts = st.one_of(
    st.none(),
    st.builds(
        ExecutorLayout,
        executors=st.integers(1, 64),
        cores_per_executor=st.integers(1, 16),
        memory_gb_per_executor=st.floats(1.0, 128.0),
        offheap_gb_per_executor=st.sampled_from([0.0, 2.0, 16.0]),
    ),
)

scales = st.one_of(
    st.just(1.0),
    st.floats(0.05, 20.0),
    st.floats(1e-12, 1e12),
    st.sampled_from([5e-324, 1e-300, 1e-9, 1e9, 1e15]),
)


@st.composite
def plans_and_overlays(draw):
    plan = draw(st.one_of(
        *(st.sampled_from(plans) for plans in catalog_plans()),
        st.integers(1, 10**9).map(lambda rows: self_join_plan(rows=rows)),
        tied_join_plans,
    ))
    overlay = draw(st.one_of(st.none(), stage_overrides(plan)))
    return plan, overlay


def outcome(estimate):
    """A breakdown as bytes with its keys in order, or the error it raised."""
    try:
        result = estimate()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)

    def pack(value):
        return struct.pack("<d", value)

    return (
        pack(result.total_seconds),
        [(op_id, pack(v)) for op_id, v in result.per_operator.items()],
        [(key, pack(v)) for key, v in result.metrics.items()],
    )


class TestSinglePassMatchesReference:
    """``estimate(plan, ..., data_scale=s)`` is bitwise the former helper
    kernel run on ``plan.scaled(s)``: total, per-operator costs and metrics,
    with keys in the same order."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=plans_and_overlays(), config=full_configs(), layout=layouts,
           scale=scales)
    def test_bitwise_equal_to_reference_on_scaled_plan(self, case, config, layout, scale):
        plan, overlay = case
        model = CostModel()
        want = outcome(lambda: reference_estimate(
            plan.scaled(scale) if scale != 1.0 else plan, config, layout, overlay
        ))
        got = outcome(lambda: model.estimate(plan, config, layout, overlay, scale))
        assert got == want

    @example(rows=6_494_157, ratio=45, width=101, scale=1.5942448414759975)
    @settings(max_examples=100, deadline=None)
    @given(rows=st.integers(1_000, 10_000_000), ratio=st.integers(2, 100),
           width=st.integers(8, 500), scale=st.floats(0.05, 20.0))
    def test_tied_join_sides_follow_the_scaled_bytes(self, rows, ratio, width, scale):
        # A threshold past both inputs: the probe side's rows set the cost.
        config = {"spark.sql.autoBroadcastJoinThreshold": 1e13}
        plan = tied_join_plan(rows, ratio, width)
        want = outcome(lambda: reference_estimate(plan.scaled(scale), config))
        got = outcome(lambda: CostModel().estimate(plan, config, data_scale=scale))
        assert got == want
