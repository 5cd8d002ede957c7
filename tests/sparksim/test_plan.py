"""Tests for physical plans (operator DAGs)."""

import math

import networkx as nx
import numpy as np
import pytest

from repro.embedding import WorkloadEmbedder
from repro.service.fleet import build_fleet
from repro.sparksim.configs import query_level_space
from repro.sparksim.cost_model import CostModel
from repro.sparksim.plan import Operator, OpType, PhysicalPlan
from repro.workloads import tpcds_suite, tpch_plan, tpch_suite


def chain_plan():
    return PhysicalPlan([
        Operator(op_id=0, op_type=OpType.TABLE_SCAN, est_rows_in=1000, est_rows_out=1000),
        Operator(op_id=1, op_type=OpType.FILTER, est_rows_in=1000, est_rows_out=100,
                 children=(0,)),
        Operator(op_id=2, op_type=OpType.HASH_AGGREGATE, est_rows_in=100, est_rows_out=10,
                 children=(1,)),
    ], name="chain")


class TestOperator:
    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="operator type"):
            Operator(op_id=0, op_type="Teleport", est_rows_in=1, est_rows_out=1)

    def test_negative_rows_rejected(self):
        with pytest.raises(ValueError):
            Operator(op_id=0, op_type=OpType.FILTER, est_rows_in=-1, est_rows_out=0)

    def test_bytes_properties(self):
        op = Operator(op_id=0, op_type=OpType.TABLE_SCAN, est_rows_in=10,
                      est_rows_out=10, row_bytes=50.0)
        assert op.bytes_in == 500.0
        assert op.bytes_out == 500.0


class TestPhysicalPlan:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PhysicalPlan([])

    def test_duplicate_ids_rejected(self):
        op = Operator(op_id=0, op_type=OpType.TABLE_SCAN, est_rows_in=1, est_rows_out=1)
        with pytest.raises(ValueError, match="duplicate"):
            PhysicalPlan([op, op])

    def test_unknown_child_rejected(self):
        with pytest.raises(ValueError, match="unknown child"):
            PhysicalPlan([
                Operator(op_id=0, op_type=OpType.FILTER, est_rows_in=1,
                         est_rows_out=1, children=(99,))
            ])

    def test_cycle_rejected(self):
        # 1 <-> 2 is a cycle; op 3 is still the only root, so only the
        # topological sort can reject this plan.
        with pytest.raises(ValueError, match="plan contains a cycle"):
            PhysicalPlan([
                Operator(op_id=0, op_type=OpType.TABLE_SCAN, est_rows_in=1, est_rows_out=1),
                Operator(op_id=1, op_type=OpType.JOIN, est_rows_in=2, est_rows_out=1,
                         children=(0, 2)),
                Operator(op_id=2, op_type=OpType.FILTER, est_rows_in=1, est_rows_out=1,
                         children=(1,)),
                Operator(op_id=3, op_type=OpType.PROJECT, est_rows_in=1, est_rows_out=1,
                         children=(1,)),
            ])

    def test_multiple_roots_rejected(self):
        with pytest.raises(ValueError, match="root"):
            PhysicalPlan([
                Operator(op_id=0, op_type=OpType.TABLE_SCAN, est_rows_in=1, est_rows_out=1),
                Operator(op_id=1, op_type=OpType.TABLE_SCAN, est_rows_in=1, est_rows_out=1),
            ])

    def test_topological_order(self):
        plan = chain_plan()
        ids = [op.op_id for op in plan.operators]
        assert ids.index(0) < ids.index(1) < ids.index(2)

    def test_root_and_leaves(self):
        plan = chain_plan()
        assert plan.root.op_id == 2
        assert [op.op_id for op in plan.leaves] == [0]

    def test_embedding_ingredients(self):
        plan = chain_plan()
        assert plan.root_cardinality == 10
        assert plan.total_leaf_cardinality == 1000
        assert plan.operator_counts() == {
            OpType.TABLE_SCAN: 1, OpType.FILTER: 1, OpType.HASH_AGGREGATE: 1
        }

    def test_signature_stable_across_cardinalities(self):
        plan = chain_plan()
        scaled = plan.scaled(10.0)
        assert plan.signature() == scaled.signature()

    def test_signature_differs_for_different_shapes(self):
        plan = chain_plan()
        other = PhysicalPlan([
            Operator(op_id=0, op_type=OpType.TABLE_SCAN, est_rows_in=1000, est_rows_out=1000),
            Operator(op_id=1, op_type=OpType.SORT, est_rows_in=1000, est_rows_out=1000,
                     children=(0,)),
            Operator(op_id=2, op_type=OpType.HASH_AGGREGATE, est_rows_in=1000,
                     est_rows_out=10, children=(1,)),
        ])
        assert plan.signature() != other.signature()

    def test_scaled_multiplies_cardinalities(self):
        plan = chain_plan().scaled(3.0)
        assert plan.total_leaf_cardinality == 3000
        assert plan.root_cardinality == 30

    def test_scaled_invalid_factor(self):
        for factor in (0.0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"finite and > 0, got {factor}"):
                chain_plan().scaled(factor)

    def test_len_and_iter(self):
        plan = chain_plan()
        assert len(plan) == 3
        assert len(list(plan)) == 3


# -- scaled copies share the parent's topology ---------------------------------

FACTORS = (1e-3, 0.37, 2.5, 1e3)


def rebuilt(plan, factor):
    """The reference for ``plan.scaled(factor)``: a new plan, with its own
    graph and every check, built from the scaled operators.

    Operators go in in the plan's insertion order (its graph's node order).
    """
    return PhysicalPlan([
        Operator(
            op_id=op.op_id,
            op_type=op.op_type,
            est_rows_in=op.est_rows_in * factor,
            est_rows_out=op.est_rows_out * factor,
            row_bytes=op.row_bytes,
            children=op.children,
        )
        for op in map(plan.operator, plan.graph.nodes)
    ], name=plan.name)


PLAN_SETS = {
    "tpch_sf1": lambda: tpch_suite(1.0),
    "tpch_sf100": lambda: tpch_suite(100.0),
    "tpcds_sf1": lambda: tpcds_suite(1.0),
    "tpcds_sf100": lambda: tpcds_suite(100.0),
    "fleet24": lambda: [session.plan for session in build_fleet(24, seed=0)],
}


def assert_same_plan(got, want, config, model, embedder):
    assert got.name == want.name
    assert got.operators == want.operators
    assert got.leaves == want.leaves
    assert got.root == want.root
    assert got.signature() == want.signature()
    # Bitwise: == on floats, no tolerance.
    assert got.total_leaf_cardinality == want.total_leaf_cardinality
    assert got.total_input_bytes == want.total_input_bytes
    assert (model.estimate(got, config).total_seconds
            == model.estimate(want, config).total_seconds)
    assert np.array_equal(embedder.embed(got), embedder.embed(want))


class TestScaledSharesTopology:
    @pytest.mark.parametrize("plan_set", sorted(PLAN_SETS))
    def test_equals_a_rebuilt_plan(self, plan_set):
        model = CostModel()
        embedder = WorkloadEmbedder(include_structure=True)
        config = query_level_space().default_dict()
        for plan in PLAN_SETS[plan_set]():
            for factor in FACTORS:
                once = plan.scaled(factor)
                assert_same_plan(once, rebuilt(plan, factor), config, model, embedder)
                twice = once.scaled(0.37)
                assert_same_plan(
                    twice, rebuilt(rebuilt(plan, factor), 0.37),
                    config, model, embedder,
                )

    def test_copies_share_one_frozen_graph(self):
        plan = tpch_plan(5)
        once = plan.scaled(2.5)
        twice = once.scaled(0.37)
        assert once.graph is plan.graph and twice.graph is plan.graph
        assert nx.is_frozen(plan.graph)
        with pytest.raises(nx.NetworkXError):
            once.graph.add_node(999)
        with pytest.raises(nx.NetworkXError):
            twice.graph.add_edge(0, 999)
        assert sorted(plan.graph.nodes) == sorted(op.op_id for op in plan.operators)
        assert plan.graph.number_of_edges() == sum(len(op.children) for op in plan.operators)

    def test_signature_is_per_copy(self):
        plan = tpch_plan(5)
        plan.signature()
        copy = plan.scaled(2.5)
        assert copy._signature == ""  # computed lazily, not inherited
        assert copy.signature() == plan.signature()

    def test_scaling_leaves_the_parent_alone(self):
        plan = tpch_plan(5)
        before = (plan.operators, plan.total_leaf_cardinality, plan.total_input_bytes)
        plan.scaled(2.5).scaled(1e3)
        assert (plan.operators, plan.total_leaf_cardinality, plan.total_input_bytes) == before

    def test_scaled_builds_no_graph(self, monkeypatch):
        calls = []
        graph_init = nx.DiGraph.__init__
        plan_init = PhysicalPlan.__init__

        def counting_graph_init(self, *args, **kwargs):
            calls.append("graph")
            graph_init(self, *args, **kwargs)

        def counting_plan_init(self, *args, **kwargs):
            calls.append("plan")
            plan_init(self, *args, **kwargs)

        plan = tpch_plan(5)
        monkeypatch.setattr(nx.DiGraph, "__init__", counting_graph_init)
        monkeypatch.setattr(PhysicalPlan, "__init__", counting_plan_init)
        plan.scaled(2.5).scaled(0.37).operators
        assert calls == []
        rebuilt(plan, 2.5)  # the guard does see a plan being built
        assert calls == ["plan", "graph"]
