"""Each experiment's default quick result equals its committed report.

``benchmarks/output/<name>.json`` holds the ``result_to_json`` report of
each experiment's default quick run (``run(quick=True)``, seed 0), as
``make bench`` writes it.  The test reruns the experiment and compares the
parsed JSON, naming the first key that differs.  Four of the covered
experiments fit trees (``ablation_embedding``, ``fig12``, ``fig13`` and
``fig14``), so this is also the end-to-end check on the split search.

Four committed reports drifted from a fresh run and are left out until
each cause is shown:

* ``fig02_noisy_convergence`` (``bo_final_median``),
  ``fig03_manual_tuning`` (``tpcds_q11_bo_final``) and ``app_level_joint``
  (six scalars) changed at ``4a64010``, which added incremental GP updates;
* ``fig16_external_customers`` changed at ``6110798``, the lock-step
  commit, which also edited ``core/guardrail.py``:
  ``n_disabled_by_guardrail`` went from 13 to 14 and three other scalars
  moved.

``ablation_knob_pruning`` has no report: its quick run takes about 17 s,
as long as all the covered experiments together.
"""

import importlib
import json
from pathlib import Path

import pytest

from repro.experiments.report import result_to_json

OUTPUT_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "output"

GOLDEN = [
    "ablation_embedding",
    "ablation_find_best",
    "ablation_window",
    "ext_categorical",
    "ext_conservative",
    "ext_drift_adversarial",
    "ext_knob_count",
    "ext_price_performance",
    "ext_retrieval_warm_start",
    "ext_stage_tuning",
    "ext_streaming",
    "fig01_shuffle_partitions",
    "fig08_synthetic_function",
    "fig09_pseudo_surrogates",
    "fig10_svr_surrogate",
    "fig11_dynamic_workloads",
    "fig12_transfer_learning",
    "fig13_cl_vs_bo",
    "fig14_tpch_production",
    "fig15_internal_customers",
]

DRIFTED = [
    "app_level_joint",
    "fig02_noisy_convergence",
    "fig03_manual_tuning",
    "fig16_external_customers",
]


def first_difference(got, want, path="$"):
    """``(path, got, want)`` at the first leaf where the two differ, else None.

    Keys are walked in ``want``'s order, then the keys only ``got`` has; a
    NaN equals a NaN.
    """
    if isinstance(got, dict) and isinstance(want, dict):
        for key in list(want) + [k for k in got if k not in want]:
            if key not in got or key not in want:
                return f"{path}.{key}", got.get(key, "<missing>"), want.get(key, "<missing>")
            found = first_difference(got[key], want[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(got, list) and isinstance(want, list):
        for i, (a, b) in enumerate(zip(got, want)):
            found = first_difference(a, b, f"{path}[{i}]")
            if found:
                return found
        if len(got) != len(want):
            return f"{path} (length)", len(got), len(want)
        return None
    if got == want or (got != got and want != want):
        return None
    return path, got, want


def test_first_difference_names_the_first_differing_key():
    want = {"scalars": {"a": 1.0, "b": 2.0}, "series": {"s": {"values": [1.0, 2.0]}}}
    assert first_difference(want, json.loads(json.dumps(want))) is None
    assert first_difference({**want, "scalars": {"a": 1.0, "b": 2.5}}, want) == (
        "$.scalars.b", 2.5, 2.0
    )
    got = {**want, "series": {"s": {"values": [1.0, 2.0, 3.0]}}}
    assert first_difference(got, want) == ("$.series.s.values (length)", 3, 2)
    assert first_difference({"x": 1}, {}) == ("$.x", 1, "<missing>")
    assert first_difference({"x": float("nan")}, {"x": float("nan")}) is None


def test_every_committed_report_is_covered_or_named_as_drifted():
    committed = sorted(p.stem for p in OUTPUT_DIR.glob("*.json"))
    assert committed == sorted(GOLDEN + DRIFTED)


@pytest.mark.verify
@pytest.mark.parametrize("name", GOLDEN)
def test_quick_result_equals_committed_report(name):
    module = importlib.import_module(f"repro.experiments.{name}")
    got = json.loads(result_to_json(module.run(quick=True)))
    want = json.loads((OUTPUT_DIR / f"{name}.json").read_text())
    diff = first_difference(got, want)
    assert diff is None, "{}: {} is {!r}, committed {!r}".format(name, *diff)
