"""Self-tests of the benchmark harness (not of extlift).

    python3 -m pytest -q perfbench/test_bench.py
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from run import percentile  # noqa: E402
from worker import load_goldens, run_ops  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_operation_list(workload):
    first = [op.key for op in workloads.build(workload, 11)]
    assert first == [op.key for op in workloads.build(workload, 11)]
    assert first != [op.key for op in workloads.build(workload, 12)]
    assert len(first) >= 100


def test_injected_golden_mismatch_counts_as_failure():
    ops = [op for op in workloads.build("corpus_small", 0)
           if op.key.startswith("verify|cyclic4|")][:2]
    goldens = load_goldens("corpus_small")
    assert all(op.key in goldens for op in ops)
    assert not any(r["error"] for r in run_ops(ops, goldens))
    broken = dict(goldens, **{ops[0].key: "0" * 32})
    records = run_ops(ops, broken)
    failed = sum(1 for r in records if r["error"])
    assert failed / len(records) == 0.5
    assert "differs from golden" in records[0]["error"]


def test_witness_check_rejects_a_wrong_automorphism():
    from extlift import catalog, center, extension_from, lift_automorphism
    G = catalog("heisenberg", 3)
    ext = extension_from(G, center(G))
    gamma = lift_automorphism(ext, ext.id_H)
    n_map, h_map = range(ext.N.order), range(ext.H.order)
    assert workloads.witness_error(ext, gamma.image, n_map, h_map) is None
    swapped = list(gamma.image)
    swapped[1], swapped[2] = swapped[2], swapped[1]
    assert workloads.witness_error(ext, swapped, n_map, h_map) is not None


def test_b2_check_rejects_a_wrong_order():
    from extlift import abelian_normal_subgroups, catalog, extension_from
    G = catalog("dihedral", 8)
    subgroups = abelian_normal_subgroups(G)
    assert any(N.order == 4 for N in subgroups)        # non-central action too
    for N in subgroups:
        ext = extension_from(G, N)
        b2 = ext.cohomology.b2_order
        assert workloads.b2_order_error(ext, b2) is None
        assert workloads.b2_order_error(ext, b2 * 2) is not None


def test_percentile_refuses_p90_below_100_samples():
    with pytest.raises(ValueError):
        percentile(list(range(99)), 90)
    assert 88 < percentile(list(range(100)), 90) < 90
    assert percentile(list(range(21)), 50) == pytest.approx(10)
    with pytest.raises(ValueError):
        percentile(list(range(19)), 50)
