"""Figure 8c: latencies of the frequency-hiding kinds ED7-ED9.

Shape expectations from the paper:

1. ED7/ED8 add only a small overhead over ED1/ED2 (paper: +0.01 ms and
   +0.23 ms average) — binary searches slow logarithmically even though
   |D| = |AV|.
2. ED9 is the most expensive kind of all: a linear scan over a dictionary
   as large as the column, plus an explicit ValueID list proportional to
   the result size in the attribute-vector search (paper: 5.43 s / 60.82 s
   for full-scale C1/C2 at RS=100).
3. For ED9 at RS=100, C2 is slower than C1 (more matching rows -> more
   returned ValueIDs -> a heavier O(|AV|*|vid|) scan), inverting the
   C1/C2 relation of the linear-scan revealing kind.
"""

from __future__ import annotations

import pytest

from conftest import write_result
from fig8_common import measure_cell, render_figure


@pytest.fixture(scope="module")
def cells(workbench):
    measured = {}
    for kind_name in ("ED7", "ED8", "ED9"):
        for column_name in ("C1", "C2"):
            for range_size in (2, 100):
                measured[(kind_name, column_name, range_size)] = measure_cell(
                    workbench, kind_name, column_name, range_size
                )
    return measured


@pytest.fixture(scope="module")
def reference_cells(workbench):
    measured = {}
    for kind_name in ("ED1", "ED2"):
        for column_name in ("C1", "C2"):
            measured[(kind_name, column_name)] = measure_cell(
                workbench, kind_name, column_name, 100
            )
    return measured


@pytest.mark.parametrize("kind_name", ["ED7", "ED8", "ED9"])
def test_benchmark_encdbdb_query(benchmark, workbench, kind_name):
    engine = workbench.engine("EncDBDB", "C2", kind_name)
    query = workbench.queries("C2", 100)[0]
    benchmark.pedantic(lambda: engine.run(query), rounds=3, iterations=1)


def test_report_figure8c(benchmark, cells, workbench):
    text = render_figure(
        f"Figure 8c (ED7-ED9): mean latency of {workbench.settings.queries} "
        f"random range queries over {workbench.settings.rows} rows",
        cells,
    )
    write_result("figure8c_ed7_ed9", text)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert len(cells) == 12


def test_hiding_overhead_small_for_binary_search_kinds(shape, cells, reference_cells):
    for hiding_kind, revealing_kind in (("ED7", "ED1"), ("ED8", "ED2")):
        for column_name in ("C1", "C2"):
            hiding = cells[(hiding_kind, column_name, 100)]["EncDBDB"].mean
            revealing = reference_cells[(revealing_kind, column_name)]["EncDBDB"].mean
            assert hiding < 3 * revealing + 2e-3, (hiding_kind, column_name)


def test_ed9_is_slowest_of_all(shape, cells):
    for column_name in ("C1", "C2"):
        for range_size in (2, 100):
            ed7 = cells[("ED7", column_name, range_size)]["EncDBDB"].mean
            ed8 = cells[("ED8", column_name, range_size)]["EncDBDB"].mean
            ed9 = cells[("ED9", column_name, range_size)]["EncDBDB"].mean
            assert ed9 > 5 * ed7
            assert ed9 > 5 * ed8


def test_ed9_c2_slower_than_c1_at_rs100(shape, cells, workbench):
    """The paper's inversion: 60.82 s (C2) vs 5.43 s (C1) at full scale.

    The inversion is driven by the ``O(|AV| * |vid|)`` attribute-vector
    term: C2's repetitions make the ED9 linear scan return far more
    ValueIDs. At bench scale (|D| identical for both columns under
    frequency hiding, numpy's set-based scan) wall clock is noise-bound, so
    the mechanism is asserted on the deterministic operation counts, and
    wall clock only has to show no severe contradiction.
    """
    import numpy as np

    from repro.client.proxy import encrypt_search_range
    from repro.encdict.attrvect import attr_vect_search
    from repro.encdict.search import OrdinalRange
    from repro.sgx.costs import CostModel

    comparisons = {}
    for column_name in ("C1", "C2"):
        engine = workbench.engine("EncDBDB", column_name, "ED9")
        query = workbench.queries(column_name, 100)[0]
        tau = encrypt_search_range(
            engine._pae,
            engine._column_key,
            OrdinalRange(
                engine._value_type.ordinal(query.low),
                engine._value_type.ordinal(query.high),
            ),
        )
        (result,) = engine.host.ecall("dict_search", [(engine.build.dictionary, tau)])
        cost = CostModel()
        attr_vect_search(engine.build.attribute_vector, result, cost_model=cost)
        comparisons[column_name] = cost.comparisons
    assert comparisons["C2"] > 5 * comparisons["C1"]

    c1 = cells[("ED9", "C1", 100)]["EncDBDB"].mean
    c2 = cells[("ED9", "C2", 100)]["EncDBDB"].mean
    assert c2 > 0.5 * c1


def test_hiding_dictionary_is_column_sized(shape, workbench):
    """|D| = |AV| for frequency hiding (Table 3)."""
    engine = workbench.engine("EncDBDB", "C1", "ED7")
    assert len(engine.build.dictionary) == len(engine.build.attribute_vector)


def test_frequency_hiding_av_is_a_permutation(shape, workbench):
    """Every ValueID appears exactly once in AV (no frequency leakage)."""
    import numpy as np

    engine = workbench.engine("EncDBDB", "C1", "ED9")
    attribute_vector = engine.build.attribute_vector
    assert len(np.unique(attribute_vector)) == len(attribute_vector)
