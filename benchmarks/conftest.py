"""Shared configuration for the benchmark suite.

Every benchmark regenerates one table or figure of the paper's evaluation
(Section 6) at a reduced scale, printing the same rows/series the paper
plots.  The scale is controlled by the ``REPRO_BENCH_SCALE`` environment
variable: ``quick`` (default, minutes) or ``full`` (longer, larger graphs and
batches).

The benchmarks use ``pytest-benchmark`` where a single timed kernel makes
sense (index construction, maintenance, query batches) and plain measurement
loops where the paper's figure is itself a parameter sweep; either way each
test prints a table mirroring the corresponding figure.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.bench import FULL_SCALE, QUICK_SCALE


def pytest_configure(config):
    config.addinivalue_line("markers", "paper_figure(name): experiment for a paper figure")
    # Archive every experiment table to a file in the repository root so the
    # figures remain readable even though pytest captures stdout.
    if "REPRO_BENCH_REPORT" not in os.environ:
        report_path = os.path.join(str(config.rootpath), "bench_report.txt")
        os.environ["REPRO_BENCH_REPORT"] = report_path
        with open(report_path, "wt", encoding="utf-8") as handle:
            handle.write("KSP-DG / DTLP reproduction - benchmark report\n")


@pytest.fixture(scope="session")
def scale():
    """The experiment scale profile selected via REPRO_BENCH_SCALE."""
    profile = os.environ.get("REPRO_BENCH_SCALE", "quick").lower()
    return FULL_SCALE if profile == "full" else QUICK_SCALE


@pytest.fixture(scope="session")
def maintenance_seconds():
    """``maintenance_seconds(graph, dtlp, updates)``: Algorithm 2's time for
    one update batch on a built, unmaintained ``(graph, dtlp)`` pair.

    The minimum over five runs, so the maintenance figures compare costs and
    not one scheduler hiccup each.  Every run gets a fresh pickled copy of
    the pair (neither argument is touched): a repeat on the same index would
    find the unit weights already at their new values and skip that work.
    """

    def measure(graph, dtlp, updates) -> float:
        pair = pickle.dumps((graph, dtlp))
        best = float("inf")
        for _ in range(5):
            graph_copy, dtlp_copy = pickle.loads(pair)
            graph_copy.apply_updates(updates)
            best = min(best, dtlp_copy.handle_updates(updates))
        return best

    return measure
