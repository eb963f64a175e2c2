"""The reachability sweep's recorder and report (``tools/reach.py``)."""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "reach.py"
_spec = importlib.util.spec_from_file_location("reach", TOOL)
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

# Records one call in the main process and one in a forked worker, which
# leaves through os._exit and so dumps from the wrapped _bootstrap.
SCRIPT = """
import multiprocessing, reach
reach.install()
from repro.graph import generators, road_network
road_network(3, 3, seed=1)
worker = multiprocessing.get_context("fork").Process(target=generators.grid_graph, args=(2, 2))
worker.start()
worker.join(30)
"""


def test_records_main_process_and_forked_worker_then_reports(tmp_path, capsys):
    env = {**os.environ, "REACH_OUT": str(tmp_path), "REACH_LABEL": "tier1:tests/x.py",
           "PYTHONPATH": os.pathsep.join([str(ROOT / "tools"), str(ROOT / "src")])}
    subprocess.run([sys.executable, "-c", SCRIPT], env=env, check=True, timeout=60)
    dumps = [json.loads(path.read_text()) for path in tmp_path.glob("*.json")]
    names = [{row[2] for rows in dump.values() for row in rows} for dump in dumps]
    # One dump per process; the worker's holds only what the worker ran.
    assert len(names) == 2
    assert any("grid_graph" in ran and "road_network" not in ran for ran in names)
    reached = reach.load_reached(tmp_path)
    functions = reach.enumerate_functions()
    for name in ("road_network", "grid_graph"):
        (key,) = [key for key in functions if key[2] == name]
        assert key[0] == "repro/graph/generators.py"
        assert reached[key] == {"tier1:tests/x.py"}

    reach.report(tmp_path)
    out = capsys.readouterr().out
    assert "## Reached only by tier-1" in out and "road_network" in out
    assert f"{len(functions)} functions in src/" in out
