"""The runtime needs numpy only.

networkx is the oracle of the routing differential
(``tests/test_graph_differential.py``) and nothing else: a process whose
import system refuses it must still load the CLI and replay goldens that
reach every router call site (``Topology.path`` in both, the federation's
stub-never-transits route and the inter-domain circuit route in
``federation_quick``).
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

REFUSE_NETWORKX = r"""
import sys
from importlib.abc import MetaPathFinder


class RefuseNetworkx(MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "networkx":
            raise ImportError(f"{name} is refused in this process")
        return None


sys.meta_path.insert(0, RefuseNetworkx())
import repro.cli

loaded = sorted(m for m in sys.modules if m.startswith("networkx"))
assert not loaded, loaded
sys.exit(max(repro.cli.main(["run", spec, "--golden", "specs/golden.json",
                             "--no-persist"]) for spec in sys.argv[1:]))
"""


def test_cli_and_goldens_run_without_networkx():
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", REFUSE_NETWORKX,
         "specs/federation_quick.json", "specs/linecard_softfail.json"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("golden: spec and result digests match") == 2, (
        proc.stdout)
