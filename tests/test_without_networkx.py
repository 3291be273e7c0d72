"""The daemon and the cold sweep run in an interpreter that cannot import networkx.

``networkx`` is needed only by ``random_regular_graph`` and the converters
(``to_networkx``, ``from_networkx``, ``is_isomorphic_to``); nothing on the
serving or sweep path may import it, so a process pays neither its start-up
time nor its memory.
"""

import json
import os
import subprocess
import sys
import textwrap

from repro.service.protocol import QueryRequest
from repro.service.resolver import Resolver
from repro.sweep.executor import evaluate_timed, run_instances
from repro.sweep.scenarios import build_instances

SCENARIOS = ("separations", "coloring-cycles", "fagin", "locality")
TREE_SPEC = {"arbiter": "2-colorable", "family": "tree", "n": 12, "seed": 3, "scheme": "sequential"}


def _verdicts():
    """Each scenario's verdicts, plus the tree spec's key and verdict."""
    out = {name: run_instances(build_instances(name), store=None).verdicts for name in SCENARIOS}
    resolved = Resolver().resolve(QueryRequest(spec=TREE_SPEC))
    (verdict,), _ = evaluate_timed([resolved.instance])
    out["tree"] = [resolved.key, verdict]
    return out


def test_daemon_and_sweep_run_without_networkx():
    script = textwrap.dedent(
        """
        import json, sys
        sys.modules["networkx"] = None  # any import of it now raises ImportError
        import repro.service.server, repro.service.cli
        sys.path.insert(0, sys.argv[1])
        from test_without_networkx import _verdicts
        print(json.dumps(_verdicts()))
        """
    )
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", script, here],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert json.loads(completed.stdout) == json.loads(json.dumps(_verdicts()))
