"""Candidate CPU sums do not depend on string hashing.

The client seed is a set of node ids.  Summing its CPU in set order
made ``client_cpu`` (and so ``surrogate_cpu = total_cpu - client_cpu``)
move by an ulp with ``PYTHONHASHSEED``, which decided whether a
degenerate candidate passed the policy's ``surrogate_cpu > 0`` filter.
The kernel sums the seed in graph insertion order, and so does the
reference oracle it is checked against.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

from repro.core.flatgraph import FlatGraph
from repro.core.graph import ExecutionGraph
from tests.core.reference_mincut import reference_candidates

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Pinned-class CPU seconds of mixed magnitudes: most orders of adding
#: them up round to a different float than insertion order does.
_rng = random.Random(14)
SEED_CPU = [_rng.random() * 10.0 ** _rng.randrange(-12, 1) for _ in range(10)]


def seeded_graph():
    graph = ExecutionGraph()
    pinned = []
    for i, seconds in enumerate(SEED_CPU):
        name = f"ui.Pinned{i}"
        graph.add_cpu(name, seconds)
        pinned.append(name)
    for j in range(4):
        name = f"app.Worker{j}"
        graph.add_cpu(name, 0.25 * (j + 1))
        graph.add_memory(name, 1000 * (j + 1))
        graph.record_interaction(pinned[j], name, 64 * (j + 1))
        if j:
            graph.record_interaction(f"app.Worker{j - 1}", name, 32)
    return graph, pinned


def candidate_cpu_columns():
    """Kernel and reference (client_cpu, surrogate_cpu) columns, as reprs."""
    graph, pinned = seeded_graph()
    chain = FlatGraph.try_compile(graph).generate_chain(pinned)
    reference = reference_candidates(graph, pinned)
    return {
        "flat": [repr(chain.client_cpu), repr(chain.surrogate_cpu)],
        "reference": [repr([c.client_cpu for c in reference]),
                      repr([c.surrogate_cpu for c in reference])],
    }


def test_seed_cpu_is_summed_in_insertion_order():
    graph, pinned = seeded_graph()
    expected = sum(graph.node(name).cpu_seconds for name in pinned)
    chain = FlatGraph.try_compile(graph).generate_chain(pinned)
    reference = reference_candidates(graph, pinned)
    assert chain.client_cpu[0] == expected
    assert reference[0].client_cpu == expected
    assert chain.surrogate_cpu == [c.surrogate_cpu for c in reference]


def test_candidates_do_not_depend_on_the_hash_seed():
    code = (
        "import json\n"
        "from tests.core.test_seed_sum_order import candidate_cpu_columns\n"
        "print(json.dumps(candidate_cpu_columns()))\n"
    )
    outputs = set()
    for hash_seed in ("0", "5", "17", "42"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       [str(REPO_ROOT / "src"), str(REPO_ROOT)]))
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             cwd=REPO_ROOT, capture_output=True, text=True,
                             check=True)
        outputs.add(run.stdout)
    assert len(outputs) == 1
    columns = json.loads(outputs.pop())
    assert columns["flat"] == columns["reference"]
