"""Hash-seed independence of the determinism anchors.

Bit-identity across backends and machines requires that no result
depends on Python's per-process string hash randomization: per-node
random generators are seeded from ``stable_hash``, never ``hash()``,
and set iteration is sorted wherever its order could reach an output
(for example ``sorted(stacked_now)`` in StackMR).  This test
recomputes the two golden anchors — the Figure-5 convergence curves
of ``tests/matching/golden_convergence.json`` and the canonical
encodings and hashes of ``tests/mapreduce/golden_hashes.json`` — in
two fresh interpreters with different ``PYTHONHASHSEED`` values, and
requires both to agree with each other and with the committed files.
"""

import json
import os
import subprocess
import sys

from .mapreduce.test_partitioner import GOLDEN_PATH as HASHES_PATH
from .matching.test_golden_convergence import GOLDEN_PATH as CURVES_PATH

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Recomputes both anchors and prints them as one JSON document.
_PROBE = """
import json

from repro.mapreduce import canonical_bytes, fast_hash_bytes, stable_hash
from tests.mapreduce.test_partitioner import GOLDEN_PATH
from tests.matching.test_golden_convergence import WORKLOADS, _measurements

with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
    keys = [row["key"] for row in json.load(handle)]
hashes = []
for text in keys:
    key = eval(text)  # reprs of plain literals, test-owned
    encoded = canonical_bytes(key)
    hashes.append(
        {
            "key": text,
            "canonical_hex": encoded.hex(),
            "fast_hash": fast_hash_bytes(encoded),
            "stable_hash": stable_hash(key),
        }
    )
curves = {
    name: _measurements(builder())
    for name, builder in sorted(WORKLOADS.items())
}
print(json.dumps({"curves": curves, "hashes": hashes}))
"""


def _probe(hash_seed: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO_ROOT, "src"), REPO_ROOT]
    )
    return subprocess.Popen(
        [sys.executable, "-c", _PROBE],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def test_golden_anchors_independent_of_hash_seed():
    probes = {seed: _probe(seed) for seed in ("0", "1")}
    outputs = {}
    for seed, probe in probes.items():
        stdout, stderr = probe.communicate(timeout=300)
        assert probe.returncode == 0, stderr
        outputs[seed] = json.loads(stdout)
    assert outputs["0"] == outputs["1"]
    with open(CURVES_PATH, "r", encoding="utf-8") as handle:
        assert outputs["0"]["curves"] == json.load(handle)
    with open(HASHES_PATH, "r", encoding="utf-8") as handle:
        assert outputs["0"]["hashes"] == json.load(handle)
