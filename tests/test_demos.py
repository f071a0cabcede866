"""Every demo script runs to completion and prints the same bytes as before.

Each digest is the sha256 of the demo's stdout, recorded at commit 68ea609,
before the character table stopped keeping its own copy of the class data
(demo 03 reads the class labels and sizes).
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

STDOUT_SHA256 = {
    "01_zsigmondy_primes.py": "eda688b638a3c885f3072ad4fb3920bfeeed411068da6f05736f4192f54fd17f",
    "02_groups_and_classes.py": "b67d4c5ca5f47bc7c7229320ef004a51d2bf1419a5c78a3aefa42064a19ca56c",
    "03_character_tables.py": "7673ec156bf2705c9b17debe5fcbd55499f328aa211478fea9deb4a3dd8ae09a",
    "04_structure_constants.py": "e957050d596132f223446d37b2c59bee48f2199d67a779559756e1cb2ad66d67",
    "05_character_bound.py": "ead1220d232a82dd04247a85a75c42123fe4b83939528c4b2f255cd34aeaff0e",
    "06_point_count.py": "cfe3cf5cb7c8406be904cd8048524c8e322a253a31e741a07f214d0977cca1be",
    "07_beauville_search.py": "5417632b760a363d9ae99946a1540accdbc8ad757ea356e4e5b97da56e0f27d5",
    "08_generating_class_pairs.py": "cee6820a1f4110766427b01928bdcd3ec1a2ba2630cbd7948bcb28ee53962e85",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_SHA256[demo.name]
