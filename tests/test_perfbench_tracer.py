"""The benchmark's per-layer tracer still finds every name it wraps.

``perfbench/layers.py`` patches veralg functions and methods by name.  A
rename or deletion in veralg would make ``Tracer().install()`` raise inside
a benchmark run; this test makes it fail here instead.  It runs in a child
interpreter, because the tracer patches the veralg modules in place.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json
import layers

tracer = layers.Tracer().install()
# imported after install, so that the names bound here are the wrapped ones
from veralg.freealg import GeneratorSet
from veralg.scalars import FieldSpec
from veralg.variety import builtin_variety
from veralg.verbal import VerbalSystem, check_op2

system = VerbalSystem.parse(FieldSpec(("t1",)), "id", "t1", "1")
check_op2(builtin_variety("lie"), system, GeneratorSet.default(2), 3)
print(json.dumps(tracer.report()["calls"]))
"""


def test_tracer_installs_and_counts_check_op2():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]
    )
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    calls = json.loads(done.stdout.splitlines()[-1])
    assert calls["verbal.check_op2"] == 1
    assert calls["variety.build"] >= 1
    assert calls["verbal.word_transform"] >= 1
    assert calls["variety.normal_form"] >= 1
