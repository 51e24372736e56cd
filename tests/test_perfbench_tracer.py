"""The benchmark's per-layer tracer still finds every name it wraps.

``perfbench/layers.py`` patches veralg functions and methods by name.  A
rename or deletion in veralg would make ``Tracer().install()`` raise inside
a benchmark run; this test makes it fail here instead, and it checks that
a build's rows still pass through the ``RowReducer.insert`` it wraps.  A
second test runs
a falsifier and checks that the generic endomorphism's ``apply`` is counted,
so that the method the tracer wraps stays on the live path.  Both run in a
child interpreter, because the tracer patches the veralg modules in place.
A last test counts the gcds of a falsify run through the module attribute
``veralg.scalars._p_gcd``, which the tracer's ``scalars.gcd`` layer wraps:
a helper that called the gcd by another name would leave that layer at 0.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from veralg import cli, scalars

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json
import layers

tracer = layers.Tracer().install()
# imported after install, so that the names bound here are the wrapped ones
from veralg.freealg import GeneratorSet, parse_element
from veralg.scalars import FieldSpec
from veralg.variety import build_truncated, builtin_variety
from veralg.verbal import VerbalSystem, check_op2, sigma_apply

field = FieldSpec(("t1",))
gens = GeneratorSet.default(2)
system = VerbalSystem.parse(field, "id", "t1", "1")
check_op2(builtin_variety("lie"), system, gens, 3)
# a/b = t1 is not rational, so check_op2 needs neither sigma on words nor a
# normal form; reach both directly
alg = build_truncated(builtin_variety("lie"), gens, 3)
u = parse_element("((x1 x2) x1) + (x2 x1)", gens, field)
sigma_apply(alg, system, alg.normal_form(u))
print(json.dumps(tracer.report()["calls"]))
"""


# the generic endomorphism on a falsifier's live path
FALSIFY_SCRIPT = """
import json
import layers

tracer = layers.Tracer().install()
from veralg import cases

cases.falsify_job(cases.load_job("aut_6"))
print(json.dumps(tracer.report()["calls"]))
"""


def _traced_calls(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_tracer_installs_and_counts_check_op2():
    calls = _traced_calls(SCRIPT)
    assert calls["verbal.check_op2"] == 1
    assert calls["variety.build"] >= 1
    # the build's rows go through the RowReducer.insert that the tracer wraps
    assert calls["variety.insert"] >= 1
    assert calls["verbal.word_transform"] >= 1
    assert calls["variety.normal_form"] >= 1


def test_tracer_counts_symbolic_apply_on_falsify():
    calls = _traced_calls(FALSIFY_SCRIPT)
    assert calls["freealg.symbolic_apply"] >= 1


def test_falsify_gcds_go_through_the_wrapped_name(monkeypatch):
    gcd = scalars._p_gcd
    calls = []

    def counting(p, q):
        calls.append(1)
        return gcd(p, q)

    monkeypatch.setattr(scalars, "_p_gcd", counting)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["falsify", "--example", "aut_6"]) == 0
    assert calls
