"""The benchmark tracer (perfbench/tracing.py) must find every name it wraps.

``Tracer.install`` looks the traced functions up by name, so renaming or
deleting one (say ``rootcore.weyl_traverse`` or ``linalg.mat_det``) breaks
traced benchmark runs; this test makes it break the test suite instead.  It
runs in a subprocess because installing the tracer rebinds module attributes.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import io, sys
sys.path[:0] = sys.argv[1:3]
import twinefold, twinefold.cli
import tracing
tracer = tracing.Tracer()
tracer.install()
argv = ["eval", "A2", "flip", "--weight", "1,1", "--point", "1/9,1/9"]
assert twinefold.cli.main(argv, out=io.StringIO()) == 0
m = tracer.metrics()
# the quotient formula walks two orbits of the A1 orbit group, two elements each
assert m["cli.main.calls"] == 1, m
assert m["rootcore.weyl_traverse.calls"] == 2, m
assert m["rootcore.weyl_traverse.elements"] == 4, m
assert m["twining.jantzen_eval.calls"] == 1, m
"""


def test_tracer_installs_and_counts():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
