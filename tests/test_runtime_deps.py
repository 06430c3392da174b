"""The runtime is numpy-only: importing the package and its entry points
loads no third-party module besides numpy."""

import json
import subprocess
import sys

PROBE = """
import json, sys
before = set(sys.modules)
import adq, adq.cli, adq.config, adq.reproduce, adq.nn.checkpoint
new = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(new - set(sys.stdlib_module_names))))
"""


def test_imports_only_numpy_outside_the_standard_library():
    # a fresh interpreter: this one has pytest, hypothesis and their
    # dependencies loaded already
    out = subprocess.run([sys.executable, "-c", PROBE], check=True,
                         capture_output=True, text=True).stdout
    assert set(json.loads(out)) == {"adq", "numpy"}
