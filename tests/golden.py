"""The committed outputs of every energy report and reproduced table.

    PYTHONPATH=src python tests/golden.py --write

``energy_outputs()`` runs ``adq.cli.main`` in-process. It records the exit
code, stdout and stderr of ``adq energy --list``, of ``adq energy --preset P
--model M --out DIR`` for every preset and model (with the sha256 of each
report file), and of ``adq reproduce --table T`` (with every cell at full
precision; stdout rounds to 6 digits). These are Python float arithmetic
and text, so no CPU, BLAS build or Python version moves them.
``tests/test_golden.py`` compares them with ``tests/golden/energy.json``.
Rewrite that file only in a change that means to move those bytes, and name
each moved entry in CHANGES.md.
"""
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from dataclasses import astuple

from adq.cli import main
from adq.presets import preset_names
from adq.reproduce import compute_table

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "energy.json")


def _run(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def energy_outputs() -> dict:
    """{command line: its outputs}, in a fixed order."""
    outputs = {"energy --list": _run(["energy", "--list"])}
    for name in preset_names():
        for model in ("analytical", "pim"):
            argv = ["energy", "--preset", name, "--model", model, "--out"]
            with tempfile.TemporaryDirectory() as tmp:
                entry = _run(argv + [tmp])
                entry["stdout"] = entry["stdout"].replace(tmp, "DIR")
                entry["files"] = {}
                for fname in sorted(os.listdir(tmp)):
                    with open(os.path.join(tmp, fname), "rb") as f:
                        entry["files"][fname] = hashlib.sha256(
                            f.read()).hexdigest()
            outputs[" ".join(argv + ["DIR"])] = entry
    for table in ("1", "2", "4", "5"):
        entry = _run(["reproduce", "--table", table])
        entry["cells"] = [repr(astuple(c)) for c in compute_table(table)]
        outputs[f"reproduce --table {table}"] = entry
    return outputs


def encode(outputs: dict) -> str:
    return json.dumps(outputs, indent=1) + "\n"


def read_golden() -> dict:
    with open(GOLDEN) as f:
        return json.load(f)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/golden.py --write")
    with open(GOLDEN, "w") as f:
        f.write(encode(energy_outputs()))
