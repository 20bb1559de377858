"""The runtime imports nothing outside the standard library."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Imports every freesplit module except __main__ (which runs the CLI) and
# prints the top-level names of all loaded modules.
PROBE = """
import json, pkgutil, sys
import freesplit
for info in pkgutil.iter_modules(freesplit.__path__):
    if info.name != "__main__":
        __import__("freesplit." + info.name)
print(json.dumps(sorted({name.split(".")[0] for name in sys.modules})))
"""


def test_runtime_loads_only_stdlib_modules():
    # -S keeps site-packages and their .pth hooks out of the interpreter.
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", PROBE], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout)
    assert "freesplit" in loaded
    foreign = [
        name for name in loaded
        if name not in sys.stdlib_module_names and name not in ("freesplit", "__main__")
    ]
    assert foreign == []
