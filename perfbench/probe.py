"""Set-up probe: one fresh interpreter, stopped when the first medium is derived.

Run as ``python3 perfbench/probe.py <patrev CLI arguments>`` with ``src`` on
PYTHONPATH.  Prints one JSON line of CLOCK_MONOTONIC stamps (interpreter up,
``patrev.cli`` imported, ``cli.main`` entered, first ``derive_medium``
returned); the parent subtracts the stamp it took before spawning.
"""

import sys
import time

started = time.monotonic()

import patrev.cli  # noqa: E402
from patrev import medium  # noqa: E402

imported = time.monotonic()


class FirstMedium(Exception):
    pass


_derive = medium.derive_medium


def _stop(raw):
    _derive(raw)
    raise FirstMedium


for name, module in list(sys.modules.items()):
    if name == "patrev" or name.startswith("patrev."):
        for key, value in list(vars(module).items()):
            if value is _derive:
                setattr(module, key, _stop)

entered = time.monotonic()
try:
    patrev.cli.main(sys.argv[1:])
except FirstMedium:
    done = time.monotonic()
else:
    sys.exit("probe: the CLI returned without deriving a medium")

import json  # noqa: E402

print(json.dumps({"started": started, "imported": imported,
                  "entered": entered, "done": done}))
