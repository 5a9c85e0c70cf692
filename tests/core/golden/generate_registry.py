"""Generator for ``registry_scripts.json``: what the registry does.

Draws :data:`SCRIPTS` maintenance scripts from ``random.Random(SEED)``
(:func:`tests.core.registry_scripts.random_script`) and writes each
one's :func:`~tests.core.registry_scripts.record` — names, summary,
epochs, counted writes, links, every co-database's fingerprint, each
coalition's record, the floors a listener received and the refusals of
invalid operations.

The file was written by the code of the commit that first fixed
``Registry.remove_source`` to unlearn a removed source's links in its
peers (the last registry with a shard ring), from the repository root::

    PYTHONPATH=<that checkout>/src:<that checkout> \\
        python tests/core/golden/generate_registry.py

It must never be regenerated from the working tree: a change that makes
``tests/core/test_registry_golden.py`` fail has changed what a registry
operation writes, counts, notifies or refuses.
"""

import json
import pathlib
import random

from tests.core.registry_scripts import random_script, record

GOLDEN = pathlib.Path(__file__).parent / "registry_scripts.json"

SEED = 20260418
SCRIPTS = 300


def scripts():
    rng = random.Random(SEED)
    return [random_script(rng) for __ in range(SCRIPTS)]


def main():
    records = [record(script) for script in scripts()]
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        handle.write("[\n")
        handle.write(",\n".join(json.dumps(entry, sort_keys=True,
                                           separators=(",", ":"))
                                for entry in records))
        handle.write("\n]\n")


if __name__ == "__main__":
    main()
