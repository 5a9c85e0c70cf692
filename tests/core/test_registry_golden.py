"""What the registry writes, counts, notifies and refuses, pinned.

``golden/registry_scripts.json`` holds :func:`record` of 300 seeded
maintenance scripts as an earlier registry produced it (see
``golden/generate_registry.py``; never regenerate it from the working
tree).  The working tree must reproduce every record: the same names,
summary, epochs and counted writes after each step, the same links,
co-database contents and coalition records, the same floors delivered
to a listener in the same order, and the same refusals.
"""

import json

from hypothesis import given, settings

from repro.core.registry import Registry
from repro.core.service_link import EndpointKind
from tests.core.golden import generate_registry as gen
from tests.core.registry_scripts import (maintenance_scripts, record,
                                         run_script)

import pytest

GOLDEN = json.loads(gen.GOLDEN.read_text(encoding="utf-8"))


def test_golden_holds_every_seeded_script():
    assert len(GOLDEN) == gen.SCRIPTS


@pytest.mark.parametrize("index", range(gen.SCRIPTS),
                         ids=lambda index: f"script-{index:03d}")
def test_script_reproduces_its_record(index):
    expected = GOLDEN[index]
    actual = record(expected["script"])
    for key in expected:
        assert actual[key] == expected[key], key
    assert actual == expected


@given(maintenance_scripts())
@settings(max_examples=60, deadline=None)
def test_every_codatabase_holds_exactly_its_links(script):
    """After any script, a co-database holds a link exactly when its
    owner is a database endpoint or a member of a coalition endpoint,
    and no link names a removed source."""
    registry = Registry()
    __, sources, __ = run_script(registry, script)
    links = registry.service_links()
    for name in sources:
        expected = sorted(
            link.label for link in links
            if link.involves(EndpointKind.DATABASE, name)
            or any(link.involves(EndpointKind.COALITION, coalition)
                   for coalition in registry.codatabase(name).memberships))
        held = sorted(link.label
                      for link in registry.codatabase(name).service_links())
        assert held == expected, name
    for link in links:
        for kind, name in ((link.from_kind, link.from_name),
                           (link.to_kind, link.to_name)):
            if kind is EndpointKind.DATABASE:
                assert name in sources
