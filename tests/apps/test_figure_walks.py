"""The paper's Figure 4–6 session, pinned byte for byte.

``figure_walks_golden.json`` holds, for every statement of the walk
below, the ``WtResult`` the in-memory healthcare federation gave at the
commit *before* model objects became CDR value types (PR 19,
``2d8be30``): its ``kind``, the type of every node of its ``data`` and
its rendered ``text``.  What a user is shown must not depend on how a
description crossed the wire, so the same walk is run twice (cold, then
warm) over every deployment shape — in-memory, loopback TCP, a
process-local ``metadata_cache``, two replicas — and must reproduce
the golden each time; only the cost line of a discovery (``N metadata
calls``) may differ, since a warm cache answers some of them.

A cache shares one value between callers.  The second half walks the
same session over a warm cache and finds its contents unchanged — also
after a caller scribbles on what it was handed.

Regenerate (only to add statements): ``PYTHONPATH=src python
tests/apps/test_figure_walks.py > tests/apps/figure_walks_golden.json``
*on the commit whose behaviour is the reference*.
"""

import copy
import json
import os
import re
import sys

import pytest

from repro.apps.healthcare import build_healthcare_system
from repro.apps.healthcare import topology as topo
from repro.apps.healthcare.data import AIDS_PROJECT_TITLE
from repro.core.metacache import MetadataCache
from repro.orb.transport import TcpTransport

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "figure_walks_golden.json")


def walk(browser):
    """The §2.3 / Figure 4–6 session, one ``WtResult`` per step."""
    return [
        browser.submit("Display Coalitions With Information "
                       "Medical Research"),
        browser.submit("Find Sources With Information Medical Research"),
        browser.connect_coalition("Research"),
        browser.subclasses("Research"),
        browser.instances("Research"),
        browser.documentation(topo.RBH, "Research"),
        browser.access_information(topo.RBH),
        browser.submit(f"Display Structure of Instance '{topo.RBH}'"),
        browser.interface(topo.RBH),
        browser.connect_database(topo.RBH),
        browser.submit("Display Service Links of Coalition Medical"),
        browser.invoke(topo.RBH, "ResearchProjects", "Funding",
                       AIDS_PROJECT_TITLE),
        browser.submit("Invoke Funding Of Type ResearchProjects On "
                       f"Coalition Research With ('{AIDS_PROJECT_TITLE}')"),
        browser.fetch(topo.RBH, "SELECT * FROM MedicalStudent"),
        # Object-store answers are plain structs, before and after.
        browser.invoke(topo.PRINCE_CHARLES, "CardiacCare", "PatientsInWard",
                       "Cardiac A"),
        browser.fetch(topo.AMBULANCE,
                      "SELECT callout_no FROM Callout WHERE priority = 1"),
        browser.find("Medical Insurance"),
    ]


def shape(value):
    """The type of every node of a ``WtResult.data``."""
    if isinstance(value, (list, tuple)):
        return [shape(item) for item in value]
    if isinstance(value, dict):
        return {key: shape(item) for key, item in value.items()}
    return type(value).__name__


def observed(results):
    return [[result.kind, shape(result.data), result.text]
            for result in results]


def without_cost(rows):
    """A cache legitimately changes how many calls a discovery made."""
    return [[kind, types, re.sub(r"\d+ metadata calls", "N metadata calls",
                                 text)]
            for kind, types, text in rows]


CELLS = {
    "mem": {},
    "tcp": {"transport": TcpTransport},
    "metadata-cache": {"metadata_cache": MetadataCache},
    "two-replicas": {"replication_factor": 2},
}


def deploy(cell):
    """(deployment, transport to close or None) for one named cell;
    classes among the options are instantiated fresh."""
    options = {key: value() if isinstance(value, type) else value
               for key, value in CELLS[cell].items()}
    return (build_healthcare_system(**options), options.get("transport"))


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


@pytest.mark.parametrize("cell", CELLS)
def test_walk_matches_the_parent_commit_cold_and_warm(cell, golden):
    deployment, transport = deploy(cell)
    try:
        cold = observed(walk(deployment.browser(topo.QUT)))
        warm = observed(walk(deployment.browser(topo.QUT)))
    finally:
        if transport is not None:
            transport.close()
    if cell == "mem":
        assert cold == golden  # cost lines included
    assert without_cost(cold) == without_cost(golden)
    assert without_cost(warm) == without_cost(golden)


def test_the_transcript_of_the_walk_is_the_parents_byte_for_byte():
    """``figure_walks_transcript.txt`` is ``render_transcript()`` of this
    walk at ``eb762ab``, where the transcript held rendered strings; it
    now holds the results and renders on demand."""
    browser = build_healthcare_system().browser(topo.QUT)
    results = walk(browser)
    assert len(browser.transcript) == len(results) == 17
    assert all(kept is result for (__, kept), result
               in zip(browser.transcript, results))
    with open(GOLDEN.replace("_golden.json", "_transcript.txt")) as handle:
        assert browser.render_transcript() == handle.read()


def cache_contents(system):
    """A deep snapshot of every value the deployment's cache holds."""
    return copy.deepcopy({key: value for key, (__, value, __unused)
                          in system.metadata_cache._entries.items()})


@pytest.mark.parametrize("cell", ["metadata-cache"])
def test_walking_a_warm_cache_leaves_its_contents_unchanged(cell):
    deployment, __ = deploy(cell)
    system = deployment.system
    walk(deployment.browser(topo.QUT))          # fill
    warmer = system.codatabase_client(topo.RBH)
    warmer.known_coalitions()
    warmer.find_coalitions("Medical Research")
    warmer.service_links()
    before = cache_contents(system)
    assert before
    for __ in range(2):
        walk(deployment.browser(topo.QUT))
    assert cache_contents(system) == before

    # What a hit hands out is the caller's own: scribbling on it reaches
    # neither the cache nor the next caller.
    client = system.codatabase_client(topo.RBH)
    hits = client.cache_hits
    coalitions = client.known_coalitions()
    matches = client.find_coalitions("Medical Research")
    links = client.service_links()
    assert client.cache_hits == hits + 3
    coalitions[0].members.append("Mallory")
    coalitions[0].name = "Scribbled"
    coalitions.clear()
    matches[0]["name"] = "Scribbled"
    matches.clear()
    links.clear()
    assert cache_contents(system) == before
    again = system.codatabase_client(topo.RBH)
    assert "Mallory" not in again.known_coalitions()[0].members
    assert again.find_coalitions("Medical Research")[0]["name"] \
        != "Scribbled"
    assert again.service_links()


def test_in_process_client_does_not_hand_out_the_stored_advertisement():
    """``describe_instance`` of the owner answers from the co-database's
    own ``local_description``; the client's copy keeps it private."""
    from repro.core.discovery import CoDatabaseClient

    deployment, __ = deploy("mem")
    codatabase = deployment.system.registry.codatabase(topo.RBH)
    client = CoDatabaseClient.for_local(codatabase)
    description = client.describe_instance(topo.RBH)
    assert description == codatabase.local_description
    description.interface.append("Scribbled")
    assert "Scribbled" not in codatabase.local_description.interface


if __name__ == "__main__":
    json.dump(observed(walk(deploy("mem")[0].browser(topo.QUT))),
              sys.stdout, indent=1)
    sys.stdout.write("\n")
