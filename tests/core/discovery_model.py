"""A reference model of the paper's resolution algorithm (§2).

"The query is sent to a local metadata repository … If the local
metadata repository fails to resolve the user's query, using the
information on clusters' inter-relationships, the local repository
sends the query to one or more remote metadata repositories."

:func:`leads` is that algorithm as one pure function over plain dicts,
written from PAPER.md and ``docs/discovery.md`` and sharing no code with
``repro.core.discovery`` — it plays for the engine the role ``sqlite3``
plays for the SQL engine.  A *topology* is::

    {"databases":  {name: information_type},
     "coalitions": {name: {"information_type": str, "members": [name]}},
     "links": [{"from": (kind, name), "to": (kind, name),
                "information_type": str, "description": str}]}

with coalitions in creation order (a database joins its coalitions in
that order), members in join order and links in creation order.  What
one co-database knows follows the locality rule: the coalitions its
owner is a member of, and the links that touch those coalitions or the
owner itself — the coalition links first, then the owner's own
database links (§2.2's two-subclass link lattice).
"""

import re

STOP_WORDS = {"and", "or", "of", "the", "a", "an", "in", "on", "for",
              "with", "to"}


def words(text):
    return set(re.findall(r"[a-z0-9]+", text.lower())) - STOP_WORDS


def score(query, *topics):
    """Best fraction of the query's words that one of *topics* covers."""
    wanted = words(query)
    return max(len(wanted & words(topic)) / len(wanted) if wanted else 0.0
               for topic in topics)


def contact_of(topology, link):
    """Who answers for a link's target: the database itself, or the
    first member of the coalition."""
    kind, name = link["to"]
    if kind == "database":
        return name
    return next(iter(topology["coalitions"][name]["members"]), "")


def known_links(topology, database):
    own = [name for name, coalition in topology["coalitions"].items()
           if database in coalition["members"]]
    touching = [link for link in topology["links"]
                if any(end in (("database", database),
                               *(("coalition", name) for name in own))
                       for end in (link["from"], link["to"]))]
    mine = [link for link in touching
            if ("database", database) in (link["from"], link["to"])]
    return [link for link in touching if link not in mine] + mine


def leads(topology, query, start, max_hops=6, stop_at_first=True,
          threshold=0.5, down=()):
    """The leads a resolution of *query* from *start* must answer, best
    first; co-databases in *down* are consulted in vain."""
    found, seen = [], set()
    visited, frontier = {start}, [(start, [start])]
    for depth in range(max_hops + 1):
        onward = []
        for database, path in frontier:
            if database in down:
                continue
            matches = []
            for name, coalition in topology["coalitions"].items():
                if database in coalition["members"]:
                    best = score(query, coalition["information_type"], name,
                                 *(topology["databases"][member]
                                   for member in coalition["members"]))
                    if best >= threshold:
                        matches.append((-best, name))
            for best, name in sorted(matches):
                if ("coalition", name) not in seen:
                    seen.add(("coalition", name))
                    coalition = topology["coalitions"][name]
                    found.append(dict(
                        name=name, score=-best, via=path, through_link=None,
                        information_type=coalition["information_type"],
                        members=coalition["members"], contact=""))
            links = known_links(topology, database)
            for link in links:
                best = score(query, link["information_type"], link["to"][1],
                             link["description"])
                # One lead per link target, and none to a coalition
                # already answered as such.
                if best >= threshold and ("link", *link["to"]) not in seen \
                        and ("coalition", link["to"][1]) not in seen:
                    seen.add(("link", *link["to"]))
                    found.append(dict(
                        name=link["to"][1], score=best, via=path, members=[],
                        through_link="_to_".join(
                            end[1].replace(" ", "")
                            for end in (link["from"], link["to"])),
                        information_type=(link["information_type"]
                                          or link["description"]),
                        contact=contact_of(topology, link)))
            # Onward: the local coalitions' other members (depth 0 only),
            # then every link's contact, advertised topic or not.
            neighbours = [member
                          for coalition in topology["coalitions"].values()
                          if depth == 0 and database in coalition["members"]
                          for member in coalition["members"]]
            for onto in neighbours + [contact_of(topology, link)
                                      for link in links]:
                if onto and onto not in visited:
                    visited.add(onto)
                    onward.append((onto, path + [onto]))
        if stop_at_first and any(lead["score"] >= 0.999 for lead in found):
            break
        frontier = onward
    return sorted(found, key=lambda lead: (-lead["score"],
                                           len(lead["via"]) - 1,
                                           lead["name"]))
