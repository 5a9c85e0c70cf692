"""The traced run: spans recorded from outside the program.

``SEAMS`` names the public entry points of each layer (the layers are
the program's package names).  ``Tracer.install`` wraps every seam that
still resolves, by attribute patching at run time — nothing under
``src/`` is edited.  A seam that no longer resolves is listed in
``Tracer.missing`` and the run carries on; a layer whose seams are all
gone reports ``null``.

A span is ``[seam, start_ns, end_ns, parent, note]`` in a per-thread
list (``parent`` indexes the same list, ``-1`` at the top).  Spans stay
in memory; :func:`analyse` turns one segment's spans into per-layer
counts, inclusive (busy) and self times, and the rows written to
``out/trace_<workload>.jsonl`` when the run ends.
"""

from __future__ import annotations

import bisect
import threading
import time

import adapter

LAYERS = ("webtassili", "core.query_processor", "core.discovery",
          "core.codatabase", "core.registry", "oodb", "orb.orb", "orb.giop",
          "orb.cdr", "orb.transport", "wrappers", "gateway", "sql")

_CODB_READS = ("find_coalitions", "known_coalitions", "subclasses_of",
               "instances_of", "describe_instance", "documents_of",
               "service_links", "neighbor_databases")
_CODB_WRITES = ("advertise", "register_coalition", "record_membership",
                "drop_membership", "add_member", "remove_member",
                "forget_coalition", "add_service_link", "remove_service_link",
                "attach_document")


def _methods(layer, module, owner, names, **flags):
    return [dict(layer=layer, module=module, name=f"{owner}.{name}", **flags)
            for name in names]


#: Every seam: layer, module, dotted name inside the module.  Functions
#: a module imported by name (``from x import f``) are patched where
#: they are *used*.  ``recursive`` seams record only the outermost call
#: (CDR ``any`` values nest); ``note`` names a NOTES extractor.
SEAMS = (
    [dict(layer="webtassili", module="repro.core.query_processor",
          name="parse"),
     dict(layer="webtassili", module="repro.webtassili.parser",
          name="parse")]
    + _methods("core.query_processor", "repro.core.query_processor",
               "QueryProcessor", ["execute"])
    + _methods("core.discovery", "repro.core.discovery", "DiscoveryEngine",
               ["discover"], note="discovery")
    + _methods("core.codatabase", "repro.core.discovery", "CoDatabaseClient",
               _CODB_READS + ("memberships",))
    + _methods("core.codatabase", "repro.core.codatabase",
               "CoDatabaseServant", _CODB_READS + ("memberships",))
    + _methods("core.codatabase", "repro.core.codatabase", "CoDatabase",
               _CODB_READS + _CODB_WRITES)
    + _methods("core.registry", "repro.core.registry", "Registry",
               ["join", "leave", "add_service_link", "remove_service_link",
                "create_coalition", "dissolve_coalition"])
    + _methods("oodb", "repro.oodb.database", "ObjectDatabase",
               ["query", "select", "extent", "create", "delete"])
    + _methods("orb.orb", "repro.orb.orb", "Orb",
               ["invoke", "_handle_message"])
    + [dict(layer="orb.giop", module="repro.orb.orb", name="encode_message"),
       dict(layer="orb.giop", module="repro.orb.orb", name="decode_message")]
    + [dict(layer="orb.cdr", module="repro.orb.cdr",
            name="CdrEncoder.write_any", recursive=True),
       dict(layer="orb.cdr", module="repro.orb.cdr",
            name="CdrDecoder.read_any", recursive=True)]
    + [dict(layer="orb.transport", module="repro.orb.transport",
            name="InMemoryNetwork.send"),
       dict(layer="orb.transport", module="repro.orb.transport",
            name="TcpTransport.send")]
    + _methods("wrappers", "repro.wrappers.remote", "RemoteIsi",
               ["invoke", "execute_native"])
    + _methods("wrappers", "repro.wrappers.remote", "IsiServant",
               ["invoke", "execute_native"])
    + [dict(layer="wrappers", module="repro.wrappers.base",
            name="InformationSourceInterface.invoke"),
       dict(layer="wrappers", module="repro.wrappers.relational",
            name="RelationalWrapper.execute_native"),
       dict(layer="wrappers", module="repro.wrappers.objectstore",
            name="ObjectDbWrapper.execute_native")]
    + _methods("gateway", "repro.gateway.api", "Cursor", ["execute"])
    + _methods("gateway", "repro.gateway.api", "Connection", ["execute"])
    + [dict(layer="gateway", module="repro.wrappers.remote",
            name="result_to_wire"),
       dict(layer="gateway", module="repro.wrappers.remote",
            name="result_from_wire")]
    + _methods("sql", "repro.sql.engine", "Database", ["execute"],
               note="sql")
)

#: What a noted seam keeps of its call: ``(args, result) -> value``.
NOTES = {
    # (hash of the SQL text, rows returned)
    "sql": lambda args, result: (hash(args[1]), len(result.rows)),
    # (co-databases contacted, metadata calls)
    "discovery": lambda args, result: (result.codatabases_contacted,
                                       result.metadata_calls),
}

SEAM, START, END, PARENT, NOTE = range(5)


def seam_label(seam) -> str:
    return f"{seam['module']}:{seam['name']}"


class Tracer:
    """Installs the seams and holds the spans they record."""

    def __init__(self, seams=SEAMS):
        self.seams = list(seams)
        self.missing: list[str] = []
        self.recording = False
        self._installed: list[tuple] = []
        self._local = threading.local()
        self._threads: list[tuple[str, list, list]] = []
        self._lock = threading.Lock()

    # ----------------------------------------------------------------- patching --

    def install(self) -> None:
        for seam_id, seam in enumerate(self.seams):
            found = adapter.resolve_seam(seam["module"], seam["name"])
            if found is None:
                self.missing.append(seam_label(seam))
                continue
            owner, attribute, function = found
            note = NOTES.get(seam.get("note"))
            setattr(owner, attribute,
                    self._wrap(seam_id, function, note,
                               seam.get("recursive", False)))
            self._installed.append((owner, attribute, function))

    def uninstall(self) -> None:
        for owner, attribute, function in reversed(self._installed):
            setattr(owner, attribute, function)
        self._installed.clear()

    def live_layers(self) -> set[str]:
        gone = set(self.missing)
        return {seam["layer"] for seam in self.seams
                if seam_label(seam) not in gone}

    def _thread_state(self):
        state = [], []
        self._local.state = state
        with self._lock:
            self._threads.append((threading.current_thread().name, *state))
        return state

    def _wrap(self, seam_id, function, note, recursive):
        tracer, local, clock = self, self._local, time.perf_counter_ns

        def traced(*args, **kwargs):
            if not tracer.recording:
                return function(*args, **kwargs)
            try:
                spans, stack = local.state
            except AttributeError:
                spans, stack = tracer._thread_state()
            if recursive and stack and spans[stack[-1]][SEAM] == seam_id:
                return function(*args, **kwargs)
            span = [seam_id, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = function(*args, **kwargs)
                if note is not None:
                    span[NOTE] = note(args, result)
                return result
            finally:
                span[END] = clock()
                stack.pop()

        traced.__name__ = getattr(function, "__name__", "traced")
        traced.__wrapped__ = function
        return traced

    # ------------------------------------------------------------------ draining --

    def drain(self) -> list[tuple[str, list]]:
        """Finished spans per thread since the last drain; call between
        segments, when no traced call is in flight."""
        with self._lock:
            taken = [(name, list(spans)) for name, spans, __ in self._threads]
            for __, spans, stack in self._threads:
                if not stack:
                    del spans[:]
        return [(name, spans) for name, spans in taken if spans]


def analyse(tracer: Tracer, threads, windows, classes, client_thread):
    """One traced segment: per-layer totals and the span rows.

    *windows* are the ``(start_ns, end_ns)`` of the statements the
    single client submitted, *classes* their statement classes.  Spans
    of other threads (a TCP server's) hang under the innermost client
    span that contains them in time — one client makes that unambiguous.

    Returns ``(totals, rows)``: ``totals[layer] = [calls, busy_ns,
    self_ns]`` plus ``"unattributed"`` / ``"by_class"`` / note tallies.
    """
    layer_of = [seam["layer"] for seam in tracer.seams]
    # The client's spans first: a span's parent must be numbered before it.
    threads = sorted(threads, key=lambda thread: thread[0] != client_thread)
    client = next((spans for name, spans in threads if name == client_thread),
                  [])
    starts = [span[START] for span in client]
    window_starts = [start for start, __ in windows]

    # Flatten to rows [gid, seam, start, end, parent_gid, thread, note].
    rows, base = [], 0
    client_base = None
    for name, spans in threads:
        if spans is client:
            client_base = base
        for span in spans:
            parent = span[PARENT]
            rows.append([len(rows), span[SEAM], span[START], span[END],
                         base + parent if parent >= 0 else -1, name,
                         span[NOTE]])
        base += len(spans)
    orphans = 0
    for row in rows:
        if row[4] >= 0 or row[5] == client_thread or client_base is None:
            continue
        index = bisect.bisect_right(starts, row[2]) - 1
        while index >= 0 and client[index][END] < row[3]:
            index = client[index][PARENT]
        if index >= 0:
            row[4] = client_base + index
        else:
            orphans += 1

    children_ns = [0] * len(rows)
    for row in rows:
        if row[4] >= 0:
            children_ns[row[4]] += row[3] - row[2]

    statement_of = [-1] * len(rows)
    totals = {layer: [0, 0, 0] for layer in LAYERS}
    by_class: dict[str, dict[str, int]] = {}
    rooted_ns = [0] * len(windows)
    sql_texts, sql_rows, finds, codbs, calls = set(), 0, 0, 0, 0
    sql_calls = 0
    for row in rows:
        gid, seam, start, end, parent = row[:5]
        if parent >= 0:
            statement = statement_of[parent]
        else:
            statement = bisect.bisect_right(window_starts, start) - 1
            if statement >= 0 and end > windows[statement][1]:
                statement = -1
            if statement >= 0 and row[5] == client_thread:
                rooted_ns[statement] += end - start
        statement_of[gid] = statement
        if statement < 0:
            continue
        layer = layer_of[seam]
        duration = end - start
        own = max(0, duration - children_ns[gid])
        total = totals[layer]
        total[0] += 1
        total[2] += own
        ancestor = parent
        while ancestor >= 0 and layer_of[rows[ancestor][1]] != layer:
            ancestor = rows[ancestor][4]
        if ancestor < 0:
            total[1] += duration
        per_class = by_class.setdefault(classes[statement], {})
        per_class[layer] = per_class.get(layer, 0) + own
        note = row[6]
        if note is not None:
            if tracer.seams[seam].get("note") == "sql":
                sql_calls += 1
                sql_texts.add(note[0])
                sql_rows += note[1]
            else:
                finds += 1
                codbs += note[0]
                calls += note[1]
    unattributed = sum((end - start) - rooted
                       for (start, end), rooted in zip(windows, rooted_ns))
    totals.update(unattributed=unattributed, by_class=by_class,
                  orphans=orphans, sql_calls=sql_calls,
                  sql_texts=len(sql_texts), sql_rows=sql_rows, finds=finds,
                  codbs=codbs, metadata_calls=calls)
    names = [seam_label(seam) for seam in tracer.seams]
    origin = windows[0][0] if windows else 0
    out = [{"id": row[0], "parent": row[4], "stmt": statement_of[row[0]],
            "name": names[row[1]], "layer": layer_of[row[1]],
            "start_ns": row[2] - origin, "end_ns": row[3] - origin,
            "thread": row[5]}
           for row in rows if statement_of[row[0]] >= 0]
    return totals, out


def layer_values(totals, live_layers, statements: int, us) -> dict:
    """One segment's per-layer metrics from :func:`analyse`'s totals;
    *us* turns nanoseconds into reference-machine microseconds.  A layer
    with no seam left reports ``None``."""
    values = {}
    for layer in LAYERS:
        calls, busy, own = totals[layer]
        gone = layer not in live_layers
        values[f"{layer}.calls_per_stmt"] = \
            None if gone else calls / statements
        values[f"{layer}.busy_us_per_stmt"] = \
            None if gone else us(busy) / statements
        values[f"{layer}.self_us_per_stmt"] = \
            None if gone else us(own) / statements
    finds = max(1, totals["finds"])
    values["core.discovery.codbs_per_find"] = totals["codbs"] / finds
    values["core.discovery.metadata_calls_per_find"] = \
        totals["metadata_calls"] / finds
    values["sql.rows_per_stmt"] = totals["sql_rows"] / statements
    values["sql.distinct_text_frac"] = \
        totals["sql_texts"] / max(1, totals["sql_calls"])
    values["trace.unattributed_us_per_stmt"] = \
        us(totals["unattributed"]) / statements
    return values
