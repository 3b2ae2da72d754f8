"""Merging worker trace timelines into one batch timeline.

Every pool worker traces into its own private
:class:`~repro.telemetry.tracer.Tracer`, so every worker numbers its
tracks from scratch: pid 1 is *its* control process, pid 2 *its* first
browser. Concatenating raw worker exports would pile unrelated
sessions onto colliding pid/tid tracks. :class:`TraceMerger` remaps
each worker's pids into one coherent namespace — every (worker, pid)
pair gets a fresh pid in the merged timeline, track-naming ``M``
metadata follows along (suffixed with the worker id, so trace_viewer
shows ``repro driver [w0]``, ``BrowserWindow 0 [w1]``, ...), and tids
pass through unchanged (they are already unique within their pid).
Sessions recorded in the batch's own process come with worker id None:
their pids are remapped the same way and their track names are kept.

The merger works on exported event *dicts* (what
:meth:`~repro.telemetry.events.TraceEvent.to_dict` produces). What
actually crosses the process boundary nowadays is the packed wire
slice — raw fixed-width record bytes plus the worker's string-intern
tables (:meth:`~repro.telemetry.packed.PackedRingBuffer.wire_slice`);
:meth:`TraceMerger.add_session` detects those, decodes them against
the shipped tables (so every worker's interned name/category ids
resolve in its own namespace before remapping), and then remaps pids
exactly as it does for plain dict slices. Timestamps are preserved:
each worker's ``ts`` is relative to its own tracer start, which for a
pool means "since the worker began", so sessions overlap on the merged
timeline the way they overlapped in wall-clock reality (modulo worker
spawn skew, which is microseconds under fork).
"""


class TraceMerger:
    """Accumulates per-worker event slices into one merged trace."""

    def __init__(self, first_pid=1):
        self._pids = {}          # (worker_id, pid) -> merged pid
        self._next_pid = first_pid
        self._seen_metadata = set()
        #: Remapped track-naming metadata events (dicts), deduplicated.
        self.metadata = []
        #: Remapped trace events (dicts) across every absorbed session.
        self.events = []
        #: Ring-buffer drop count summed over workers.
        self.dropped = 0

    def add_session(self, worker_id, events, metadata=()):
        """Absorb one session slice from ``worker_id``.

        ``events`` is either a list of exported event dicts or a
        packed wire slice straight off the result queue (decoded here
        against its own intern tables); ``metadata`` is always dicts.
        Returns ``(events, metadata)`` remapped copies so the caller
        can also write a standalone per-session trace file that lines
        up with the merged timeline.
        """
        from repro.telemetry.packed import decode_wire_slice, is_wire_slice

        if is_wire_slice(events):
            events = [event.to_dict()
                      for event in decode_wire_slice(events)]
        metadata_out = []
        for event in metadata:
            remapped = self._remap(worker_id, event)
            metadata_out.append(remapped)
            key = (worker_id, event["name"], event["pid"], event["tid"])
            if key not in self._seen_metadata:
                self._seen_metadata.add(key)
                self.metadata.append(remapped)
        events_out = [self._remap(worker_id, event) for event in events]
        self.events.extend(events_out)
        return events_out, metadata_out

    def trace_dict(self):
        """The merged exportable trace object."""
        from repro.telemetry.export import to_trace_dict_raw

        return to_trace_dict_raw(self.events, metadata=self.metadata,
                                 dropped=self.dropped,
                                 total=len(self.events) + self.dropped)

    # -- remapping -----------------------------------------------------------

    def merged_pid(self, worker_id, pid):
        """The merged-timeline pid for ``pid`` as seen by ``worker_id``."""
        key = (worker_id, pid)
        merged = self._pids.get(key)
        if merged is None:
            merged = self._next_pid
            self._next_pid += 1
            self._pids[key] = merged
        return merged

    def _remap(self, worker_id, event):
        remapped = dict(event)
        merged_pid = self.merged_pid(worker_id, event["pid"])
        remapped["pid"] = merged_pid
        if event.get("ph") == "M" and event["name"] == "process_name" \
                and worker_id is not None:
            args = dict(event.get("args") or {})
            args["name"] = "%s [w%d]" % (args.get("name", "?"), worker_id)
            remapped["args"] = args
        elif event.get("ph") == "M" and event["name"] == "process_sort_index":
            # Keep the merged timeline ordered by merged pid, not by
            # each worker's local numbering.
            remapped["args"] = {"sort_index": merged_pid}
        return remapped

    def __repr__(self):
        return "TraceMerger(%d workers, %d pids, %d events)" % (
            len({worker for worker, _ in self._pids}), len(self._pids),
            len(self.events),
        )
