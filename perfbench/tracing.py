"""Layer spans and work counters recorded from outside the ``repro`` package.

The tracer never edits the program: it replaces a callable's attribute
in the module (or class) that *calls* it with a wrapper, and puts the
original back on :meth:`Tracer.uninstall`.  The wrappers record into a
standalone :class:`repro.obs.telemetry.Recorder` (nested spans with
parent links, counters, the repo's JSONL trace format).  That recorder
is never installed as the process-wide backend, so the program's own
telemetry stays off while the benchmark traces it.

Span names are ``<module>.<what>`` where ``<module>`` is the ``repro``
subpackage whose code runs inside the span.  The benchmark's own
operation spans use the ``op`` prefix; their self time is harness and
program glue that no layer span covers, reported as *unattributed*.

A wrap target that no longer exists (a later refactor renamed it) is
not an error: it is listed in :attr:`Tracer.missing`, printed with the
self-time table, and its time shows up as unattributed.
"""

from __future__ import annotations

import functools
from pathlib import Path
from typing import Callable

from repro.obs.report import render_top_spans
from repro.obs.telemetry import Recorder
from repro.obs.trace import trace_from_recorder, write_trace

#: The harness prefix; everything else is a ``repro`` layer.
OP_PREFIX = "op."


class Tracer:
    """Patches layer entry points to record into one :class:`Recorder`."""

    def __init__(self) -> None:
        self.recorder = Recorder()
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    def span(self, name: str):
        return self.recorder.span(name)

    def wrap(
        self,
        owner: object,
        attr: str,
        span: str | None = None,
        count: str | None = None,
        on_result: Callable[[Recorder, tuple, dict, object], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``span`` names the span recorded per call (``None`` records no
        span, for functions too small to time); ``count`` names a
        counter bumped per call; ``on_result`` derives further counts
        from ``(recorder, args, kwargs, result)``.
        """
        own = attr in vars(owner)
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        recorder = self.recorder

        if span is None and on_result is None:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                recorder.count(count)
                return original(*args, **kwargs)
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if count is not None:
                    recorder.count(count)
                if span is None:
                    result = original(*args, **kwargs)
                else:
                    with recorder.span(span):
                        result = original(*args, **kwargs)
                if on_result is not None:
                    on_result(recorder, args, kwargs, result)
                return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, own))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def self_times(self) -> dict[str, tuple[int, float]]:
        """``name -> (calls, self seconds)``: duration minus child spans."""
        table: dict[str, tuple[int, float]] = {}
        for span in self.recorder.all_spans():
            covered = sum(child.duration_s for child in span.children)
            calls, secs = table.get(span.name, (0, 0.0))
            table[span.name] = (calls + 1, secs + span.duration_s - covered)
        return table

    def dump(self, path: Path) -> None:
        """Write every span and counter as the repo's JSONL trace."""
        self.recorder.meta["missing"] = list(self.missing)
        write_trace(path, self.recorder)


def self_time_table(tracer: Tracer, wall_s: float) -> tuple[str, float]:
    """Render the per-span self-time table; return it and the
    unattributed share of ``wall_s`` (time under no layer span)."""
    times = tracer.self_times()
    attributed = sum(
        secs for name, (_, secs) in times.items()
        if not name.startswith(OP_PREFIX)
    )
    unattributed = wall_s - attributed
    lines = [
        render_top_spans(
            trace_from_recorder(tracer.recorder), top=len(times)
        ).rstrip("\n"),
        f"({OP_PREFIX}* rows are the benchmark's own spans; their self "
        f"time counts as unattributed)",
        f"layer self time  {attributed:10.3f} s  {attributed / wall_s:6.1%}",
        f"unattributed     {unattributed:10.3f} s  "
        f"{unattributed / wall_s:6.1%}",
        f"traced wall      {wall_s:10.3f} s  {1:6.0%}",
    ]
    if tracer.missing:
        lines.append("missing wrap targets: " + ", ".join(tracer.missing))
    return "\n".join(lines), unattributed / wall_s
