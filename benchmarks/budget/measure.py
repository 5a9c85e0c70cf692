"""Clock-noise handling: the calibration kernel, normalisation to a
reference machine speed, percentiles and per-run aggregation.

Raw timings of identical code drift by ±20 % between back-to-back runs
on a shared host, and by as much within a second.  A short fixed
pure-Python kernel is therefore run *between statements*, every few
milliseconds all through a segment; the mean of a segment's kernel
times says how fast the machine was while that segment ran.  A time
measured in the segment is scaled by ``CALIB_REF_MS / calib_ms(segment)``,
so it reads in microseconds "on the reference machine", and the
reported value is the median over segments.  Rates are scaled the
other way.
"""

from __future__ import annotations

import os
import resource
import statistics
import struct
import time

#: What one kernel run took on the machine the seed numbers were
#: recorded on.  A constant: changing it rescales every time metric.
CALIB_REF_MS = 0.5

#: A client runs the kernel once it has gone this long without.
CALIB_EVERY_NS = 8_000_000

_KERNEL_TEXT = ("Find Coalitions With Information 'Medical Research' "
                "Structure (Funding, Title); SELECT a, b FROM t "
                "WHERE x = 12 AND y = 'abc'")
_KERNEL_VALUE = {
    "name": "Research", "information_type": "Medical Research", "score": 1.0,
    "members": ["QUT Research", "RMIT Medical Research",
                "Queensland Cancer Fund", "Royal Brisbane Hospital"],
    "rows": [[n, f"Patient {n:04d}", 1.5 * n, n % 2 == 0] for n in range(6)],
}
_KERNEL_ROUNDS = 10


class _Token:
    __slots__ = ("kind", "value", "position")

    def __init__(self, kind, value, position):
        self.kind = kind
        self.value = value
        self.position = position


def _tokens(text: str) -> list[_Token]:
    out, i, n = [], 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(_Token("word", text[i:j], i))
            i = j
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(_Token("number", int(text[i:j]), i))
            i = j
        elif ch == "'":
            j = text.index("'", i + 1)
            out.append(_Token("string", text[i + 1:j], i))
            i = j + 1
        else:
            out.append(_Token("punct", ch, i))
            i += 1
    return out


def _marshal(value, out: list) -> None:
    if isinstance(value, bool):
        out.append(b"\x01" if value else b"\x00")
    elif isinstance(value, int):
        out.append(struct.pack(">q", value))
    elif isinstance(value, float):
        out.append(struct.pack(">d", value))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(struct.pack(">I", len(raw)))
        out.append(raw)
    elif isinstance(value, list):
        out.append(struct.pack(">I", len(value)))
        for item in value:
            _marshal(item, out)
    else:
        out.append(struct.pack(">I", len(value)))
        for key, item in value.items():
            _marshal(key, out)
            _marshal(item, out)


def calibration_kernel() -> int:
    """About half a millisecond of work shaped like the program's own
    — scan a statement into token objects, count words in a dict, sort,
    marshal a nested value through recursive type dispatch — and short
    enough to slip between two statements.  A kernel of this shape
    tracked the program's slow-downs better than a tight arithmetic
    loop did (residual 2.7 % against 3.9 % over 5 s windows)."""
    total = 0
    for _ in range(_KERNEL_ROUNDS):
        tokens = _tokens(_KERNEL_TEXT)
        words: dict[str, int] = {}
        for token in tokens:
            if token.kind == "word":
                key = token.value.upper()
                words[key] = words.get(key, 0) + 1
        out: list[bytes] = []
        _marshal(_KERNEL_VALUE, out)
        _marshal([token.value for token in tokens], out)
        ranked = sorted(words.items(), key=lambda item: (-item[1], item[0]))
        total += len(b"".join(out)) + len(ranked)
    return total


def kernel_ns() -> int:
    """One timed kernel run."""
    start = time.perf_counter_ns()
    calibration_kernel()
    return time.perf_counter_ns() - start


def calibrate(runs: int = 20) -> float:
    """Mean of *runs* back-to-back kernel runs, in milliseconds; for
    work that has no statements to interleave the kernel with."""
    return statistics.fmean(kernel_ns() for _ in range(runs)) / 1e6


def percentile(values, q: float) -> float:
    """The *q*-th percentile (0–100) with linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def to_reference(value: float, calib_ms: float) -> float:
    """A duration measured while the kernel took *calib_ms*, as it
    would read on the reference machine."""
    return value * CALIB_REF_MS / calib_ms


def rate_to_reference(value: float, calib_ms: float) -> float:
    return value * calib_ms / CALIB_REF_MS


def median_over_segments(per_segment: list[dict]) -> dict:
    """Median of each metric over the segments that report it."""
    names = {name for segment in per_segment for name in segment}
    return {name: statistics.median(segment[name] for segment in per_segment
                                    if name in segment)
            for name in sorted(names)}


def pin_to_one_cpu():
    """Pin this process (and every thread it starts later) to the
    highest-numbered CPU it may use; ``None`` where unsupported."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def spread(values) -> float:
    """(max − min) / median, the A/A agreement measure of ``--repeat``."""
    values = list(values)
    return (max(values) - min(values)) / statistics.median(values)
