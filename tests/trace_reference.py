"""The trace writer's reference: trace.csv as one f-string per row, and where
two trace.csv texts first differ."""

import itertools

from uamsim.engine import time_decimals
from uamsim.switching import MODE_NAMES


def write_trace_per_row(trace, path):
    """The trace writer as one f-string per row, kept as write_trace's reference."""
    dt = trace.scenario.dt
    dec = time_decimals(dt)
    ids = trace.ids.tolist()
    columns = (trace.x, trace.h, trace.vx, trace.vy, trace.layer, trace.mode,
               trace.capacity_bps, trace.ris_partner)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,id,x,h,vx,vy,layer,mode,capacity_bps,active_ris_id\n")
        for k in range(len(trace.x)):
            stamp = f"{k * dt:.{dec}f}"
            fh.writelines(
                f"{stamp},{aid},{x:.6f},{h:.6f},{vx:.6f},{vy:.6f},"
                f"{lay},{MODE_NAMES[mode]},{cap:.6f},{ris}\n"
                for aid, x, h, vx, vy, lay, mode, cap, ris in zip(
                    ids, *(c[k].tolist() for c in columns)
                )
            )


def first_difference(written, reference, n):
    """Where two trace.csv texts of n rows per tick first differ, and both lines."""
    lines = list(itertools.zip_longest(written.split(b"\n"), reference.split(b"\n")))
    line = next(i for i, (a, b) in enumerate(lines) if a != b)
    where = "the header" if line == 0 else "(tick, row) = (%d, %d)" % divmod(line - 1, n)
    return f"first difference at line {line + 1}, {where}:\n  written   {lines[line][0]!r}\n  reference {lines[line][1]!r}"
