"""Print the traced memory of each stage of one specbounds command.

    PYTHONPATH=src python tests/stage_memory.py report --generate random:800 --centers every:4

runs the stages of the command in process, as `specbounds` would, under
tracemalloc, and prints one line per stage: its name, the peak of traced
memory while it ran and the memory still traced after it, in MiB, and then
the largest peak.  tracemalloc starts after the arguments are parsed and
before the first stage, so a stage's peak counts what earlier stages keep
(the distance table, the context's cached quantities) plus its own
transients.  Memory that numpy and Python do not allocate (OpenBLAS and
SuperLU workspaces) is not traced.  Neither is the distance table when
compute_metric forks, since it then lives in an anonymous shared mapping;
its bytes are added to the peak and live memory of the stage that makes
it and of every later stage, as they count a table numpy allocated.
pytest does not collect this file: its name does not start with test_.
"""

from __future__ import annotations

import mmap
import sys
import tracemalloc

import numpy as np

from specbounds import cli

MIB = 1 << 20


def stage_memory(argv: list[str]) -> tuple[list[tuple[str, int, int]], cli._Run]:
    """Run the stages of one command under tracemalloc.  Returns (stage,
    peak bytes, live bytes after it) per stage, in run order, and the run
    state, whose context holds what the stages cached."""
    args = cli.build_parser().parse_args(cli.join_negative_ranges(argv))
    cli._check_numbers(args)
    state = cli._Run(args)
    stages = []
    tracemalloc.start()
    try:
        for name in cli.COMMANDS[args.command]:
            tracemalloc.reset_peak()
            cli.STAGES[name](state)
            live, peak = tracemalloc.get_traced_memory()
            table = untraced_table_bytes(state)
            stages.append((name, peak + table, live + table))
    finally:
        tracemalloc.stop()
    return stages, state


def untraced_table_bytes(state: cli._Run) -> int:
    """The bytes of the context's distance table when it lives in an
    anonymous shared mapping, which tracemalloc does not see; 0 before the
    table exists or when numpy allocated it."""
    md = vars(state.ctx).get("metric") if state.ctx is not None else None
    if md is None:
        return 0
    base = md.dist
    while isinstance(base, np.ndarray):
        base = base.base
    return md.dist.nbytes if isinstance(base, memoryview) and isinstance(base.obj, mmap.mmap) else 0


def main(argv: list[str]) -> int:
    if not argv or argv[0] not in cli.COMMANDS:
        print("usage: python tests/stage_memory.py COMMAND [OPTIONS]", file=sys.stderr)
        return 1
    stages, _ = stage_memory(argv)
    print(f"{'stage':<20}{'peak MiB':>10}{'live MiB':>10}")
    for name, peak, live in stages:
        print(f"{name:<20}{peak / MIB:10.2f}{live / MIB:10.2f}")
    print(f"{'largest peak':<20}{max(peak for _, peak, _ in stages) / MIB:10.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
