# repro: lint-module[repro.explore.fixture_inv002]
"""Known-bad fixture: INV002 writes to kernel tables outside the kernel."""


def poke(system, run):
    system._run_pos[123] = 0  # expect: INV002
    system._run_value_pos = {}  # expect: INV002
    run._prefixes.clear()  # mutating call, not a write target: not flagged
    run._timelines["p1"] = ()  # expect: INV002
    run._prefixes = None  # expect: INV002


def fine(system):
    # reading kernel state is allowed; only writes desynchronise it
    return len(system._run_pos)
