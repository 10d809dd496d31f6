# repro: lint-module[repro.explore.fixture_inv002]
"""Known-bad fixture: INV002 writes to kernel tables outside the kernel."""


def poke(system, checker, run):
    system._run_pos[123] = 0  # expect: INV002
    system._run_value_pos = {}  # expect: INV002
    checker._foreign_ids.clear()  # mutating call, not a write target: not flagged
    checker._foreign_refs[0] = run  # expect: INV002
    run._prefixes = None  # expect: INV002


def fine(system):
    # reading kernel state is allowed; only writes desynchronise it
    return len(system._run_pos)
