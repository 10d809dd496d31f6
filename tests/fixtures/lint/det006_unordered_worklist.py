# repro: lint-module[repro.explore.fixture_det006]
"""Known-bad fixture: DET006 worklist containers of unproven order.

The explorer's trace coordinates and dedup layer require frontier-shaped
containers to iterate in one deterministic order; this fixture binds
them to opaque and set-flavoured values and iterates.
"""

from collections import deque


def load_frontier():
    return [(), (0,)]


def drain(entries):
    frontier = load_frontier()  # opaque constructor: order unproven
    for item in frontier:  # expect: DET006
        print(item)
    orbit_set = {e for e in entries}
    names = [x for x in orbit_set]  # expect: DET004 expect: DET006
    worklist = entries  # bare rebinding: order unproven
    return list(worklist), names  # expect: DET006


def fine(entries):
    # provably ordered bindings and order-insensitive consumers pass
    frontier_chunks = deque(entries)
    while frontier_chunks:
        frontier_chunks.popleft()
    sleep_set: list[int] = [1, 2, 3]
    for s in sleep_set:
        del s
    orbit = sorted(entries)
    biggest = max(orbit)
    return biggest, sum(1 for x in orbit)
