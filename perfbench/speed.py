"""Host-speed calibration, so that times are given at one reference speed.

The small virtual machines this benchmark runs on change speed by 30% or
more, from one millisecond to the next and for minutes at a time (other
guests on the same physical cores), in CPU time as much as in wall time.
Runs of the same code then differ by more than any change a benchmark
should detect.

A Meter runs a fixed pure-Python kernel in short slices between the items
of a run: for every second an item takes, it spends SHARE of a second on
slices, so the kernel samples the same stretches of time as the items. The
mean time of the slices just before and just after an item, divided by
REF_SLICE_S, is the slowdown the item ran at; its time divided by that is
its time at the reference speed. The kernel does the kind of work noet
does (small objects, tuple hashing, dict and set updates, sorting with a
key, calls), imports nothing from noet and never changes, so a change to
noet moves the measured times and not the slowdown.
"""

from __future__ import annotations

import time

# The reference speed: one slice in 1 ms. A slice takes 0.7-1.3 ms on a
# 2.1 GHz Xeon vCPU, so reference times are close to the measured ones.
REF_SLICE_S = 0.001
SHARE = 0.25


class _Node:
    __slots__ = ("key", "rank")

    def __init__(self, key, rank):
        self.key = key
        self.rank = rank


def _rank(node):
    return (node.rank, node.key)


def kernel() -> int:
    """One slice of fixed work; returns a checksum so nothing is skipped."""
    nodes = [_Node((i % 17, i % 5), (i * 7919) % 101) for i in range(800)]
    index = {}
    seen = set()
    for node in nodes:
        index.setdefault(node.key, []).append(node)
        seen.add((node.key, node.rank))
    ordered = sorted(nodes, key=_rank)
    total = len(seen)
    for node in ordered:
        total += len(index[node.key]) + (node.key in index)
    return total


def sample(seconds: float) -> tuple:
    """Run slices for at least seconds (one at least); (count, time)."""
    count, spent = 0, 0.0
    while spent < seconds or not count:
        t0 = time.perf_counter()
        kernel()
        spent += time.perf_counter() - t0
        count += 1
    return count, spent


def slowdown(*samples) -> float:
    """Mean slice time of the samples over REF_SLICE_S."""
    return (sum(s for _, s in samples) / sum(n for n, _ in samples)
            / REF_SLICE_S)


class Meter:
    """Groups of slices interleaved with the items of one pass.

    begin() runs a group, so the first item has one before it; owe() after
    each item runs a group once SHARE of the busy time is owed (a small
    item owes less than a slice, so several items may share the gap
    between two groups); finish() runs the last group. An item's slowdown
    is that of the two groups around it, the nearest times the host's
    speed was measured. prepay() before an item that is expected to take
    long pays half of what it will owe, so that the host is sampled as
    much just before the item as just after it.
    """

    def __init__(self):
        self.debt = 0.0
        self.groups = []

    def begin(self) -> None:
        self.groups = [sample(0.002)]
        self.debt = 0.0

    def position(self) -> int:
        """The gap the next item runs in: its index in finish()."""
        return len(self.groups) - 1

    def prepay(self, expected_s: float) -> None:
        """Add slices for half of what an item of expected_s will owe to
        the group before it, if that is at least one slice."""
        budget = expected_s * SHARE / 2
        if budget >= REF_SLICE_S:
            count, spent = sample(budget)
            last_count, last_spent = self.groups[-1]
            self.groups[-1] = (last_count + count, last_spent + spent)
            self.debt -= spent

    def owe(self, busy_s: float) -> None:
        self.debt += busy_s * SHARE
        if self.debt > 0:
            self._group()

    def _group(self) -> None:
        count, spent = sample(self.debt)
        self.debt -= spent
        self.groups.append((count, spent))

    def finish(self) -> list:
        """Close the pass; the slowdown of each gap between groups."""
        self._group()
        return [slowdown(a, b) for a, b in zip(self.groups, self.groups[1:])]

    def pass_slowdown(self) -> float:
        """Mean slowdown over every slice of the pass."""
        return slowdown(*self.groups)
