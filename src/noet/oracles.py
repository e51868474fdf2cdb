"""Built-in postcondition oracles, keyed by name.

An oracle judges a finished run: given the instance context, the original
input, and the terminal state, it decides whether the promised contract
holds. Each one recomputes its answer from scratch (Euclid's algorithm, a
linear membership scan, a pairwise split check) so a broken loop cannot
vouch for itself.
"""

from __future__ import annotations

import math

from .errors import UnknownOracle
from .relations import is_minimal
from .values import Interval, IntervalSet


def _gcd(ctx, input_value, terminal) -> bool:
    a = input_value.first.value
    b = input_value.second.value
    want = math.gcd(a, b)
    return (terminal.first.value == want
            and terminal.second.value == want)


def _membership(ctx, input_value, terminal) -> bool:
    t = ctx["t"]
    x = ctx["x"]
    present = x in t
    if isinstance(terminal, Interval):
        return present == (not terminal.empty)
    if isinstance(terminal, IntervalSet):
        full = frozenset(range(1, len(t) + 1))
        return present == (terminal.union_positions() != full)
    raise UnknownOracle(f"membership cannot read terminal {terminal!r}")


def _membership_prefix(ctx, input_value, terminal) -> bool:
    # scanned prefix 1..i; stopping short of the end means a hit at i+1
    t = ctx["t"]
    x = ctx["x"]
    i = terminal.hi
    return (x in t) == (i != len(t))


def _partition_split(ctx, input_value, terminal) -> bool:
    u, cut = terminal.items
    left = u.items[:cut.lo - 1]
    right = u.items[cut.lo - 1:]
    if sorted(u.items) != sorted(input_value.items):
        return False
    if left and right and max(left) > min(right):
        return False
    return True


def _sorted_permutation(ctx, input_value, terminal) -> bool:
    u = terminal.items[0]
    if sorted(u.items) != sorted(input_value.items):
        return False
    return all(u.items[i] <= u.items[i + 1] for i in range(len(u.items) - 1))


def _minimum_characterization(ctx, input_value, terminal) -> bool:
    return is_minimal(ctx["loop"].order, terminal)


ORACLES = {
    "gcd": _gcd,
    "membership": _membership,
    "membership_prefix": _membership_prefix,
    "partition_split": _partition_split,
    "sorted_permutation": _sorted_permutation,
    "minimum_characterization": _minimum_characterization,
}


def check(name: str, ctx: dict, input_value, terminal) -> bool:
    fn = ORACLES.get(name)
    if fn is None:
        raise UnknownOracle(name)
    return fn(ctx, input_value, terminal)
