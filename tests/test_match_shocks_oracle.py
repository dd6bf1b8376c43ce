"""``analysis.match_shocks`` against the earlier version that rescanned
every unassigned shock of every sector for each group, kept below
verbatim as the reference.

Seeded random sets of 1-10 sectors with 0-60 shocks each, empty sectors
included, shocks listed out of start order, and starts drawn from spans
narrow enough to repeat, are matched at windows 0, 1, 5, 20, 280 and
10**6.  The groups must be equal and hold the very same ``Shock``
objects in the same order.
"""

import datetime as dt
import random
import string
from typing import Mapping, Sequence

import pytest

from volseg.analysis import DEFAULT_MATCH_WINDOW, MatchedGroup, Shock, match_shocks

WINDOWS = (0, 1, 5, 20, 280, 10**6)
SPANS = (5, 60, 600, 6000, 60_000)
CASES_PER_WINDOW = 60
T0 = dt.datetime(2002, 7, 1, tzinfo=dt.timezone.utc)


def reference_match_shocks(
    shocks_by_sector: Mapping[str, Sequence[Shock]],
    window: int = DEFAULT_MATCH_WINDOW,
) -> list[MatchedGroup]:
    """Group per-sector shocks whose starts fall within ``window``
    half-hours of a common reference (the median start of the group).

    Greedy and deterministic: the earliest unassigned shock seeds a
    group, each sector contributes its nearest unassigned shock to the
    provisional reference, and missing sectors are kept in
    ``MatchedGroup.missing``, not imputed.  Requires all sectors to
    share one sampling grid.
    """
    if len(shocks_by_sector) < 1:
        raise ValueError("need at least one sector")
    sectors = sorted(shocks_by_sector)
    unassigned: set[tuple[str, int]] = set()
    pool: dict[tuple[str, int], Shock] = {}
    for sec in sectors:
        for idx, s in enumerate(shocks_by_sector[sec]):
            pool[(sec, idx)] = s
            unassigned.add((sec, idx))

    def median(values: list[int]) -> int:
        vals = sorted(values)
        return vals[(len(vals) - 1) // 2]  # lower median: deterministic

    groups: list[MatchedGroup] = []
    while unassigned:
        seed_key = min(unassigned, key=lambda k: (pool[k].start, k[0], k[1]))
        seed = pool[seed_key]
        # provisional group: earliest unassigned per sector within a
        # forward window of the seed
        provisional: dict[str, tuple[str, int]] = {seed_key[0]: seed_key}
        for sec in sectors:
            if sec == seed_key[0]:
                continue
            cands = [
                k
                for k in unassigned
                if k[0] == sec and seed.start <= pool[k].start <= seed.start + window
            ]
            if cands:
                provisional[sec] = min(cands, key=lambda k: (pool[k].start, k[1]))
        ref = median([pool[k].start for k in provisional.values()])
        # final membership: per sector, nearest unassigned within +-window of ref
        members: dict[str, tuple[str, int]] = {seed_key[0]: seed_key}
        for sec in sectors:
            if sec == seed_key[0]:
                continue
            cands = [
                k for k in unassigned if k[0] == sec and abs(pool[k].start - ref) <= window
            ]
            if cands:
                members[sec] = min(cands, key=lambda k: (abs(pool[k].start - ref), pool[k].start, k[1]))
        chosen = [members[sec] for sec in sorted(members)]
        groups.append(
            MatchedGroup(
                reference=median([pool[k].start for k in chosen]),
                shocks=tuple(pool[k] for k in chosen),
                missing=tuple(sec for sec in sectors if sec not in members),
            )
        )
        unassigned -= set(chosen)
    groups.sort(key=lambda g: g.reference)
    return groups


def random_shocks(rng: random.Random) -> dict[str, list[Shock]]:
    """1-10 sectors, in random order, of 0-60 shocks each, some empty."""
    span = rng.choice(SPANS)
    out = {}
    for sector in rng.sample(string.ascii_uppercase, rng.randint(1, 10)):
        n = 0 if rng.random() < 0.15 else rng.randint(0, 60)
        starts = [rng.randrange(span) for _ in range(n)]
        if rng.random() < 0.5:
            starts.sort()
        out[sector] = [
            Shock(sector, "high", s, T0 + dt.timedelta(minutes=30 * s), rng.randint(1, 500), None, None)
            for s in starts
        ]
    return out


def assert_same_groups(got: list[MatchedGroup], want: list[MatchedGroup]) -> None:
    assert got == want
    assert all(a is b for g, w in zip(got, want) for a, b in zip(g.shocks, w.shocks))


@pytest.mark.parametrize("window", WINDOWS)
def test_groups_equal_the_reference(window):
    rng = random.Random(window)
    for _ in range(CASES_PER_WINDOW):
        shocks = random_shocks(rng)
        assert_same_groups(match_shocks(shocks, window), reference_match_shocks(shocks, window))

