"""Acceptance gate: the headline experiment claims, one numbered check each.

Every test records one `ACCEPTANCE-NN PASS/FAIL: detail` line (repeated in
the terminal summary) so a red run shows exactly which claim broke and by
how much.
"""

import csv
import io
import random
import time
from collections import namedtuple

import pytest

from vcachesim.cli import main
from vcachesim.content import ContentItem, LruStore
from vcachesim.engine import Simulation
from vcachesim.metrics import (
    TARGET_ALL_RSUS,
    sample_grid,
    write_cdt_csv,
    write_chr_csv,
    write_rsu_requests_csv,
    write_server_requests_csv,
)
from vcachesim.scenarios import highway_multi, highway_single, urban_multi, urban_single
from vcachesim.simcore import seconds_to_us

SEEDS = range(1, 11)

Run = namedtuple("Run", "sim result elapsed_s")


def timed_run(cfg):
    start = time.perf_counter()
    sim = Simulation(cfg)
    result = sim.run()
    return Run(sim, result, time.perf_counter() - start)


def final_cdt_us(run):
    value = run.result.ledger.final_avg_cdt_us()
    assert value is not None
    return value


def mean(values):
    values = list(values)
    return sum(values) / len(values)


@pytest.fixture(scope="module")
def urban40():
    start = time.perf_counter()
    runs = {
        (caching, seed): timed_run(urban_single(40, caching=caching, seed=seed))
        for caching in (True, False)
        for seed in SEEDS
    }
    return runs, time.perf_counter() - start


@pytest.fixture(scope="module")
def highway():
    start = time.perf_counter()
    runs = {
        (caching, seed): timed_run(highway_single(caching=caching, seed=seed))
        for caching in (True, False)
        for seed in SEEDS
    }
    return runs, time.perf_counter() - start


@pytest.fixture(scope="module")
def chain():
    return {seed: timed_run(highway_multi(seed=seed)) for seed in SEEDS}


@pytest.fixture(scope="module")
def twin_rsu():
    return {seed: timed_run(urban_multi(40, seed=seed)) for seed in SEEDS}


def test_acceptance_01_server_load_collapses_to_distinct_names(urban40, acceptance):
    runs, _ = urban40
    cached = runs[(True, 1)]
    plain = runs[(False, 1)]

    distinct = {
        agent.wanted
        for agent in cached.sim.vehicles.values()
        if agent.requests_sent > 0
    }
    cached_server = cached.result.server_fetches
    plain_server = plain.result.server_fetches
    plain_rsu = plain.result.ledger.total_rsu_requests(TARGET_ALL_RSUS)

    ok = (
        cached_server <= 10
        and cached_server == len(distinct)
        and plain_server == plain_rsu == 40
        and cached.elapsed_s < 5.0
        and plain.elapsed_s < 5.0
    )
    acceptance(
        1,
        ok,
        f"cached server={cached_server} distinct={len(distinct)} "
        f"nocache server={plain_server} rsu={plain_rsu} "
        f"runtimes={cached.elapsed_s:.2f}s/{plain.elapsed_s:.2f}s",
    )


def test_acceptance_02_urban_caching_halves_cdt(urban40, acceptance):
    runs, elapsed = urban40
    cached = mean(final_cdt_us(runs[(True, s)]) for s in SEEDS)
    plain = mean(final_cdt_us(runs[(False, s)]) for s in SEEDS)
    ratio = cached / plain
    ok = ratio <= 0.55 and elapsed < 60.0
    acceptance(
        2,
        ok,
        f"cached={cached:.0f}us nocache={plain:.0f}us ratio={ratio:.3f} "
        f"(bound 0.55), {len(SEEDS) * 2} runs in {elapsed:.1f}s",
    )


def test_acceptance_03_highway_caching_lands_in_band(highway, acceptance):
    runs, elapsed = highway
    cached = mean(final_cdt_us(runs[(True, s)]) for s in SEEDS)
    plain = mean(final_cdt_us(runs[(False, s)]) for s in SEEDS)
    ratio = cached / plain
    ok = 0.25 <= ratio <= 0.45 and elapsed < 180.0
    acceptance(
        3,
        ok,
        f"cached={cached:.0f}us nocache={plain:.0f}us ratio={ratio:.3f} "
        f"(band [0.25, 0.45]), {len(SEEDS) * 2} runs in {elapsed:.1f}s",
    )


def test_acceptance_04_urban_hit_ratio_band(urban40, acceptance):
    runs, _ = urban40
    ratios = [runs[(True, s)].result.ledger.final_chr(TARGET_ALL_RSUS) for s in SEEDS]
    assert all(r is not None for r in ratios)
    avg = mean(ratios)
    ok = 0.55 <= avg <= 0.85
    acceptance(
        4,
        ok,
        f"mean CHR={avg:.3f} over seeds {min(ratios):.3f}..{max(ratios):.3f} "
        f"(band [0.55, 0.85])",
    )


def test_acceptance_05_relay_chain_beats_single_rsu(highway, chain, acceptance):
    single_runs, _ = highway
    multi_cdt = mean(final_cdt_us(chain[s]) for s in SEEDS)
    single_cdt = mean(final_cdt_us(single_runs[(True, s)]) for s in SEEDS)
    per_seed_strict = all(
        final_cdt_us(chain[s]) < final_cdt_us(single_runs[(True, s)]) for s in SEEDS
    )

    multi_rsu = sum(
        chain[s].result.ledger.total_rsu_requests(TARGET_ALL_RSUS) for s in SEEDS
    )
    single_rsu = sum(
        single_runs[(True, s)].result.ledger.total_rsu_requests(TARGET_ALL_RSUS)
        for s in SEEDS
    )
    reduction = multi_rsu / single_rsu

    ok = multi_cdt < single_cdt and per_seed_strict and 0.3 <= reduction <= 0.7
    acceptance(
        5,
        ok,
        f"cdt multi={multi_cdt:.0f}us < single={single_cdt:.0f}us "
        f"(strict per seed: {per_seed_strict}); rsu requests {multi_rsu}/{single_rsu}"
        f"={reduction:.3f} (band [0.3, 0.7])",
    )


def test_acceptance_06_twin_rsus_share_the_load(twin_rsu, acceptance):
    worst = 1.0
    for run in twin_rsu.values():
        ledger = run.result.ledger
        per_rsu = [ledger.total_rsu_requests(rid) for rid in ledger.rsu_ids]
        total = sum(per_rsu)
        assert total > 0
        worst = min(worst, min(per_rsu) / total)
    ok = worst >= 0.25
    acceptance(6, ok, f"minimum per-RSU share across seeds={worst:.3f} (floor 0.25)")


def test_every_acceptance_run_spawns_every_arrival(urban40, highway, chain, twin_rsu):
    # so no printed text of these runs changes: never_spawned shows only when nonzero
    runs = [
        *urban40[0].values(), *highway[0].values(), *chain.values(), *twin_rsu.values()
    ]
    assert len(runs) == 60
    assert [run.result.never_spawned for run in runs] == [0] * 60
    assert all(run.result.spawned == run.sim.cfg.vehicle_count for run in runs)


def test_acceptance_07_worst_case_delay_improves_too(acceptance):
    seed = 13
    cached = timed_run(urban_single(40, caching=True, seed=seed))
    plain = timed_run(urban_single(40, caching=False, seed=seed))
    assert cached.result.never_spawned == plain.result.never_spawned == 0
    cached_max = cached.result.ledger.max_cdt_us()
    plain_max = plain.result.ledger.max_cdt_us()
    ok = plain_max > cached_max
    acceptance(
        7,
        ok,
        f"seed {seed}: nocache max={plain_max}us > cached max={cached_max}us",
    )


def test_acceptance_08_reruns_are_byte_identical(tmp_path, capsys, acceptance):
    args = [
        "run", "--scenario", "urban_single", "--count", "40", "--seed", "1", "--trace",
    ]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    names = ["cdt.csv", "requests_server.csv", "requests_rsu.csv", "chr.csv", "trace.log"]
    diffs = [
        name
        for name in names
        if (tmp_path / "a" / "urban_single_cached_s1" / name).read_bytes()
        != (tmp_path / "b" / "urban_single_cached_s1" / name).read_bytes()
    ]
    acceptance(8, not diffs, f"compared {names}, differing: {diffs or 'none'}")


class ReferenceLru:
    """Brute-force list-backed LRU used as the behavioral oracle."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.items = []  # least recent first

    def get(self, name):
        for i, (key, item) in enumerate(self.items):
            if key == name:
                self.items.append(self.items.pop(i))
                return item
        return None

    def put(self, item):
        for i, (key, _) in enumerate(self.items):
            if key == item.name:
                self.items.pop(i)
                self.items.append((item.name, item))
                return None
        self.items.append((item.name, item))
        if len(self.items) > self.capacity:
            return self.items.pop(0)[0]
        return None

    def names(self):
        return [key for key, _ in self.items]


def test_acceptance_09_lru_matches_brute_force_oracle(acceptance):
    trials = 1000
    for trial in range(trials):
        rng = random.Random(20_000 + trial)
        capacity = rng.randint(1, 8)
        pool = [f"/n/{i}" for i in range(rng.randint(1, 20))]
        items = {name: ContentItem(name, 8) for name in pool}
        store = LruStore(capacity)
        oracle = ReferenceLru(capacity)
        for op in range(rng.randint(1, 1000)):
            name = rng.choice(pool)
            if rng.random() < 0.5:
                got = store.get(name)
                expect = oracle.get(name)
                assert (got is None) == (expect is None), (trial, op)
            else:
                evicted = store.put(items[name])
                expected = oracle.put(items[name])
                assert evicted == expected, (trial, op)
        assert [item.name for item in store.items()] == oracle.names(), trial
    acceptance(9, True, f"{trials} randomized trials, contents and eviction order agree")


def render(writer, ledger, grid):
    buffer = io.StringIO()
    writer(buffer, ledger, grid)
    buffer.seek(0)
    return list(csv.DictReader(buffer))


def test_acceptance_10_series_are_internally_consistent(
    urban40, highway, chain, twin_rsu, acceptance
):
    everything = (
        list(urban40[0].values())
        + list(highway[0].values())
        + list(chain.values())
        + list(twin_rsu.values())
    )
    checked_rows = 0
    for run in everything:
        cfg = run.result.config
        ledger = run.result.ledger
        grid = sample_grid(
            seconds_to_us(cfg.duration_s), seconds_to_us(cfg.sample_interval_s)
        )

        # chr column must equal hits / (hits + misses) from the same row
        if cfg.caching:
            for row in render(write_chr_csv, ledger, grid):
                hits, misses = int(row["hits"]), int(row["misses"])
                recomputed = hits / (hits + misses)
                assert row["chr"] == f"{recomputed:.6f}", row
                checked_rows += 1

        # cdt.csv must be the running average of the raw delivery log
        deliveries = sorted(ledger.deliveries, key=lambda r: r.delivered_at_us)
        for row in render(write_cdt_csv, ledger, grid):
            t_us = round(float(row["time_s"]) * 1_000_000)
            upto = [r.cdt_us for r in deliveries if r.delivered_at_us <= t_us]
            assert upto, row
            assert int(row["deliveries"]) == len(upto)
            running = sum(upto) / len(upto) / 1_000_000
            assert row["avg_cdt_s"] == f"{running:.6f}", row
            checked_rows += 1

        # the server can only be asked after an RSU was asked
        server_rows = render(write_server_requests_csv, ledger, grid)
        rsu_rows = render(write_rsu_requests_csv, ledger, grid)
        rsu_totals = {}
        for row in rsu_rows:
            key = row["time_s"]
            rsu_totals[key] = rsu_totals.get(key, 0) + int(row["cumulative"])
        for row in server_rows:
            assert int(row["cumulative"]) <= rsu_totals[row["time_s"]], row
            checked_rows += 1

    acceptance(
        10,
        True,
        f"{len(everything)} runs, {checked_rows} sampled rows recomputed and consistent",
    )
