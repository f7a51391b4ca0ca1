"""The design choices the paper calls out, each varied on its own.

Every assertion reads a cell summary pinned in EXPERIMENTS.json
(``tests/analysis/test_pinned.py`` re-simulates each one); EXPERIMENTS.md's
ablation table quotes the same summaries.
"""

import pytest

from ..pinned import by_axis, summary


def test_warmup_window_trades_false_migrations_for_reaction_time():
    # Paper §5.2: the 72 s warm-up "can avoid the fault migration
    # caused by small system performance variations".
    spike, real = ({c["sustain"]: s for c, s in by_axis("sustain")
                    if ("spike" in c) == spiked} for spiked in (True, False))
    assert spike[1]["migrations"] == 1
    assert spike[7]["migrations"] == 0
    assert all(r["migrations"] == 1 for r in real.values())
    reaction = [real[s]["reaction_s"] for s in (1, 3, 7)]
    assert reaction == sorted(reaction) and reaction[0] < reaction[-1]


def test_faster_monitoring_costs_load_and_buys_reaction():
    overhead = {i: summary("overhead", duration=2400.0, settle=600.0,
                           interval=i)["load1_overhead"]
                for i in (2.0, 10.0, 30.0)}
    reaction = {i: summary("overload", interval=i)["reaction_s"]
                for i in (2.0, 10.0, 30.0)}
    assert overhead[2.0] > overhead[10.0] > overhead[30.0] > 0.0
    assert reaction[2.0] < reaction[10.0] < reaction[30.0]


def test_best_fit_finds_the_idle_host_first_fit_does_not():
    runs = {c["strategy"]: s for c, s in by_axis("strategy")}
    assert runs["first_fit"]["dest"] == "ws2"
    assert runs["best_fit"]["dest"] == "ws4"
    # The better destination finishes the app sooner.
    assert runs["best_fit"]["total_s"] <= runs["first_fit"]["total_s"]


def test_hierarchy_splits_registry_load_and_escalates_across_domains():
    central = summary("overload", hosts=12, inject_at=40.0, domains=1)
    hier = summary("overload", hosts=12, inject_at=40.0, domains=2)
    assert central["migrations"] == hier["migrations"] == 1
    # Domain A (ws1–ws6) is fully overloaded: the escalated migration
    # lands in domain B.
    assert hier["dest"] in {f"ws{i}" for i in range(7, 13)}
    assert hier["escalated"] and not central["escalated"]
    # No single registry in the hierarchy carries the central load.
    assert central["registry_in_bps"] / hier["registry_in_bps"] > 1.5


def test_denser_pollpoints_shorten_the_wait():
    runs = by_axis("orders")  # pinned coarse to fine
    assert [c["params"]["levels"] for c, s in runs] == [14, 12, 10]
    waits = [s["to_pollpoint_s"] for c, s in runs]
    assert waits[0] > waits[1] > waits[2]


def test_preinitialization_removes_the_spawn():
    cold = summary("order", preinit=False)
    warm = summary("order", preinit=True)
    assert cold["migrations"] == warm["migrations"] == 1
    assert cold["init_s"] == pytest.approx(0.3, abs=0.05)  # LAM DPM spawn
    assert warm["init_s"] < 0.05
    assert warm["total_s"] < cold["total_s"]


def test_pull_makes_the_registry_a_traffic_source():
    push = summary("overload", mode="push")
    pull = summary("overload", mode="pull")
    assert push["migrations"] == pull["migrations"] == 1
    assert pull["registry_out_bps"] > push["registry_out_bps"] * 5
    # Both react within the same order of magnitude.
    assert pull["reaction_s"] < push["reaction_s"] * 3


def test_shorter_lease_detects_crashes_sooner_at_more_traffic():
    runs = sorted(by_axis("lease"), key=lambda run: run[0]["lease"])
    detect = [s["detect_s"] for c, s in runs]
    traffic = [s["push_bps"] for c, s in runs]
    assert len(runs) == 3
    assert detect == sorted(detect) and detect[0] < detect[-1]
    assert traffic == sorted(traffic, reverse=True)
    # A crash is noticed within one push interval after the lease lapses.
    for c, s in runs:
        assert s["detect_s"] <= c["lease"] + c["interval"]
