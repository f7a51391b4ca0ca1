"""Every §5 experiment reproduces the paper's shape.

The assertions read the cell summaries pinned in EXPERIMENTS.json
(``tests/analysis/test_pinned.py`` re-simulates each one) and check
the qualitative conclusions the paper draws — who wins, what overhead
band, which host is chosen — rather than absolute numbers.
"""

import pytest

from repro.metrics import TimeSeries

from ..pinned import summary


# ------------------------------------------------------------ Fig 5 + 6
#: One overhead cell, read as Figure 5 at seed 0 and as Figure 6 at
#: seed 1 (the runs EXPERIMENTS.md quotes).
FIG5 = summary("overhead", duration=3600.0)
FIG6 = summary("overhead", seed=1, duration=3600.0)


def test_fig5_load_overhead_under_4_percent():
    # Paper: "the overhead of the rescheduler operation is usually less
    # that 4%" (1-min load +3.9 %).
    assert 0.0 < FIG5["load1_overhead"] < 0.06


def test_fig5_baseline_load_near_paper():
    # Paper idle load ≈ 0.256.
    assert FIG5["load1_without"] == pytest.approx(0.256, abs=0.03)


def test_fig5_cpu_overhead_small():
    # Paper CPU utilization overhead 3.46 %.
    assert 0.0 < FIG5["cpu_overhead"] < 0.06


def test_fig6_comm_rates_match_paper():
    # Paper: 5.82 KB/s send, 5.99 KB/s receive.
    assert FIG6["send_kbs_without"] == pytest.approx(5.82, abs=0.3)
    assert FIG6["recv_kbs_without"] == pytest.approx(5.99, abs=0.3)


def test_fig6_no_visible_comm_overhead():
    # Paper: "almost no overhead for communication".
    assert abs(FIG6["comm_overhead"]) < 0.02


# ------------------------------------------------------------ Fig 7 + 8
#: One migration run, two views: the phases and the CPU series
#: (Figure 7), the record's timestamps and the network series (Figure 8).
FIG7 = FIG8 = summary("efficiency")


def _series(fig, name):
    return TimeSeries.from_points(fig["series"][name])


def test_fig7_migration_happened_correctly():
    assert FIG7["succeeded"] and FIG8["succeeded"]
    assert FIG7["checksum_ok"] and FIG8["checksum_ok"]


def test_fig7_warmup_band():
    # Paper: 72 s from load injection to the migration decision.
    assert 40 <= FIG7["warmup_s"] <= 110


def test_fig7_phase_durations():
    p = FIG7
    assert p["decision_s"] < 0.1          # paper: 0.002 s
    assert 0.25 <= p["init_s"] <= 0.6     # paper: ~0.3 s (LAM DPM)
    assert p["to_pollpoint_s"] < 5.0      # paper: 1.4 s
    assert p["resume_s"] < 2.5            # paper: < 1 s
    assert 2.0 < p["total_s"] < 15.0      # paper: 7.5 s
    assert p["memory_mb"] > 5.0           # a real state transfer


def test_fig7_restore_overlaps_execution():
    # Execution resumes before the transfer completes.
    assert FIG8["resumed_at"] < FIG8["completed_at"]


def test_fig7_source_cpu_drops_after_migration():
    # Before the overload the source runs below saturation; during the
    # overload it saturates; after migration the hogs keep it busy but
    # the destination picks up the app's work.
    before = {"t_min": FIG8["app_started_at"],
              "t_max": FIG8["load_injected_at"]}
    after = {"t_min": FIG8["completed_at"] + 10,
             "t_max": FIG8["completed_at"] + 110}
    cpu_dest = _series(FIG7, "cpu_dest")
    assert _series(FIG7, "cpu_source").mean(**before) > 0.5  # app alone
    assert cpu_dest.mean(**after) > cpu_dest.mean(**before) + 0.5
    assert cpu_dest.mean(**after) > 0.9  # the app now runs there


def test_fig8_state_transfer_visible_on_network():
    recv_dest = _series(FIG8, "recv_dest")
    during = recv_dest.max(t_min=FIG8["ordered_at"],
                           t_max=FIG8["completed_at"] + 15)
    before = recv_dest.max(t_min=FIG8["app_started_at"],
                           t_max=FIG8["load_injected_at"])
    # Megabytes of state in seconds: a thousand-fold KB/s spike.
    assert during > max(before, 1.0) * 100
    assert during > 1000


# -------------------------------------------------------------- Table 1
def test_table1_state_behaviour():
    rows = summary("table1")
    over, busy, free = (rows["states"][name]
                        for name in ("overloaded", "busy", "free"))
    assert over["loaded"] and over["migrate_out"] and not over["migrate_in"]
    assert busy["loaded"] and not busy["migrate_out"]
    assert not busy["migrate_in"]
    assert not free["loaded"] and free["migrate_in"]
    assert not free["migrate_out"]
    assert rows["observed"] == {
        "ws1": "overloaded", "ws2": "busy", "ws3": "free"}


# -------------------------------------------------------------- Table 2
TABLE2 = {i: summary("table2")[f"policy{i}"] for i in (1, 2, 3)}


def test_table2_policy1_no_migration():
    r = TABLE2[1]
    assert r["migrated_to"] is None
    assert r["dest_s"] == 0.0
    # Paper: 983.6 s.
    assert r["total_s"] == pytest.approx(983.6, rel=0.1)
    assert r["checksum_ok"]


def test_table2_policy2_picks_comm_busy_host():
    # Policy 2 is communication-blind: first fit lands on ws2, whose
    # ~7 MB/s stream keeps its load just below the threshold.
    r = TABLE2[2]
    assert r["migrated_to"] == "ws2"
    assert r["checksum_ok"]


def test_table2_policy3_avoids_comm_busy_host():
    r = TABLE2[3]
    assert r["migrated_to"] == "ws4"
    assert r["checksum_ok"]


def test_table2_ordering():
    # Paper: 983.6 ≫ 433.27 > 329.71.
    t1, t2, t3 = (TABLE2[i]["total_s"] for i in (1, 2, 3))
    assert t1 > 2 * t2
    assert t2 > t3 * 1.2


def test_table2_migration_times_reasonable():
    # Paper: 8.31 s (P2) and 6.71 s (P3).
    for i in (2, 3):
        assert 2.0 < TABLE2[i]["migration_s"] < 25.0


def test_table2_dest_split_reflects_speed():
    # On the comm-busy ws2 the app runs ~half speed: its dest residency
    # exceeds the residency on the free ws4.
    assert TABLE2[2]["dest_s"] > TABLE2[3]["dest_s"] * 1.4


# --------------------------------------------------------- Malleability
def test_malleability_reshaping_beats_rigid_migration():
    # The storm scenario: N:M reshaping grows the world past its two
    # ranks and finishes well ahead of 1:1 migration (1449 s vs 766 s).
    r = summary("malleability")
    assert r["rigid_s"] / r["malleable_s"] > 1.3
    assert r["peak_world"] > 2
    assert any(rec["kind"] == "expand" and rec["succeeded"]
               for rec in r["reshapes"])
    assert r["pi_ok"]
