#!/usr/bin/env python
"""Policy comparison — the Table 2 scenario end to end.

Five workstations: ws1 runs the application and gets overloaded; ws2
is busy streaming ~7 MB/s to ws5 (which keeps its load just *below*
the migration threshold — the trap); ws3 carries a 2.5 load; ws4 is
free.  Three policies:

* Policy 1 — never migrate;
* Policy 2 — load/process thresholds only (walks into the ws2 trap);
* Policy 3 — Policy 2 plus communication-flow conditions (finds ws4).

Run:  python examples/policy_comparison.py
"""

from repro.analysis import run_table2
from repro.metrics import format_table


def main() -> None:
    print("running the three policies on identical scenarios ...")
    results = run_table2(seed=0)
    rows = [
        (f"policy-{i}", round(row["total_s"], 2), row["migrated_to"] or "-",
         round(row["source_s"], 2), round(row["dest_s"], 2),
         "-" if row["migration_s"] is None else round(row["migration_s"], 2))
        for i, row in enumerate(results.values(), start=1)
    ]
    print()
    print(format_table(
        ["policy", "total s", "migrated to", "source s", "dest s",
         "migration s"],
        rows,
        title="Table 2 reproduction (paper: 983.6 / 433.27→ws2 / "
              "329.71→ws4)",
    ))
    print()
    total = [row["total_s"] for row in results.values()]
    speedup2 = total[0] / total[1]
    speedup3 = total[0] / total[2]
    print(f"Policy 2 speedup over no-migration: {speedup2:.2f}x")
    print(f"Policy 3 speedup over no-migration: {speedup3:.2f}x "
          f"(paper: ~3x, 'execution time is reduced to 33.5%')")
    assert all(row["checksum_ok"] for row in results.values()), \
        "migrated runs must produce identical results"
    print("all three runs produced identical application results")


if __name__ == "__main__":
    main()
