"""The reachability allowlist: functions no program enters, and why each stays.

``python -m tests.reachability`` fails on an unreached function that is
not listed here, and on a listed one that is now reached or no longer
defined, so the list only shrinks.  Names are ``module:qualname``;
"item N" is the ROADMAP item that gives the function a program path or
a verdict.
"""


def _each(reason, *names):
    return dict.fromkeys(names, reason)


ALLOWED = {
    **_each(
        "item 14: the shrink path; no program's world shrinks until the "
        "storm scenario does",
        "repro.hpcm.runtime:HpcmRuntime._retire",
        "repro.hpcm.world:HpcmWorld._retire",
        "repro.hpcm.world:HpcmWorld._ship_retired",
        "repro.hpcm.world:HpcmWorld._validate_shrink",
        "repro.hpcm.world:HpcmWorld.request_shrink",
        "repro.mpi.group:CommGroup.remove",
        "repro.registry.core:RegistryCore._find_world_peer",
    ),
    **_each(
        "item 14: a live task's split and merge; `repro live` never reshapes",
        "repro.live.node:LiveNode._merge_state",
        "repro.live.node:LiveNode._split_and_ship",
        "repro.live.tasks:_fold_collatz",
        "repro.live.tasks:_fold_sqrt_sum",
        "repro.live.tasks:_queue_merge",
        "repro.live.tasks:_split_range_state",
        "repro.live.tasks:collatz_census_split",
        "repro.live.tasks:sqrt_sum_split",
    ),
    **_each(
        "item 3(c): reshaping a stencil or test_tree world; in programs "
        "only Monte-Carlo worlds reshape",
        "repro.hpcm.app:MigratableApp.repartition",
        "repro.workloads.stencil:StencilApp.efficiency_curve",
        "repro.workloads.stencil:StencilApp.repartition",
        "repro.workloads.test_tree:TestTreeApp.efficiency_curve",
        "repro.workloads.test_tree:TestTreeApp.repartition",
        "repro.workloads.test_tree:_deal",
        "repro.workloads.test_tree:_spread",
    ),
    **_each(
        "item 3(c): DataScanApp, the data-heavy app of the planned "
        "storm_data row; no program runs it yet",
        "repro.workloads.datascan:DataScanApp.create_state",
        "repro.workloads.datascan:DataScanApp.default_schema",
        "repro.workloads.datascan:DataScanApp.efficiency_curve",
        "repro.workloads.datascan:DataScanApp.expected_digest",
        "repro.workloads.datascan:DataScanApp.finalize",
        "repro.workloads.datascan:DataScanApp.repartition",
        "repro.workloads.datascan:DataScanApp.run_step",
    ),
    **_each(
        "item 3(c): the column rules; no program gives the registry a "
        "rule set, nor the monitor hub one (the option audit lists "
        "MonitorHub(ruleset) as never set)",
        "repro.monitor.hub:MonitorHub._column_engine",
        "repro.registry.hostmatrix:HostStateMatrix.metric_column",
        "repro.registry.hostmatrix:matrix_column_engine",
        "repro.registry.hostmatrix:matrix_column_engine.<locals>.engine",
        "repro.rules.vector:VectorRuleEvaluator._as_state",
        "repro.rules.vector:VectorRuleEvaluator._measure",
        "repro.rules.vector:VectorRuleEvaluator._trace_fire",
        "repro.rules.vector:classify_column",
    ),
    **_each(
        "item 3(c): the column rules; ledger/tracing.py also patches it by "
        "name",
        "repro.rules.vector:VectorRuleEvaluator.evaluate_host_states",
    ),
    **_each(
        "ledger/tracing.py patches it by name; no shipped app gathers",
        "repro.mpi.comm:Comm.gather",
    ),
    **_each(
        "read only by tests; waits for sim/fairshare.py to fold into "
        "cluster/cpu.py, which ledger/tracing.py blocks",
        "repro.sim.fairshare:FairShareServer.__repr__",
        "repro.sim.fairshare:FairShareServer.active_jobs",
        "repro.sim.fairshare:FairShareServer.busy_time",
        "repro.sim.fairshare:FairShareServer.jobs",
        "repro.sim.fairshare:FairShareServer.queue_time",
        "repro.sim.fairshare:FairShareServer.utilization",
        "repro.sim.fairshare:FairShareServer.work_done",
        "repro.sim.fairshare:ShareJob.progress",
    ),
    **_each(
        "overridden by Cpu, the only FairShareServer; goes with the fold "
        "into cluster/cpu.py",
        "repro.sim.fairshare:FairShareServer._jobs_changed",
    ),
    **_each(
        "test oracle: the scalar reference a batched or compiled path is "
        "checked against",
        "repro.rules.evaluator:classify",
        "repro.rules.states:combine_and",
        "repro.rules.states:combine_or",
    ),
    **_each(
        "NullTracer safety: a call not guarded by `enabled` must record "
        "nothing",
        "repro.trace.tracer:NullTracer.begin",
        "repro.trace.tracer:NullTracer.event",
        "repro.trace.tracer:_NullSpan.end",
    ),
    **_each(
        "interface method that every shipped implementation overrides",
        "repro.entity.clock:Clock.now",
        "repro.hpcm.app:MigratableApp.create_state",
        "repro.hpcm.app:MigratableApp.default_schema",
        "repro.hpcm.app:MigratableApp.efficiency_curve",
        "repro.hpcm.app:MigratableApp.finalize",
        "repro.hpcm.app:MigratableApp.run_step",
    ),
    **_each(
        "shadowed per instance by a C-level partial; the def documents the "
        "factory",
        "repro.sim.kernel:Environment.event",
        "repro.sim.kernel:Environment.timeout",
    ),
    **_each(
        "the hand-driven clock the entity-core tests run on",
        "repro.entity.clock:ManualClock.__init__",
        "repro.entity.clock:ManualClock.advance",
        "repro.entity.clock:ManualClock.now",
        "repro.entity.clock:ManualClock.set",
    ),
    **_each(
        "stops a long-lived entity; every program runs its entities to the end",
        "repro.cluster.background:ChatterLoad.stop",
        "repro.cluster.background:DutyCycleLoad.stop",
        "repro.commander.commander:Commander.stop",
        "repro.core.rescheduler:Rescheduler.stop",
        "repro.metrics.recorder:HostRecorder.stop",
        "repro.monitor.hub:MonitorHub.stop",
        "repro.monitor.monitor:Monitor.stop",
        "repro.registry.registry:RegistryScheduler.stop",
    ),
    **_each(
        "an analytic row's process report, asked only when such a row "
        "overloads; no cell loads one",
        "repro.core.rescheduler:Rescheduler._process_reports",
    ),
    **_each(
        "loads analytic rows by hand; no cell does, tests do",
        "repro.cluster.builder:Cluster.add_analytic_host",
        "repro.cluster.plane:HostPlane._analytic_row",
        "repro.cluster.plane:HostPlane.clear_hogs",
        "repro.cluster.plane:HostPlane.inject_hogs",
    ),
    **_each(
        "a crashed host coming back; no program recovers a host (item 1)",
        "repro.cluster.host:Host.recover",
    ),
    **_each(
        "item 6: a world aborting on a failed rank; no program's crash "
        "lands on a host that runs a rank",
        "repro.sim.resources:Store.close",
    ),
    **_each(
        "rollback of a migration that fails after its spawn; no program's "
        "migration fails",
        "repro.hpcm.runtime:HpcmRuntime._unspawn",
    ),
    **_each(
        "a peer that stops reading: buffered flush and retirement; only "
        "transport tests stall a peer (item 8)",
        "repro.live.transport:LiveEndpoint._flush",
        "repro.live.transport:LiveEndpoint._retire",
    ),
    **_each(
        "decode's ElementTree fallback for a heartbeat spelled unlike the "
        "encoder's; only tests send one",
        "repro.protocol.messages:StatusUpdate.from_body",
        "repro.protocol.messages:_metrics_from_element",
    ),
    **_each(
        "a second live task kind; no program submits it, tests do",
        "repro.live.tasks:collatz_census_state",
        "repro.live.tasks:collatz_census_step",
    ),
    **_each(
        "reads a JSONL trace back; users and tests do, no program does",
        "repro.trace.exporters:load_jsonl",
    ),
    **_each(
        "`dir()` of a package with lazy re-exports; interactive use",
        "repro._lazy:lazy_exports.<locals>.__dir__",
    ),
    **_each(
        "the message of a ConfigError that reaches a library caller; the "
        "CLI prints each finding",
        "repro.findings:ConfigError.__str__",
    ),
    **_each(
        "library forms of the rule loader and of the paper's rule set; "
        "tests use them",
        "repro.rules.builtin:paper_ruleset",
        "repro.rules.parser:parse_rules",
    ),
    **_each(
        "application API (paper §3.3): what an application's steps read",
        "repro.hpcm.context:AppContext.env",
        "repro.hpcm.context:AppContext.host",
        "repro.hpcm.context:AppContext.now",
        "repro.hpcm.context:AppContext.process",
        "repro.hpcm.context:AppContext.rank",
        "repro.hpcm.context:AppContext.rng",
        "repro.hpcm.context:AppContext.size",
        "repro.hpcm.context:AppContext.sleep",
        "repro.mpi.comm:Intercomm.rank",
        "repro.mpi.comm:SpawnedContext.env",
        "repro.mpi.comm:SpawnedContext.host",
        "repro.mpi.comm:SpawnedContext.rank",
    ),
    **_each(
        "test-oracle instrumentation: a differential or parity test "
        "compares two implementations through it",
        "repro.cluster.builder:Cluster.static_info",
        "repro.cluster.plane:HostPlane.analytic_rows",
        "repro.registry.core:Reconfigure.key",
        "repro.registry.hostmatrix:HostRecord.processes",
    ),
    **_each(
        "the per-host monitoring database's read side: every cycle "
        "records a sample, and nothing but the database's own tests "
        "reads one back",
        "repro.monitor.database:MonitoringDatabase.metrics",
        "repro.monitor.database:MonitoringDatabase.series",
    ),
    **_each(
        "the only replacement is private",
        "repro.registry.hostmatrix:HostRecord.static_info",
        "repro.sim.events:Event.ok",
    ),
}
