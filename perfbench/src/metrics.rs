//! The metric catalog. `BENCHMARK.json` lists exactly these names and
//! units; every run prints every metric of its catalog.

/// One catalogued metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Printed by every untraced run (`--trace 0`) of every workload.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", "lower"),
    def("peak_rss_mb", "MB", "lower"),
    def("sim_energy_j", "J", "lower"),
];

/// Printed by every traced run (`--trace 1`); a layer the workload does not
/// run reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    // Headline figures per workload, from the untraced passes of the run.
    // Host times here drift by 10-35% between runs on a shared 2-core
    // host, more than an end-to-end bound may allow, so they are reported
    // without a bound.
    def("sim_mips", "MIPS", "higher"),
    def("ns_per_server_epoch", "ns", "lower"),
    def("barrier_p50_ms", "ms", "lower"),
    def("barrier_p95_ms", "ms", "lower"),
    def("barrier_samples", "count", "higher"),
    def("us_per_dag", "us", "lower"),
    def("sim_energy_savings_pct", "%", "higher"),
    def("sim_max_degradation_pct", "%", "lower"),
    def("sim_fleet_energy_j", "J", "lower"),
    def("sim_makespan_ms", "ms", "lower"),
    def("sim_e2e_p99_ms", "ms", "lower"),
    def("sim_shed_pct", "%", "lower"),
    // Node: coscale runner, model and search; cpusim; memsim.
    def("coscale.runner_new_ms", "ms", "lower"),
    def("coscale.step_epoch_ms_p50", "ms", "lower"),
    def("coscale.decide_us_p50", "us", "lower"),
    def("coscale.decide_share_pct", "%", "lower"),
    def("coscale.epochs", "count", "lower"),
    def("cpusim.l2_accesses", "count", "lower"),
    def("cpusim.l2_mpki", "1/kinstr", "lower"),
    def("cpusim.prefetch_accuracy", "ratio", "higher"),
    def("memsim.bus_utilization", "ratio", "lower"),
    def("memsim.row_hit_rate", "ratio", "higher"),
    def("memsim.read_lat_p99_ns", "ns", "lower"),
    def("node.host_ns_per_kinstr", "ns", "lower"),
    // Fleet: server, engine, control plane.
    def("cluster.server_new_ms", "ms", "lower"),
    def("cluster.step_round_us_p50", "us", "lower"),
    def("cluster.status_ms", "ms", "lower"),
    def("cluster.ctrlplane_barrier_ms_p50", "ms", "lower"),
    def("cluster.ctrlplane_barrier_share_pct", "%", "lower"),
    def("cluster.engine_wake_queue_ms", "ms", "lower"),
    def("cluster.engine_pool_idle_share", "ratio", "lower"),
    def("cluster.server_finalize_ms", "ms", "lower"),
    def("cluster.barriers", "count", "lower"),
    def("cluster.server_epochs", "count", "lower"),
    def("cluster.awake_reports", "count", "lower"),
    def("cluster.moved_reports", "count", "lower"),
    // Telemetry calibration: recorded on fleet-batch, generated on
    // coord-plane.
    def("calib.moved_share_pct", "%", "lower"),
    def("calib.changed_share_pct", "%", "lower"),
    def("calib.step_w_p50", "W", "lower"),
    def("calib.step_w_p90", "W", "lower"),
    def("calib.moved_step_w_p50", "W", "lower"),
    def("calib.demand_w_p50", "W", "lower"),
    def("calib.floor_share_p50", "ratio", "lower"),
    // Coordinator: splits and caches.
    def("cluster.split_ms_p50", "ms", "lower"),
    def("capcache.hits", "count", "higher"),
    def("capcache.misses", "count", "lower"),
    def("ctrlplane.non_split_ms_p50", "ms", "lower"),
    // Message plane and leases.
    def("netsim.sent", "count", "lower"),
    def("netsim.delivered", "count", "lower"),
    def("netsim.dropped_loss", "count", "lower"),
    def("netsim.duplicated", "count", "lower"),
    def("ctrlplane.grants_sent", "count", "lower"),
    def("ctrlplane.grants_applied", "count", "higher"),
    def("ctrlplane.grants_stale", "count", "lower"),
    def("ctrlplane.grants_expired", "count", "lower"),
    def("ctrlplane.acks", "count", "lower"),
    def("ctrlplane.nacks", "count", "lower"),
    def("ctrlplane.lease_expirations", "count", "lower"),
    def("ctrlplane.floor_rounds", "count", "lower"),
    def("ctrlplane.elections", "count", "lower"),
    def("ctrlplane.in_flight_at_end", "count", "lower"),
    def("ctrlplane.grant_apply_ratio", "ratio", "higher"),
    // Service and topology.
    def("service.sim_new_ms", "ms", "lower"),
    def("service.generated", "count", "higher"),
    def("service.completed", "count", "higher"),
    def("service.shed", "count", "lower"),
    def("service.abandoned", "count", "lower"),
    def("service.rounds", "count", "lower"),
    def("topology.roots_closed", "count", "higher"),
    def("topology.roots_failed", "count", "lower"),
    def("topology.spans_opened", "count", "higher"),
    def("topology.spans_closed", "count", "higher"),
    def("topology.spans_failed", "count", "lower"),
    // Cost of tracing itself: traced pass time minus untraced pass time.
    def("trace.overhead_ms", "ms", "lower"),
    def("trace.overhead_pct", "%", "lower"),
];
