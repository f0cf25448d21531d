//! `coord-plane`: the coordinator and control plane alone. A
//! `ControlPlane` over 256 servers under flat FastCap with a binding
//! budget is driven through a few hundred barriers by seeded synthetic
//! telemetry calibrated to `fleet-batch`'s recorded reports, on a lossy,
//! duplicating, delayed plane with a failover standby and one scheduled
//! primary partition.

use crate::common::{fnv1a, median, percentile, repeat_for, secs, Checks, Opts, Report, Rng, Size};
use cluster::{
    split_caps_active, synthetic_fleet, CapCache, CapSplit, ClusterConfig, ControlPlane,
    ControlStats, EngineKind, PartitionSpec, RpcConfig, ServerDemand,
};
use std::time::Instant;

const DEAD_BAND_W: f64 = 5.0;
/// `ControlPlane::new` constructions per pass.
const SETUPS: usize = 16;

/// Telemetry calibration, recorded from `fleet-batch`'s traced run (seed
/// 1; `calib.*` metrics): every awake server's demand moves between
/// barriers (100%), by a median 0.11 W and a 90th percentile 0.35 W — an
/// exponential step of mean 0.155 W; 8% of reports move beyond the 5 W
/// dead-band, all of them in the start-up barrier where busy servers jump
/// from the zero pre-epoch report to ~57 W. The generator spreads that 8%
/// over every barrier as 5 W + Exp(3 W) steps, so each barrier carries
/// dirty servers and the split misses the cache: this workload measures
/// the coordinator on the path `fleet-batch` takes once, not the replay
/// path it takes in steady state.
const P_CHANGED: f64 = 1.0;
const P_MOVED: f64 = 0.08;
const SMALL_STEP_MEAN_W: f64 = 0.155;
const BIG_STEP_EXCESS_MEAN_W: f64 = 3.0;
/// Median demand busy `fleet-batch` servers report, watts.
const DEMAND_W: f64 = 57.0;
/// Median floor (`min_w`) as a share of demand in those reports.
const FLOOR_SHARE: f64 = 0.63;
/// Budget as a share of the fleet's initial total demand: binding.
const BUDGET_SHARE: f64 = 0.8;

struct Shape {
    servers: usize,
    barriers: u64,
    partition: (u64, u64),
}

fn shape(size: Size) -> Shape {
    match size {
        Size::Full => Shape {
            servers: 256,
            barriers: 200,
            partition: (60, 90),
        },
        Size::Tiny => Shape {
            servers: 32,
            barriers: 80,
            partition: (20, 40),
        },
    }
}

/// Seeded synthetic telemetry: every server reports every barrier.
struct Telemetry {
    rng: Rng,
    demand: Vec<ServerDemand>,
    changed: u64,
    moved: u64,
    compared: u64,
    steps: Vec<f64>,
    moved_steps: Vec<f64>,
}

impl Telemetry {
    fn new(seed: u64, n: usize) -> Telemetry {
        let mut rng = Rng::new(seed);
        let demand = (0..n)
            .map(|_| {
                let d = DEMAND_W * (0.7 + 0.6 * rng.unit());
                ServerDemand {
                    demand_w: d,
                    min_w: FLOOR_SHARE * d,
                    active: true,
                }
            })
            .collect();
        Telemetry {
            rng,
            demand,
            changed: 0,
            moved: 0,
            compared: 0,
            steps: Vec::new(),
            moved_steps: Vec::new(),
        }
    }

    fn total_demand(&self) -> f64 {
        self.demand.iter().map(|d| d.demand_w).sum()
    }

    /// Advances every server one barrier and returns the reports.
    fn next(&mut self, out: &mut Vec<(usize, ServerDemand)>) {
        out.clear();
        for i in 0..self.demand.len() {
            let u = self.rng.unit();
            let sign = if self.rng.unit() < 0.5 { -1.0 } else { 1.0 };
            let step = if u < P_MOVED {
                DEAD_BAND_W + self.rng.exp(BIG_STEP_EXCESS_MEAN_W)
            } else if u < P_CHANGED {
                self.rng.exp(SMALL_STEP_MEAN_W).min(DEAD_BAND_W)
            } else {
                0.0
            };
            let d = &mut self.demand[i];
            let lo = 0.5 * DEMAND_W;
            let hi = 1.5 * DEMAND_W;
            // Reflect at the band edges so demand stays near its level.
            let mut next = d.demand_w + sign * step;
            if next < lo || next > hi {
                next = d.demand_w - sign * step;
            }
            self.compared += 1;
            if step > 0.0 {
                self.changed += 1;
                self.steps.push(step);
            }
            if step > DEAD_BAND_W {
                self.moved += 1;
                self.moved_steps.push(step);
            }
            d.demand_w = next;
            d.min_w = FLOOR_SHARE * next;
            out.push((i, *d));
        }
    }
}

fn config(opts: &Opts, budget_w: f64) -> ClusterConfig {
    let sh = shape(opts.size);
    let rpc = RpcConfig {
        latency_us: 40.0,
        jitter_us: 40.0,
        loss: 0.02,
        duplicate: 0.01,
        seed: opts.derive(2),
        failover: true,
        partitions: vec![PartitionSpec {
            from_round: sh.partition.0,
            to_round: sh.partition.1,
            nodes: vec!["primary".to_string()],
        }],
        ..RpcConfig::default()
    };
    ClusterConfig::new(
        synthetic_fleet(sh.servers, 0.0),
        budget_w,
        CapSplit::FastCap,
    )
    .with_engine(EngineKind::Event)
    .with_epochs_per_round(4)
    .with_dead_band(DEAD_BAND_W)
    .with_rpc(rpc)
}

struct Pass {
    setup_s: f64,
    barrier_s: Vec<f64>,
    split_s: Vec<f64>,
    cache_hits: u64,
    cache_misses: u64,
    granted_j: f64,
    digest: u64,
    budget_w: f64,
    /// In-force cap total at every barrier, watts.
    totals: Vec<f64>,
    stats: ControlStats,
    telemetry: Telemetry,
}

fn pass(opts: &Opts, traced: bool) -> Pass {
    let sh = shape(opts.size);
    let mut telemetry = Telemetry::new(opts.derive(1), sh.servers);
    let budget_w = BUDGET_SHARE * telemetry.total_demand();
    let cfg = config(opts, budget_w);
    let names: Vec<&str> = cfg.servers.iter().map(|s| s.name.as_str()).collect();
    let round_s = cfg.round_s();

    // Construction takes tens of microseconds: build the plane several
    // times and keep the median, so one page fault does not set the figure.
    let mut builds = Vec::with_capacity(SETUPS);
    let mut plane = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let built = ControlPlane::new(&cfg);
        builds.push(secs(t));
        plane = Some(built);
    }
    let mut plane = plane.expect("built at least once");
    let setup_s = median(&builds);

    let mut barrier_s = Vec::with_capacity(sh.barriers as usize);
    let mut split_s = Vec::new();
    let mut totals = Vec::with_capacity(sh.barriers as usize);
    let mut granted_j = 0.0;
    let mut cache = CapCache::new(DEAD_BAND_W);
    let mut view: Vec<ServerDemand> = telemetry.demand.clone();
    let mut reports = Vec::new();
    let mut digest: Vec<u8> = Vec::new();
    for round in 0..sh.barriers {
        telemetry.next(&mut reports);
        let t = Instant::now();
        let caps = plane.barrier(round, &reports, &cfg, &names);
        barrier_s.push(secs(t));
        let total: f64 = caps.iter().sum();
        totals.push(total);
        granted_j += total * round_s;
        for c in &caps {
            digest.extend_from_slice(&c.to_bits().to_le_bytes());
        }
        if traced {
            for &(i, d) in &reports {
                view[i] = d;
            }
            let t = Instant::now();
            let split = split_caps_active(CapSplit::FastCap, budget_w, &view, cfg.quantum_w);
            split_s.push(secs(t));
            if cache.lookup(&view, None, None).is_none() {
                cache.store(&view, None, None, &split);
            }
        }
    }
    Pass {
        setup_s,
        barrier_s,
        split_s,
        cache_hits: cache.hits(),
        cache_misses: cache.misses(),
        granted_j,
        digest: fnv1a(&digest),
        budget_w,
        totals,
        stats: plane.finish(),
        telemetry,
    }
}

/// Every barrier is one operation, checked for budget conservation; the
/// pass as a whole is one more, checked for determinism and for the
/// scheduled takeover.
fn check_pass(checks: &mut Checks, p: &Pass, reference: u64) {
    for (round, &total) in p.totals.iter().enumerate() {
        checks.begin();
        let n = p.telemetry.demand.len();
        checks.check(crate::common::within_budget(total, p.budget_w, n), || {
            format!(
                "coord-plane barrier {round}: in-force caps sum to {total} W, over the {} W budget",
                p.budget_w
            )
        });
    }
    checks.begin();
    checks.check(p.digest == reference, || {
        format!(
            "coord-plane digest {:016x} differs from the first pass {reference:016x}",
            p.digest
        )
    });
    checks.check(p.stats.elections >= 1, || {
        "the scheduled primary partition caused no election".into()
    });
}

/// Runs the workload for the measurement window.
pub fn run(opts: &Opts) -> Report {
    let mut report = Report::new(opts.trace);
    let window = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let (plain, rss_mb) = repeat_for(window, 3, || pass(opts, false));
    let reference = plain[0].digest;
    for p in &plain {
        check_pass(&mut report.checks, p, reference);
    }
    let all: Vec<f64> = plain
        .iter()
        .flat_map(|p| p.barrier_s.iter().copied())
        .collect();
    let first = &plain[0];
    report.note(format!(
        "coord-plane: {} servers, {} passes of {} barriers, digest {reference:016x}, {} elections",
        first.telemetry.demand.len(),
        plain.len(),
        first.barrier_s.len(),
        first.stats.elections
    ));
    report.note(format!(
        "coord-plane: mean barrier by pass {:?} us",
        plain
            .iter()
            .map(|p| (p.barrier_s.iter().sum::<f64>() * 1e6 / p.barrier_s.len() as f64).round())
            .collect::<Vec<_>>()
    ));
    report.headline("barrier_p50_ms", 1e3 * percentile(&all, 0.5));
    report.headline("barrier_p95_ms", 1e3 * percentile(&all, 0.95));
    report.headline("barrier_samples", all.len() as f64);
    if !opts.trace {
        report.set(
            "setup_s",
            median(&plain.iter().map(|p| p.setup_s).collect::<Vec<_>>()),
        );
        report.set("peak_rss_mb", rss_mb);
        report.set("sim_energy_j", first.granted_j);
        return report;
    }

    let (traced, _) = repeat_for(window, 2, || pass(opts, true));
    for p in &traced {
        check_pass(&mut report.checks, p, reference);
    }
    let pass_s = |p: &Pass| p.barrier_s.iter().sum::<f64>();
    let plain_s = median(&plain.iter().map(pass_s).collect::<Vec<_>>());
    let traced_s = median(
        &traced
            .iter()
            .map(|p| pass_s(p) + p.split_s.iter().sum::<f64>())
            .collect::<Vec<_>>(),
    );
    let split: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.split_s.iter().copied())
        .collect();
    let non_split: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.barrier_s.iter().zip(&p.split_s).map(|(b, s)| b - s))
        .collect();
    let t = &traced[0];
    let s = &t.stats;
    let tel = &t.telemetry;
    let m = &mut report;
    m.set("cluster.split_ms_p50", 1e3 * percentile(&split, 0.5));
    m.set("capcache.hits", t.cache_hits as f64);
    m.set("capcache.misses", t.cache_misses as f64);
    m.set(
        "ctrlplane.non_split_ms_p50",
        1e3 * percentile(&non_split, 0.5),
    );
    m.set(
        "calib.moved_share_pct",
        100.0 * tel.moved as f64 / tel.compared as f64,
    );
    m.set(
        "calib.changed_share_pct",
        100.0 * tel.changed as f64 / tel.compared as f64,
    );
    m.set("calib.step_w_p50", percentile(&tel.steps, 0.5));
    m.set("calib.step_w_p90", percentile(&tel.steps, 0.9));
    m.set("calib.moved_step_w_p50", percentile(&tel.moved_steps, 0.5));
    m.set(
        "calib.demand_w_p50",
        percentile(
            &tel.demand.iter().map(|d| d.demand_w).collect::<Vec<_>>(),
            0.5,
        ),
    );
    m.set("calib.floor_share_p50", FLOOR_SHARE);
    m.set("netsim.sent", s.plane.sent as f64);
    m.set("netsim.delivered", s.plane.delivered as f64);
    m.set("netsim.dropped_loss", s.plane.dropped_loss as f64);
    m.set("netsim.duplicated", s.plane.duplicated as f64);
    m.set("ctrlplane.grants_sent", s.grants_sent as f64);
    m.set("ctrlplane.grants_applied", s.grants_applied as f64);
    m.set("ctrlplane.grants_stale", s.grants_stale as f64);
    m.set("ctrlplane.grants_expired", s.grants_expired as f64);
    m.set("ctrlplane.acks", s.acks as f64);
    m.set("ctrlplane.nacks", s.nacks as f64);
    m.set("ctrlplane.lease_expirations", s.lease_expirations as f64);
    m.set("ctrlplane.floor_rounds", s.floor_rounds as f64);
    m.set("ctrlplane.elections", s.elections as f64);
    m.set("ctrlplane.in_flight_at_end", s.in_flight_at_end as f64);
    m.set(
        "ctrlplane.grant_apply_ratio",
        s.grants_applied as f64 / s.grants_sent.max(1) as f64,
    );
    m.set("trace.overhead_ms", 1e3 * (traced_s - plain_s));
    m.set("trace.overhead_pct", 100.0 * (traced_s / plain_s - 1.0));
    report
}
