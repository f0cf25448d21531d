//! `fleet-batch`: a 512-server synthetic batch fleet, half idle, on the
//! event engine. The traced run rebuilds the event engine's loop from the
//! cluster crate's public types and times every layer boundary.

use crate::common::{fnv1a, median, percentile, repeat_for, secs, Checks, Opts, Report, Size};
use cluster::{
    synthetic_fleet, BudgetNode, BudgetTree, CapSplit, ClusterConfig, ClusterSim, ControlPlane,
    EngineKind, Server, ServerDemand, ShardedWakeQueue, TelemetrySlab, WorkerPool,
};
use simkernel::Ps;
use std::time::Instant;

const THREADS: usize = 2;
const DEAD_BAND_W: f64 = 5.0;
const EPOCHS_PER_ROUND: usize = 4;
const RACK: usize = 64;

/// The fleet: `synthetic_fleet` at 50% idle, re-seeded from the workload
/// seed, under a uniform root over FastCap racks of 64.
pub fn config(opts: &Opts) -> ClusterConfig {
    let n = match opts.size {
        Size::Full => 512,
        Size::Tiny => 16,
    };
    let mut fleet = synthetic_fleet(n, 0.5);
    for (i, s) in fleet.iter_mut().enumerate() {
        s.config.seed = opts.derive(1000 + i as u64);
        if opts.size == Size::Tiny {
            s.config.target_instrs /= 20;
        }
    }
    let racks = fleet
        .chunks(RACK)
        .enumerate()
        .map(|(r, chunk)| {
            BudgetNode::group(
                &format!("rack{r}"),
                CapSplit::FastCap,
                chunk.iter().map(|s| BudgetNode::server(&s.name)).collect(),
            )
        })
        .collect();
    let tree = BudgetTree::new(BudgetNode::group("fleet", CapSplit::Uniform, racks));
    ClusterConfig::new(fleet, 100.0 * n as f64, CapSplit::FastCap)
        .with_engine(EngineKind::Event)
        .with_epochs_per_round(EPOCHS_PER_ROUND)
        .with_dead_band(DEAD_BAND_W)
        .with_threads(THREADS)
        .with_record_timeline(false)
        .with_topology(tree)
}

/// Per-server simulated outcome: (makespan ps, energy bits, epochs).
type Outcome = Vec<(u64, u64, usize)>;

struct Plain {
    setup_s: f64,
    run_s: f64,
    server_epochs: usize,
    energy_j: f64,
    makespan_ms: f64,
    digest: u64,
    outcome: Outcome,
}

fn plain_pass(cfg: &ClusterConfig) -> Plain {
    let t = Instant::now();
    let sim = ClusterSim::new(cfg.clone());
    let setup_s = secs(t);
    let t = Instant::now();
    let r = sim.run();
    let run_s = secs(t);
    Plain {
        setup_s,
        run_s,
        server_epochs: r.outcomes.iter().map(|o| o.result.epochs).sum(),
        energy_j: r.total_energy_j(),
        makespan_ms: r.makespan().as_secs_f64() * 1e3,
        digest: fnv1a(r.digest().as_bytes()),
        outcome: r
            .outcomes
            .iter()
            .map(|o| {
                (
                    o.result.makespan.as_ps(),
                    o.result.total_energy_j().to_bits(),
                    o.result.epochs,
                )
            })
            .collect(),
    }
}

/// A server travelling through the worker pool with its last step time.
struct Timed {
    server: Server,
    step_s: f64,
}

/// Everything the traced loop measures.
#[derive(Default)]
struct Traced {
    server_new_s: f64,
    run_s: f64,
    step_s: Vec<f64>,
    status_s: f64,
    barrier_s: Vec<f64>,
    wake_queue_s: f64,
    pool_wall_s: f64,
    finalize_s: f64,
    barriers: u64,
    awake_reports: u64,
    compared_reports: u64,
    moved_reports: u64,
    changed_reports: u64,
    steps_w: Vec<f64>,
    moved_steps_w: Vec<f64>,
    /// Per barrier: (reports compared, reports moved beyond the band).
    moved_by_barrier: Vec<(u64, u64)>,
    demand_w: Vec<f64>,
    floor_share: Vec<f64>,
    over_budget: Vec<(u64, f64)>,
    target_instrs: u64,
    outcome: Outcome,
    sent: u64,
    grants_sent: u64,
}

/// The event engine's barrier loop, rebuilt from public types with a
/// timer at every layer boundary. Mirrors `cluster`'s `EventEngine::run`
/// step for step, so its results must equal the untraced run's bit for
/// bit.
fn traced_pass(cfg: &ClusterConfig) -> Traced {
    let mut tr = Traced::default();
    let n = cfg.servers.len();
    let epochs = cfg.epochs_per_round;
    let initial = cfg.global_cap_w / n as f64;

    let t = Instant::now();
    let chunk = n.div_ceil(THREADS);
    let mut slots: Vec<Option<Timed>> = Vec::new();
    slots.resize_with(n, || None);
    std::thread::scope(|scope| {
        for (specs, out) in cfg.servers.chunks(chunk).zip(slots.chunks_mut(chunk)) {
            scope.spawn(move || {
                for (spec, slot) in specs.iter().zip(out) {
                    *slot = Some(Timed {
                        server: Server::new(spec, initial),
                        step_s: 0.0,
                    });
                }
            });
        }
    });
    tr.server_new_s = secs(t);

    let run = Instant::now();
    let names: Vec<String> = cfg.servers.iter().map(|s| s.name.clone()).collect();
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    tr.target_instrs = slots
        .iter()
        .map(|s| s.as_ref().expect("built").server.total_target_instrs())
        .sum();
    let pool = WorkerPool::new(THREADS, move |s: &mut Timed| {
        let t = Instant::now();
        s.server.step_round(epochs);
        s.step_s = secs(t);
    });
    let t = Instant::now();
    let mut queue = ShardedWakeQueue::new(THREADS);
    for i in 0..n {
        queue.push(Ps::ZERO, i);
    }
    tr.wake_queue_s += secs(t);
    let mut telemetry = TelemetrySlab::new(n);
    let mut plane = ControlPlane::new(cfg);
    let mut last: Vec<Option<ServerDemand>> = vec![None; n];
    let mut awake: Vec<usize> = Vec::new();
    let mut just_finished: Vec<usize> = Vec::new();
    let mut reports: Vec<(usize, ServerDemand)> = Vec::new();
    let mut round = 0u64;
    loop {
        let t = Instant::now();
        let Some(now) = queue.peek_time() else {
            tr.wake_queue_s += secs(t);
            break;
        };
        awake.clear();
        reports.clear();
        queue.pop_due(now, &mut awake);
        tr.wake_queue_s += secs(t);

        for &i in &just_finished {
            telemetry.deactivate(i);
            reports.push((i, telemetry.demand(i)));
        }
        let (compared_before, moved_before) = (tr.compared_reports, tr.moved_reports);
        for &i in &awake {
            let t = Instant::now();
            let d = slots[i]
                .as_mut()
                .expect("server at barrier")
                .server
                .status()
                .demand;
            tr.status_s += secs(t);
            if let Some(prev) = last[i] {
                tr.compared_reports += 1;
                let step = (d.demand_w - prev.demand_w).abs();
                let moved = step > DEAD_BAND_W
                    || (d.min_w - prev.min_w).abs() > DEAD_BAND_W
                    || d.active != prev.active;
                if moved {
                    tr.moved_reports += 1;
                    tr.moved_steps_w.push(step);
                }
                if d.demand_w.to_bits() != prev.demand_w.to_bits()
                    || d.min_w.to_bits() != prev.min_w.to_bits()
                {
                    tr.changed_reports += 1;
                    tr.steps_w.push(step);
                }
            }
            if d.active {
                tr.demand_w.push(d.demand_w);
                if d.demand_w > 0.0 {
                    tr.floor_share.push(d.min_w / d.demand_w);
                }
            }
            last[i] = Some(d);
            telemetry.set(i, d);
            reports.push((i, d));
        }
        tr.awake_reports += awake.len() as u64;
        tr.moved_by_barrier.push((
            tr.compared_reports - compared_before,
            tr.moved_reports - moved_before,
        ));

        let t = Instant::now();
        let caps = plane.barrier(round, &reports, cfg, &names);
        tr.barrier_s.push(secs(t));
        let total: f64 = caps.iter().sum();
        if !crate::common::within_budget(total, cfg.global_cap_w, n) {
            tr.over_budget.push((round, total));
        }
        for &i in just_finished.iter().chain(&awake) {
            slots[i]
                .as_mut()
                .expect("server at barrier")
                .server
                .set_cap(caps[i]);
        }
        just_finished.clear();
        telemetry.clear_dirty();

        let jobs: Vec<(usize, Timed)> = awake
            .iter()
            .map(|&i| (i, slots[i].take().expect("server at barrier")))
            .collect();
        let t = Instant::now();
        pool.run(jobs, |i, s| {
            tr.step_s.push(s.step_s);
            slots[i] = Some(s);
        });
        tr.pool_wall_s += secs(t);

        let next = Ps::new(now.as_ps() + 1);
        let t = Instant::now();
        for &i in &awake {
            if slots[i].as_ref().expect("stepped").server.is_done() {
                just_finished.push(i);
            } else {
                queue.push(next, i);
            }
        }
        tr.wake_queue_s += secs(t);
        round += 1;
    }
    tr.barriers = round;
    drop(pool);
    let t = Instant::now();
    for slot in slots {
        let r = slot.expect("server returned").server.finalize();
        tr.outcome
            .push((r.makespan.as_ps(), r.total_energy_j().to_bits(), r.epochs));
    }
    tr.finalize_s = secs(t);
    let stats = plane.finish();
    tr.sent = stats.plane.sent;
    tr.grants_sent = stats.grants_sent;
    tr.run_s = secs(run);
    tr
}

fn check_plain(checks: &mut Checks, p: &Plain, reference: &Plain) {
    checks.begin();
    checks.check(p.digest == reference.digest, || {
        format!(
            "fleet-batch digest {:016x} differs from the first pass {:016x}",
            p.digest, reference.digest
        )
    });
    checks.check(p.energy_j.is_finite() && p.energy_j > 0.0, || {
        format!("fleet energy {}", p.energy_j)
    });
}

fn check_traced(checks: &mut Checks, t: &Traced, reference: &Plain) {
    checks.begin();
    checks.check(t.over_budget.is_empty(), || {
        format!(
            "traced barriers over the budget (round, in-force W): {:?}",
            &t.over_budget[..t.over_budget.len().min(3)]
        )
    });
    let diverged = t
        .outcome
        .iter()
        .zip(&reference.outcome)
        .position(|(a, b)| a != b);
    checks.check(
        t.outcome.len() == reference.outcome.len() && diverged.is_none(),
        || {
            format!(
                "traced loop does not reproduce the untraced run (first divergent server {diverged:?}); \
                 its per-layer numbers describe a different program"
            )
        },
    );
}

/// Runs the workload for the measurement window.
pub fn run(opts: &Opts) -> Report {
    let mut report = Report::new(opts.trace);
    let cfg = config(opts);
    let window = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let (plain, rss_mb) = repeat_for(window, 3, || plain_pass(&cfg));
    let reference = &plain[0];
    for p in &plain {
        check_plain(&mut report.checks, p, reference);
    }
    let run_s = median(&plain.iter().map(|p| p.run_s).collect::<Vec<_>>());
    let ns_per_epoch = |p: &Plain| p.run_s * 1e9 / p.server_epochs as f64;
    report.note(format!(
        "fleet-batch: {} servers, {} passes, {} server-epochs per pass, digest {:016x}",
        cfg.servers.len(),
        plain.len(),
        reference.server_epochs,
        reference.digest
    ));
    report.note(format!(
        "fleet-batch: ns_per_server_epoch by pass {:?}",
        plain
            .iter()
            .map(|p| ns_per_epoch(p).round())
            .collect::<Vec<_>>()
    ));
    report.headline(
        "ns_per_server_epoch",
        median(&plain.iter().map(ns_per_epoch).collect::<Vec<_>>()),
    );
    report.headline("sim_fleet_energy_j", reference.energy_j);
    report.headline("sim_makespan_ms", reference.makespan_ms);
    if !opts.trace {
        report.set(
            "setup_s",
            median(&plain.iter().map(|p| p.setup_s).collect::<Vec<_>>()),
        );
        report.set("peak_rss_mb", rss_mb);
        report.set("sim_energy_j", reference.energy_j);
        return report;
    }

    let (traced, _) = repeat_for(window, 2, || traced_pass(&cfg));
    for t in &traced {
        check_traced(&mut report.checks, t, reference);
    }
    let t = &traced[0];
    let traced_run_s = median(&traced.iter().map(|t| t.run_s).collect::<Vec<_>>());
    let med = |f: &dyn Fn(&Traced) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let step_s: Vec<f64> = traced
        .iter()
        .flat_map(|t| t.step_s.iter().copied())
        .collect();
    let barrier_s: Vec<f64> = traced
        .iter()
        .flat_map(|t| t.barrier_s.iter().copied())
        .collect();
    let compared = t.compared_reports.max(1) as f64;
    report.note(format!(
        "fleet-batch trace: per-barrier reports moved beyond {DEAD_BAND_W} W / compared: {:?}",
        t.moved_by_barrier
    ));
    report.note(format!(
        "fleet-batch trace: {} traced passes; {} of {} compared reports moved more than {DEAD_BAND_W} W, {} moved at all",
        traced.len(),
        t.moved_reports,
        t.compared_reports,
        t.changed_reports
    ));

    let m = &mut report;
    m.set("cluster.server_new_ms", 1e3 * med(&|t| t.server_new_s));
    m.set("cluster.step_round_us_p50", 1e6 * percentile(&step_s, 0.5));
    m.set("cluster.status_ms", 1e3 * med(&|t| t.status_s));
    m.set(
        "cluster.ctrlplane_barrier_ms_p50",
        1e3 * percentile(&barrier_s, 0.5),
    );
    m.set(
        "cluster.ctrlplane_barrier_share_pct",
        100.0 * med(&|t| t.barrier_s.iter().sum::<f64>() / t.run_s),
    );
    m.set(
        "cluster.engine_wake_queue_ms",
        1e3 * med(&|t| t.wake_queue_s),
    );
    m.set(
        "cluster.engine_pool_idle_share",
        med(&|t| 1.0 - t.step_s.iter().sum::<f64>() / (THREADS as f64 * t.pool_wall_s)),
    );
    m.set("cluster.server_finalize_ms", 1e3 * med(&|t| t.finalize_s));
    m.set("cluster.barriers", t.barriers as f64);
    m.set(
        "cluster.server_epochs",
        t.outcome.iter().map(|o| o.2).sum::<usize>() as f64,
    );
    m.set("cluster.awake_reports", t.awake_reports as f64);
    m.set("cluster.moved_reports", t.moved_reports as f64);
    m.set(
        "calib.moved_share_pct",
        100.0 * t.moved_reports as f64 / compared,
    );
    m.set(
        "calib.changed_share_pct",
        100.0 * t.changed_reports as f64 / compared,
    );
    m.set("calib.step_w_p50", percentile(&t.steps_w, 0.5));
    m.set("calib.step_w_p90", percentile(&t.steps_w, 0.9));
    m.set("calib.moved_step_w_p50", percentile(&t.moved_steps_w, 0.5));
    m.set("calib.demand_w_p50", percentile(&t.demand_w, 0.5));
    m.set("calib.floor_share_p50", percentile(&t.floor_share, 0.5));
    m.set("netsim.sent", t.sent as f64);
    m.set("ctrlplane.grants_sent", t.grants_sent as f64);
    m.set(
        "node.host_ns_per_kinstr",
        med(&|t| t.step_s.iter().sum::<f64>() * 1e9 / (t.target_instrs as f64 / 1000.0)),
    );
    m.set("trace.overhead_ms", 1e3 * (traced_run_s - run_s));
    m.set("trace.overhead_pct", 100.0 * (traced_run_s / run_s - 1.0));
    report
}
