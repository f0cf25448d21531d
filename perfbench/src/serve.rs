//! `serve-dag`: a closed-loop serving fleet on the tier graph
//! `fe[2] -> app[4]*2 -> st[4]*2@4` with the critical-path split,
//! least-queue balancing and fluid clients, on the event engine.

use crate::common::{fnv1a, median, repeat_for, secs, Checks, Opts, Report, Size};
use service::{
    BalancePolicy, CapSplit, ClientModel, ClosedLoopConfig, EngineKind, ServiceConfig,
    ServiceResult, ServiceServerSpec, ServiceSim, TierConfig, TierGraph,
};
use simkernel::Ps;
use std::time::Instant;

const GRAPH: &str = "fe[2] -> app[4]*2 -> st[4]*2@4";
const WATTS_PER_SERVER: f64 = 55.0;
const REQUEST_INSTRS: f64 = 10_000.0;
const QUEUE_CAPACITY: usize = 1024;

fn config(opts: &Opts) -> ServiceConfig {
    let graph: TierGraph = GRAPH.parse().expect("tier graph parses");
    let fleet: Vec<ServiceServerSpec> = graph
        .server_names()
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let mix = match name.chars().next() {
                Some('f') => "ILP1",
                Some('a') => "MID1",
                _ => "MID2",
            };
            let mut spec = ServiceServerSpec::small(name, mix, opts.derive(3000 + i as u64), 0.0);
            spec.queue_capacity = QUEUE_CAPACITY;
            spec
        })
        .collect();
    let budget = WATTS_PER_SERVER * fleet.len() as f64;
    let (clients, rounds) = match opts.size {
        Size::Full => (800, 9),
        Size::Tiny => (40, 6),
    };
    ServiceConfig::new(fleet, budget, CapSplit::FastCap)
        .with_rounds(rounds)
        .with_threads(2)
        .with_engine(EngineKind::Event)
        .with_closed_loop(
            ClosedLoopConfig::new(clients, Ps::from_us(100), BalancePolicy::LeastQueue)
                .with_model(ClientModel::Fluid)
                .with_mean_request_instrs(REQUEST_INSTRS)
                .with_seed(opts.derive(4)),
        )
        .with_tiers(TierConfig::new(graph))
}

struct Pass {
    setup_s: f64,
    run_s: f64,
    result: ServiceResult,
    digest: u64,
}

impl Pass {
    fn dags(&self) -> u64 {
        self.result
            .tiers
            .as_ref()
            .map_or(0, |t| t.stats.roots_closed)
    }

    fn arrived(&self) -> u64 {
        self.result.outcomes.iter().map(|o| o.arrived).sum()
    }

    fn shed_pct(&self) -> f64 {
        100.0 * self.result.total_shed() as f64 / self.arrived().max(1) as f64
    }
}

fn pass(cfg: &ServiceConfig) -> Pass {
    let t = Instant::now();
    let sim = ServiceSim::new(cfg.clone());
    let setup_s = secs(t);
    let t = Instant::now();
    let result = sim.run();
    let run_s = secs(t);
    let digest = fnv1a(result.digest().as_bytes());
    Pass {
        setup_s,
        run_s,
        result,
        digest,
    }
}

fn check_pass(checks: &mut Checks, p: &Pass, reference: u64, clients: usize) {
    checks.begin();
    checks.check(p.digest == reference, || {
        format!(
            "serve-dag digest {:016x} differs from the first pass {reference:016x}",
            p.digest
        )
    });
    let r = &p.result;
    let (Some(cl), Some(t)) = (&r.closed_loop, &r.tiers) else {
        checks.check(false, || {
            "serve-dag result lacks its client or tier summary".into()
        });
        return;
    };
    let s = &t.stats;
    // Requests: every generated root is completed, failed (a span shed or
    // abandoned) or still in flight; every client is thinking or waiting.
    checks.check(cl.generated == s.roots_opened, || {
        format!(
            "generated {} != roots opened {}",
            cl.generated, s.roots_opened
        )
    });
    checks.check(s.roots_opened == s.roots_closed + s.open_roots, || {
        format!(
            "roots opened {} != closed {} + in flight {}",
            s.roots_opened, s.roots_closed, s.open_roots
        )
    });
    checks.check(cl.responses == s.roots_closed, || {
        format!(
            "responses {} != roots closed {}",
            cl.responses, s.roots_closed
        )
    });
    checks.check(cl.waiting_at_end as u64 == s.open_roots, || {
        format!(
            "waiting clients {} != roots in flight {}",
            cl.waiting_at_end, s.open_roots
        )
    });
    checks.check(cl.thinking_at_end + cl.waiting_at_end == clients, || {
        format!(
            "client population {} + {} != {clients}",
            cl.thinking_at_end, cl.waiting_at_end
        )
    });
    checks.check(s.spans_opened == s.spans_closed + s.open_spans, || {
        format!(
            "spans opened {} != closed {} + open {}",
            s.spans_opened, s.spans_closed, s.open_spans
        )
    });
    let terminal: u64 = r
        .outcomes
        .iter()
        .map(|o| o.completed + o.shed + o.abandoned)
        .sum();
    checks.check(p.arrived() == terminal, || {
        format!(
            "server requests arrived {} != completed + shed + abandoned {terminal}",
            p.arrived()
        )
    });
    checks.check(s.sojourn_dominance, || {
        "a child span outlived its root".into()
    });
}

/// Runs the workload for the measurement window.
pub fn run(opts: &Opts) -> Report {
    let mut report = Report::new(opts.trace);
    let cfg = config(opts);
    let clients = cfg.closed_loop.as_ref().map_or(0, |c| c.clients);
    let window = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let (plain, rss_mb) = repeat_for(window, 3, || pass(&cfg));
    let reference = plain[0].digest;
    for p in &plain {
        check_pass(&mut report.checks, p, reference, clients);
    }
    let run_s = median(&plain.iter().map(|p| p.run_s).collect::<Vec<_>>());
    let us_per_dag = |p: &Pass| p.run_s * 1e6 / p.dags().max(1) as f64;
    let first = &plain[0];
    let tiers = first.result.tiers.as_ref().expect("tier summary");
    report.note(format!(
        "serve-dag: {GRAPH}, {clients} fluid clients, {} passes, {} DAGs closed per pass ({} failed), digest {reference:016x}",
        plain.len(),
        first.dags(),
        tiers.stats.roots_failed
    ));
    report.note(format!(
        "serve-dag: us_per_dag by pass {:?}",
        plain
            .iter()
            .map(|p| us_per_dag(p).round())
            .collect::<Vec<_>>()
    ));
    report.headline(
        "us_per_dag",
        median(&plain.iter().map(us_per_dag).collect::<Vec<_>>()),
    );
    report.headline("sim_fleet_energy_j", first.result.total_energy_j());
    report.headline("sim_e2e_p99_ms", tiers.e2e_p99_s() * 1e3);
    report.headline("sim_shed_pct", first.shed_pct());
    if !opts.trace {
        report.set(
            "setup_s",
            median(&plain.iter().map(|p| p.setup_s).collect::<Vec<_>>()),
        );
        report.set("peak_rss_mb", rss_mb);
        report.set("sim_energy_j", first.result.total_energy_j());
        return report;
    }

    // The serving layers have no in-program spans yet: the traced passes
    // run the same program and read its counters.
    let (traced, _) = repeat_for(window, 2, || pass(&cfg));
    for p in &traced {
        check_pass(&mut report.checks, p, reference, clients);
    }
    let traced_run_s = median(&traced.iter().map(|p| p.run_s).collect::<Vec<_>>());
    let r = &traced[0].result;
    let cl = r.closed_loop.as_ref().expect("client summary");
    let s = &r.tiers.as_ref().expect("tier summary").stats;
    let sum =
        |f: &dyn Fn(&service::ServiceOutcome) -> u64| r.outcomes.iter().map(f).sum::<u64>() as f64;
    let m = &mut report;
    m.set(
        "service.sim_new_ms",
        1e3 * median(&traced.iter().map(|p| p.setup_s).collect::<Vec<_>>()),
    );
    m.set("service.generated", cl.generated as f64);
    m.set("service.completed", sum(&|o| o.completed));
    m.set("service.shed", sum(&|o| o.shed));
    m.set("service.abandoned", sum(&|o| o.abandoned));
    m.set("service.rounds", r.rounds as f64);
    m.set("topology.roots_closed", s.roots_closed as f64);
    m.set("topology.roots_failed", s.roots_failed as f64);
    m.set("topology.spans_opened", s.spans_opened as f64);
    m.set("topology.spans_closed", s.spans_closed as f64);
    m.set("topology.spans_failed", s.spans_failed as f64);
    m.set("trace.overhead_ms", 1e3 * (traced_run_s - run_s));
    m.set("trace.overhead_pct", 100.0 * (traced_run_s / run_s - 1.0));
    report
}
