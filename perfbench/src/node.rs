//! `node-paper`: one 16-core server in the paper's configuration running
//! MEM1, MIX2 and ILP1 under CoScale and under the StaticMax baseline.

use crate::common::{fnv1a, median, percentile, secs, Checks, Opts, Report, Size};
use coscale::{make_policy, Model, Plan, Policy, PolicyKind, RunResult, Runner, SimConfig};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const MIXES: [&str; 3] = ["MEM1", "MIX2", "ILP1"];
const POLICIES: [PolicyKind; 2] = [PolicyKind::CoScale, PolicyKind::StaticMax];

fn config(mix: &str, opts: &Opts, stream: u64) -> SimConfig {
    let mut cfg = SimConfig::for_mix(workloads::mix(mix).expect("paper mix exists"));
    cfg.seed = opts.derive(stream);
    cfg.target_instrs = match opts.size {
        Size::Full => 1_000_000,
        Size::Tiny => 100_000,
    };
    cfg
}

/// `Policy` wrapper that times every `decide` call.
struct TimedPolicy {
    inner: Box<dyn Policy>,
    decide_s: Arc<Mutex<Vec<f64>>>,
}

impl Policy for TimedPolicy {
    fn kind(&self) -> PolicyKind {
        self.inner.kind()
    }

    fn needs_oracle(&self) -> bool {
        self.inner.needs_oracle()
    }

    fn decide(&mut self, model: &Model<'_>, current: &Plan) -> Plan {
        let t = Instant::now();
        let plan = self.inner.decide(model, current);
        let dt = secs(t);
        self.decide_s.lock().expect("decide timer lock").push(dt);
        plan
    }
}

/// One simulated run of one (mix, policy) pair.
struct Run {
    mix: &'static str,
    result: RunResult,
    instrs: u64,
    l2_accesses: u64,
    l2_misses: u64,
    prefetch_useful: u64,
    prefetch_judged: u64,
}

/// One pass over all six runs.
struct Pass {
    setup_s: f64,
    run_s: f64,
    runs: Vec<Run>,
    epoch_s: Vec<f64>,
    decide_s: Vec<f64>,
}

impl Pass {
    fn instrs(&self) -> u64 {
        self.runs.iter().map(|r| r.instrs).sum()
    }

    /// Cores across all six runs.
    fn cores(&self) -> f64 {
        self.runs
            .iter()
            .map(|r| r.result.completion.len())
            .sum::<usize>() as f64
    }

    fn energy(&self, kind: PolicyKind) -> f64 {
        self.runs
            .iter()
            .filter(|r| r.result.policy == kind)
            .map(|r| r.result.total_energy_j())
            .sum()
    }

    fn savings_pct(&self) -> f64 {
        100.0 * (1.0 - self.energy(PolicyKind::CoScale) / self.energy(PolicyKind::StaticMax))
    }

    fn max_degradation(&self) -> f64 {
        let mut worst = f64::NEG_INFINITY;
        for mix in MIXES {
            let of = |k| {
                self.runs
                    .iter()
                    .find(|r| r.mix == mix && r.result.policy == k)
                    .map(|r| &r.result)
                    .expect("every mix ran under both policies")
            };
            for d in of(PolicyKind::CoScale).degradation_vs(of(PolicyKind::StaticMax)) {
                worst = worst.max(d);
            }
        }
        worst
    }

    /// Bit-exact digest of every run's simulated outcome.
    fn digest(&self) -> u64 {
        let mut s = String::new();
        for r in &self.runs {
            s.push_str(&format!(
                "{} {} epochs={} makespan={} energy={:016x} instrs={};",
                r.mix,
                r.result.policy,
                r.result.epochs,
                r.result.makespan.as_ps(),
                r.result.total_energy_j().to_bits(),
                r.instrs
            ));
        }
        fnv1a(s.as_bytes())
    }
}

fn pass(opts: &Opts, traced: bool) -> Pass {
    let mut p = Pass {
        setup_s: 0.0,
        run_s: 0.0,
        runs: Vec::new(),
        epoch_s: Vec::new(),
        decide_s: Vec::new(),
    };
    for (m, mix) in MIXES.iter().enumerate() {
        for kind in POLICIES {
            let cfg = config(mix, opts, m as u64);
            let decide_s = Arc::new(Mutex::new(Vec::new()));
            let t = Instant::now();
            let mut runner = Runner::new(cfg, kind);
            if traced {
                runner = runner.with_policy(Box::new(TimedPolicy {
                    inner: make_policy(kind),
                    decide_s: Arc::clone(&decide_s),
                }));
            }
            p.setup_s += secs(t);
            let t = Instant::now();
            while !runner.is_done() {
                if traced {
                    let te = Instant::now();
                    runner.step_epoch();
                    p.epoch_s.push(secs(te));
                } else {
                    runner.step_epoch();
                }
            }
            let instrs = runner.system().instrs().iter().sum();
            let stats = *runner.system().l2().stats();
            let result = runner.finalize();
            p.run_s += secs(t);
            p.decide_s
                .extend(decide_s.lock().expect("decide timer lock").iter());
            p.runs.push(Run {
                mix,
                result,
                instrs,
                l2_accesses: stats.hits + stats.misses,
                l2_misses: stats.misses,
                prefetch_useful: stats.prefetch_useful,
                prefetch_judged: stats.prefetch_useful + stats.prefetch_unused,
            });
        }
    }
    p
}

fn check_pass(checks: &mut Checks, p: &Pass, reference: u64, cfg_target: u64) {
    checks.begin();
    checks.check(p.digest() == reference, || {
        format!(
            "node-paper digest {:016x} differs from the first pass {reference:016x}",
            p.digest()
        )
    });
    for r in &p.runs {
        let cores = r.result.completion.len() as u64;
        checks.check(r.instrs >= cfg_target * cores, || {
            format!(
                "{} {}: committed {} < target {}",
                r.mix,
                r.result.policy,
                r.instrs,
                cfg_target * cores
            )
        });
        let e = r.result.total_energy_j();
        checks.check(e.is_finite() && e > 0.0, || {
            format!("{} {}: energy {e}", r.mix, r.result.policy)
        });
    }
}

/// Runs the workload for the measurement window.
pub fn run(opts: &Opts) -> Report {
    let mut report = Report::new(opts.trace);
    let target_instrs = config(MIXES[0], opts, 0).target_instrs;
    let target = target_instrs as f64;
    let window = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let (plain, rss_mb) = crate::common::repeat_for(window, 3, || pass(opts, false));
    let reference = plain[0].digest();
    for p in &plain {
        check_pass(&mut report.checks, p, reference, target_instrs);
    }
    let mips = |p: &Pass| p.instrs() as f64 / p.run_s / 1e6;
    let run_s = median(&plain.iter().map(|p| p.run_s).collect::<Vec<_>>());
    let first = &plain[0];
    report.note(format!(
        "node-paper: {} passes of 6 runs, {} instructions committed per pass, digest {reference:016x}",
        plain.len(),
        first.instrs()
    ));
    report.note(format!(
        "node-paper: sim_mips by pass {:?}",
        plain
            .iter()
            .map(|p| (mips(p) * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    ));
    report.headline(
        "sim_mips",
        median(&plain.iter().map(mips).collect::<Vec<_>>()),
    );
    report.headline("sim_energy_savings_pct", first.savings_pct());
    report.headline("sim_max_degradation_pct", 100.0 * first.max_degradation());
    if !opts.trace {
        report.set(
            "setup_s",
            median(&plain.iter().map(|p| p.setup_s).collect::<Vec<_>>()),
        );
        report.set("peak_rss_mb", rss_mb);
        report.set("sim_energy_j", first.energy(PolicyKind::CoScale));
        return report;
    }

    let (traced, _) = crate::common::repeat_for(window, 3, || pass(opts, true));
    for p in &traced {
        check_pass(&mut report.checks, p, reference, target_instrs);
    }
    let traced_run_s = median(&traced.iter().map(|p| p.run_s).collect::<Vec<_>>());
    let epoch_s: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.epoch_s.iter().copied())
        .collect();
    let decide_s: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.decide_s.iter().copied())
        .collect();
    let total_run: f64 = traced.iter().map(|p| p.run_s).sum();
    let t = &traced[0];
    let runs = t.runs.len() as f64;
    let kinstr = t.instrs() as f64 / 1000.0;
    let sum = |f: &dyn Fn(&Run) -> u64| t.runs.iter().map(f).sum::<u64>() as f64;
    let mean = |f: &dyn Fn(&Run) -> f64| t.runs.iter().map(f).sum::<f64>() / runs;
    let epochs: usize = t.runs.iter().map(|r| r.result.epochs).sum();
    report.note(format!(
        "node-paper trace: {} traced passes, {} epochs and {} decide calls timed",
        traced.len(),
        epoch_s.len(),
        decide_s.len()
    ));

    let m = &mut report;
    m.set(
        "coscale.runner_new_ms",
        1e3 * median(&traced.iter().map(|p| p.setup_s).collect::<Vec<_>>()),
    );
    m.set("coscale.step_epoch_ms_p50", 1e3 * percentile(&epoch_s, 0.5));
    m.set("coscale.decide_us_p50", 1e6 * percentile(&decide_s, 0.5));
    m.set(
        "coscale.decide_share_pct",
        100.0 * decide_s.iter().sum::<f64>() / total_run,
    );
    m.set("coscale.epochs", epochs as f64);
    m.set("cpusim.l2_accesses", sum(&|r| r.l2_accesses));
    m.set("cpusim.l2_mpki", sum(&|r| r.l2_misses) / kinstr);
    m.set(
        "cpusim.prefetch_accuracy",
        sum(&|r| r.prefetch_useful) / sum(&|r| r.prefetch_judged).max(1.0),
    );
    m.set(
        "memsim.bus_utilization",
        mean(&|r| r.result.bus_utilization),
    );
    m.set("memsim.row_hit_rate", mean(&|r| r.result.row_hit_rate));
    m.set(
        "memsim.read_lat_p99_ns",
        mean(&|r| r.result.read_lat_p99_ns),
    );
    m.set(
        "node.host_ns_per_kinstr",
        median(
            &traced
                .iter()
                .map(|p| p.epoch_s.iter().sum::<f64>() * 1e9 / (target * p.cores() / 1000.0))
                .collect::<Vec<_>>(),
        ),
    );
    m.set("trace.overhead_ms", 1e3 * (traced_run_s - run_s));
    m.set("trace.overhead_pct", 100.0 * (traced_run_s / run_s - 1.0));
    report
}
