//! One simulated server inside the cluster: the existing epoch engine
//! (`coscale::Runner`) running `PowerCapPolicy` under a cap the cluster
//! coordinator rewrites at round boundaries.

use crate::coordinator::ServerDemand;
use crate::ServerSpec;
use coscale::{
    EpochRecord, Model, Plan, Policy, PolicyKind, PowerCapPolicy, RunResult, Runner, SimConfig,
};
use simkernel::Ps;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A power cap shared between the coordinator (writer, at round barriers)
/// and the server's policy (reader, each epoch decision). Stored as f64
/// bits in an atomic so `Server` stays `Send` for the round fan-out.
#[derive(Clone, Debug)]
pub struct SharedCap(Arc<AtomicU64>);

impl SharedCap {
    /// A fresh cap cell holding `cap_w`.
    pub fn new(cap_w: f64) -> SharedCap {
        SharedCap(Arc::new(AtomicU64::new(cap_w.to_bits())))
    }

    /// Rewrites the cap (coordinator side).
    pub fn set(&self, cap_w: f64) {
        self.0.store(cap_w.to_bits(), Ordering::Relaxed);
    }

    /// Reads the current cap (policy side).
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// `PowerCapPolicy` with its budget read from a [`SharedCap`] at each
/// decision, so the coordinator can move the cap without rebuilding the
/// runner. Public so other fleet layers (e.g. the `service` crate) can
/// build capped runners of their own.
pub struct CappedPolicy {
    inner: PowerCapPolicy,
    cap: SharedCap,
}

impl CappedPolicy {
    /// A capping policy that reads its budget from `cap` at each decision.
    pub fn new(cap: SharedCap) -> CappedPolicy {
        CappedPolicy {
            inner: PowerCapPolicy::new(f64::MAX),
            cap,
        }
    }
}

impl Policy for CappedPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::PowerCap
    }

    fn decide(&mut self, model: &Model<'_>, current: &Plan) -> Plan {
        // Caps at or below zero mean "no budget granted"; run the floor
        // plan rather than feeding PowerCapPolicy an invalid budget. A NaN
        // cap is invalid too: `power > NaN` is false, so PowerCapPolicy
        // would run the all-max plan uncapped.
        let cap_w = self.cap.get();
        if cap_w.is_nan() || cap_w <= 0.0 {
            return Plan {
                cores: vec![0; model.n_cores()],
                mem: 0,
            };
        }
        self.inner.cap_w = cap_w;
        self.inner.decide(model, current)
    }
}

/// Telemetry a server reports to the coordinator at a round boundary.
#[derive(Clone, Copy, Debug)]
pub struct ServerStatus {
    /// Demand estimate for cap splitting.
    pub demand: ServerDemand,
    /// Average measured power over the last round, watts (0 before the
    /// first round).
    pub measured_w: f64,
    /// The cap the server ran under during the last round, watts.
    pub cap_w: f64,
    /// Simulated time reached.
    pub now: Ps,
}

/// Where a server is in its life. Only a running server holds a node
/// simulator (L2 tags, DRAM channels, event queue); a fleet whose servers
/// finish at different times therefore never holds every simulator at once.
enum Lifecycle {
    /// Not yet woken: the configuration to build the simulator from.
    Pending(Box<SimConfig>),
    /// Woken and unfinished: the runner with its capped policy.
    Running(Box<Runner>),
    /// Workload complete: the simulator is gone, its result remains.
    Retired(Box<Retired>),
    /// The runner is out on `step_round`'s stack. Never observed between
    /// calls.
    Stepping,
}

/// What a finished server keeps of its runner.
struct Retired {
    result: RunResult,
    /// Simulated time the runner had reached when it finished.
    now: Ps,
}

const STEPPING: &str = "server state observed mid-step";

/// One server: name, lifecycle state, shared cap, and round telemetry
/// accumulators.
///
/// The runner is built in the first [`Server::step_round`] (which the
/// engines call on their workers) and dropped in the `step_round` whose
/// epochs complete the workload, keeping only the finalized
/// [`RunResult`]. Both are bit-identical to a runner built at construction
/// and finalized at the end: construction reads nothing but the config,
/// and [`Runner::finalize`] is a pure read of completed state.
pub struct Server {
    /// Display name from the spec.
    pub name: String,
    state: Lifecycle,
    cap: SharedCap,
    cap_w: f64,
    mean_cap_num: f64,
    rounds_run: u64,
    violations: u64,
    total_target_instrs: u64,
    // Round-delta bookkeeping.
    round_energy_j: f64,
    round_start: Ps,
    records_seen: usize,
}

impl Server {
    /// Prepares the server from its spec, initially granted
    /// `initial_cap_w`. Only the spec is kept; the node simulator is built
    /// on the first [`Server::step_round`].
    ///
    /// # Panics
    ///
    /// Panics if the spec's simulation configuration is invalid.
    pub fn new(spec: &ServerSpec, initial_cap_w: f64) -> Server {
        if let Err(e) = spec.config.validate() {
            panic!("invalid simulation config: {e}");
        }
        Server {
            name: spec.name.clone(),
            state: Lifecycle::Pending(Box::new(spec.config.clone())),
            cap: SharedCap::new(initial_cap_w),
            cap_w: initial_cap_w,
            mean_cap_num: 0.0,
            rounds_run: 0,
            violations: 0,
            total_target_instrs: spec.config.target_instrs * spec.config.cores as u64,
            round_energy_j: 0.0,
            round_start: Ps::ZERO,
            records_seen: 0,
        }
    }

    /// Whether the server's workload is complete.
    pub fn is_done(&self) -> bool {
        match &self.state {
            Lifecycle::Pending(_) => false,
            Lifecycle::Running(runner) => runner.is_done(),
            Lifecycle::Retired(_) => true,
            Lifecycle::Stepping => unreachable!("{STEPPING}"),
        }
    }

    /// Assigns the cap for the coming round.
    pub fn set_cap(&mut self, cap_w: f64) {
        self.cap.set(cap_w);
        self.cap_w = cap_w;
    }

    /// The cap currently assigned, watts.
    pub fn cap_w(&self) -> f64 {
        self.cap_w
    }

    /// Runs up to `epochs` epochs (stopping early on completion), then
    /// settles round telemetry: mean cap, measured power, violations.
    /// Builds the runner on the first call and retires it on completion.
    pub fn step_round(&mut self, epochs: usize) {
        if self.is_done() {
            return;
        }
        let mut runner = match std::mem::replace(&mut self.state, Lifecycle::Stepping) {
            Lifecycle::Pending(config) => {
                let policy = CappedPolicy::new(self.cap.clone());
                Box::new(Runner::new(*config, PolicyKind::PowerCap).with_policy(Box::new(policy)))
            }
            Lifecycle::Running(runner) => runner,
            Lifecycle::Retired(_) => unreachable!("a retired server is done"),
            Lifecycle::Stepping => unreachable!("{STEPPING}"),
        };
        let energy_before = runner.energy_so_far_j();
        let t_before = runner.system().now();
        for _ in 0..epochs {
            if runner.is_done() {
                break;
            }
            runner.step_epoch();
        }
        let now = runner.system().now();
        let dt = (now - t_before).as_secs_f64();
        let de = runner.energy_so_far_j() - energy_before;
        let measured_w = if dt > 0.0 { de / dt } else { 0.0 };
        self.round_energy_j = de;
        self.round_start = t_before;
        self.mean_cap_num += self.cap_w;
        self.rounds_run += 1;
        // A violation means the model under-predicted: measured average
        // power over the round exceeded the granted cap beyond a 5%
        // modelling tolerance.
        if self.cap_w > 0.0 && measured_w > self.cap_w * 1.05 {
            self.violations += 1;
        }
        self.state = if runner.is_done() {
            Lifecycle::Retired(Box::new(Retired {
                result: runner.finalize(),
                now,
            }))
        } else {
            Lifecycle::Running(runner)
        };
    }

    /// The per-epoch decision records so far.
    fn records(&self) -> &[EpochRecord] {
        match &self.state {
            Lifecycle::Pending(_) => &[],
            Lifecycle::Running(runner) => runner.records(),
            Lifecycle::Retired(retired) => &retired.result.records,
            Lifecycle::Stepping => unreachable!("{STEPPING}"),
        }
    }

    /// Simulated time reached.
    fn now(&self) -> Ps {
        match &self.state {
            Lifecycle::Pending(_) => Ps::ZERO,
            Lifecycle::Running(runner) => runner.system().now(),
            Lifecycle::Retired(retired) => retired.now,
            Lifecycle::Stepping => unreachable!("{STEPPING}"),
        }
    }

    /// Round-boundary telemetry for the coordinator. Demand and floor are
    /// the mean of the model's per-epoch predictions since the last call
    /// (falling back to the most recent epoch, or zero before any epoch
    /// has run — the coordinator treats a zero-demand active server as
    /// "unknown" and splits uniformly).
    pub fn status(&mut self) -> ServerStatus {
        let records = self.records();
        let fresh = &records[self.records_seen.min(records.len())..];
        let (demand_w, min_w) = if fresh.is_empty() {
            records
                .last()
                .map_or((0.0, 0.0), |r| (r.demand_power_w, r.min_power_w))
        } else {
            let n = fresh.len() as f64;
            (
                fresh.iter().map(|r| r.demand_power_w).sum::<f64>() / n,
                fresh.iter().map(|r| r.min_power_w).sum::<f64>() / n,
            )
        };
        self.records_seen = records.len();
        let now = self.now();
        let dt = (now - self.round_start).as_secs_f64();
        let measured_w = if dt > 0.0 {
            self.round_energy_j / dt
        } else {
            0.0
        };
        ServerStatus {
            demand: ServerDemand {
                demand_w,
                min_w,
                active: !self.is_done(),
            },
            measured_w,
            cap_w: self.cap_w,
            now,
        }
    }

    /// Cap-violation rounds so far.
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Mean assigned cap over the rounds run, watts.
    pub fn mean_cap_w(&self) -> f64 {
        if self.rounds_run == 0 {
            0.0
        } else {
            self.mean_cap_num / self.rounds_run as f64
        }
    }

    /// Rounds this server participated in.
    pub fn rounds_run(&self) -> u64 {
        self.rounds_run
    }

    /// Total instructions the workload must commit (all cores).
    pub fn total_target_instrs(&self) -> u64 {
        self.total_target_instrs
    }

    /// Finishes the server and produces its single-server result.
    ///
    /// # Panics
    ///
    /// Panics if the workload has not completed.
    pub fn finalize(self) -> RunResult {
        match self.state {
            Lifecycle::Retired(retired) => retired.result,
            Lifecycle::Pending(_) | Lifecycle::Running(_) => {
                panic!("finalize() before workload completion")
            }
            Lifecycle::Stepping => unreachable!("{STEPPING}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic_fleet;

    /// Every field of a status as raw bits, so equality is bit-identity.
    fn bits(s: &ServerStatus) -> [u64; 6] {
        [
            s.demand.demand_w.to_bits(),
            s.demand.min_w.to_bits(),
            u64::from(s.demand.active),
            s.measured_w.to_bits(),
            s.cap_w.to_bits(),
            s.now.as_ps(),
        ]
    }

    /// The eager server this lifecycle replaced, as a reference model: the
    /// runner is built at construction and held until `finalize`, and
    /// telemetry reads the live runner.
    struct EagerServer {
        runner: Runner,
        cap: SharedCap,
        cap_w: f64,
        round_energy_j: f64,
        round_start: Ps,
        records_seen: usize,
    }

    impl EagerServer {
        fn new(spec: &ServerSpec, initial_cap_w: f64) -> EagerServer {
            let cap = SharedCap::new(initial_cap_w);
            let policy = CappedPolicy::new(cap.clone());
            let runner = Runner::new(spec.config.clone(), PolicyKind::PowerCap)
                .with_policy(Box::new(policy));
            EagerServer {
                runner,
                cap,
                cap_w: initial_cap_w,
                round_energy_j: 0.0,
                round_start: Ps::ZERO,
                records_seen: 0,
            }
        }

        fn set_cap(&mut self, cap_w: f64) {
            self.cap.set(cap_w);
            self.cap_w = cap_w;
        }

        fn step_round(&mut self, epochs: usize) {
            if self.runner.is_done() {
                return;
            }
            let energy_before = self.runner.energy_so_far_j();
            let t_before = self.runner.system().now();
            for _ in 0..epochs {
                if self.runner.is_done() {
                    break;
                }
                self.runner.step_epoch();
            }
            self.round_energy_j = self.runner.energy_so_far_j() - energy_before;
            self.round_start = t_before;
        }

        fn status(&mut self) -> ServerStatus {
            let records = self.runner.records();
            let fresh = &records[self.records_seen.min(records.len())..];
            let (demand_w, min_w) = if fresh.is_empty() {
                records
                    .last()
                    .map_or((0.0, 0.0), |r| (r.demand_power_w, r.min_power_w))
            } else {
                let n = fresh.len() as f64;
                (
                    fresh.iter().map(|r| r.demand_power_w).sum::<f64>() / n,
                    fresh.iter().map(|r| r.min_power_w).sum::<f64>() / n,
                )
            };
            self.records_seen = records.len();
            let dt = (self.runner.system().now() - self.round_start).as_secs_f64();
            let measured_w = if dt > 0.0 {
                self.round_energy_j / dt
            } else {
                0.0
            };
            ServerStatus {
                demand: ServerDemand {
                    demand_w,
                    min_w,
                    active: !self.runner.is_done(),
                },
                measured_w,
                cap_w: self.cap_w,
                now: self.runner.system().now(),
            }
        }
    }

    #[test]
    fn non_positive_or_nan_caps_run_the_floor_plan() {
        let spec = synthetic_fleet(1, 0.0).remove(0);
        for cap_w in [f64::NAN, 0.0, -5.0] {
            let mut server = Server::new(&spec, cap_w);
            server.step_round(1);
            let plan = &server.records().last().expect("one epoch ran").plan;
            assert!(
                plan.cores.iter().all(|&c| c == 0) && plan.mem == 0,
                "cap {cap_w} W ran {plan:?}"
            );
        }
    }

    #[test]
    fn pending_status_matches_a_fresh_runner() {
        let spec = synthetic_fleet(1, 0.0).remove(0);
        let mut server = Server::new(&spec, 40.0);
        assert!(matches!(server.state, Lifecycle::Pending(_)));
        assert!(!server.is_done());
        let mut fresh = EagerServer::new(&spec, 40.0);
        assert_eq!(bits(&server.status()), bits(&fresh.status()));
        // Reading telemetry does not wake the server.
        assert!(matches!(server.state, Lifecycle::Pending(_)));
    }

    #[test]
    fn lifecycle_matches_an_eager_runner_bit_for_bit() {
        // Idle servers finish in the first round, busy ones after many;
        // the caps cycle through binding, generous, NaN and zero grants.
        let caps = [40.0, 12.0, 90.0, f64::NAN, 0.0, 25.0, 7.5];
        for spec in synthetic_fleet(4, 0.5) {
            let mut lazy = Server::new(&spec, 30.0);
            let mut eager = EagerServer::new(&spec, 30.0);
            let mut round = 0;
            // Two rounds past completion exercise the retired status path.
            let mut after_done = 0;
            while after_done < 2 {
                let cap_w = caps[round % caps.len()];
                lazy.set_cap(cap_w);
                eager.set_cap(cap_w);
                lazy.step_round(3);
                eager.step_round(3);
                assert_eq!(
                    bits(&lazy.status()),
                    bits(&eager.status()),
                    "{} round {round}",
                    spec.name
                );
                assert_eq!(lazy.is_done(), eager.runner.is_done());
                if lazy.is_done() {
                    after_done += 1;
                }
                round += 1;
            }
            // Debug renders every f64 in shortest round-trip form, so equal
            // text means equal bits.
            assert_eq!(
                format!("{:?}", lazy.finalize()),
                format!("{:?}", eager.runner.finalize()),
                "{}",
                spec.name
            );
        }
    }

    #[test]
    fn a_finished_server_drops_its_runner_and_still_takes_caps() {
        let spec = synthetic_fleet(1, 1.0).remove(0);
        let mut server = Server::new(&spec, 50.0);
        while !server.is_done() {
            server.step_round(4);
        }
        assert!(matches!(server.state, Lifecycle::Retired(_)));
        let before = server.status();
        // The goodbye barrier releases a finished server to a zero cap.
        server.set_cap(0.0);
        server.step_round(4);
        assert_eq!(server.cap_w(), 0.0);
        let after = server.status();
        assert_eq!(after.cap_w, 0.0);
        assert!(!after.demand.active);
        assert_eq!(after.now, before.now);
        assert!(server.finalize().epochs > 0);
    }

    #[test]
    #[should_panic(expected = "invalid simulation config")]
    fn a_bad_config_fails_at_construction() {
        let mut spec = synthetic_fleet(1, 0.0).remove(0);
        spec.config.gamma = 2.0;
        let _ = Server::new(&spec, 50.0);
    }
}
