//! One simulated server inside the cluster: the existing epoch engine
//! (`coscale::Runner`) running `PowerCapPolicy` under a cap the cluster
//! coordinator rewrites at round boundaries.

use crate::coordinator::ServerDemand;
use crate::ServerSpec;
use coscale::{Model, Plan, Policy, PolicyKind, PowerCapPolicy, RunResult, Runner};
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

/// One server: name, runner, shared cap, and round telemetry accumulators.
pub struct Server {
    /// Display name from the spec.
    pub name: String,
    runner: Runner,
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
    /// Builds the server from its spec, initially granted `initial_cap_w`.
    pub fn new(spec: &ServerSpec, initial_cap_w: f64) -> Server {
        let cap = SharedCap::new(initial_cap_w);
        let policy = CappedPolicy::new(cap.clone());
        let total_target_instrs = spec.config.target_instrs * spec.config.cores as u64;
        let runner =
            Runner::new(spec.config.clone(), PolicyKind::PowerCap).with_policy(Box::new(policy));
        Server {
            name: spec.name.clone(),
            runner,
            cap,
            cap_w: initial_cap_w,
            mean_cap_num: 0.0,
            rounds_run: 0,
            violations: 0,
            total_target_instrs,
            round_energy_j: 0.0,
            round_start: Ps::ZERO,
            records_seen: 0,
        }
    }

    /// Whether the server's workload is complete.
    pub fn is_done(&self) -> bool {
        self.runner.is_done()
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
    pub fn step_round(&mut self, epochs: usize) {
        if self.is_done() {
            return;
        }
        let energy_before = self.runner.energy_so_far_j();
        let t_before = self.runner.system().now();
        for _ in 0..epochs {
            if self.is_done() {
                break;
            }
            self.runner.step_epoch();
        }
        let dt = (self.runner.system().now() - t_before).as_secs_f64();
        let de = self.runner.energy_so_far_j() - energy_before;
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
    }

    /// Round-boundary telemetry for the coordinator. Demand and floor are
    /// the mean of the model's per-epoch predictions since the last call
    /// (falling back to the most recent epoch, or zero before any epoch
    /// has run — the coordinator treats a zero-demand active server as
    /// "unknown" and splits uniformly).
    pub fn status(&mut self) -> ServerStatus {
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
                active: !self.is_done(),
            },
            measured_w,
            cap_w: self.cap_w,
            now: self.runner.system().now(),
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
        self.runner.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic_fleet;

    #[test]
    fn non_positive_or_nan_caps_run_the_floor_plan() {
        let spec = synthetic_fleet(1, 0.0).remove(0);
        for cap_w in [f64::NAN, 0.0, -5.0] {
            let mut server = Server::new(&spec, cap_w);
            server.step_round(1);
            let plan = &server.runner.records().last().expect("one epoch ran").plan;
            assert!(
                plan.cores.iter().all(|&c| c == 0) && plan.mem == 0,
                "cap {cap_w} W ran {plan:?}"
            );
        }
    }
}
