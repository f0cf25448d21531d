//! The cluster-level coordinator: turns one global power budget into
//! per-server caps, once per coordination round.
//!
//! Every split goes through one discipline dispatch, [`split_caps`], which
//! implements five disciplines (see [`CapSplit`]):
//!
//! * **Uniform** — `C/N` each; the baseline every capping paper compares
//!   against.
//! * **Demand-proportional** — floors first, then leftover budget in
//!   proportion to each server's demand above its floor.
//! * **FastCap-style** — marginal-utility greedy after FastCap (Liu et
//!   al.): budget is granted in quanta, each to the server with the
//!   highest predicted *absolute* performance return per watt under a
//!   concave (square-root) performance-versus-power curve scaled by the
//!   server's uncapped demand — a proxy for machine size, so a watt that
//!   buys a big server 1% buys more instructions than 1% on a small one.
//!   Servers far below their demand have steep curves and win quanta;
//!   saturated servers stop bidding.
//! * **SLA-aware** — tail-latency violators bid to full demand first.
//! * **Critical-path** — budget shifts toward the service tier dominating
//!   end-to-end request latency, above optional per-tier floors.
//!
//! The last two read per-child signals ([`TreeSignals`]) and degrade to
//! the signal-free disciplines when their telemetry is absent. All five
//! are deterministic: ties break toward the lowest server index.
//!
//! Coordinators do not call the dispatch directly: they hold one
//! [`FleetSplitter`], which replays an earlier split while telemetry stays
//! inside a dead-band and routes misses to either the flat dispatch or a
//! compiled [`HierSplitter`] for a [`BudgetTree`].

use crate::engine::{CapCache, EngineKind};
use crate::hiercache::HierSplitter;
use crate::tree::BudgetTree;
use crate::CapSplit;

/// What the coordinator knows about one server at a round boundary.
#[derive(Clone, Copy, Debug)]
pub struct ServerDemand {
    /// Predicted uncapped (all-max plan) power draw, watts.
    pub demand_w: f64,
    /// Predicted all-minimum plan power draw — the floor below which a cap
    /// is unreachable, watts.
    pub min_w: f64,
    /// Whether the server still has work to run. Finished servers get a
    /// zero cap and their share returns to the pool.
    pub active: bool,
}

impl ServerDemand {
    /// Whether both readings are finite and non-negative.
    fn is_sane(&self) -> bool {
        sane_w(self.demand_w) && sane_w(self.min_w)
    }

    /// This demand with each non-finite or negative reading set to 0 W.
    fn sanitised(&self) -> ServerDemand {
        let clean = |w: f64| if sane_w(w) { w } else { 0.0 };
        ServerDemand {
            demand_w: clean(self.demand_w),
            min_w: clean(self.min_w),
            active: self.active,
        }
    }

    /// Demand headroom above the floor, clamped non-negative.
    fn headroom(&self) -> f64 {
        (self.demand_w - self.min_w).max(0.0)
    }
}

/// Whether a power reading is usable: finite and non-negative.
fn sane_w(w: f64) -> bool {
    w.is_finite() && w >= 0.0
}

/// Optional per-child signals for the signal-aware disciplines, indexed
/// like the demand slice they accompany (per server for a fleet-wide
/// split, per child aggregate inside a [`BudgetTree`]). The all-`None`
/// default selects every discipline's signal-free behaviour.
#[derive(Clone, Copy, Debug, Default)]
pub struct TreeSignals<'a> {
    /// Tail-latency telemetry (read by SLA-aware splits).
    pub sla: Option<&'a [SlaSignal]>,
    /// Windowed critical-path share — every member of a tier carries its
    /// tier's share (read by critical-path splits).
    pub crit: Option<&'a [f64]>,
    /// Per-tier floor under critical-path splits: each active child is
    /// floored at `tier_floor_frac × budget / active children`. Zero
    /// disables explicit floors (power floors still hold).
    pub tier_floor_frac: f64,
}

/// Splits `global_cap_w` across `demands` according to `split` — the one
/// discipline dispatch behind every flat and tree split.
///
/// Each discipline reads only the signals it declares: SLA-aware reads
/// `signals.sla` and without it degrades to the FastCap core that leaves
/// leftover unspent; critical-path reads `signals.crit` and turns
/// `signals.tier_floor_frac` into per-child floors; the rest read none.
///
/// Telemetry is untrusted: a non-finite or negative `demand_w` or `min_w`
/// is read as 0 W, so one garbage report cannot turn a cap into NaN.
///
/// The returned caps sum to at most `global_cap_w` (up to rounding in the
/// last FastCap quantum) and are zero for inactive servers. When the
/// budget cannot even cover every active server's power floor, floors are
/// scaled down proportionally — each server then receives an unreachable
/// cap and degrades to its all-minimum plan (see `PowerCapPolicy`).
///
/// # Errors
///
/// Fails with [`SplitError::InfeasibleFloors`] when critical-path tier
/// floors, raised to each child's power floor, over-commit the budget.
///
/// # Panics
///
/// Panics if a present signal slice is not indexed like `demands`.
pub fn split_caps(
    split: CapSplit,
    global_cap_w: f64,
    demands: &[ServerDemand],
    signals: &TreeSignals<'_>,
    quantum_w: f64,
) -> Result<Vec<f64>, SplitError> {
    let sanitised: Vec<ServerDemand>;
    let demands = if demands.iter().all(ServerDemand::is_sane) {
        demands
    } else {
        sanitised = demands.iter().map(ServerDemand::sanitised).collect();
        &sanitised
    };
    let n_active = demands.iter().filter(|d| d.active).count();
    if n_active == 0 {
        return Ok(vec![0.0; demands.len()]);
    }
    Ok(match split {
        CapSplit::Uniform => {
            let share = global_cap_w / n_active as f64;
            demands
                .iter()
                .map(|d| if d.active { share } else { 0.0 })
                .collect()
        }
        CapSplit::DemandProportional => {
            let mut caps = floors(global_cap_w, demands);
            let spare = (global_cap_w - caps.iter().sum::<f64>()).max(0.0);
            spread_by_headroom(&mut caps, demands, spare);
            caps
        }
        CapSplit::FastCap => fastcap_core(global_cap_w, demands, quantum_w, true),
        CapSplit::SlaAware => match signals.sla {
            Some(sla) => split_caps_sla(global_cap_w, demands, sla, quantum_w),
            // Without latency signals the SLA discipline has nothing to
            // react to; degrade to its granting core — FastCap ordering,
            // but keeping the "leftover goes unspent" invariant: caps
            // saturate at demand instead of parking surplus on servers.
            None => fastcap_core(global_cap_w, demands, quantum_w, false),
        },
        CapSplit::CriticalPath => {
            // Per-tier floors: an equal fraction of the budget for every
            // active child, raised to its power floor inside the split.
            let floor_w: Option<Vec<f64>> = (signals.tier_floor_frac > 0.0).then(|| {
                let per = signals.tier_floor_frac * global_cap_w / n_active as f64;
                demands
                    .iter()
                    .map(|d| if d.active { per } else { 0.0 })
                    .collect()
            });
            split_caps_critical(global_cap_w, demands, signals.crit, floor_w.as_deref())?
        }
    })
}

/// [`split_caps`] without signals, restricted to the active servers: the
/// discipline's hot loops (FastCap's per-quantum scan above all) run over
/// a compacted active-only slice and the results scatter back to fleet
/// positions. On a 90%-idle fleet this turns an `O(fleet)` per-quantum
/// scan into `O(active)`.
///
/// Bit-identical to `split_caps` over the full slice: inactive servers take
/// no part in any discipline's arithmetic (every sum, scan and tie-break
/// filters on `active`, and compaction preserves relative order, so
/// "lowest index" ties resolve to the same server), they simply receive a
/// zero cap — which is exactly what the scatter leaves behind.
pub fn split_caps_active(
    split: CapSplit,
    global_cap_w: f64,
    demands: &[ServerDemand],
    quantum_w: f64,
) -> Vec<f64> {
    split_active(
        split,
        global_cap_w,
        demands,
        &TreeSignals::default(),
        quantum_w,
    )
    .expect("without tier floors a split cannot fail")
}

/// [`split_caps_active`] with signals: present signal slices are compacted
/// alongside the demands.
fn split_active(
    split: CapSplit,
    global_cap_w: f64,
    demands: &[ServerDemand],
    signals: &TreeSignals<'_>,
    quantum_w: f64,
) -> Result<Vec<f64>, SplitError> {
    let n = demands.len();
    let active_idx: Vec<usize> = (0..n).filter(|&i| demands[i].active).collect();
    if active_idx.len() == n {
        return split_caps(split, global_cap_w, demands, signals, quantum_w);
    }
    let mut caps = vec![0.0; n];
    if active_idx.is_empty() {
        return Ok(caps);
    }
    fn pick<T: Copy>(xs: &[T], idx: &[usize]) -> Vec<T> {
        idx.iter().map(|&i| xs[i]).collect()
    }
    let sla = signals.sla.map(|s| pick(s, &active_idx));
    let crit = signals.crit.map(|c| pick(c, &active_idx));
    let compact_signals = TreeSignals {
        sla: sla.as_deref(),
        crit: crit.as_deref(),
        tier_floor_frac: signals.tier_floor_frac,
    };
    let compact = pick(demands, &active_idx);
    let compact_caps = split_caps(split, global_cap_w, &compact, &compact_signals, quantum_w)?;
    for (&i, c) in active_idx.iter().zip(compact_caps) {
        caps[i] = c;
    }
    Ok(caps)
}

/// The one cached splitter a coordinator holds: a whole-fleet [`CapCache`]
/// in front of either the flat [`split_caps`] dispatch or a compiled
/// [`HierSplitter`] for a [`BudgetTree`].
///
/// The two caches test different things at a positive dead-band —
/// `CapCache` checks every server's telemetry, `HierSplitter` each node's
/// per-child aggregates — so both stay. Under [`EngineKind::Round`] the
/// dead-band is pinned to zero, where every replay is bit-identical to a
/// recompute. The budget and quantum must stay fixed between
/// [`FleetSplitter::invalidate`] calls, as for [`CapCache`].
#[derive(Clone, Debug)]
pub struct FleetSplitter {
    cache: CapCache,
    discipline: Discipline,
}

#[derive(Clone, Debug)]
enum Discipline {
    Flat(CapSplit),
    Tree(HierSplitter),
}

impl FleetSplitter {
    /// A cold splitter for the fleet `names`: tree-shaped when `topology`
    /// is given (compiled against `names`), else flat over `split`. A flat
    /// splitter allocates nothing until its first split.
    ///
    /// # Panics
    ///
    /// Panics if a tree leaf names a server absent from `names`, or if the
    /// dead-band is negative or NaN.
    pub fn new(
        split: CapSplit,
        topology: Option<&BudgetTree>,
        names: &[&str],
        engine: EngineKind,
        dead_band_w: f64,
    ) -> FleetSplitter {
        let dead_band_w = match engine {
            EngineKind::Round => 0.0,
            EngineKind::Event => dead_band_w,
        };
        let discipline = match topology {
            Some(tree) => Discipline::Tree(HierSplitter::compile(tree, names, dead_band_w)),
            None => Discipline::Flat(split),
        };
        FleetSplitter {
            cache: CapCache::new(dead_band_w),
            discipline,
        }
    }

    /// Splits `global_cap_w` over the fleet, replaying the previous split
    /// while no server's telemetry left the dead-band.
    ///
    /// # Errors
    ///
    /// Fails with [`SplitError::InfeasibleFloors`] exactly when the
    /// uncached split would.
    ///
    /// # Panics
    ///
    /// Panics if `demands` or a present signal slice is not indexed like
    /// the fleet.
    pub fn split(
        &mut self,
        global_cap_w: f64,
        demands: &[ServerDemand],
        signals: &TreeSignals<'_>,
        quantum_w: f64,
    ) -> Result<Vec<f64>, SplitError> {
        if let Some(caps) = self.cache.lookup(demands, signals.sla, signals.crit) {
            return Ok(caps);
        }
        let caps = match &mut self.discipline {
            Discipline::Flat(split) => {
                split_active(*split, global_cap_w, demands, signals, quantum_w)?
            }
            Discipline::Tree(h) => h.split_signals(global_cap_w, demands, signals, quantum_w)?,
        };
        self.cache.store(demands, signals.sla, signals.crit, &caps);
        Ok(caps)
    }

    /// Follows a membership change: drops the whole-fleet replay and
    /// rebinds a tree splitter to the churned `tree` and fleet `names`,
    /// keeping the entries of structurally unchanged groups (see
    /// [`HierSplitter::rebind`]). A flat splitter ignores both arguments.
    pub fn rebind(&mut self, tree: Option<&BudgetTree>, names: &[&str]) {
        self.cache.invalidate();
        if let (Discipline::Tree(h), Some(tree)) = (&mut self.discipline, tree) {
            h.rebind(tree, names);
        }
    }

    /// Drops every cached allocation (leadership changes, adopted state).
    pub fn invalidate(&mut self) {
        self.cache.invalidate();
        if let Discipline::Tree(h) = &mut self.discipline {
            h.invalidate();
        }
    }
}

/// Why a budget split could not be computed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SplitError {
    /// Configured per-child floors sum above the group budget. Earlier
    /// callers only ever floored at each server's *scaled* all-minimum
    /// power, which is feasible by construction; explicit per-tier floor
    /// configs can genuinely over-commit, and silently clamping them would
    /// hide a broken configuration behind unreachable caps.
    InfeasibleFloors {
        /// Sum of the active children's effective floors, watts.
        required_w: f64,
        /// The group budget those floors must fit inside, watts.
        budget_w: f64,
    },
}

impl std::fmt::Display for SplitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SplitError::InfeasibleFloors {
                required_w,
                budget_w,
            } => write!(
                f,
                "infeasible floors: required {required_w:.3} W exceeds budget {budget_w:.3} W"
            ),
        }
    }
}

impl std::error::Error for SplitError {}

/// Critical-path aware splitting across children that are service *tiers*.
///
/// `shares` is each child's windowed share of end-to-end critical-path
/// time (from a `TraceCollector`); `floor_w` is an optional explicit floor
/// per child (e.g. a per-tier fraction of the group budget), raised to the
/// child's all-minimum power and validated against the budget.
///
/// With warm shares, spare budget above the floors water-fills in
/// proportion to each child's share, clipped at its demand and
/// re-distributed to unsaturated children; leftover is deliberately
/// unspent (the energy the discipline saves). With `shares` of `None` or
/// all-zero — traces too sparse to trust — the split degrades to exactly
/// the demand-proportional discipline over the same floors.
fn split_caps_critical(
    global_cap_w: f64,
    demands: &[ServerDemand],
    shares: Option<&[f64]>,
    floor_w: Option<&[f64]>,
) -> Result<Vec<f64>, SplitError> {
    let mut caps = checked_floors(global_cap_w, demands, floor_w)?;
    let mut spare = (global_cap_w - caps.iter().sum::<f64>()).max(0.0);
    let warm = shares.filter(|s| {
        assert_eq!(s.len(), demands.len(), "one share per child");
        s.iter().any(|&x| x > 0.0)
    });
    let Some(shares) = warm else {
        // Sparse traces: exactly the demand-proportional discipline.
        spread_by_headroom(&mut caps, demands, spare);
        return Ok(caps);
    };
    // Water-fill spare budget by critical-path share, clipping each child
    // at its demand; every pass either spends the spare or saturates a
    // child, so at most n passes run.
    for _ in 0..demands.len() {
        let total_share: f64 = demands
            .iter()
            .enumerate()
            .filter(|&(i, d)| d.active && d.demand_w - caps[i] > CLIP_EPS_W)
            .map(|(i, _)| shares[i])
            .sum();
        if spare <= CLIP_EPS_W || total_share <= 0.0 {
            break;
        }
        let mut granted = 0.0;
        for (i, d) in demands.iter().enumerate() {
            if !d.active || shares[i] <= 0.0 {
                continue;
            }
            let room = d.demand_w - caps[i];
            if room <= CLIP_EPS_W {
                continue;
            }
            let give = (spare * shares[i] / total_share).min(room);
            caps[i] += give;
            granted += give;
        }
        spare -= granted;
        if granted <= CLIP_EPS_W {
            break;
        }
    }
    Ok(caps)
}

/// Adds `spare` to the active servers' caps in proportion to their demand
/// headroom (evenly when no server has any): the demand-proportional
/// discipline above its floors.
fn spread_by_headroom(caps: &mut [f64], demands: &[ServerDemand], spare: f64) {
    let n_active = demands.iter().filter(|d| d.active).count();
    let total_headroom: f64 = demands
        .iter()
        .filter(|d| d.active)
        .map(ServerDemand::headroom)
        .sum();
    for (cap, d) in caps.iter_mut().zip(demands) {
        if !d.active {
            continue;
        }
        *cap += if total_headroom > 0.0 {
            spare * d.headroom() / total_headroom
        } else {
            spare / n_active as f64
        };
    }
}

/// One server's tail-latency telemetry for SLA-aware splitting.
#[derive(Clone, Copy, Debug)]
pub struct SlaSignal {
    /// Observed p99 request latency over the recent window, seconds.
    /// Zero means "no samples yet" — the server is treated as unknown and
    /// bids its full demand.
    pub p99_s: f64,
    /// The server's p99 latency target, seconds.
    pub target_s: f64,
}

impl SlaSignal {
    /// Whether the server is violating its target (requires samples).
    pub fn violating(&self) -> bool {
        self.p99_s > self.target_s && self.target_s > 0.0
    }
}

/// SLA-aware splitting: latency-violating servers bid for the budget first.
///
/// Each server's *desired* cap depends on its latency signal:
///
/// * **Violating** (`p99 > target`) or **unknown** (`p99 == 0`): desires its
///   full uncapped demand — nothing less is defensible while requests are
///   missing their SLO.
/// * **Meeting**: trimmed below demand in proportion to how much latency
///   headroom it has — `min_w + headroom × (0.25 + 0.75 × p99/target)`. A
///   server at 40% of its target gives up over half its power headroom; one
///   brushing the target keeps nearly all of it.
///
/// Floors are covered first (scaled when infeasible), then quanta go to
/// violators in FastCap marginal-utility order until they saturate at their
/// desires, then to everyone else. Unlike `CapSplit::FastCap`, leftover
/// budget is **not** parked on servers: when every desire is satisfied the
/// fleet deliberately draws less than the budget — that slack is the
/// energy the discipline saves.
fn split_caps_sla(
    global_cap_w: f64,
    demands: &[ServerDemand],
    sla: &[SlaSignal],
    quantum_w: f64,
) -> Vec<f64> {
    assert_eq!(demands.len(), sla.len(), "one SLA signal per server");
    // Per-server desired cap (the ceiling it may be granted up to).
    let desired: Vec<f64> = demands
        .iter()
        .zip(sla)
        .map(|(d, s)| {
            if !d.active {
                0.0
            } else if s.violating() || s.p99_s <= 0.0 || s.target_s <= 0.0 {
                d.demand_w
            } else {
                let ratio = (s.p99_s / s.target_s).clamp(0.0, 1.0);
                (d.min_w + d.headroom() * (0.25 + 0.75 * ratio)).min(d.demand_w)
            }
        })
        .collect();
    let mut caps = floors(global_cap_w, demands);
    // A power floor may sit above a trimmed desire (demand below the
    // floor); the grant loop treats such servers as already saturated and
    // the floor stands.
    let desired: Vec<f64> = desired
        .iter()
        .zip(&caps)
        .map(|(&want, &floor)| want.max(floor))
        .collect();
    let mut spare = global_cap_w - caps.iter().sum::<f64>();
    let mut clipped = vec![false; demands.len()];
    // Two passes: violators first, then everyone still below desire.
    for violators_only in [true, false] {
        // Short-circuit once the unclipped set is empty: when every active
        // server already sits at its desire (the degenerate all-violators
        // case saturates them all in the first pass), the leftover
        // redistribution pass has no one to serve — without this the loop
        // used to keep scanning servers clipped at demand, burning a
        // sub-nanowatt grant per iteration until `spare` drained.
        if demands
            .iter()
            .enumerate()
            .all(|(i, d)| !d.active || clipped[i] || desired[i] - caps[i] <= CLIP_EPS_W)
        {
            break;
        }
        while spare > 1e-9 {
            let q = quantum_w.min(spare);
            let mut best: Option<(usize, f64)> = None;
            for (i, d) in demands.iter().enumerate() {
                // Within a clip epsilon of the desire counts as saturated:
                // granting the remaining sliver cannot change the
                // allocation but would keep the server in every scan.
                if !d.active || clipped[i] || desired[i] - caps[i] <= CLIP_EPS_W {
                    continue;
                }
                if violators_only && !sla[i].violating() {
                    continue;
                }
                let gain = utility_at(d, caps[i] + q) - utility_at(d, caps[i]);
                if gain > 0.0 && best.is_none_or(|(_, g)| gain > g) {
                    best = Some((i, gain));
                }
            }
            match best {
                Some((i, _)) => {
                    // Never exceed the desire: the final quantum is clipped.
                    let grant = q.min(desired[i] - caps[i]);
                    let before = caps[i];
                    caps[i] += grant;
                    if caps[i] == before {
                        // The grant is below this cap's float resolution;
                        // no further quantum can land here either. Count
                        // the server as clipped instead of re-granting it
                        // nothing forever.
                        clipped[i] = true;
                    } else {
                        spare -= grant;
                    }
                }
                None => break,
            }
        }
    }
    caps
}

/// Watts below which a server counts as clipped at its granting ceiling:
/// the residual is smaller than the budget-exhaustion threshold, so
/// spending quanta on it cannot meaningfully move the allocation.
const CLIP_EPS_W: f64 = 1e-9;

/// Per-server power floors: each active server's all-minimum power, scaled
/// down proportionally when the budget cannot cover them all.
fn floors(global_cap_w: f64, demands: &[ServerDemand]) -> Vec<f64> {
    let total_min: f64 = demands.iter().filter(|d| d.active).map(|d| d.min_w).sum();
    let scale = if total_min > global_cap_w {
        global_cap_w / total_min
    } else {
        1.0
    };
    demands
        .iter()
        .map(|d| if d.active { d.min_w * scale } else { 0.0 })
        .collect()
}

/// Starting caps for a granting loop. `floor_w` of `None` keeps the scaled
/// power floors above (always feasible); explicit floors are raised to
/// each active server's all-minimum power and rejected with
/// [`SplitError::InfeasibleFloors`] when their sum exceeds the budget.
fn checked_floors(
    global_cap_w: f64,
    demands: &[ServerDemand],
    floor_w: Option<&[f64]>,
) -> Result<Vec<f64>, SplitError> {
    let Some(floor_w) = floor_w else {
        return Ok(floors(global_cap_w, demands));
    };
    assert_eq!(floor_w.len(), demands.len(), "one floor per server");
    let eff: Vec<f64> = demands
        .iter()
        .zip(floor_w)
        .map(|(d, &f)| if d.active { d.min_w.max(f) } else { 0.0 })
        .collect();
    let required_w: f64 = eff.iter().sum();
    if required_w > global_cap_w + 1e-9 {
        return Err(SplitError::InfeasibleFloors {
            required_w,
            budget_w: global_cap_w,
        });
    }
    Ok(eff)
}

/// Predicted relative performance (0..=1) of a server allocated `cap`
/// watts, under the concave curve `perf = sqrt(fill)` where `fill` is the
/// fraction of the demand headroom covered. Square root models diminishing
/// returns: the first watts above the floor buy back the most performance.
fn perf_at(d: &ServerDemand, cap: f64) -> f64 {
    let headroom = d.headroom();
    if headroom <= 0.0 {
        return 1.0;
    }
    let fill = ((cap - d.min_w) / headroom).clamp(0.0, 1.0);
    fill.sqrt()
}

/// Predicted absolute performance: relative performance scaled by the
/// server's uncapped demand, the coordinator's proxy for how much work the
/// machine does at full speed. Without the weighting the greedy would hand
/// small-headroom servers the most watts above their floors (their
/// *relative* curves are steepest) and starve the servers whose watts buy
/// the most instructions.
pub(crate) fn utility_at(d: &ServerDemand, cap: f64) -> f64 {
    d.demand_w * perf_at(d, cap)
}

/// The FastCap granting loop. `park_leftover` selects what happens to
/// budget left after every active server saturates at its demand: FastCap
/// proper parks it uniformly as headroom (transient demand spikes between
/// rounds stay within budget); the SLA-aware degrade path leaves it unspent
/// so `cap[i] ≤ demand[i]` holds, matching the SLA-aware split.
fn fastcap_core(
    global_cap_w: f64,
    demands: &[ServerDemand],
    quantum_w: f64,
    park_leftover: bool,
) -> Vec<f64> {
    let mut caps = floors(global_cap_w, demands);
    let mut spare = global_cap_w - caps.iter().sum::<f64>();
    let mut clipped = vec![false; demands.len()];
    // Grant quanta while any server still gains from them.
    while spare > 1e-9 {
        let q = quantum_w.min(spare);
        let mut best: Option<(usize, f64)> = None;
        for (i, d) in demands.iter().enumerate() {
            // The non-parking variant clips grants at demand, so (like the
            // SLA split) a server within the clip epsilon of demand is
            // saturated — scanning it forever for sliver grants is the
            // degenerate loop the SLA split also guards against. The
            // parking variant grants whole quanta and may overshoot, so it
            // keeps the original strict comparison.
            let saturated = if park_leftover {
                clipped[i] || caps[i] >= d.demand_w
            } else {
                clipped[i] || d.demand_w - caps[i] <= CLIP_EPS_W
            };
            if !d.active || saturated {
                continue;
            }
            let gain = utility_at(d, caps[i] + q) - utility_at(d, caps[i]);
            if gain > 0.0 && best.is_none_or(|(_, g)| gain > g) {
                best = Some((i, gain));
            }
        }
        match best {
            Some((i, _)) => {
                // The non-parking variant promises `cap ≤ demand`: clip the
                // final quantum instead of overshooting it.
                let grant = if park_leftover {
                    q
                } else {
                    q.min(demands[i].demand_w - caps[i])
                };
                let before = caps[i];
                caps[i] += grant;
                if caps[i] == before {
                    // Below float resolution at this magnitude: the server
                    // can never absorb another grant.
                    clipped[i] = true;
                } else {
                    spare -= grant;
                }
            }
            None => {
                if park_leftover {
                    let n_active = demands.iter().filter(|d| d.active).count() as f64;
                    for (cap, d) in caps.iter_mut().zip(demands) {
                        if d.active {
                            *cap += spare / n_active;
                        }
                    }
                }
                break;
            }
        }
    }
    caps
}

/// Jain's fairness index over a set of non-negative allocations:
/// `(Σx)² / (n·Σx²)`, 1 when perfectly equal, `1/n` when one party takes
/// everything. Empty or all-zero inputs report 1 (nothing is unfair about
/// nothing).
pub fn jain_index(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq <= 0.0 {
        return 1.0;
    }
    sum * sum / (xs.len() as f64 * sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(demand_w: f64, min_w: f64) -> ServerDemand {
        ServerDemand {
            demand_w,
            min_w,
            active: true,
        }
    }

    /// The signal-free dispatch, which cannot fail.
    fn flat(split: CapSplit, budget: f64, ds: &[ServerDemand], quantum: f64) -> Vec<f64> {
        split_caps(split, budget, ds, &TreeSignals::default(), quantum).unwrap()
    }

    #[test]
    fn uniform_splits_equally_among_active() {
        let mut ds = vec![d(100.0, 30.0), d(200.0, 30.0), d(50.0, 30.0)];
        ds[1].active = false;
        let caps = flat(CapSplit::Uniform, 120.0, &ds, 1.0);
        assert_eq!(caps, vec![60.0, 0.0, 60.0]);
    }

    #[test]
    fn demand_proportional_tracks_headroom() {
        let ds = vec![d(130.0, 30.0), d(80.0, 30.0)];
        // Floors take 60; spare 90 splits 2:1 by headroom (100 vs 50).
        let caps = flat(CapSplit::DemandProportional, 150.0, &ds, 1.0);
        assert!((caps[0] - 90.0).abs() < 1e-9, "{caps:?}");
        assert!((caps[1] - 60.0).abs() < 1e-9, "{caps:?}");
    }

    #[test]
    fn fastcap_never_exceeds_budget_and_covers_floors() {
        let ds = vec![d(150.0, 40.0), d(90.0, 35.0), d(60.0, 30.0)];
        for budget in [110.0, 160.0, 250.0, 400.0] {
            let caps = flat(CapSplit::FastCap, budget, &ds, 1.0);
            let total: f64 = caps.iter().sum();
            assert!(total <= budget + 1e-6, "budget {budget}: {caps:?}");
            if budget >= 105.0 {
                for (c, dem) in caps.iter().zip(&ds) {
                    assert!(*c >= dem.min_w - 1e-9, "floor unmet: {caps:?}");
                }
            }
        }
    }

    #[test]
    fn fastcap_beats_uniform_on_modelled_performance() {
        // Strongly heterogeneous demand: uniform wastes budget on the
        // small server while starving the big ones.
        let ds = vec![d(200.0, 40.0), d(180.0, 40.0), d(50.0, 40.0)];
        let budget = 270.0;
        let uni = flat(CapSplit::Uniform, budget, &ds, 1.0);
        let fc = flat(CapSplit::FastCap, budget, &ds, 1.0);
        let perf =
            |caps: &[f64]| -> f64 { caps.iter().zip(&ds).map(|(c, d)| utility_at(d, *c)).sum() };
        assert!(
            perf(&fc) > perf(&uni) + 1e-6,
            "fastcap {} vs uniform {}",
            perf(&fc),
            perf(&uni)
        );
    }

    #[test]
    fn infeasible_floors_scale_down() {
        let ds = vec![d(100.0, 60.0), d(100.0, 60.0)];
        for split in [
            CapSplit::Uniform,
            CapSplit::DemandProportional,
            CapSplit::FastCap,
        ] {
            let caps = flat(split, 60.0, &ds, 1.0);
            assert!(caps.iter().sum::<f64>() <= 60.0 + 1e-9, "{split}: {caps:?}");
        }
    }

    #[test]
    fn non_finite_or_negative_telemetry_yields_finite_caps_within_budget() {
        let bad = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -5.0];
        let budget = 300.0;
        let sla_sigs = [sla(2e-3, 1e-3), sla(5e-4, 1e-3), sla(0.0, 1e-3)];
        let crit = [0.5, 0.3, 0.2];
        for &x in &bad {
            for ds in [
                vec![d(x, 30.0), d(120.0, 30.0), d(80.0, 20.0)],
                vec![d(150.0, x), d(120.0, 30.0), d(80.0, 20.0)],
                vec![d(x, x), d(120.0, x), d(x, 20.0)],
            ] {
                let n = ds.len() as f64;
                for split in [
                    CapSplit::Uniform,
                    CapSplit::DemandProportional,
                    CapSplit::FastCap,
                    CapSplit::SlaAware,
                    CapSplit::CriticalPath,
                ] {
                    for signals in [
                        TreeSignals::default(),
                        TreeSignals {
                            sla: Some(&sla_sigs),
                            crit: Some(&crit),
                            tier_floor_frac: 0.3,
                        },
                    ] {
                        let caps = split_caps(split, budget, &ds, &signals, 1.0).unwrap();
                        assert!(
                            caps.iter().all(|c| c.is_finite()),
                            "{split} with {x}: {caps:?}"
                        );
                        // Fails on a NaN sum too, unlike `!(sum > bound)`.
                        let sum: f64 = caps.iter().sum();
                        assert!(
                            sum <= budget + n * f64::EPSILON * budget,
                            "{split} with {x}: caps {caps:?} sum {sum} over {budget}"
                        );
                    }
                }
            }
        }
    }

    fn sla(p99_s: f64, target_s: f64) -> SlaSignal {
        SlaSignal { p99_s, target_s }
    }

    #[test]
    fn sla_split_boosts_violators_and_trims_meeters() {
        // Two identical servers; one violating, one comfortably meeting.
        let ds = vec![d(120.0, 30.0), d(120.0, 30.0)];
        let sig = vec![sla(2e-3, 1e-3), sla(0.3e-3, 1e-3)];
        let caps = split_caps_sla(200.0, &ds, &sig, 1.0);
        // The violator bids full demand and there is budget for it.
        assert!((caps[0] - 120.0).abs() < 1e-9, "{caps:?}");
        // The meeter is trimmed below demand: at 30% of target its desire
        // is 30 + 90·(0.25 + 0.75·0.3) = 72.75 W.
        assert!((caps[1] - 72.75).abs() < 1e-9, "{caps:?}");
        // And the fleet deliberately under-consumes the budget.
        assert!(caps.iter().sum::<f64>() < 200.0);
    }

    #[test]
    fn sla_split_respects_budget_under_pressure() {
        let ds = vec![d(150.0, 40.0), d(90.0, 35.0), d(60.0, 30.0)];
        let sig = vec![sla(5e-3, 1e-3), sla(5e-3, 1e-3), sla(5e-3, 1e-3)];
        for budget in [90.0, 140.0, 200.0, 500.0] {
            let caps = split_caps_sla(budget, &ds, &sig, 1.0);
            assert!(
                caps.iter().sum::<f64>() <= budget + 1e-6,
                "budget {budget}: {caps:?}"
            );
            for (c, dem) in caps.iter().zip(&ds) {
                assert!(*c <= dem.demand_w + 1e-9, "over demand: {caps:?}");
            }
        }
    }

    #[test]
    fn sla_split_with_unknown_latency_bids_full_demand() {
        // No samples yet (p99 == 0): treated like a violator's full-demand
        // bid, so a generous budget grants everything.
        let ds = vec![d(100.0, 30.0), d(100.0, 30.0)];
        let sig = vec![sla(0.0, 1e-3), sla(0.0, 1e-3)];
        let caps = split_caps_sla(400.0, &ds, &sig, 1.0);
        assert!((caps[0] - 100.0).abs() < 1e-9, "{caps:?}");
        assert!((caps[1] - 100.0).abs() < 1e-9, "{caps:?}");
    }

    #[test]
    fn sla_split_violators_win_scarce_budget() {
        // Budget covers floors plus ~one server's headroom. The violator
        // must get its headroom before the meeter sees a single quantum.
        let ds = vec![d(100.0, 30.0), d(100.0, 30.0)];
        let sig = vec![sla(2e-3, 1e-3), sla(0.99e-3, 1e-3)];
        let caps = split_caps_sla(130.0, &ds, &sig, 1.0);
        assert!((caps[0] - 100.0).abs() < 1e-9, "{caps:?}");
        assert!((caps[1] - 30.0).abs() < 1e-9, "{caps:?}");
    }

    #[test]
    fn sla_variant_without_signals_degrades_to_fastcap() {
        // Below saturation the degraded path is FastCap's granting order.
        let ds = vec![d(200.0, 40.0), d(180.0, 40.0), d(50.0, 40.0)];
        let a = flat(CapSplit::SlaAware, 270.0, &ds, 1.0);
        let b = flat(CapSplit::FastCap, 270.0, &ds, 1.0);
        assert_eq!(a, b);
    }

    #[test]
    fn sla_variant_without_signals_never_parks_leftover() {
        // Regression: the degraded SlaAware path used to call fastcap_split
        // verbatim, which parks surplus budget on servers *above* their
        // demand — violating split_caps_sla's "leftover goes unspent"
        // invariant and making `--split sla-aware` batch runs draw more
        // power than serve runs at the same budget.
        let ds = vec![d(100.0, 30.0), d(60.0, 20.0), d(80.0, 25.0)];
        for budget in [300.0, 500.0, 1000.0] {
            let caps = flat(CapSplit::SlaAware, budget, &ds, 1.0);
            assert!(
                caps.iter().sum::<f64>() <= budget + 1e-6,
                "budget {budget}: {caps:?}"
            );
            for (c, dem) in caps.iter().zip(&ds) {
                assert!(
                    *c <= dem.demand_w + 1e-9,
                    "budget {budget}: cap above demand in {caps:?}"
                );
            }
            // A generous budget saturates everyone exactly at demand.
            if budget >= 240.0 {
                for (c, dem) in caps.iter().zip(&ds) {
                    assert!((c - dem.demand_w).abs() < 1e-9, "{caps:?}");
                }
            }
        }
        // FastCap proper still parks — the two variants genuinely differ.
        let parked = flat(CapSplit::FastCap, 500.0, &ds, 1.0);
        assert!(parked.iter().sum::<f64>() > 400.0, "{parked:?}");
    }

    #[test]
    fn sla_degenerate_all_violators_short_circuits() {
        // Every server violating, with deliberately awkward fractional
        // demands so the final clipped grants leave float residue, and a
        // budget far above total demand so `spare` stays large after
        // everyone saturates. The first pass clips the whole fleet at
        // demand; the leftover pass must then see an empty unclipped set
        // and stop — the old loop kept scanning the clipped servers,
        // shaving sub-nanowatt grants off `spare` per iteration.
        let ds = vec![d(97.3, 24.1), d(55.7, 19.9), d(61.9, 21.3)];
        let sig = vec![sla(3e-3, 1e-3); 3];
        for quantum in [0.1, 0.3, 1.0, 7.0] {
            let caps = split_caps_sla(1e4, &ds, &sig, quantum);
            // Saturation exactly at demand, nothing parked above it.
            for (c, dem) in caps.iter().zip(&ds) {
                assert!(
                    (c - dem.demand_w).abs() < 1e-9,
                    "quantum {quantum}: {caps:?}"
                );
            }
            assert!(caps.iter().sum::<f64>() <= 1e4 + 1e-6);
        }
    }

    #[test]
    fn sla_fractional_desires_terminate_and_respect_ceilings() {
        // Meeting servers get fractional desires (floor + trimmed
        // headroom), which the quantum clip rounds against. Whatever the
        // quantum, granting must terminate with every cap at or below its
        // desire and the budget respected.
        let ds = vec![d(103.7, 31.9), d(87.3, 22.1), d(64.9, 17.7)];
        let sig = vec![sla(0.41e-3, 1e-3), sla(0.73e-3, 1e-3), sla(0.97e-3, 1e-3)];
        for quantum in [0.1, 0.7, 2.3] {
            for budget in [120.0, 260.0, 5e3] {
                let caps = split_caps_sla(budget, &ds, &sig, quantum);
                assert!(
                    caps.iter().sum::<f64>() <= budget + 1e-6,
                    "q={quantum} b={budget}: {caps:?}"
                );
                for (c, dem) in caps.iter().zip(&ds) {
                    assert!(
                        *c <= dem.demand_w + 1e-9,
                        "q={quantum} b={budget}: {caps:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn infeasible_explicit_floors_surface_structured_error() {
        // Two servers whose configured floors (70 + 70) over-commit a
        // 100 W budget. The power-floor paths silently scale; explicit
        // floors must refuse instead.
        let ds = vec![d(100.0, 30.0), d(100.0, 30.0)];
        let floors_w = [70.0, 70.0];
        let expect = SplitError::InfeasibleFloors {
            required_w: 140.0,
            budget_w: 100.0,
        };
        assert_eq!(
            split_caps_critical(100.0, &ds, Some(&[0.5, 0.5]), Some(&floors_w)),
            Err(expect)
        );
        let msg = expect.to_string();
        assert!(msg.contains("infeasible floors"), "{msg}");
        assert!(msg.contains("140.000") && msg.contains("100.000"), "{msg}");
        // Through the dispatch, tier floors (25 W each at a 0.5 fraction)
        // are raised to 60 W power floors and over-commit 100 W the same
        // way; the signal-free disciplines scale instead.
        let heavy = vec![d(100.0, 60.0), d(100.0, 60.0)];
        let tiers = TreeSignals {
            crit: Some(&[0.5, 0.5]),
            tier_floor_frac: 0.5,
            ..TreeSignals::default()
        };
        assert_eq!(
            split_caps(CapSplit::CriticalPath, 100.0, &heavy, &tiers, 1.0),
            Err(SplitError::InfeasibleFloors {
                required_w: 120.0,
                budget_w: 100.0,
            })
        );
        for split in [CapSplit::FastCap, CapSplit::SlaAware] {
            assert!(split_caps(split, 100.0, &heavy, &tiers, 1.0).is_ok());
        }
        // The same floors under a sufficient budget succeed and cover them.
        let caps = split_caps(CapSplit::CriticalPath, 150.0, &heavy, &tiers, 1.0).unwrap();
        assert!(caps.iter().all(|&c| c >= 60.0 - 1e-9), "{caps:?}");
    }

    #[test]
    fn explicit_floors_are_raised_to_min_power() {
        // A floor below the server's all-minimum power is unreachable;
        // the effective floor is min_w.
        let ds = vec![d(100.0, 40.0), d(100.0, 40.0)];
        let caps = split_caps_critical(80.0, &ds, Some(&[1.0, 0.0]), Some(&[5.0, 5.0])).unwrap();
        assert!(caps[1] >= 40.0 - 1e-9, "{caps:?}");
        // And min_w-raised floors count toward infeasibility.
        assert!(split_caps_critical(70.0, &ds, None, Some(&[5.0, 5.0])).is_err());
    }

    #[test]
    fn critical_split_degrades_to_demand_proportional() {
        let ds = vec![d(130.0, 30.0), d(80.0, 30.0), d(60.0, 25.0)];
        let dp = flat(CapSplit::DemandProportional, 180.0, &ds, 1.0);
        for shares in [None, Some([0.0, 0.0, 0.0].as_slice())] {
            let caps = split_caps_critical(180.0, &ds, shares, None).unwrap();
            assert_eq!(caps, dp, "shares {shares:?}");
        }
        // The flat CapSplit arm (batch runs, no traces) matches too.
        assert_eq!(flat(CapSplit::CriticalPath, 180.0, &ds, 1.0), dp);
    }

    #[test]
    fn critical_split_shifts_budget_toward_critical_tier() {
        // Three identical tiers; traces say tier 2 dominates the
        // critical path.
        let ds = vec![d(120.0, 30.0), d(120.0, 30.0), d(120.0, 30.0)];
        let shares = [0.1, 0.2, 0.7];
        let caps = split_caps_critical(180.0, &ds, Some(&shares), None).unwrap();
        assert!(caps.iter().sum::<f64>() <= 180.0 + 1e-9, "{caps:?}");
        assert!(caps[2] > caps[1] && caps[1] > caps[0], "{caps:?}");
        // Spare above floors (90 W) goes exactly by share.
        assert!((caps[2] - (30.0 + 0.7 * 90.0)).abs() < 1e-9, "{caps:?}");
        // A tier entirely off the critical path keeps its floor.
        let caps = split_caps_critical(180.0, &ds, Some(&[0.0, 0.3, 0.7]), None).unwrap();
        assert!((caps[0] - 30.0).abs() < 1e-9, "{caps:?}");
    }

    #[test]
    fn critical_split_clips_at_demand_and_leaves_leftover_unspent() {
        // The critical tier saturates at its demand; surplus flows to the
        // others by share, and budget beyond everyone's demand is unspent.
        let ds = vec![d(60.0, 20.0), d(60.0, 20.0), d(200.0, 20.0)];
        let caps = split_caps_critical(400.0, &ds, Some(&[0.0, 0.4, 0.6]), None).unwrap();
        assert!((caps[1] - 60.0).abs() < 1e-9, "{caps:?}");
        assert!((caps[2] - 200.0).abs() < 1e-9, "{caps:?}");
        // Tier 0 has zero share: floor only, even with budget to spare.
        assert!((caps[0] - 20.0).abs() < 1e-9, "{caps:?}");
        assert!(
            caps.iter().sum::<f64>() < 400.0 - 1.0,
            "leftover spent: {caps:?}"
        );
    }

    #[test]
    fn active_split_matches_full_split_bit_for_bit() {
        // Awkward fractions on purpose: the scatter must reproduce the
        // full computation's exact float arithmetic, not approximate it.
        let mut demands = vec![
            d(97.3, 24.1),
            d(55.7, 19.9),
            d(130.0, 30.0),
            d(61.9, 21.3),
            d(88.8, 26.2),
            d(42.0, 18.0),
        ];
        for i in [1, 3, 5] {
            demands[i].active = false;
        }
        let sigs: Vec<SlaSignal> = [2e-3, 0.0, 0.4e-3, 3e-3, 0.9e-3, 0.1e-3]
            .iter()
            .map(|&p99_s| sla(p99_s, 1e-3))
            .collect();
        let crit = [0.1, 0.9, 0.3, 0.0, 0.6, 0.2];
        let signal_sets = [
            TreeSignals::default(),
            TreeSignals {
                sla: Some(&sigs),
                crit: Some(&crit),
                tier_floor_frac: 0.4,
            },
        ];
        for split in [
            CapSplit::Uniform,
            CapSplit::DemandProportional,
            CapSplit::FastCap,
            CapSplit::SlaAware,
            CapSplit::CriticalPath,
        ] {
            for signals in &signal_sets {
                for budget in [90.0, 217.5, 400.0] {
                    let full = split_caps(split, budget, &demands, signals, 1.0).unwrap();
                    let fast = split_active(split, budget, &demands, signals, 1.0).unwrap();
                    let full_bits: Vec<u64> = full.iter().map(|c| c.to_bits()).collect();
                    let fast_bits: Vec<u64> = fast.iter().map(|c| c.to_bits()).collect();
                    assert_eq!(full_bits, fast_bits, "{split} at {budget} W");
                }
            }
            let plain = split_caps_active(split, 217.5, &demands, 1.0);
            assert_eq!(plain, flat(split, 217.5, &demands, 1.0), "{split}");
        }
    }

    #[test]
    fn fleet_splitter_pins_a_zero_dead_band_under_the_round_engine() {
        let names = ["a", "b"];
        let base = vec![d(100.0, 30.0), d(80.0, 25.0)];
        let mut nudged = base.clone();
        nudged[0].demand_w += 1.0;
        let none = TreeSignals::default();
        for engine in [EngineKind::Round, EngineKind::Event] {
            let mut s = FleetSplitter::new(CapSplit::DemandProportional, None, &names, engine, 5.0);
            let first = s.split(150.0, &base, &none, 1.0).unwrap();
            let second = s.split(150.0, &nudged, &none, 1.0).unwrap();
            match engine {
                // A 1 W move is inside the 5 W band: the event engine
                // replays, the round engine recomputes exactly.
                EngineKind::Event => assert_eq!(second, first),
                EngineKind::Round => {
                    assert_eq!(
                        second,
                        flat(CapSplit::DemandProportional, 150.0, &nudged, 1.0)
                    );
                    assert_ne!(second, first);
                }
            }
            // Invalidation always recomputes.
            s.invalidate();
            let third = s.split(150.0, &nudged, &none, 1.0).unwrap();
            assert_eq!(
                third,
                flat(CapSplit::DemandProportional, 150.0, &nudged, 1.0)
            );
        }
    }

    #[test]
    fn jain_index_extremes() {
        assert!((jain_index(&[5.0, 5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        assert!((jain_index(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
    }
}
