//! Tests of the experiment-harness utilities.

use bench::experiments::{assert_table1_ordering, synthetic_profile};
use bench::{class_mixes, degradation_stats, pct, ALL_MIXES};
use coscale::{PolicyKind, RunResult};
use simkernel::Ps;
use workloads::MixClass::{Ilp, Mem, Mid, Mix};

#[test]
fn all_mixes_covers_table1() {
    assert_eq!(ALL_MIXES.len(), 16);
    for class in ["MEM", "MID", "ILP", "MIX"] {
        assert_eq!(class_mixes(class).len(), 4, "{class}");
    }
    // Every listed mix resolves in the workloads registry.
    for m in ALL_MIXES {
        assert!(workloads::mix(m).is_some(), "{m}");
    }
}

#[test]
fn pct_formats_fractions() {
    assert_eq!(pct(0.1234), "12.3%");
    assert_eq!(pct(-0.005), "-0.5%");
    assert_eq!(pct(0.0), "0.0%");
}

#[test]
fn synthetic_profiles_scale_with_core_count() {
    for n in [1usize, 16, 64, 128] {
        let p = synthetic_profile(n);
        assert_eq!(p.cores.len(), n);
        assert_eq!(p.core_freq_idx.len(), n);
        assert!(p.cores.iter().all(|c| c.cpu_cycles_pi >= 1.0));
        assert!(p.mem.reads > 0);
    }
}

fn fake_result(completion_us: &[u64], energy: f64) -> RunResult {
    RunResult {
        policy: PolicyKind::StaticMax,
        mix: "TEST".into(),
        epochs: 1,
        completion: completion_us.iter().map(|&u| Ps::from_us(u)).collect(),
        makespan: Ps::from_us(*completion_us.iter().max().unwrap()),
        cpu_energy_j: energy,
        l2_energy_j: 0.0,
        mem_energy_j: 0.0,
        rest_energy_j: 0.0,
        records: vec![],
        mpki: 0.0,
        wpki: 0.0,
        prefetch_accuracy: 0.0,
        bus_utilization: 0.0,
        row_hit_rate: 0.0,
        avg_read_latency_ns: 0.0,
        mem_sleep_fraction: 0.0,
        read_lat_p50_ns: 0.0,
        read_lat_p95_ns: 0.0,
        read_lat_p99_ns: 0.0,
    }
}

#[test]
fn degradation_stats_computes_avg_and_worst() {
    let base = fake_result(&[100, 100], 1.0);
    let run = fake_result(&[110, 105], 0.9);
    let (avg, worst) = degradation_stats(&run, &base);
    assert!((avg - 0.075).abs() < 1e-9);
    assert!((worst - 0.10).abs() < 1e-9);
    assert!((run.energy_savings_vs(&base) - 0.1).abs() < 1e-9);
}

#[test]
fn table1_ordering_accepts_the_quick_mixes() {
    // MIX may sit above MID, and mixes within a band in any order.
    assert_table1_ordering(&[
        ("MEM1", Mem, 15.63),
        ("MID1", Mid, 2.45),
        ("ILP1", Ilp, 0.53),
        ("MIX2", Mix, 2.55),
        ("MIX3", Mix, 2.40),
    ]);
}

#[test]
#[should_panic(expected = "MIX2 MPKI 16.00 is not below MEM1 MPKI 15.63")]
fn table1_ordering_rejects_a_mix_above_a_mem_mix() {
    assert_table1_ordering(&[("MEM1", Mem, 15.63), ("MIX2", Mix, 16.0)]);
}

#[test]
#[should_panic(expected = "ILP1 MPKI 2.50 is not below MID1 MPKI 2.45")]
fn table1_ordering_rejects_an_ilp_mix_above_a_mid_mix() {
    assert_table1_ordering(&[("MID1", Mid, 2.45), ("ILP1", Ilp, 2.5)]);
}
