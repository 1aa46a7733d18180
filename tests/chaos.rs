//! Chaos integration tests: deterministic fault injection against the live
//! dispatcher runtime.
//!
//! The headline scenario is the ISSUE's acceptance test — four VPs on two host
//! GPUs, a lossy link, and one GPU killed mid-run by a scheduled outage: every
//! job must complete on the survivor with zero lost or double-executed kernels,
//! and the same seed must reproduce identical `fault.*` counters across runs.
//!
//! The collector is process-global, so every test here serializes on one lock.

use std::sync::Mutex;

use sigmavp::dispatcher::LiveReport;
use sigmavp::dispatcher::{DispatchStats, DispatchedSigmaVp};
use sigmavp_fault::{FaultPlan, LinkFaultConfig};
use sigmavp_gpu::GpuArch;
use sigmavp_ipc::transport::TransportCost;
use sigmavp_telemetry::metrics::MetricsSnapshot;
use sigmavp_vp::error::VpError;
use sigmavp_vp::registry::KernelRegistry;
use sigmavp_workloads::app::{AppEnv, Application};
use sigmavp_workloads::apps::VectorAddApp;

/// Serializes access to the process-global collector across the tests below.
static COLLECTOR: Mutex<()> = Mutex::new(());

/// Counter values for every `fault.*` metric, for run-to-run comparison.
fn fault_counters(snapshot: &MetricsSnapshot) -> Vec<(String, u64)> {
    snapshot.counters.iter().filter(|(name, _)| name.starts_with("fault.")).cloned().collect()
}

fn fleet(
    vps: usize,
    gpus: usize,
    faults: Option<FaultPlan>,
) -> (LiveReport, DispatchStats, MetricsSnapshot) {
    fleet_with_policy(vps, gpus, faults, sigmavp_sched::Policy::Fifo)
}

fn fleet_with_policy(
    vps: usize,
    gpus: usize,
    faults: Option<FaultPlan>,
    policy: sigmavp_sched::Policy,
) -> (LiveReport, DispatchStats, MetricsSnapshot) {
    let telemetry = sigmavp_telemetry::install();
    let app = VectorAddApp { n: 2048 };
    let registry: KernelRegistry = app.kernels().into_iter().collect();
    let mut sys = DispatchedSigmaVp::new(
        vec![GpuArch::quadro_4000(); gpus],
        registry,
        TransportCost::shared_memory(),
    )
    .with_policy(policy);
    if let Some(plan) = faults {
        sys = sys.with_faults(plan);
    }
    for _ in 0..vps {
        sys.spawn(Box::new(VectorAddApp { n: 2048 }));
    }
    let (report, stats) = sys.join();
    let snapshot = telemetry.snapshot();
    sigmavp_telemetry::uninstall();
    (report, stats, snapshot)
}

/// The acceptance scenario: 4 VPs on 2 GPUs over a lossy link, GPU 1 killed
/// mid-run. All VPs must still validate end to end, every request must execute
/// exactly once, the dead device's job log must stop at the outage, and the
/// same seed must reproduce the same `fault.*` counters.
#[test]
fn gpu_killed_mid_run_fails_over_to_survivor() {
    let _guard = COLLECTOR.lock().unwrap();

    // Calibrate the kill time from a fault-free run: 40% into the slowest VP's
    // simulated run, so early jobs land on GPU 1 and later ones must move.
    let (clean, _, _) = fleet(4, 2, None);
    assert!(clean.all_ok(), "{:?}", clean.outcomes);
    let t_total = clean.outcomes.iter().map(|o| o.simulated_time_s).fold(0.0f64, f64::max);
    let t_kill = 0.4 * t_total;
    assert!(t_kill > 0.0);

    let plan = || {
        FaultPlan::seeded(7)
            .with_link(LinkFaultConfig::lossy(0.05, 0.03).with_delay(0.04, 50e-6))
            .with_outage(1, t_kill)
    };
    let (report, stats, snapshot) = fleet(4, 2, Some(plan()));

    // Every VP completed and self-validated despite the dead GPU: nothing was
    // lost, and (because vectorAdd checks its output) nothing double-applied.
    assert!(report.all_ok(), "outcomes: {:?}, failed: {:?}", report.outcomes, report.failed_vps);
    assert_eq!(report.outcomes.len(), 4);

    // Exactly-once execution: 4 device-touching jobs per VP (2 h2d + kernel +
    // d2h), each (vp, seq) appearing exactly once across both device logs —
    // journal replay onto the survivor records nothing.
    assert_eq!(report.records.len(), 4 * 4);
    let unique: std::collections::HashSet<(u32, u64)> =
        report.records.iter().map(|r| (r.vp.0, r.seq)).collect();
    assert_eq!(unique.len(), 4 * 4, "a request executed twice");

    // The dead device stopped taking work at the outage: every record it
    // executed was stamped before the kill.
    assert_eq!(report.device_records.len(), 2);
    for r in &report.device_records[1] {
        assert!(
            r.sent_at_s < t_kill,
            "job stamped {} ran on dead gpu (kill at {t_kill})",
            r.sent_at_s
        );
    }

    // Both VPs routed to GPU 1 migrated to the survivor; the trip was noticed
    // once; the lossy link forced at least one retry.
    assert_eq!(stats.migrations, 2, "stats: {stats:?}");
    assert_eq!(stats.gpu_trips, 1, "stats: {stats:?}");
    assert!(snapshot.counter("fault.retries").unwrap_or(0) > 0, "lossy link produced no retries");
    assert_eq!(snapshot.counter("fault.gpu_trips"), Some(1));
    assert_eq!(snapshot.counter("fault.migrations"), Some(2));

    // Determinism: the same seed reproduces the identical fault story.
    let (report2, stats2, snapshot2) = fleet(4, 2, Some(plan()));
    assert!(report2.all_ok(), "{:?}", report2.outcomes);
    assert_eq!(stats2.migrations, stats.migrations);
    assert_eq!(stats2.gpu_trips, stats.gpu_trips);
    assert_eq!(
        fault_counters(&snapshot),
        fault_counters(&snapshot2),
        "same seed must reproduce identical fault.* counters"
    );
}

/// Consecutive transient device errors trip the circuit breaker: the device is
/// taken out of service, its VP migrates (journal replay included — the
/// transients hit after two mallocs), and the fleet still validates.
#[test]
fn transient_errors_trip_the_breaker_and_migrate() {
    let _guard = COLLECTOR.lock().unwrap();
    // 2 VPs on 2 GPUs: least-loaded routing puts one VP per device, so device
    // 0's attempted-op indexes are exactly VP 0's requests. Ops 2..=4 fail
    // transiently: the guest retries each time (attempt budget 4), the third
    // consecutive failure trips the breaker, and the retry lands on GPU 1.
    let plan = FaultPlan::seeded(11).with_transients(0, vec![2, 3, 4]);
    let (report, stats, snapshot) = fleet(2, 2, Some(plan));
    assert!(report.all_ok(), "outcomes: {:?}, failed: {:?}", report.outcomes, report.failed_vps);
    assert_eq!(snapshot.counter("fault.injected.transient"), Some(3));
    assert_eq!(stats.gpu_trips, 1, "stats: {stats:?}");
    assert_eq!(stats.migrations, 1, "stats: {stats:?}");
    assert!(snapshot.counter("fault.retries").unwrap_or(0) >= 3);
    assert!(snapshot.counter("fault.replayed_jobs").unwrap_or(0) > 0, "migration replayed nothing");
}

/// The block-parallel kernel engine composes with fault injection: with
/// kernels running across several workers, an injected transient storm still
/// trips the breaker, migrates the VP with journal replay, and executes every
/// request exactly once — at `workers = 1` and `workers = 4` alike, with the
/// identical injected-fault story.
#[test]
fn parallel_engine_under_faults_is_still_effect_once() {
    let _guard = COLLECTOR.lock().unwrap();
    for workers in [1u32, 4] {
        let plan = FaultPlan::seeded(11).with_transients(0, vec![2, 3, 4]);
        let policy = sigmavp_sched::Policy::Fifo.with_workers(workers);
        let (report, stats, snapshot) = fleet_with_policy(2, 2, Some(plan), policy);
        assert!(
            report.all_ok(),
            "workers={workers}: {:?} {:?}",
            report.outcomes,
            report.failed_vps
        );
        let unique: std::collections::HashSet<(u32, u64)> =
            report.records.iter().map(|r| (r.vp.0, r.seq)).collect();
        assert_eq!(
            unique.len(),
            report.records.len(),
            "workers={workers}: a request executed twice"
        );
        assert_eq!(snapshot.counter("fault.injected.transient"), Some(3), "workers={workers}");
        assert_eq!(stats.gpu_trips, 1, "workers={workers}: {stats:?}");
        assert_eq!(stats.migrations, 1, "workers={workers}: {stats:?}");
        assert!(snapshot.counter("fault.replayed_jobs").unwrap_or(0) > 0, "workers={workers}");
    }
}

/// A panicking VP is contained: it lands in `failed_vps` with a panic message
/// while every other VP completes and validates normally.
#[test]
fn vp_panic_is_contained_and_reported() {
    let _guard = COLLECTOR.lock().unwrap();
    sigmavp_telemetry::uninstall();

    struct PanicApp;
    impl Application for PanicApp {
        fn name(&self) -> &str {
            "panics"
        }
        fn kernels(&self) -> Vec<sigmavp_sptx::KernelProgram> {
            vec![]
        }
        fn characteristics(&self) -> sigmavp_workloads::AppTraits {
            sigmavp_workloads::AppTraits::pure_cuda()
        }
        fn run_once(&self, _env: &mut AppEnv<'_>) -> Result<(), VpError> {
            panic!("guest bug");
        }
    }

    let app = VectorAddApp { n: 1024 };
    let registry: KernelRegistry = app.kernels().into_iter().collect();
    let mut sys =
        DispatchedSigmaVp::single(GpuArch::quadro_4000(), registry, TransportCost::shared_memory());
    sys.spawn(Box::new(VectorAddApp { n: 1024 }));
    let bad = sys.spawn(Box::new(PanicApp));
    sys.spawn(Box::new(VectorAddApp { n: 1024 }));
    let (report, _) = sys.join();

    assert!(!report.all_ok());
    assert_eq!(report.failed_vps.len(), 1);
    let (vp, err) = &report.failed_vps[0];
    assert_eq!(*vp, bad);
    assert!(err.to_string().contains("panicked"), "{err}");
    // The healthy VPs finished and validated.
    for o in report.outcomes.iter().filter(|o| o.vp != bad) {
        assert!(o.error.is_none(), "{o:?}");
        assert!(o.simulated_time_s > 0.0);
    }
}
