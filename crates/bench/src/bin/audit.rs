//! Model-residual audit and regression gate for the ΣVP reproduction.
//!
//! ```text
//! cargo run --release -p sigmavp-bench --bin audit                    # audit + write BENCH_audit.json
//! cargo run --release -p sigmavp-bench --bin audit -- --write-baseline
//! cargo run --release -p sigmavp-bench --bin audit -- --check        # gate against the committed baseline
//! ```
//!
//! Three deterministic simulated scenarios exercise the paper's analytic
//! model end to end through the real scheduling pipeline:
//!
//! * **async4** — a 4-VP copy-in → kernel → copy-out fleet planned with
//!   earliest-start interleaving; the measured makespan is audited against
//!   Eq. 7 (`T = 2·Tm + N·max(Tm, Tk)`), and the per-device critical path
//!   must tile `[0, makespan]` exactly (conservation).
//! * **speedup4** — the same fleet at `Tm = Tk`; the measured speedup over
//!   synchronous serialization (the plain duration sum, as in Fig. 9) is
//!   audited against the Eq. 8 bound `3N/(N+2)`.
//! * **coalesce6** — six VPs launching the identical kernel; the merged
//!   launch that Kernel Coalescing emits is audited against Eq. 9
//!   (`T = To + Te·⌈ξ/λ⌉`) with To/Te/ξ observed from the job log and λ from
//!   the device model.
//!
//! A live 4-VP dispatched fleet then runs for wall-clock observability: the
//! scheduling pipeline's `plan.pass.*` timings and a job-lifecycle join of
//! the drained trace events are reported (but *not* gated — wall time is
//! nondeterministic).
//!
//! With `--sync`, a **sync-mode window scenario** also runs (and is gated):
//! 4 VPs issue the identical synchronous `vector_add` under a stop/resume
//! `sync_hold` policy, so the dispatcher parks all four guests, plans the held
//! window with the full pipeline, and resumes them in planned completion
//! order. The scenario runs twice in-process and hard-fails unless the window
//! counters are byte-identical, at least one live cross-VP merge happened, the
//! live plan's Eq. 7 makespan beats the reorder-only baseline, and every stop
//! was matched by a resume; the counters are then gated under `sync.*`.
//!
//! `--sync` also runs three **liveness scenarios** (each twice, hard-failing
//! unless its window ledger is byte-identical across the runs):
//!
//! * **quorum** — `sync_quorum(0.5)` flushes a partial window the moment the
//!   quorum threshold of VPs is held; gated under `sync.quorum.*`.
//! * **timeout** — a 1 µs simulated `sync_window_timeout` flushes a held
//!   window that can never reach quorum (its companion only copies); gated
//!   under `liveness.timeout_*`.
//! * **hang** — a VP wedges mid-run with the watchdog armed; the wall-clock
//!   stall backstop quarantines it out of the quorum (failing its journal
//!   over and dumping a `vp_hung` post-mortem, which becomes the
//!   `BENCH_postmortem.json` CI validates), the survivor finishes solo, and
//!   the sleeper rejoins on wake; gated under `liveness.hang_*`.
//!
//! A **chaos smoke** always runs as well: 4 VPs on 2 host GPUs over a lossy,
//! delaying link, with GPU 1 killed 40% into the (calibrated) run. Every VP
//! must still validate with every request executed exactly once, and the
//! deterministic fault story — `fault.retries`, `fault.gpu_trips`,
//! `fault.migrations`, plus the chaos-run makespan — is gated under `chaos.*`
//! (`--faults SEED` overrides the default fault-plan seed 42).
//!
//! Everything goes into a hand-rolled-JSON `BENCH_audit.json`; the flat
//! `"gate"` section is what `--check` compares against the committed baseline
//! under `results/baselines/`, exiting non-zero on any regression beyond
//! `--tolerance` (or any model residual above it). `--inject-slowdown F`
//! scales the measured makespans (for testing the gate itself).

use std::process::ExitCode;

use sigmavp::dispatcher::{DispatchStats, DispatchedSigmaVp, LiveReport};
use sigmavp::host::{JobRecord, RecordKind};
use sigmavp::session::DeviceOutcome;
use sigmavp::{plan_device, DevicePlan, RetryPolicy};
use sigmavp_fault::{FaultPlan, LinkFaultConfig};
use sigmavp_gpu::GpuArch;
use sigmavp_ipc::message::VpId;
use sigmavp_ipc::transport::TransportCost;
use sigmavp_obs::{
    device_critical_path, eq7_makespan_s, eq8_speedup_bound, eq9_merged_kernel_s, format_flat_json,
    join_lifecycles, observed_inputs, run_gate, validate_bundle, AuditReport, CriticalPath,
    FlightConfig, FlightRecorder, GateConfig, JobLifecycle, PathPhase, ProfileStore,
    SharedProfileStore,
};
use sigmavp_sched::{ExecTier, Pipeline, Policy};
use sigmavp_telemetry::export::escape_json;
use sigmavp_telemetry::{job_uid_seq, job_uid_vp};
use sigmavp_vp::registry::KernelRegistry;
use sigmavp_workloads::app::Application;
use sigmavp_workloads::apps::{CopyStream, StaggeredAdd, VectorAddApp};

const DEFAULT_BASELINE: &str = "results/baselines/audit.json";
const DEFAULT_OUT: &str = "BENCH_audit.json";
/// The chaos breaker trip's flight-recorder dump, rewritten every run so CI
/// can check the bundle stays machine-parseable.
const POSTMORTEM_OUT: &str = "BENCH_postmortem.json";
const DEFAULT_TOLERANCE: f64 = 0.10;
const DEFAULT_FAULT_SEED: u64 = 42;

struct Args {
    check: bool,
    write_baseline: bool,
    baseline: String,
    out: String,
    tolerance: f64,
    inject_slowdown: f64,
    fault_seed: u64,
    /// Run (and gate) the sync-mode stop/resume window scenario.
    sync: bool,
    /// Explicit pass composition for the planned scenarios (ablation); the
    /// policy-derived pipeline when absent. Gated numbers assume the default.
    passes: Option<String>,
    /// SPTX execution tier for every live fleet (the planned scenarios never
    /// run guest code). Gated numbers are tier-independent by construction —
    /// both tiers produce byte-identical profiles — so this is an ablation
    /// knob, mirroring `--tier` on the perf binary.
    tier: ExecTier,
}

fn usage() -> ! {
    eprintln!(
        "usage: audit [--check] [--write-baseline] [--baseline PATH] [--out PATH] \
         [--tolerance F] [--inject-slowdown F] [--faults SEED] [--passes a,b,c] \
         [--tier scalar|warp] [--sync]"
    );
    std::process::exit(2);
}

fn parse_tier(s: &str) -> ExecTier {
    match s {
        "scalar" => ExecTier::Scalar,
        "warp" => ExecTier::Warp,
        _ => usage(),
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        check: false,
        write_baseline: false,
        baseline: DEFAULT_BASELINE.to_string(),
        out: DEFAULT_OUT.to_string(),
        tolerance: DEFAULT_TOLERANCE,
        inject_slowdown: 1.0,
        fault_seed: DEFAULT_FAULT_SEED,
        sync: false,
        passes: None,
        tier: ExecTier::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--check" => args.check = true,
            "--write-baseline" => args.write_baseline = true,
            "--baseline" => args.baseline = value("--baseline"),
            "--out" => args.out = value("--out"),
            "--tolerance" => {
                args.tolerance = value("--tolerance").parse().unwrap_or_else(|_| usage())
            }
            "--inject-slowdown" => {
                args.inject_slowdown =
                    value("--inject-slowdown").parse().unwrap_or_else(|_| usage())
            }
            "--faults" => args.fault_seed = value("--faults").parse().unwrap_or_else(|_| usage()),
            "--sync" => args.sync = true,
            "--passes" => args.passes = Some(value("--passes")),
            "--tier" => args.tier = parse_tier(&value("--tier")),
            _ => usage(),
        }
    }
    args
}

fn record(vp: u32, seq: u64, kind: RecordKind, duration_s: f64) -> JobRecord {
    JobRecord { vp: VpId(vp), seq, kind, duration_s, sent_at_s: 0.0 }
}

/// N copy-in → kernel → copy-out programs (the Fig. 9 fleet pattern).
fn fleet_records(n: u32, tm_s: f64, tk_s: f64, arch: &GpuArch) -> Vec<JobRecord> {
    let mut records = Vec::new();
    for vp in 0..n {
        records.push(record(vp, 0, RecordKind::H2d { bytes: 4096, stream: 0 }, tm_s));
        records.push(record(
            vp,
            1,
            RecordKind::Kernel {
                name: "k".into(),
                grid_dim: 8,
                block_dim: 128,
                launch_overhead_s: arch.launch_overhead_us * 1e-6,
                waves: 1,
                stream: 0,
            },
            tk_s,
        ));
        records.push(record(vp, 2, RecordKind::D2h { bytes: 4096, stream: 0 }, tm_s));
    }
    records
}

/// N single-kernel programs launching the identical kernel — every launch is
/// coalescible into one merged op.
fn coalescible_records(n: u32, wave_s: f64, arch: &GpuArch) -> Vec<JobRecord> {
    let (grid_dim, block_dim) = (8u32, 128u32);
    let waves = u64::from(grid_dim).div_ceil(u64::from(arch.blocks_per_wave(block_dim))).max(1);
    let overhead_s = arch.launch_overhead_us * 1e-6;
    (0..n)
        .map(|vp| {
            record(
                vp,
                0,
                RecordKind::Kernel {
                    name: "k".into(),
                    grid_dim,
                    block_dim,
                    launch_overhead_s: overhead_s,
                    waves,
                    stream: 0,
                },
                overhead_s + waves as f64 * wave_s,
            )
        })
        .collect()
}

struct Scenario {
    name: &'static str,
    records: Vec<JobRecord>,
    plan: DevicePlan,
    makespan_s: f64,
    path: CriticalPath,
    lifecycles: Vec<JobLifecycle>,
}

/// Plan one scenario's job log and derive its observability views; verifies
/// critical-path conservation and that the lifecycle join covers every job.
fn run_scenario(
    name: &'static str,
    records: Vec<JobRecord>,
    policy: &Policy,
    coalescible: bool,
    arch: &GpuArch,
    slowdown: f64,
    passes: Option<&str>,
) -> Result<Scenario, String> {
    let pipeline = match passes {
        Some(spec) => Pipeline::parse(spec).map_err(|e| format!("--passes {spec}: {e}"))?,
        None => Pipeline::from_policy(policy),
    };
    let plan = plan_device(&pipeline, &records, &|_| coalescible, arch);
    let outcome =
        DeviceOutcome { arch: arch.clone(), records: records.clone(), plan: plan.clone() };
    let path = device_critical_path(&outcome);
    if !path.is_conserved(1e-9) {
        return Err(format!(
            "{name}: critical path NOT conserved: busy {:.6e} + stall {:.6e} != makespan {:.6e}",
            path.busy_s(),
            path.stall_s(),
            path.makespan_s
        ));
    }
    let lifecycles = join_lifecycles(&plan.trace_events(&records));
    if lifecycles.len() != records.len() {
        return Err(format!(
            "{name}: lifecycle join covered {} of {} jobs",
            lifecycles.len(),
            records.len()
        ));
    }
    let makespan_s = plan.timeline.makespan_s * slowdown;
    Ok(Scenario { name, records, plan, makespan_s, path, lifecycles })
}

/// Retry policy for the chaos smoke: a short receive timeout keeps dropped
/// frames cheap, a deep attempt budget makes run failure effectively
/// impossible at the smoke's fault rates.
const CHAOS_RETRY: RetryPolicy = RetryPolicy {
    max_attempts: 6,
    timeout_us: 5_000,
    backoff_base_us: 100,
    backoff_factor: 2,
    jitter_pct: 25,
};

/// Deterministic results of the chaos smoke, for the gate and the report.
struct ChaosOutcome {
    seed: u64,
    makespan_s: f64,
    retries: u64,
    gpu_trips: u64,
    migrations: u64,
    dedup_hits: u64,
    requests: u64,
}

/// 4 vectorAdd VPs on two host GPUs, optionally under a fault plan.
fn chaos_fleet(
    arch: &GpuArch,
    plan: Option<FaultPlan>,
    tier: ExecTier,
) -> (LiveReport, DispatchStats) {
    let app = VectorAddApp { n: 2048 };
    let registry: KernelRegistry = app.kernels().into_iter().collect();
    let mut sys = DispatchedSigmaVp::new(
        vec![arch.clone(), arch.clone()],
        registry,
        TransportCost::shared_memory(),
    )
    .with_policy(sigmavp::Policy::Fifo.with_retry(CHAOS_RETRY).with_tier(tier));
    if let Some(plan) = plan {
        sys = sys.with_faults(plan);
    }
    for _ in 0..4 {
        sys.spawn(Box::new(VectorAddApp { n: 2048 }));
    }
    sys.join()
}

/// The chaos smoke: calibrate a kill time from a fault-free run, then kill
/// GPU 1 mid-run under a lossy link and verify exactly-once completion on the
/// survivor. Counters are measured as snapshot deltas so earlier sections of
/// the audit cannot contaminate them.
fn run_chaos(
    seed: u64,
    arch: &GpuArch,
    telemetry: &sigmavp_telemetry::Telemetry,
    tier: ExecTier,
) -> Result<ChaosOutcome, String> {
    let (clean, _) = chaos_fleet(arch, None, tier);
    if !clean.all_ok() {
        return Err(format!("chaos calibration run failed: {:?}", clean.outcomes));
    }
    let t_total = clean.outcomes.iter().map(|o| o.simulated_time_s).fold(0.0f64, f64::max);
    let t_kill = 0.4 * t_total;
    let plan = FaultPlan::seeded(seed)
        .with_link(LinkFaultConfig::lossy(0.05, 0.03).with_delay(0.04, 50e-6))
        .with_outage(1, t_kill);
    let before = telemetry.snapshot();
    let (report, stats) = chaos_fleet(arch, Some(plan), tier);
    let after = telemetry.snapshot();
    if !report.all_ok() {
        return Err(format!(
            "chaos run failed: outcomes {:?}, failed vps {:?}",
            report.outcomes, report.failed_vps
        ));
    }
    let unique: std::collections::HashSet<(u32, u64)> =
        report.records.iter().map(|r| (r.vp.0, r.seq)).collect();
    if report.records.len() != 4 * 4 || unique.len() != report.records.len() {
        return Err(format!(
            "chaos run lost or double-executed jobs: {} records, {} unique",
            report.records.len(),
            unique.len()
        ));
    }
    if report.device_records[1].iter().any(|r| r.sent_at_s >= t_kill) {
        return Err("chaos run executed a job on the dead gpu after the kill".into());
    }
    let delta = |name: &str| {
        after.counter(name).unwrap_or(0).saturating_sub(before.counter(name).unwrap_or(0))
    };
    Ok(ChaosOutcome {
        seed,
        makespan_s: report.device_makespan_s,
        retries: delta("fault.retries"),
        gpu_trips: delta("fault.gpu_trips"),
        migrations: delta("fault.migrations"),
        dedup_hits: delta("fault.dedup_hits"),
        requests: stats.requests,
    })
}

/// One 4-VP sync-hold fleet: every guest's synchronous `vector_add` is parked
/// by the dispatcher, planned as one cross-VP window, and resumed in planned
/// completion order.
fn sync_fleet(arch: &GpuArch, tier: ExecTier) -> Result<DispatchStats, String> {
    let app = VectorAddApp { n: 2048 };
    let registry: KernelRegistry = app.kernels().into_iter().collect();
    let mut sys = DispatchedSigmaVp::single(arch.clone(), registry, TransportCost::shared_memory())
        .with_policy(sigmavp::Policy::MultiplexedOptimized.with_sync_hold(true).with_tier(tier));
    for _ in 0..4 {
        sys.spawn(Box::new(VectorAddApp { n: 2048 }));
    }
    let (report, stats) = sys.join();
    if !report.all_ok() {
        return Err(format!("sync scenario failed validation: {:?}", report.outcomes));
    }
    Ok(stats)
}

/// The sync-mode scenario: run the held-window fleet twice and hard-fail
/// unless the window ledger is byte-identical, merging happened live, the
/// live plan beats reorder-only, and no VP was left stopped.
fn run_sync(arch: &GpuArch, tier: ExecTier) -> Result<DispatchStats, String> {
    let a = sync_fleet(arch, tier)?;
    let b = sync_fleet(arch, tier)?;
    let identical = a.holds == b.holds
        && a.sync_windows == b.sync_windows
        && a.live_groups == b.live_groups
        && a.live_members == b.live_members
        && a.stop_events == b.stop_events
        && a.resume_events == b.resume_events
        && a.wave_slots == b.wave_slots
        && a.wave_filled == b.wave_filled
        && a.sync_makespan_s.to_bits() == b.sync_makespan_s.to_bits()
        && a.sync_reorder_makespan_s.to_bits() == b.sync_reorder_makespan_s.to_bits();
    if !identical {
        return Err(format!("sync window ledger diverges across identical runs: {a:?} vs {b:?}"));
    }
    if a.holds == 0 || a.sync_windows == 0 {
        return Err(format!("sync scenario held no windows: {a:?}"));
    }
    if a.live_groups == 0 {
        return Err(format!("sync scenario coalesced nothing live: {a:?}"));
    }
    if a.stop_events != a.resume_events {
        return Err(format!("sync scenario left a VP stopped: {a:?}"));
    }
    if a.sync_makespan_s >= a.sync_reorder_makespan_s {
        return Err(format!(
            "live sync plan ({:.9e} s) does not beat reorder-only ({:.9e} s)",
            a.sync_makespan_s, a.sync_reorder_makespan_s
        ));
    }
    Ok(a)
}

/// The deterministic window ledgers of the three `--sync` liveness scenarios
/// (partial-quorum flush, sim-time timeout flush, hung-VP quarantine).
struct LivenessOutcome {
    quorum: DispatchStats,
    timeout: DispatchStats,
    hang: DispatchStats,
}

/// Run one liveness fleet over `devices` identical host GPUs and fail if any
/// guest does not validate.
fn liveness_fleet(
    arch: &GpuArch,
    devices: usize,
    policy: Policy,
    apps: Vec<Box<dyn Application + Send>>,
    label: &str,
) -> Result<DispatchStats, String> {
    let registry: KernelRegistry =
        vec![sigmavp_workloads::kernels::vector_add()].into_iter().collect();
    let mut sys = DispatchedSigmaVp::new(
        vec![arch.clone(); devices],
        registry,
        TransportCost::shared_memory(),
    )
    .with_policy(policy);
    for app in apps {
        sys.spawn(app);
    }
    let (report, stats) = sys.join();
    if !report.all_ok() {
        return Err(format!("liveness {label} scenario failed validation: {:?}", report.outcomes));
    }
    Ok(stats)
}

/// The liveness ledger fields that must be byte-identical across two
/// same-configuration runs (wall-clock staggers position the VPs, but every
/// gated counter is a function of the window algebra alone).
fn liveness_ledger_identical(a: &DispatchStats, b: &DispatchStats) -> bool {
    a.holds == b.holds
        && a.sync_windows == b.sync_windows
        && a.quorum_flushes == b.quorum_flushes
        && a.timeout_flushes == b.timeout_flushes
        && a.backstop_trips == b.backstop_trips
        && a.quarantined == b.quarantined
        && a.rejoins == b.rejoins
        && a.deadline_misses == b.deadline_misses
        && a.stop_events == b.stop_events
        && a.resume_events == b.resume_events
        && a.sync_makespan_s.to_bits() == b.sync_makespan_s.to_bits()
}

/// The liveness scenarios (run with `--sync`): each runs twice in-process and
/// hard-fails unless its window ledger is byte-identical across the runs and
/// matches the structurally-determined expectation.
///
/// * **quorum** — two VPs under `sync_quorum(0.5)` (threshold 1): the prompt
///   VP's held launch flushes alone the moment it arrives, and the 60 ms-late
///   VP's launch rolls into its own quorum window (the first VP lingers
///   connected so the denominator stays 2). Exactly 2 holds over 2 windows,
///   both quorum flushes.
/// * **timeout** — one sync VP behind a copies-only companion under lockstep
///   quorum (unreachable: the companion never holds) and a 1 µs simulated
///   window timeout: both of the sync VP's launches must flush via the
///   timeout, never via quorum.
/// * **hang** — two VPs on two host GPUs with the watchdog armed
///   (`hang_windows(2)`): after a first full-house window, one VP wedges for
///   900 ms of wall time mid-run. The other VP's held launch freezes
///   simulated time, so only the wall-clock stall backstop can fire: it
///   quarantines the sleeper (failing its journal over to the other device
///   and dumping a `vp_hung` post-mortem), the survivor finishes solo over
///   the shrunken quorum, and the sleeper rejoins on wake and completes.
fn run_liveness(arch: &GpuArch, tier: ExecTier) -> Result<LivenessOutcome, String> {
    let quorum = || {
        liveness_fleet(
            arch,
            1,
            Policy::MultiplexedOptimized.with_sync_hold(true).sync_quorum(0.5).with_tier(tier),
            vec![
                Box::new(StaggeredAdd { n: 2048, launches: 1, pre_ms: 0, mid_ms: 0, post_ms: 250 }),
                Box::new(StaggeredAdd { n: 2048, launches: 1, pre_ms: 60, mid_ms: 0, post_ms: 0 }),
            ],
            "quorum",
        )
    };
    let timeout = || {
        liveness_fleet(
            arch,
            1,
            Policy::MultiplexedOptimized
                .with_sync_hold(true)
                .with_sync_timeout_us(1)
                .with_tier(tier),
            vec![
                Box::new(StaggeredAdd { n: 2048, launches: 2, pre_ms: 0, mid_ms: 0, post_ms: 0 }),
                Box::new(CopyStream { iterations: 600 }),
            ],
            "timeout",
        )
    };
    let hang = || {
        liveness_fleet(
            arch,
            2,
            Policy::MultiplexedOptimized.with_sync_hold(true).with_hang_windows(2).with_tier(tier),
            vec![
                Box::new(StaggeredAdd { n: 1024, launches: 3, pre_ms: 0, mid_ms: 0, post_ms: 0 }),
                Box::new(StaggeredAdd { n: 1024, launches: 2, pre_ms: 0, mid_ms: 900, post_ms: 0 }),
            ],
            "hang",
        )
    };

    let (qa, qb) = (quorum()?, quorum()?);
    if !liveness_ledger_identical(&qa, &qb) {
        return Err(format!(
            "liveness quorum ledger diverges across identical runs: {qa:?} vs {qb:?}"
        ));
    }
    if qa.holds != 2 || qa.sync_windows != 2 || qa.quorum_flushes != 2 || qa.timeout_flushes != 0 {
        return Err(format!("liveness quorum scenario did not flush 2 partial windows: {qa:?}"));
    }
    if qa.quarantined != 0 || qa.deadline_misses != 0 || qa.stop_events != qa.resume_events {
        return Err(format!("liveness quorum scenario left a VP parked or degraded: {qa:?}"));
    }

    let (ta, tb) = (timeout()?, timeout()?);
    if !liveness_ledger_identical(&ta, &tb) {
        return Err(format!(
            "liveness timeout ledger diverges across identical runs: {ta:?} vs {tb:?}"
        ));
    }
    if ta.holds != 2 || ta.sync_windows != 2 || ta.timeout_flushes != 2 || ta.quorum_flushes != 0 {
        return Err(format!("liveness timeout scenario did not flush by deadline: {ta:?}"));
    }
    if ta.stop_events != ta.resume_events {
        return Err(format!("liveness timeout scenario left a VP stopped: {ta:?}"));
    }

    let (ha, hb) = (hang()?, hang()?);
    if !liveness_ledger_identical(&ha, &hb) {
        return Err(format!(
            "liveness hang ledger diverges across identical runs: {ha:?} vs {hb:?}"
        ));
    }
    if ha.quarantined != 1 || ha.rejoins != 1 || ha.backstop_trips != 1 {
        return Err(format!(
            "liveness hang scenario must quarantine and rejoin exactly one VP: {ha:?}"
        ));
    }
    if ha.holds != 5 || ha.sync_windows != 4 {
        return Err(format!("liveness hang scenario window ledger is off: {ha:?}"));
    }
    if ha.migrations < 1 {
        return Err(format!("liveness hang quarantine did not fail the VP over: {ha:?}"));
    }
    if ha.stop_events != ha.resume_events {
        return Err(format!("liveness hang scenario left a VP stopped: {ha:?}"));
    }
    Ok(LivenessOutcome { quorum: qa, timeout: ta, hang: ha })
}

fn phase_name(phase: PathPhase) -> &'static str {
    match phase {
        PathPhase::Transfer => "transfer",
        PathPhase::Compute => "compute",
        PathPhase::Stall => "stall",
    }
}

fn scenario_json(s: &Scenario) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "    \"{}\": {{\n      \"makespan_s\": {:.9e},\n      \"overlap_fraction\": {:.6},\n",
        escape_json(s.name),
        s.makespan_s,
        s.plan.timeline.overlap_fraction()
    ));
    out.push_str(&format!(
        "      \"critical_path\": {{\"busy_s\": {:.9e}, \"stall_s\": {:.9e}, \
         \"transfer_s\": {:.9e}, \"compute_s\": {:.9e}, \"segments\": [\n",
        s.path.busy_s(),
        s.path.stall_s().max(0.0),
        s.path.phase_s(PathPhase::Transfer),
        s.path.phase_s(PathPhase::Compute)
    ));
    let segs: Vec<String> = s
        .path
        .segments
        .iter()
        .map(|seg| {
            format!(
                "        {{\"phase\": \"{}\", \"start_s\": {:.9e}, \"end_s\": {:.9e}, \"job\": {}}}",
                phase_name(seg.phase),
                seg.start_s,
                seg.end_s,
                seg.job.map_or("null".to_string(), |j| j.to_string())
            )
        })
        .collect();
    out.push_str(&segs.join(",\n"));
    out.push_str("\n      ]},\n      \"jobs\": [\n");
    let jobs: Vec<String> = s
        .lifecycles
        .iter()
        .map(|l| {
            let (win_start, win_end) = l.device_window.unwrap_or((0.0, 0.0));
            format!(
                "        {{\"vp\": {}, \"seq\": {}, \"transfer_sim_s\": {:.9e}, \
                 \"compute_sim_s\": {:.9e}, \"window_start_s\": {:.9e}, \
                 \"window_end_s\": {:.9e}, \"stall_s\": {:.9e}}}",
                l.vp,
                l.seq,
                l.transfer_sim_s,
                l.compute_sim_s,
                win_start,
                win_end,
                l.device_stall_s()
            )
        })
        .collect();
    out.push_str(&jobs.join(",\n"));
    out.push_str("\n      ]\n    }");
    out
}

fn main() -> ExitCode {
    let args = parse_args();
    let telemetry = sigmavp_telemetry::install();
    let arch = GpuArch::quadro_4000();
    let mut report = AuditReport::new(args.tolerance);

    // The always-on observability pair: every completed job (planned or live)
    // folds into the online profile store, and the chaos smoke's breaker trip
    // must leave a parseable post-mortem behind.
    let profiles = SharedProfileStore::new();
    profiles.install();
    let recorder = FlightRecorder::new(FlightConfig::default());
    recorder.attach(telemetry);
    recorder.install_incident_sink();

    // --- Scenario 1: async4 — Eq. 7 interleaved makespan. -------------------
    let (tm, tk) = (1e-4, 2e-4);
    let async4 = match run_scenario(
        "async4",
        fleet_records(4, tm, tk, &arch),
        &Policy::Fifo,
        false,
        &arch,
        args.inject_slowdown,
        args.passes.as_deref(),
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("audit: {e}");
            return ExitCode::FAILURE;
        }
    };
    let inputs = observed_inputs(&async4.records);
    report.push("eq7", eq7_makespan_s(inputs.n, inputs.tm_s, inputs.tk_s), async4.makespan_s);

    // --- Scenario 2: speedup4 — Eq. 8 bound at Tm = Tk. ----------------------
    // The serial baseline is synchronous serialization: the plain duration sum
    // (as in Fig. 9 — every blocking call queues behind the previous one).
    let t = 1.5e-4;
    let speedup4 = match run_scenario(
        "speedup4",
        fleet_records(4, t, t, &arch),
        &Policy::Fifo,
        false,
        &arch,
        args.inject_slowdown,
        args.passes.as_deref(),
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("audit: {e}");
            return ExitCode::FAILURE;
        }
    };
    let serial_s: f64 = speedup4.records.iter().map(|r| r.duration_s).sum();
    let measured_speedup = serial_s / speedup4.makespan_s;
    report.push("eq8", eq8_speedup_bound(4), measured_speedup);

    // --- Scenario 3: coalesce6 — Eq. 9 merged-launch alignment. --------------
    let wave_s = 5e-5;
    let coalesce6 = match run_scenario(
        "coalesce6",
        coalescible_records(6, wave_s, &arch),
        &Policy::MultiplexedOptimized,
        true,
        &arch,
        args.inject_slowdown,
        args.passes.as_deref(),
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("audit: {e}");
            return ExitCode::FAILURE;
        }
    };
    let group = match coalesce6.plan.stream.groups.first() {
        Some(g) => g,
        None => {
            eprintln!("audit: coalesce6 produced no merge group — coalescing is broken");
            return ExitCode::FAILURE;
        }
    };
    // Eq. 9 inputs observed from the log: To and Te from the member records
    // (Te = per-wave compute time), ξ = the merged grid, λ from the device.
    let (mut xi, mut sum_compute, mut sum_waves, mut to_s) = (0u64, 0.0f64, 0u64, 0.0f64);
    for r in &coalesce6.records {
        if let RecordKind::Kernel { grid_dim, launch_overhead_s, waves, .. } = &r.kind {
            xi += u64::from(*grid_dim);
            to_s = *launch_overhead_s;
            sum_waves += *waves;
            sum_compute += (r.duration_s - launch_overhead_s).max(0.0);
        }
    }
    let te_s = if sum_waves > 0 { sum_compute / sum_waves as f64 } else { 0.0 };
    let lambda = u64::from(arch.blocks_per_wave(128));
    let merged_span = match coalesce6.plan.timeline.span(group.anchor.0) {
        Some(sp) => (sp.end_s - sp.start_s) * args.inject_slowdown,
        None => {
            eprintln!("audit: merged anchor op missing from the coalesce6 timeline");
            return ExitCode::FAILURE;
        }
    };
    report.push("eq9", eq9_merged_kernel_s(to_s, te_s, xi, lambda), merged_span);

    // The planned job logs feed the same profile ingest the dispatcher uses
    // live, so the gated counters cover both paths.
    for s in [&async4, &speedup4, &coalesce6] {
        profiles.observe_records(&arch, &s.records);
    }

    // --- Live dispatched fleet: plan.pass.* timings + wall lifecycles. -------
    // Run twice: the first run feeds the report, the second only proves the
    // determinism contract — two same-seed live runs must fold to
    // byte-identical serialized profiles despite thread-ordered arrival.
    let live_fleet = || {
        let app = VectorAddApp { n: 4096 };
        let registry: KernelRegistry = app.kernels().into_iter().collect();
        let mut sys =
            DispatchedSigmaVp::single(arch.clone(), registry, TransportCost::shared_memory())
                .with_policy(sigmavp::Policy::Fifo.with_tier(args.tier));
        for _ in 0..4 {
            sys.spawn(Box::new(VectorAddApp { n: 4096 }));
        }
        sys.join()
    };
    let (fleet_report, stats) = live_fleet();
    if !fleet_report.all_ok() {
        eprintln!("audit: live fleet failed validation: {:?}", fleet_report.outcomes);
        return ExitCode::FAILURE;
    }
    let wall_lifecycles = join_lifecycles(&telemetry.drain_events());
    recorder.sample();
    let (fleet_report_b, _) = live_fleet();
    if !fleet_report_b.all_ok() {
        eprintln!("audit: live fleet rerun failed validation: {:?}", fleet_report_b.outcomes);
        return ExitCode::FAILURE;
    }
    let fold = |records: &[JobRecord]| {
        let mut store = ProfileStore::new();
        store.observe_records(&arch, records);
        store.snapshot().to_json()
    };
    if fold(&fleet_report.records) != fold(&fleet_report_b.records) {
        eprintln!("audit: same-seed live runs folded to different serialized profiles");
        return ExitCode::FAILURE;
    }

    // --- Chaos smoke: kill a GPU mid-run under a lossy link. -----------------
    let chaos = match run_chaos(args.fault_seed, &arch, &telemetry, args.tier) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("audit: {e}");
            return ExitCode::FAILURE;
        }
    };
    recorder.sample();
    // --- Sync-mode window scenario (opt-in, gated). --------------------------
    let sync = if args.sync {
        match run_sync(&arch, args.tier) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("audit: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    // --- Liveness scenarios: quorum flush, timeout flush, hung-VP watchdog. --
    let liveness = if args.sync {
        match run_liveness(&arch, args.tier) {
            Ok(l) => Some(l),
            Err(e) => {
                eprintln!("audit: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    recorder.sample();
    let snapshot = telemetry.snapshot();

    // --- Post-mortem: the chaos breaker trip must have dumped a bundle; with
    // the liveness scenarios on, the hang quarantine's `vp_hung` dump is the
    // one CI's bundle check exercises.
    let bundles = recorder.bundles();
    let bundle = if liveness.is_some() {
        bundles.iter().rev().find(|b| b.name.ends_with("vp_hung"))
    } else {
        bundles.last()
    };
    let Some(bundle) = bundle else {
        eprintln!("audit: no post-mortem bundle was dumped (breaker trip / vp_hung quarantine)");
        return ExitCode::FAILURE;
    };
    if let Err(e) = validate_bundle(&bundle.json) {
        eprintln!("audit: post-mortem {} is malformed: {e}", bundle.name);
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(POSTMORTEM_OUT, &bundle.json) {
        eprintln!("audit: cannot write {POSTMORTEM_OUT}: {e}");
        return ExitCode::FAILURE;
    }
    let profile_snapshot = profiles.snapshot();

    // --- Gate metrics (deterministic simulated quantities only). -------------
    let mut gate: Vec<(String, f64)> = vec![
        ("async4.makespan_s".into(), async4.makespan_s),
        ("async4.overlap_fraction".into(), async4.plan.timeline.overlap_fraction()),
        ("async4.eq7_residual_frac".into(), report.entry("eq7").expect("pushed").residual_frac),
        ("async4.critical_path_stall_s".into(), async4.path.stall_s().max(0.0)),
        ("speedup4.serial_makespan_s".into(), serial_s),
        ("speedup4.async_makespan_s".into(), speedup4.makespan_s),
        ("speedup4.measured_speedup".into(), measured_speedup),
        ("speedup4.eq8_residual_frac".into(), report.entry("eq8").expect("pushed").residual_frac),
        ("coalesce6.makespan_s".into(), coalesce6.makespan_s),
        ("coalesce6.eq9_residual_frac".into(), report.entry("eq9").expect("pushed").residual_frac),
        ("coalesce6.merged_members".into(), coalesce6.plan.coalesced_members() as f64),
        ("trace.dropped_events".into(), snapshot.dropped_events as f64),
        // The chaos smoke's fault story is fully seed-determined: the same seed
        // must reproduce the same retries, trips, migrations, and makespan.
        ("chaos.makespan_s".into(), chaos.makespan_s),
        ("chaos.fault_retries".into(), chaos.retries as f64),
        ("chaos.gpu_trips".into(), chaos.gpu_trips as f64),
        ("chaos.migrations".into(), chaos.migrations as f64),
        // Observability counters: ingest volume, snapshot cadence and incident
        // dumps are all functions of the same-seed run, so they gate exactly.
        ("obs.profile_updates".into(), profile_snapshot.updates as f64),
        ("obs.profile_entries".into(), profile_snapshot.entries() as f64),
        ("obs.snapshots".into(), recorder.taken() as f64),
        ("obs.incidents".into(), recorder.incidents().len() as f64),
        ("obs.postmortems".into(), bundles.len() as f64),
    ];
    if let Some(s) = &sync {
        // The window ledger is fully deterministic (and verified byte-identical
        // across two in-process runs above), so it gates at face value.
        gate.extend([
            ("sync.holds".into(), s.holds as f64),
            ("sync.windows".into(), s.sync_windows as f64),
            ("sync.live_groups".into(), s.live_groups as f64),
            ("sync.live_members".into(), s.live_members as f64),
            ("sync.stop_events".into(), s.stop_events as f64),
            ("sync.makespan_s".into(), s.sync_makespan_s),
            ("sync.reorder_makespan_s".into(), s.sync_reorder_makespan_s),
        ]);
    }
    if let Some(l) = &liveness {
        // Each liveness ledger is verified byte-identical across two
        // in-process runs above, so the counters gate at face value.
        gate.extend([
            ("sync.quorum.holds".into(), l.quorum.holds as f64),
            ("sync.quorum.windows".into(), l.quorum.sync_windows as f64),
            ("sync.quorum.partial_flushes".into(), l.quorum.quorum_flushes as f64),
            ("sync.quorum.makespan_s".into(), l.quorum.sync_makespan_s),
            ("liveness.timeout_windows".into(), l.timeout.sync_windows as f64),
            ("liveness.timeout_flushes".into(), l.timeout.timeout_flushes as f64),
            ("liveness.hang_holds".into(), l.hang.holds as f64),
            ("liveness.hang_windows_flushed".into(), l.hang.sync_windows as f64),
            ("liveness.hang_backstop_trips".into(), l.hang.backstop_trips as f64),
            ("liveness.hang_quarantined".into(), l.hang.quarantined as f64),
            ("liveness.hang_rejoins".into(), l.hang.rejoins as f64),
        ]);
    }

    // --- BENCH_audit.json. ----------------------------------------------------
    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"sigmavp-audit-v1\",\n");
    json.push_str(&format!("  \"tolerance\": {:.6},\n", args.tolerance));
    // The gate section is byte-identical to the baseline format so tooling can
    // extract and parse it with the same flat parser.
    let flat = format_flat_json(&gate);
    json.push_str(&format!("  \"gate\": {},\n", flat.trim_end().replace('\n', "\n  ")));
    json.push_str(&format!("  \"model\": {},\n", report.to_json()));
    json.push_str("  \"scenarios\": {\n");
    let scenarios = [&async4, &speedup4, &coalesce6].map(scenario_json);
    json.push_str(&scenarios.join(",\n"));
    json.push_str("\n  },\n");
    let passes: Vec<String> = snapshot
        .histograms
        .iter()
        .filter(|(name, _)| name.starts_with("plan.pass.") && name.ends_with(".time_s"))
        .map(|(name, h)| {
            format!(
                "    {{\"name\": \"{}\", \"calls\": {}, \"mean_s\": {:.9e}, \"max_s\": {:.9e}}}",
                escape_json(name),
                h.count,
                if h.count > 0 { h.sum / h.count as f64 } else { 0.0 },
                h.max
            )
        })
        .collect();
    json.push_str(&format!("  \"passes\": [\n{}\n  ],\n", passes.join(",\n")));
    let queue_wait_mean_s = if wall_lifecycles.is_empty() {
        0.0
    } else {
        wall_lifecycles.iter().map(|l| l.queue_wall_s).sum::<f64>() / wall_lifecycles.len() as f64
    };
    json.push_str(&format!(
        "  \"live\": {{\"requests\": {}, \"jobs_joined\": {}, \"queue_wait_mean_s\": {:.9e}, \
         \"dropped_events\": {}}},\n",
        stats.requests,
        wall_lifecycles.len(),
        queue_wait_mean_s,
        snapshot.dropped_events
    ));
    if let Some(s) = &sync {
        json.push_str(&format!(
            "  \"sync\": {{\"holds\": {}, \"windows\": {}, \"live_groups\": {}, \
             \"live_members\": {}, \"stop_events\": {}, \"resume_events\": {}, \
             \"wave_slots\": {}, \"wave_filled\": {}, \"makespan_s\": {:.9e}, \
             \"reorder_makespan_s\": {:.9e}}},\n",
            s.holds,
            s.sync_windows,
            s.live_groups,
            s.live_members,
            s.stop_events,
            s.resume_events,
            s.wave_slots,
            s.wave_filled,
            s.sync_makespan_s,
            s.sync_reorder_makespan_s
        ));
    }
    if let Some(l) = &liveness {
        json.push_str(&format!(
            "  \"liveness\": {{\
             \"quorum\": {{\"holds\": {}, \"windows\": {}, \"partial_flushes\": {}, \
             \"makespan_s\": {:.9e}}}, \
             \"timeout\": {{\"holds\": {}, \"windows\": {}, \"timeout_flushes\": {}}}, \
             \"hang\": {{\"holds\": {}, \"windows\": {}, \"backstop_trips\": {}, \
             \"quarantined\": {}, \"rejoins\": {}, \"migrations\": {}}}}},\n",
            l.quorum.holds,
            l.quorum.sync_windows,
            l.quorum.quorum_flushes,
            l.quorum.sync_makespan_s,
            l.timeout.holds,
            l.timeout.sync_windows,
            l.timeout.timeout_flushes,
            l.hang.holds,
            l.hang.sync_windows,
            l.hang.backstop_trips,
            l.hang.quarantined,
            l.hang.rejoins,
            l.hang.migrations
        ));
    }
    json.push_str(&format!(
        "  \"obs\": {{\"snapshots\": {}, \"incidents\": {}, \"postmortems\": {}, \
         \"profile\": {}}},\n",
        recorder.taken(),
        recorder.incidents().len(),
        bundles.len(),
        profile_snapshot.to_json().trim_end().replace('\n', "\n  ")
    ));
    json.push_str(&format!(
        "  \"chaos\": {{\"seed\": {}, \"makespan_s\": {:.9e}, \"requests\": {}, \
         \"fault_retries\": {}, \"gpu_trips\": {}, \"migrations\": {}, \"dedup_hits\": {}}}\n}}\n",
        chaos.seed,
        chaos.makespan_s,
        chaos.requests,
        chaos.retries,
        chaos.gpu_trips,
        chaos.migrations,
        chaos.dedup_hits
    ));
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("audit: cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }

    // --- Human-readable summary. ----------------------------------------------
    for s in [&async4, &speedup4, &coalesce6] {
        println!(
            "{}: makespan {:.3} ms, overlap {:.0}%, critical path conserved \
             (busy {:.3} ms + stall {:.3} ms)",
            s.name,
            s.makespan_s * 1e3,
            s.plan.timeline.overlap_fraction() * 100.0,
            s.path.busy_s() * 1e3,
            s.path.stall_s().max(0.0) * 1e3
        );
    }
    for e in &report.entries {
        println!(
            "model {}: predicted {:.6e}, measured {:.6e}, residual {:.2}% [{}]",
            e.name,
            e.predicted,
            e.measured,
            e.residual_frac * 100.0,
            if e.within_tolerance { "ok" } else { "FLAGGED" }
        );
    }
    if snapshot.dropped_events > 0 {
        eprintln!(
            "audit: WARNING: {} trace events dropped; wall lifecycles are incomplete",
            snapshot.dropped_events
        );
    }
    println!(
        "live fleet: {} requests, {} lifecycles joined, mean queue wait {:.3} ms",
        stats.requests,
        wall_lifecycles.len(),
        queue_wait_mean_s * 1e3
    );
    if let Some(s) = &sync {
        println!(
            "sync: {} holds over {} window(s), {} live group(s) absorbing {} launch(es), \
             makespan {:.3} ms vs reorder-only {:.3} ms (ledger byte-identical across runs)",
            s.holds,
            s.sync_windows,
            s.live_groups,
            s.live_members,
            s.sync_makespan_s * 1e3,
            s.sync_reorder_makespan_s * 1e3
        );
    }
    if let Some(l) = &liveness {
        println!(
            "liveness: quorum flushed {} partial window(s), timeout flushed {}, watchdog \
             quarantined {} hung VP(s) ({} rejoined; ledgers byte-identical across runs)",
            l.quorum.quorum_flushes, l.timeout.timeout_flushes, l.hang.quarantined, l.hang.rejoins
        );
    }
    println!(
        "chaos (seed {}): survived gpu kill — {} requests, {} retries, {} dedup hits, \
         {} trip(s), {} migration(s), makespan {:.3} ms",
        chaos.seed,
        chaos.requests,
        chaos.retries,
        chaos.dedup_hits,
        chaos.gpu_trips,
        chaos.migrations,
        chaos.makespan_s * 1e3
    );
    println!(
        "obs: {} profile updates over {} entries, {} snapshot(s), {} incident(s), \
         post-mortem {} ({} bytes) -> {POSTMORTEM_OUT}",
        profile_snapshot.updates,
        profile_snapshot.entries(),
        recorder.taken(),
        recorder.incidents().len(),
        bundle.name,
        bundle.json.len()
    );
    println!("wrote {}", args.out);

    // --- Baseline write / check. ----------------------------------------------
    let mut failed = match run_gate(
        &GateConfig {
            tool: "audit",
            baseline: &args.baseline,
            tolerance: args.tolerance,
            write_baseline: args.write_baseline,
            check: args.check,
        },
        &gate,
    ) {
        Ok(regressed) => regressed,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if !report.all_within() {
        for e in report.flagged() {
            eprintln!(
                "audit: model residual {} = {:.2}% exceeds tolerance {:.0}%",
                e.name,
                e.residual_frac * 100.0,
                args.tolerance * 100.0
            );
        }
        failed = true;
    }
    // Demonstrate uid round-tripping in the summary (and keep the helpers hot).
    if let Some(l) = async4.lifecycles.first() {
        debug_assert_eq!((job_uid_vp(l.job), job_uid_seq(l.job)), (l.vp, l.seq));
    }
    sigmavp_telemetry::bus::clear_sinks();
    sigmavp_telemetry::uninstall();
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
