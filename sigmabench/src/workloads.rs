//! The three workloads, built from a seed, and one run of each.
//!
//! * `compute` — the live dispatcher, 2 VPs running the heavy suite apps
//!   (Mandelbrot, MatrixMul, N-body) under `Policy::Fifo`: the SPTX
//!   interpreter does nearly all the work.
//! * `chatty` — the live dispatcher, 2 VPs looping the small coalescible apps
//!   (VectorAdd, ScalarProd, Reduction, Transpose at scale 1) under the full
//!   ΣVP policy with sync holds: thousands of small requests, held windows.
//! * `fleet` — the sharded front end, 2 sessions and 256 scripted
//!   `vector_add` VPs driven in wavefront order by this crate's
//!   own closed-loop load generator (one outstanding request per VP).
//!
//! The seed picks each VP's app order and sizes from a fixed menu (and the
//! fleet's launch counts and script seeds). Every menu keeps the total work
//! within a few percent across seeds.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use sigmavp::dispatcher::{DispatchStats, DispatchedSigmaVp};
use sigmavp::HostRuntime;
use sigmavp_fleet::{Fleet, FleetConfig, FleetStats, VpScript};
use sigmavp_gpu::GpuArch;
use sigmavp_ipc::message::{Response, VpId};
use sigmavp_ipc::transport::TransportCost;
use sigmavp_sched::Policy;
use sigmavp_sptx::interp::{Interpreter, LaunchConfig, Memory, ParamValue};
use sigmavp_sptx::Tier;
use sigmavp_vp::platform::VirtualPlatform;
use sigmavp_vp::registry::KernelRegistry;
use sigmavp_workloads::app::{AppEnv, Application};
use sigmavp_workloads::apps::{
    MandelbrotApp, MatrixMulApp, NbodyApp, ReductionApp, ScalarProdApp, TransposeApp, VectorAddApp,
};

use crate::serial::{Ledger, SerialPipe};
use crate::timed::{CallLog, TimedGpu, VpProgram};

/// Live VP threads per runtime and fleet sessions: sized for a 2-core host.
pub const VPS: u32 = 2;
const FLEET_SESSIONS: usize = 2;
/// Largest fleet vector length; four blocks of 256 threads.
const FLEET_VECTOR: u32 = 1024;

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Heavy kernels through the live dispatcher.
    Compute,
    /// Many small coalescible requests through held sync windows.
    Chatty,
    /// Scripted VPs through the sharded fleet.
    Fleet,
}

impl Workload {
    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "compute" => Some(Workload::Compute),
            "chatty" => Some(Workload::Chatty),
            "fleet" => Some(Workload::Fleet),
            _ => None,
        }
    }

    /// The scheduling policy of the live runtimes (the fleet keeps its own
    /// default, `Policy::Fifo`).
    pub fn policy(self) -> Policy {
        match self {
            Workload::Compute | Workload::Fleet => Policy::Fifo,
            Workload::Chatty => Policy::MultiplexedOptimized.with_sync_hold(true),
        }
    }
}

/// Shuffle `items` in place (Fisher–Yates).
fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

/// One guest app with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AppSpec {
    /// Mandelbrot: 64 columns × `height` rows.
    Mandelbrot { height: u64 },
    /// MatrixMul: `n`×`n`, two repetitions.
    MatrixMul { n: u64 },
    /// N-body: `n` bodies.
    Nbody { n: u64 },
    /// VectorAdd at scale 1.
    VectorAdd,
    /// ScalarProd at scale 1.
    ScalarProd,
    /// Reduction at scale 1.
    Reduction,
    /// Transpose at scale 1.
    Transpose,
}

impl AppSpec {
    /// Instantiate the app.
    pub fn build(self) -> Box<dyn Application + Send> {
        match self {
            AppSpec::Mandelbrot { height } => {
                Box::new(MandelbrotApp { width: 64, height, maxiter: 64 })
            }
            AppSpec::MatrixMul { n } => Box::new(MatrixMulApp::with_shape(n, 2)),
            AppSpec::Nbody { n } => Box::new(NbodyApp { n }),
            AppSpec::VectorAdd => Box::new(VectorAddApp::new(1)),
            AppSpec::ScalarProd => Box::new(ScalarProdApp::new(1)),
            AppSpec::Reduction => Box::new(ReductionApp::new(1)),
            AppSpec::Transpose => Box::new(TransposeApp::new(1)),
        }
    }
}

/// Everything a run needs, derived from the workload and the seed.
#[derive(Debug, Clone)]
pub struct Spec {
    /// The workload.
    pub workload: Workload,
    /// Each live VP's app sequence (empty for `fleet`).
    pub vps: Vec<Vec<AppSpec>>,
    /// Each fleet VP's `(launches, script seed)` (empty for live workloads).
    pub scripts: Vec<(u32, u64)>,
    /// Elements per fleet VP's vectors.
    pub vector: u32,
}

impl Spec {
    /// Build the inputs of `workload` from `seed`. `tiny` shrinks every size
    /// for the smoke test.
    pub fn new(workload: Workload, seed: u64, tiny: bool) -> Spec {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut vps = Vec::new();
        let mut scripts = Vec::new();
        let mut vector = FLEET_VECTOR;
        match workload {
            Workload::Compute => {
                // Rounds of the three heavy apps with similar kernel times, so
                // the launch latencies form one smooth distribution. Sizes step
                // by a few percent per round; over six draws per app the total
                // work stays within about one percent across seeds.
                let (rounds, mandel, nbody) = if tiny { (1, 8, 32) } else { (6, 64, 208) };
                for _ in 0..VPS {
                    let mut apps = Vec::new();
                    for _ in 0..rounds {
                        let mut round = [
                            AppSpec::Mandelbrot { height: mandel + 4 * rng.gen_range(0..3) },
                            AppSpec::MatrixMul { n: if tiny { 8 } else { 40 } },
                            AppSpec::Nbody { n: nbody + 4 * rng.gen_range(0..3) },
                        ];
                        shuffle(&mut rng, &mut round);
                        apps.extend(round);
                    }
                    vps.push(apps);
                }
            }
            Workload::Chatty => {
                let loops = if tiny { 1 } else { 48 };
                for _ in 0..VPS {
                    let mut apps = Vec::new();
                    for _ in 0..loops {
                        let mut round = [
                            AppSpec::VectorAdd,
                            AppSpec::ScalarProd,
                            AppSpec::Reduction,
                            AppSpec::Transpose,
                        ];
                        shuffle(&mut rng, &mut round);
                        apps.extend(round);
                    }
                    vps.push(apps);
                }
            }
            Workload::Fleet => {
                // One vector length for the whole fleet from a narrow menu
                // (it sets every VP's simulated time), and a fixed multiset of
                // launch counts (1–4, equally often) dealt to VPs in a seeded
                // order: the request total never changes.
                vector = FLEET_VECTOR - 16 * rng.gen_range(0..5);
                let count = if tiny { 8 } else { 256 };
                let mut launches: Vec<u32> = (0..count).map(|i| 1 + i % 4).collect();
                shuffle(&mut rng, &mut launches);
                scripts = launches.into_iter().map(|l| (l, rng.next_u64())).collect();
            }
        }
        Spec { workload, vps, scripts, vector }
    }

    /// Whether each live VP's kernels may be coalesced with other VPs' (the
    /// fleet's scripted VPs all run the coalescible `vector_add`).
    pub fn coalescible_vps(&self) -> Vec<bool> {
        self.vps
            .iter()
            .map(|apps| apps.iter().all(|a| a.build().characteristics().coalescible))
            .collect()
    }

    /// The kernels every VP may launch.
    pub fn registry(&self) -> KernelRegistry {
        match self.workload {
            Workload::Fleet => VectorAddApp::new(1).kernels().into_iter().collect(),
            _ => {
                let mut distinct: Vec<AppSpec> = Vec::new();
                for app in self.vps.iter().flatten() {
                    if !distinct.contains(app) {
                        distinct.push(*app);
                    }
                }
                distinct.iter().flat_map(|app| app.build().kernels()).collect()
            }
        }
    }

    /// A fresh guest program per VP, its call-log buffer sized for
    /// `expected_calls` samples.
    fn fresh_programs(&self, expected_calls: usize) -> Vec<VpProgram> {
        self.vps
            .iter()
            .map(|apps| VpProgram::new(apps.iter().map(|a| a.build()).collect(), expected_calls))
            .collect()
    }
}

/// Launch every registered kernel once on a one-thread throwaway grid, so the
/// process-wide decode cache holds each program before anything is timed.
/// The launches fault on their empty memory; decoding happens before that.
pub fn warm_decode_cache(registry: &KernelRegistry) {
    let interp = Interpreter::new().with_tier(Tier::Warp).with_workers(1);
    let cfg = LaunchConfig::linear(1, 1);
    for name in registry.names() {
        let program = registry.get(name).expect("name comes from the registry");
        let params = vec![ParamValue::I64(0); program.num_params()];
        let _ = interp.run(&program, &cfg, &params, &mut Memory::new(0));
    }
}

/// A system built and admitted, ready to run (one lives at a time, so the
/// variants' sizes do not matter).
#[allow(clippy::large_enum_variant)]
pub enum Prepared {
    /// The live dispatcher with its VP programs spawned.
    Live { sys: DispatchedSigmaVp, logs: Vec<Arc<Mutex<Option<CallLog>>>> },
    /// The fleet with every scripted VP admitted.
    Fleet { fleet: Fleet, scripts: Vec<(VpId, VpScript)> },
}

/// Set up one run: registry, decode-cache warm-up, system construction and
/// VP admission. Returns the system and the set-up time in seconds.
pub fn prepare(spec: &Spec, expected_calls: usize) -> Result<(Prepared, f64), String> {
    let started = Instant::now();
    let registry = spec.registry();
    warm_decode_cache(&registry);
    let prepared = match spec.workload {
        Workload::Fleet => {
            let config = FleetConfig::new(FLEET_SESSIONS)
                .with_capacity(spec.scripts.len())
                .with_steal_interval(64);
            let fleet = Fleet::new(config, registry).map_err(|e| format!("fleet: {e}"))?;
            let mut scripts = Vec::with_capacity(spec.scripts.len());
            for (i, &(launches, seed)) in spec.scripts.iter().enumerate() {
                let vp = VpId(i as u32);
                fleet.admit(vp).map_err(|e| format!("admit {vp}: {e}"))?;
                scripts.push((vp, VpScript::vector_add(spec.vector, launches, seed)));
            }
            Prepared::Fleet { fleet, scripts }
        }
        _ => {
            let mut sys = DispatchedSigmaVp::single(
                GpuArch::quadro_4000(),
                registry,
                TransportCost::shared_memory(),
            )
            .with_policy(spec.workload.policy());
            let mut logs = Vec::new();
            for program in spec.fresh_programs(expected_calls) {
                logs.push(program.log_slot());
                sys.spawn(Box::new(program));
            }
            Prepared::Live { sys, logs }
        }
    };
    Ok((prepared, started.elapsed().as_secs_f64()))
}

/// Round-trip samples of the fleet's front-end calls, in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct FleetCalls {
    /// `Fleet::submit` call durations.
    pub submit_ns: Vec<u64>,
    /// `Fleet::wait` call durations.
    pub wait_ns: Vec<u64>,
    /// `Fleet::shutdown` duration, in seconds.
    pub shutdown_s: f64,
    /// Front-end counters at shutdown.
    pub stats: FleetStats,
    /// Requests submitted.
    pub submitted: u64,
}

/// What one run produced.
#[derive(Debug, Default, Clone)]
pub struct RunOutcome {
    /// Host wall time of the run, in seconds.
    pub wall_s: f64,
    /// Guest-observed call round trips over all VPs, in nanoseconds.
    pub latencies_ns: Vec<u64>,
    /// Guest time outside GPU calls, summed over VPs, in seconds.
    pub guest_self_s: f64,
    /// Guest GPU calls issued.
    pub gpu_calls: u64,
    /// Calls or VPs that failed, with their error.
    pub failures: Vec<String>,
    /// Simulated time of each VP at the end of its program.
    pub vp_sim_s: Vec<f64>,
    /// Simulated host-GPU makespan.
    pub device_makespan_s: f64,
    /// Requests the host side served.
    pub requests: u64,
    /// Live dispatcher statistics (`None` for the fleet).
    pub dispatch: Option<DispatchStats>,
    /// Per-device job logs, in dispatch order (every fleet session's devices
    /// in session order).
    pub device_records: Vec<Vec<sigmavp::host::JobRecord>>,
    /// Fleet front-end samples (`None` for the live runtimes).
    pub fleet: Option<FleetCalls>,
}

impl RunOutcome {
    /// Simulated time of the slowest VP: the paper's total time T.
    pub fn sim_platform_s(&self) -> f64 {
        self.vp_sim_s.iter().copied().fold(0.0, f64::max)
    }
}

/// Run a prepared system to completion.
pub fn execute(prepared: Prepared) -> RunOutcome {
    match prepared {
        Prepared::Live { sys, logs } => execute_live(sys, &logs),
        Prepared::Fleet { fleet, mut scripts } => execute_fleet(&fleet, &mut scripts),
    }
}

fn execute_live(sys: DispatchedSigmaVp, logs: &[Arc<Mutex<Option<CallLog>>>]) -> RunOutcome {
    let started = Instant::now();
    let (report, stats) = sys.join();
    let wall_s = started.elapsed().as_secs_f64();
    let mut out = RunOutcome { wall_s, requests: stats.requests, ..RunOutcome::default() };
    for slot in logs {
        match slot.lock().expect("call-log slot lock").take() {
            Some(log) => {
                out.guest_self_s += log.guest_self_s();
                out.gpu_calls += log.calls();
                out.latencies_ns.extend_from_slice(&log.latencies_ns);
            }
            None => out.failures.push("a VP program never finished".into()),
        }
    }
    for o in &report.outcomes {
        if let Some(e) = &o.error {
            out.failures.push(format!("VP {}: {e}", o.vp.0));
        }
        out.vp_sim_s.push(o.simulated_time_s);
    }
    for (vp, e) in &report.failed_vps {
        out.failures.push(format!("VP {}: {e}", vp.0));
    }
    out.device_makespan_s = report.device_makespan_s;
    out.device_records = report.device_records;
    out.dispatch = Some(stats);
    out
}

/// The closed-loop wavefront load generator: one outstanding request per VP, VPs
/// visited in ascending order every round, `submit` and `wait` timed.
fn execute_fleet(fleet: &Fleet, scripts: &mut [(VpId, VpScript)]) -> RunOutcome {
    let total: u64 = scripts.iter().map(|(_, s)| s.jobs_total()).sum();
    let mut calls = FleetCalls {
        submit_ns: Vec::with_capacity(total as usize),
        wait_ns: Vec::with_capacity(total as usize),
        ..FleetCalls::default()
    };
    let mut out = RunOutcome {
        latencies_ns: Vec::with_capacity(total as usize),
        vp_sim_s: vec![0.0; scripts.len()],
        ..RunOutcome::default()
    };
    let mut sent: Vec<Option<Instant>> = vec![None; scripts.len()];
    let started = Instant::now();
    let result = (|| -> Result<(), String> {
        loop {
            let mut busy = false;
            for (i, (vp, script)) in scripts.iter_mut().enumerate() {
                let mut last = None;
                if let Some(submitted_at) = sent[i].take() {
                    let t = Instant::now();
                    let (envelope, sim_s) = fleet.wait(*vp).map_err(|e| format!("{vp}: {e}"))?;
                    calls.wait_ns.push(t.elapsed().as_nanos() as u64);
                    out.latencies_ns.push(submitted_at.elapsed().as_nanos() as u64);
                    out.vp_sim_s[i] += sim_s;
                    last = Some(envelope.body);
                }
                if script.is_done() {
                    if let Some(Response::Error { message }) = last {
                        return Err(format!("{vp}: {message}"));
                    }
                    continue;
                }
                busy = true;
                if let Some(request) =
                    script.next(last.as_ref()).map_err(|e| format!("{vp}: {e}"))?
                {
                    let t = Instant::now();
                    fleet.submit(*vp, request).map_err(|e| format!("{vp}: submit: {e}"))?;
                    calls.submit_ns.push(t.elapsed().as_nanos() as u64);
                    sent[i] = Some(t);
                    calls.submitted += 1;
                }
            }
            if !busy {
                return Ok(());
            }
        }
    })();
    // The generator's own time (scripting the next request, checking read-backs)
    // stands in for guest time: the floor no runtime change can remove.
    let in_calls_ns: u64 = calls.submit_ns.iter().chain(&calls.wait_ns).sum();
    out.guest_self_s =
        (started.elapsed().as_nanos() as u64).saturating_sub(in_calls_ns) as f64 * 1e-9;
    let t = Instant::now();
    let outcome = fleet.shutdown();
    calls.shutdown_s = t.elapsed().as_secs_f64();
    out.wall_s = started.elapsed().as_secs_f64();
    if let Err(e) = result {
        out.failures.push(e);
    }
    out.gpu_calls = out.latencies_ns.len() as u64;
    out.requests = calls.submitted;
    out.device_makespan_s = outcome.makespan_s();
    out.device_records =
        outcome.sessions.iter().flat_map(|s| s.devices.iter().map(|d| d.records.clone())).collect();
    calls.stats = outcome.stats;
    if calls.stats.completed != calls.submitted {
        out.failures.push(format!(
            "fleet completed {} of {} submitted requests",
            calls.stats.completed, calls.submitted
        ));
    }
    if calls.stats.shed != 0 {
        out.failures.push(format!("fleet shed {} requests", calls.stats.shed));
    }
    out.fleet = Some(calls);
    out
}

/// The serial-pipe replay of one run: layer ledger, guest self time and wall.
#[derive(Debug, Default, Clone)]
pub struct SerialOutcome {
    /// Host wall time of the whole replay, in seconds.
    pub wall_s: f64,
    /// Guest time outside GPU calls, in seconds.
    pub guest_self_s: f64,
    /// Per-layer host time.
    pub ledger: Ledger,
    /// Simulated time of each VP at the end of its program.
    pub vp_sim_s: Vec<f64>,
}

/// Replay a live workload on the calling thread: every VP's program through
/// [`SerialPipe`], one VP after another, into one [`HostRuntime`].
pub fn serial_replay(spec: &Spec) -> Result<SerialOutcome, String> {
    let policy = spec.workload.policy();
    let mut host = HostRuntime::new(GpuArch::quadro_4000(), spec.registry());
    host.set_workers(policy.workers);
    host.set_tier(match policy.tier {
        sigmavp_sched::ExecTier::Scalar => Tier::Scalar,
        sigmavp_sched::ExecTier::Warp => Tier::Warp,
    });
    let mut out = SerialOutcome::default();
    let started = Instant::now();
    for (i, apps) in spec.vps.iter().enumerate() {
        let vp = VpId(i as u32);
        let mut platform = VirtualPlatform::new(vp);
        let mut log = CallLog::default();
        let run_started = Instant::now();
        {
            let mut pipe = SerialPipe::new(
                &mut host,
                &mut out.ledger,
                TransportCost::shared_memory(),
                vp,
                platform.clock_handle(),
            );
            let mut gpu = TimedGpu::new(&mut pipe, &mut log);
            for app in apps {
                app.build()
                    .run_once(&mut AppEnv::new(&mut platform, &mut gpu))
                    .map_err(|e| format!("serial VP {i}: {e}"))?;
            }
        }
        log.run_ns = run_started.elapsed().as_nanos() as u64;
        out.guest_self_s += log.guest_self_s();
        out.vp_sim_s.push(platform.now_s());
    }
    out.wall_s = started.elapsed().as_secs_f64();
    Ok(out)
}
