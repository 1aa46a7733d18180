//! The ΣVP benchmark: end-to-end metrics with tracing off, per-layer metrics
//! from a traced run and a serial-pipe replay, every output checked.
//!
//! ```text
//! cargo run --release --manifest-path sigmabench/Cargo.toml -- \
//!     --workload compute|chatty|fleet --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path sigmabench/Cargo.toml -- --describe
//! ```
//!
//! With `--trace 0` the benchmark runs the workload once to warm caches, then
//! sets it up and runs it back to back for `--seconds`, and reports the
//! end-to-end metrics of `catalog::END_TO_END`. With `--trace 1` it reports
//! the per-layer metrics of `catalog::PER_LAYER` from untraced and traced runs
//! (alternating in two rounds), serial-pipe replays, and planner passes timed
//! alone on a run's job logs. Every run is checked: the apps
//! validate their results, the fleet completes every request, and simulated
//! times and deterministic counts must repeat bit for bit. Human-readable
//! lines come first; the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. A failed check exits 1.

mod catalog;
mod serial;
mod stats;
mod timed;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use sigmavp::plan_device;
use sigmavp_ipc::message::VpId;
use sigmavp_obs::join_lifecycles;
use sigmavp_sched::Pipeline;
use sigmavp_telemetry::Telemetry;

use crate::catalog::Metric;
use crate::stats::{median, tail, Blocks};
use crate::workloads::{
    execute, prepare, serial_replay, RunOutcome, SerialOutcome, Spec, Workload,
};

const USAGE: &str = "usage: sigmabench --workload compute|chatty|fleet --seed N --seconds S \
                     --trace 0|1 [--tiny]\n       sigmabench --describe";

/// Runs per phase at the least, however short `--seconds` is.
const MIN_RUNS: usize = 3;
/// The serial-pipe rows must cover at least this share of the serial wall.
const LEDGER_COVERAGE: f64 = 0.95;

/// Telemetry counters read around every traced run.
const COUNTERS: &[&str] = &[
    "sptx.instructions_executed",
    "sptx.parallel.launches",
    "sptx.parallel.tasks",
    "sptx.parallel.steals",
    "sptx.parallel.journal_bytes",
    "sptx.warp.warps",
    "sptx.warp.fallback_ctas",
    "sptx.warp.divergent_branches",
    "sptx.decode.misses",
    "dispatch.windows",
    "reorder.calls",
];

/// Counters that depend on thread timing rather than on the inputs: how many
/// pool tasks the block-parallel engine claimed and stole, and how often the
/// dispatcher polled and re-planned its window.
fn deterministic_counter(name: &str) -> bool {
    !matches!(
        name,
        "sptx.parallel.tasks" | "sptx.parallel.steals" | "dispatch.windows" | "reorder.calls"
    )
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

/// Parse the command line; `None` means `--describe`.
fn parse_args() -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--describe" => return Ok(None),
            "--tiny" => {
                tiny = true;
                continue;
            }
            _ => {}
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not a whole number"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("must lie in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tiny,
    }))
}

/// Counter deltas of one traced run.
type Counts = BTreeMap<&'static str, u64>;

/// The scalars kept from one run.
struct Measured {
    setup_s: f64,
    cpu_s: f64,
    wall_s: f64,
    guest_self_s: f64,
}

/// The benchmark state of one invocation. Runs are summarised as they
/// finish, so memory stays flat however many runs fit in `--seconds`.
struct Bench {
    spec: Spec,
    /// Guest calls per VP program, learned from the warm-up run.
    expected_calls: usize,
    /// Simulated times and counts every run must reproduce bit for bit.
    reference: Option<String>,
    /// Telemetry counters every traced run must reproduce.
    count_reference: Option<String>,
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    /// Guest-observed call round trips of the measured runs.
    latency: Blocks,
    /// `Fleet::submit` and `Fleet::wait` call times of the measured runs.
    submit: Blocks,
    wait: Blocks,
    shutdown_s: Vec<f64>,
    /// Trace events the span rings dropped over every traced run.
    dropped_events: u64,
    /// The latest measured run, whose job logs feed the planner timings.
    last: Option<RunOutcome>,
}

impl Bench {
    fn new(spec: Spec) -> Self {
        Bench {
            spec,
            expected_calls: 0,
            reference: None,
            count_reference: None,
            problems: Vec::new(),
            attempted: 0,
            failed: 0,
            latency: Blocks::default(),
            submit: Blocks::default(),
            wait: Blocks::default(),
            shutdown_s: Vec::new(),
            dropped_events: 0,
            last: None,
        }
    }

    /// Set up and run once; with `telemetry`, also read the counter deltas
    /// of the run itself (set-up excluded).
    fn run_once(
        &mut self,
        telemetry: Option<&Telemetry>,
    ) -> Result<(Measured, RunOutcome, Counts), String> {
        let (prepared, setup_s) = prepare(&self.spec, self.expected_calls)?;
        let before = telemetry.map(Telemetry::snapshot);
        let cpu_before = stats::cpu_seconds()?;
        let run = execute(prepared);
        let cpu_s = stats::cpu_seconds()? - cpu_before;
        let mut counts = Counts::new();
        if let (Some(telemetry), Some(before)) = (telemetry, before) {
            let after = telemetry.snapshot();
            for name in COUNTERS {
                let was = before.counter(name).unwrap_or(0);
                counts.insert(name, after.counter(name).unwrap_or(0).saturating_sub(was));
            }
        }
        let measured =
            Measured { setup_s, cpu_s, wall_s: run.wall_s, guest_self_s: run.guest_self_s };
        Ok((measured, run, counts))
    }

    /// Check a run's outputs, and that its deterministic quantities (and
    /// `counts`, for traced runs) match every earlier run.
    fn check(&mut self, run: &RunOutcome, counts: Option<&Counts>) {
        self.attempted += run.gpu_calls.max(1);
        self.failed += run.failures.len() as u64;
        self.problems.extend(run.failures.iter().cloned());
        same_as_before(&mut self.reference, fingerprint(run), &mut self.problems);
        if let Some(counts) = counts {
            let print = counts
                .iter()
                .filter(|(name, _)| deterministic_counter(name))
                .map(|(name, value)| format!("{name}={value}"))
                .collect::<Vec<_>>()
                .join(" ");
            same_as_before(&mut self.count_reference, print, &mut self.problems);
        }
    }

    /// One untraced, measured run.
    fn measure(&mut self) -> Result<Measured, String> {
        let (measured, run, _) = self.run_once(None)?;
        self.check(&run, None);
        self.latency.push_ns(&run.latencies_ns);
        if let Some(fleet) = &run.fleet {
            self.submit.push_ns(&fleet.submit_ns);
            self.wait.push_ns(&fleet.wait_ns);
            self.shutdown_s.push(fleet.shutdown_s);
        }
        self.last = Some(run);
        Ok(measured)
    }

    /// Measured runs until `budget` has passed (and at least `MIN_RUNS`).
    fn measure_for(&mut self, budget: Duration) -> Result<Vec<Measured>, String> {
        let started = Instant::now();
        let mut runs = Vec::new();
        while runs.len() < MIN_RUNS || started.elapsed() < budget {
            runs.push(self.measure()?);
        }
        Ok(runs)
    }

    /// One unmeasured run with telemetry installed: fills the decode cache,
    /// the worker pool and the allocator, sizes the call-log buffers, and
    /// counts the instructions one run executes.
    fn warm_up(&mut self) -> Result<u64, String> {
        let telemetry = sigmavp_telemetry::install();
        let result = self.run_once(Some(&telemetry));
        sigmavp_telemetry::uninstall();
        let (_, run, counts) = result?;
        self.check(&run, None);
        self.expected_calls = run.gpu_calls as usize / self.spec.vps.len().max(1) + 1;
        Ok(counts["sptx.instructions_executed"])
    }
}

/// The quantities every run of one seed must reproduce exactly: simulated
/// times as raw bits, request and call counts, and the deterministic
/// dispatcher and fleet counters.
fn fingerprint(run: &RunOutcome) -> String {
    // FNV-1a over every VP's simulated time, so 256 fleet VPs stay one word.
    let vp_sims = run
        .vp_sim_s
        .iter()
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, t| (h ^ t.to_bits()).wrapping_mul(0x0100_0000_01b3));
    let mut s = format!(
        "platform={:x} vps={vp_sims:x} makespan={:x} requests={} calls={}",
        run.sim_platform_s().to_bits(),
        run.device_makespan_s.to_bits(),
        run.requests,
        run.gpu_calls
    );
    if let Some(d) = &run.dispatch {
        s += &format!(
            " sync_windows={} holds={} live_groups={} live_members={} stop_events={}",
            d.sync_windows, d.holds, d.live_groups, d.live_members, d.stop_events
        );
    }
    if let Some(f) = &run.fleet {
        s += &format!(" steals={} migrations={}", f.stats.steals, f.stats.migrations);
    }
    s
}

/// Adopt `print` as the reference, or record a problem if it differs.
fn same_as_before(reference: &mut Option<String>, print: String, problems: &mut Vec<String>) {
    match reference {
        None => *reference = Some(print),
        Some(first) if *first != print => {
            problems.push(format!("run is not deterministic:\n  first {first}\n  now   {print}"))
        }
        Some(_) => {}
    }
}

/// The metrics of one invocation, in report order, plus notes for humans.
#[derive(Default)]
struct Report {
    metrics: Vec<(&'static Metric, f64)>,
    notes: Vec<String>,
}

impl Report {
    fn set(&mut self, name: &str, value: f64) {
        let metric = catalog::find(name).unwrap_or_else(|| panic!("{name} is not catalogued"));
        self.metrics.push((metric, value));
    }
}

fn medians<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

fn end_to_end(bench: &mut Bench, seconds: f64, report: &mut Report) -> Result<(), String> {
    let instructions = bench.warm_up()?;
    let runs = bench.measure_for(Duration::from_secs_f64(seconds))?;
    let last = bench.last.as_ref().expect("at least one measured run");
    let wall_s = medians(&runs, |m| m.wall_s);
    report.set("wall_s", wall_s);
    report.set("requests_per_s", last.requests as f64 / wall_s);
    report.set("sim_instr_per_s", instructions as f64 / wall_s);
    report.set("request_p50_us", bench.latency.p50_us());
    report.set("request_p99_us", bench.latency.p99_us());
    report.set("cpu_s", runs.iter().map(|m| m.cpu_s).sum::<f64>() / runs.len() as f64);
    report.set("peak_rss_mib", stats::peak_rss_mib()?);
    report.set("setup_s", medians(&runs, |m| m.setup_s));
    report.set("sim_platform_s", last.sim_platform_s());
    report.set("sim_device_makespan_s", last.device_makespan_s);
    report.notes.push(format!(
        "{} runs of {} requests and {instructions} instructions each",
        runs.len(),
        last.requests
    ));
    Ok(())
}

/// Time `plan_device` with `pipeline` over every device log of `run`.
fn time_plan(pipeline: &Pipeline, coalescible: &[bool], run: &RunOutcome) -> f64 {
    let coalescible = |vp: VpId| coalescible.get(vp.0 as usize).copied().unwrap_or(true);
    let arch = sigmavp_gpu::GpuArch::quadro_4000();
    let started = Instant::now();
    for records in &run.device_records {
        std::hint::black_box(plan_device(pipeline, records, &coalescible, &arch));
    }
    started.elapsed().as_secs_f64()
}

/// The median of repeated timings, repeated until `budget` has passed.
fn median_timing(budget: Duration, mut timing: impl FnMut() -> f64) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_RUNS || started.elapsed() < budget {
        samples.push(timing());
    }
    median(&samples)
}

/// What a traced run adds: counter deltas and per-job walls from the spans.
struct TracedRun {
    wall_s: f64,
    counts: Counts,
    transit_us: Vec<f64>,
    queue_us: Vec<f64>,
    exec_us: Vec<f64>,
}

/// One run with telemetry installed; the span ring is drained after it, so
/// the ring holds one run's events at most.
fn traced_run(bench: &mut Bench, telemetry: &Telemetry) -> Result<TracedRun, String> {
    let (measured, run, counts) = bench.run_once(Some(telemetry))?;
    bench.check(&run, Some(&counts));
    let mut traced = TracedRun {
        wall_s: measured.wall_s,
        counts,
        transit_us: Vec::new(),
        queue_us: Vec::new(),
        exec_us: Vec::new(),
    };
    for life in join_lifecycles(&telemetry.drain_events()) {
        if life.dispatch_wall_s > 0.0 {
            traced.exec_us.push(life.dispatch_wall_s * 1e6);
            traced.queue_us.push(life.queue_wall_s * 1e6);
            if life.request_wall_s > 0.0 {
                let transit = life.request_wall_s - life.queue_wall_s - life.dispatch_wall_s;
                traced.transit_us.push(transit * 1e6);
            }
        }
    }
    Ok(traced)
}

/// Traced runs until `budget` has passed, under a freshly installed
/// collector; records a problem if its span ring dropped events.
fn traced_phase(bench: &mut Bench, budget: Duration) -> Result<Vec<TracedRun>, String> {
    let telemetry = sigmavp_telemetry::install();
    let started = Instant::now();
    let mut traced = Vec::new();
    let result = loop {
        if traced.len() >= MIN_RUNS && started.elapsed() >= budget {
            break Ok(traced);
        }
        match traced_run(bench, &telemetry) {
            Ok(t) => traced.push(t),
            Err(e) => break Err(e),
        }
    };
    sigmavp_telemetry::uninstall();
    let dropped = telemetry.dropped_events();
    bench.dropped_events += dropped;
    if dropped > 0 {
        bench.problems.push(format!("the trace ring dropped {dropped} events"));
    }
    result
}

/// Serial-pipe replays until `budget` has passed. Their layer rows must add
/// up: guest self time, codec and host runtime cover the serial wall to
/// within `LEDGER_COVERAGE`, judged on the median replay so that one replay
/// preempted between two timers does not decide it.
fn serial_phase(bench: &mut Bench, budget: Duration) -> Result<(Vec<SerialOutcome>, f64), String> {
    let live_sims = bench.last.as_ref().map(|r| r.vp_sim_s.clone()).unwrap_or_default();
    let started = Instant::now();
    let mut serial = Vec::new();
    while serial.len() < MIN_RUNS || started.elapsed() < budget {
        let s = serial_replay(&bench.spec)?;
        // Under Fifo the live dispatcher charges each VP exactly what the
        // serial pipe does, so their simulated clocks must agree.
        if bench.spec.workload == Workload::Compute && s.vp_sim_s != live_sims {
            bench.problems.push(format!(
                "serial replay simulated times {:?} differ from the live run's {live_sims:?}",
                s.vp_sim_s
            ));
        }
        serial.push(s);
    }
    let coverage = medians(&serial, |s| {
        (s.guest_self_s + (s.ledger.codec_ns() + s.ledger.host_ns()) as f64 * 1e-9) / s.wall_s
    });
    if coverage < LEDGER_COVERAGE {
        bench
            .problems
            .push(format!("serial ledger rows cover {:.1}% of the serial wall", 100.0 * coverage));
    }
    Ok((serial, coverage))
}

fn per_layer(bench: &mut Bench, seconds: f64, report: &mut Report) -> Result<(), String> {
    bench.warm_up()?;
    let phase = |share: f64| Duration::from_secs_f64(seconds * share);
    let fleet = bench.spec.workload == Workload::Fleet;
    // Layers the fleet does not go through read 0 there.
    let live = |v: f64| if fleet { 0.0 } else { v };

    // Untraced and traced runs alternate in two rounds (A B, then again after
    // the serial and planner phases), so slow drift of the host's speed
    // lands on both sides of the tracing-overhead ratio.
    let mut untraced = bench.measure_for(phase(0.2))?;
    let last = bench.last.clone().expect("at least one measured run");
    let mut traced = traced_phase(bench, phase(0.2))?;

    // The serial-pipe ledger (the fleet has no guest programs).
    let (serial, coverage) =
        if fleet { (Vec::new(), 0.0) } else { serial_phase(bench, phase(0.15))? };
    let serial_wall = medians(&serial, |s| s.wall_s);
    let requests = serial.first().map_or(1, |s| s.ledger.requests.max(1)) as f64;
    let launch_s = medians(&serial, |s| s.ledger.launch_ns as f64 * 1e-9);

    // The planner, whole and pass by pass, on an untraced run's job logs.
    let policy = bench.spec.workload.policy();
    let share = phase(0.05 / (catalog::PASSES.len() + 1) as f64);
    let whole = Pipeline::from_policy(&policy);
    let coalescible = bench.spec.coalescible_vps();
    report.set("sched.plan_s", median_timing(share, || time_plan(&whole, &coalescible, &last)));
    for pass in catalog::PASSES {
        let pipeline = Pipeline::parse(pass)?;
        let t = median_timing(share, || time_plan(&pipeline, &coalescible, &last));
        report.set(&format!("sched.pass.{pass}_s"), t);
    }

    untraced.extend(bench.measure_for(phase(0.2))?);
    traced.extend(traced_phase(bench, phase(0.2))?);
    let live_wall = medians(&untraced, |m| m.wall_s);
    let dropped = bench.dropped_events;
    let traced_wall = medians(&traced, |t| t.wall_s);
    let count = |name: &str| medians(&traced, |t| t.counts[name] as f64);
    let pooled = |f: fn(&TracedRun) -> &Vec<f64>| -> Vec<f64> {
        traced.iter().flat_map(|t| f(t).iter().copied()).collect()
    };
    let transit = pooled(|t| &t.transit_us);
    let queue = pooled(|t| &t.queue_us);
    let exec = pooled(|t| &t.exec_us);

    let instructions = count("sptx.instructions_executed");
    report.set("sptx.ns_per_instr", launch_s * 1e9 / instructions.max(1.0));
    report.set("sptx.instructions", instructions);
    for name in [
        "sptx.parallel.launches",
        "sptx.parallel.tasks",
        "sptx.parallel.steals",
        "sptx.parallel.journal_bytes",
        "sptx.warp.warps",
        "sptx.warp.fallback_ctas",
        "sptx.warp.divergent_branches",
        "sptx.decode.misses",
    ] {
        report.set(name, count(name));
    }
    report.set("ipc.transit_us.p50", live(median(&transit)));
    report.set("ipc.transit_us.p99", live(tail(&transit)));
    report.set("ipc.queue.wait_us.p50", live(median(&queue)));
    report.set("ipc.queue.wait_us.p99", live(tail(&queue)));
    let codec_ns = |f: fn(&SerialOutcome) -> u64| medians(&serial, |s| f(s) as f64) / requests;
    report.set("ipc.codec.encode_ns", codec_ns(|s| s.ledger.encode_ns));
    report.set("ipc.codec.decode_ns", codec_ns(|s| s.ledger.decode_ns));
    report.set("core.dispatch.exec_us", median(&exec));
    report.set("core.windows", live(count("dispatch.windows")));
    let dispatch = last.dispatch.unwrap_or_default();
    report.set("core.multi_job_windows", dispatch.multi_job_windows as f64);
    report.set(
        "sched.reorder.calls_per_request",
        live(count("reorder.calls")) / last.gpu_calls.max(1) as f64,
    );
    report.set("core.sync.windows", dispatch.sync_windows as f64);
    report.set("core.sync.holds", dispatch.holds as f64);
    report.set("core.sync.live_groups", dispatch.live_groups as f64);
    report.set("core.sync.stop_events", dispatch.stop_events as f64);

    let fleet_stats = last.fleet.as_ref().map(|f| f.stats).unwrap_or_default();
    report.set("fleet.submit_us", bench.submit.p50_us());
    report.set("fleet.wait_us.p50", bench.wait.p50_us());
    report.set("fleet.wait_us.p99", bench.wait.p99_us());
    report.set("fleet.queue_wait_us.p99", if fleet { tail(&queue) } else { 0.0 });
    report.set("fleet.shutdown_s", median(&bench.shutdown_s));
    report.set("fleet.steals", fleet_stats.steals as f64);
    report.set("fleet.migrations", fleet_stats.migrations as f64);

    report.set("vp.guest_self_s", medians(&untraced, |m| m.guest_self_s));
    report.set("vp.gpu_calls", last.gpu_calls as f64);
    report.set("core.host.launch_s", launch_s);
    report.set("core.host.copy_s", medians(&serial, |s| s.ledger.copy_ns as f64 * 1e-9));
    report.set("core.host.other_s", medians(&serial, |s| s.ledger.other_ns as f64 * 1e-9));
    report.set("core.live_overhead_s", live(live_wall - serial_wall));
    report.set("trace.overhead_frac", traced_wall / live_wall - 1.0);
    report.set("trace.dropped_events", dropped as f64);
    report.notes.push(format!(
        "{} untraced runs (median wall {live_wall:.6} s), {} traced runs ({traced_wall:.6} s)",
        untraced.len(),
        traced.len()
    ));
    if !fleet {
        report.notes.push(format!(
            "{} serial replays (median wall {serial_wall:.6} s); guest, codec and host rows \
             cover {:.1}% of it",
            serial.len(),
            100.0 * coverage
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            catalog::describe();
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("sigmabench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut bench = Bench::new(Spec::new(args.workload, args.seed, args.tiny));
    let mut report = Report::default();
    let result = if args.trace {
        per_layer(&mut bench, args.seconds, &mut report)
    } else {
        end_to_end(&mut bench, args.seconds, &mut report)
    };
    if let Err(e) = result {
        eprintln!("sigmabench: {e}");
        return ExitCode::from(1);
    }

    for note in &report.notes {
        println!("# {note}");
    }
    println!(
        "# failed_frac {} ({} of {} attempted)",
        bench.failed as f64 / bench.attempted.max(1) as f64,
        bench.failed,
        bench.attempted
    );
    println!("# fingerprint {}", bench.reference.as_deref().unwrap_or(""));
    if let Some(counts) = &bench.count_reference {
        println!("# counters {counts}");
    }
    for (metric, value) in &report.metrics {
        println!("{:<36} {value:>20.6} {}", metric.name, metric.unit);
    }
    for problem in &bench.problems {
        eprintln!("sigmabench: check failed: {problem}");
    }
    let correct = bench.problems.is_empty();
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(m, v)| format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        bench.attempted,
        bench.failed.max(u64::from(!correct)),
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
