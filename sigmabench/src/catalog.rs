//! Every metric the benchmark reports: name, unit, direction, the layer it
//! belongs to, and the end-to-end metric and workload it should move.
//!
//! `BENCHMARK.json` lists the same names, units and directions; the smoke
//! test checks the two agree and that a run emits every metric.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Layer (module) the metric measures; `e2e` for end-to-end metrics.
    pub layer: &'static str,
    /// The end-to-end metric and workload this metric should move.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    moves: &'static str,
) -> Metric {
    Metric { name, unit, better, layer, moves }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported with `--trace 0`. Host time unless the name
/// starts with `sim_`. Times are medians over the workload runs of one
/// invocation; latency quantiles are medians over blocks of 1000+ calls.
pub const END_TO_END: &[Metric] = &[
    m("wall_s", "s", Lower, "e2e", "median host time of one workload run"),
    m("requests_per_s", "1/s", Higher, "e2e", "guest GPU calls served per host second"),
    m("sim_instr_per_s", "1/s", Higher, "e2e", "simulated SPTX instructions per host second"),
    m("request_p50_us", "us", Lower, "e2e", "p50 call round trip per 1000-call block"),
    m("request_p99_us", "us", Lower, "e2e", "p99 call round trip per 1000-call block"),
    m("cpu_s", "s", Lower, "e2e", "user + sys CPU time per workload run"),
    m("peak_rss_mib", "MiB", Lower, "e2e", "peak resident memory of the process"),
    m("setup_s", "s", Lower, "e2e", "registry, decode warm-up, construction and VP admission"),
    m("sim_platform_s", "s", Lower, "e2e", "simulated time of the slowest VP (the paper's T)"),
    m("sim_device_makespan_s", "s", Lower, "e2e", "simulated host-GPU makespan"),
];

// What each group of per-layer metrics should move, and where.
const SPTX: &str = "wall_s and sim_instr_per_s on compute; not chatty or fleet";
const PER_REQUEST: &str = "request_p50_us and requests_per_s on chatty; not compute";
const PLANNING: &str =
    "wall_s on chatty; sim_* only through a change to merge decisions; not compute or fleet";
const FLEET: &str = "requests_per_s and request_p99_us on fleet only";
const GUEST: &str = "none: the floor under wall_s on every workload";
const SERIAL: &str = "wall_s on compute and chatty: live gain or loss against a serial run";
const TRACE: &str = "none: keeps the ledger honest";

/// Per-layer metrics, reported with `--trace 1`. A layer a workload does not
/// use reads 0.
pub const PER_LAYER: &[Metric] = &[
    m("sptx.ns_per_instr", "ns", Lower, "sptx", SPTX),
    m("sptx.instructions", "count", Lower, "sptx", SPTX),
    m("sptx.parallel.launches", "count", Higher, "sptx", SPTX),
    m("sptx.parallel.tasks", "count", Lower, "sptx", SPTX),
    m("sptx.parallel.steals", "count", Lower, "sptx", SPTX),
    m("sptx.parallel.journal_bytes", "bytes", Lower, "sptx", SPTX),
    m("sptx.warp.warps", "count", Higher, "sptx", SPTX),
    m("sptx.warp.fallback_ctas", "count", Lower, "sptx", SPTX),
    m("sptx.warp.divergent_branches", "count", Lower, "sptx", SPTX),
    m("sptx.decode.misses", "count", Lower, "sptx", SPTX),
    m("ipc.transit_us.p50", "us", Lower, "ipc", PER_REQUEST),
    m("ipc.transit_us.p99", "us", Lower, "ipc", PER_REQUEST),
    m("ipc.queue.wait_us.p50", "us", Lower, "ipc", PER_REQUEST),
    m("ipc.queue.wait_us.p99", "us", Lower, "ipc", PER_REQUEST),
    m("ipc.codec.encode_ns", "ns", Lower, "ipc", PER_REQUEST),
    m("ipc.codec.decode_ns", "ns", Lower, "ipc", PER_REQUEST),
    m("core.dispatch.exec_us", "us", Lower, "core", PER_REQUEST),
    m("core.windows", "count", Lower, "core", PER_REQUEST),
    m("core.multi_job_windows", "count", Higher, "core", PER_REQUEST),
    m("sched.reorder.calls_per_request", "ratio", Lower, "sched", PER_REQUEST),
    m("sched.plan_s", "s", Lower, "sched", PLANNING),
    m("sched.pass.rebalance_s", "s", Lower, "sched", PLANNING),
    m("sched.pass.dep_order_s", "s", Lower, "sched", PLANNING),
    m("sched.pass.interleave_s", "s", Lower, "sched", PLANNING),
    m("sched.pass.coalesce_s", "s", Lower, "sched", PLANNING),
    m("sched.pass.wave_pack_s", "s", Lower, "sched", PLANNING),
    m("sched.pass.adaptive_select_s", "s", Lower, "sched", PLANNING),
    m("core.sync.windows", "count", Lower, "core", PLANNING),
    m("core.sync.holds", "count", Lower, "core", PLANNING),
    m("core.sync.live_groups", "count", Higher, "core", PLANNING),
    m("core.sync.stop_events", "count", Lower, "core", PLANNING),
    m("fleet.submit_us", "us", Lower, "fleet", FLEET),
    m("fleet.wait_us.p50", "us", Lower, "fleet", FLEET),
    m("fleet.wait_us.p99", "us", Lower, "fleet", FLEET),
    m("fleet.queue_wait_us.p99", "us", Lower, "fleet", FLEET),
    m("fleet.shutdown_s", "s", Lower, "fleet", FLEET),
    m("fleet.steals", "count", Lower, "fleet", FLEET),
    m("fleet.migrations", "count", Lower, "fleet", FLEET),
    m("vp.guest_self_s", "s", Lower, "vp", GUEST),
    m("vp.gpu_calls", "count", Lower, "vp", GUEST),
    m("core.host.launch_s", "s", Lower, "core", SERIAL),
    m("core.host.copy_s", "s", Lower, "core", SERIAL),
    m("core.host.other_s", "s", Lower, "core", SERIAL),
    m("core.live_overhead_s", "s", Lower, "core", SERIAL),
    m("trace.overhead_frac", "ratio", Lower, "telemetry", TRACE),
    m("trace.dropped_events", "count", Lower, "telemetry", TRACE),
];

/// The workloads, each with one line on why it was chosen.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "compute",
        "2 VPs run Mandelbrot, MatrixMul and N-body under Fifo: the SPTX interpreter does most of \
         the work while ipc, core and sched see a few dozen requests per run",
    ),
    (
        "chatty",
        "2 VPs loop small coalescible apps under full SigmaVP with sync holds: thousands of small \
         requests make the per-request path and live window planning dominate",
    ),
    (
        "fleet",
        "256 scripted vector_add VPs over 2 fleet sessions, closed loop: admission, lock hand-off, \
         stealing and migration, with no VP threads and no codec",
    ),
];

/// Print the catalog: `# workload` lines, then one tab-separated line per
/// metric (name, unit, better, layer, what it should move).
pub fn describe() {
    for (name, why) in WORKLOADS {
        println!("# workload\t{name}\t{why}");
    }
    for metric in END_TO_END.iter().chain(PER_LAYER) {
        println!(
            "{}\t{}\t{}\t{}\t{}",
            metric.name,
            metric.unit,
            metric.better.as_str(),
            metric.layer,
            metric.moves
        );
    }
}

/// The planner passes timed one at a time, by their `Pipeline::parse` names.
pub const PASSES: &[&str] =
    &["rebalance", "dep_order", "interleave", "coalesce", "wave_pack", "adaptive_select"];

/// Look up a metric by name in either table.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(metric.name), "duplicate {}", metric.name);
            assert!(metric.name.len() <= 64);
            assert!(metric.name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(metric
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
            assert!(metric.unit.len() <= 16);
        }
        for pass in PASSES {
            assert!(find(&format!("sched.pass.{pass}_s")).is_some(), "{pass} has no metric");
        }
    }
}
