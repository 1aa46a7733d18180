//! Discrete-event model of the GPU's Copy and Compute engines.
//!
//! This is the mechanism behind Kernel Interleaving (paper Fig. 3): a GPU has a Copy
//! Engine and a Compute Engine that can operate in parallel, but operations *within a
//! stream* are ordered, and each engine serves operations *in issue order*. The total
//! makespan therefore depends on the issue order — which is exactly the knob ΣVP's
//! re-scheduler turns.
//!
//! The model is a simple greedy in-order executor: each operation starts at
//! `max(engine available, previous op in same stream finished)`. With a duplex copy
//! engine (independent host-to-device and device-to-host channels, as on the paper's
//! Quadro 4000), a perfectly interleaved schedule of N `copy-in → kernel → copy-out`
//! programs with `Tm = Tk = T` completes in `(2 + N)·T`, matching the paper's Eq. 7.

use sigmavp_telemetry::{Lane, TimeDomain, TraceEvent};

use crate::arch::GpuArch;

/// Identifies a CUDA-style stream. ΣVP gives each VP its own stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StreamId(pub u32);

/// The hardware engine an operation runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// Host-to-device copy channel.
    CopyH2D,
    /// Device-to-host copy channel (same channel as `CopyH2D` on half-duplex
    /// devices).
    CopyD2H,
    /// Kernel execution engine.
    Compute,
}

/// One operation submitted to the device.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuOp {
    /// Caller-chosen identifier, carried through to the timeline.
    pub id: u64,
    /// Stream this operation belongs to.
    pub stream: StreamId,
    /// Which engine it needs.
    pub engine: Engine,
    /// How long it runs, in seconds.
    pub duration_s: f64,
    /// Extra cross-stream dependencies: this operation may not start before every
    /// listed op id has completed. Used by Kernel Coalescing, where one merged
    /// launch consumes the input copies of *several* streams (paper Fig. 6b).
    pub after: Vec<u64>,
}

impl GpuOp {
    /// A host-to-device copy of `bytes` on `arch`.
    pub fn h2d(id: u64, stream: StreamId, arch: &GpuArch, bytes: u64) -> Self {
        GpuOp {
            id,
            stream,
            engine: Engine::CopyH2D,
            duration_s: arch.copy_time_s(bytes),
            after: vec![],
        }
    }

    /// A device-to-host copy of `bytes` on `arch`.
    pub fn d2h(id: u64, stream: StreamId, arch: &GpuArch, bytes: u64) -> Self {
        GpuOp {
            id,
            stream,
            engine: Engine::CopyD2H,
            duration_s: arch.copy_time_s(bytes),
            after: vec![],
        }
    }

    /// A kernel execution of known duration.
    pub fn kernel(id: u64, stream: StreamId, duration_s: f64) -> Self {
        GpuOp { id, stream, engine: Engine::Compute, duration_s, after: vec![] }
    }

    /// Add cross-stream dependencies (builder style).
    pub fn with_after(mut self, after: Vec<u64>) -> Self {
        self.after = after;
        self
    }
}

/// When one operation ran.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpSpan {
    /// The operation's caller-chosen id.
    pub id: u64,
    /// Stream it belonged to.
    pub stream: StreamId,
    /// Engine it ran on.
    pub engine: Engine,
    /// Start time in seconds from timeline origin.
    pub start_s: f64,
    /// End time in seconds from timeline origin.
    pub end_s: f64,
}

/// The executed schedule: per-op spans plus aggregate statistics.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Timeline {
    /// One span per submitted operation, in issue order.
    pub spans: Vec<OpSpan>,
    /// Completion time of the last operation.
    pub makespan_s: f64,
}

impl Timeline {
    /// Total busy time of one engine.
    pub fn busy_s(&self, engine: Engine) -> f64 {
        self.spans.iter().filter(|s| s.engine == engine).map(|s| s.end_s - s.start_s).sum()
    }

    /// Utilization of an engine over the makespan, in `[0, 1]`.
    pub fn utilization(&self, engine: Engine) -> f64 {
        if self.makespan_s <= 0.0 {
            return 0.0;
        }
        self.busy_s(engine) / self.makespan_s
    }

    /// The span of a particular operation id, if present.
    pub fn span(&self, id: u64) -> Option<&OpSpan> {
        self.spans.iter().find(|s| s.id == id)
    }

    /// Copy–compute overlap efficiency in `[0, 1]`: the fraction of the
    /// shorter side's busy time during which the compute engine and a copy
    /// channel were active *simultaneously*. This is the quantity Kernel
    /// Interleaving maximizes (paper Fig. 3): serialized issue scores 0, a
    /// perfect pipeline approaches 1.
    ///
    /// **Degenerate-input contract: the result is always a finite number,
    /// never `NaN`.** When either side has no busy time — an empty timeline, a
    /// run that only used one engine class, or spans that are all
    /// zero-duration — the `overlap/shorter` ratio would be `0/0`; this
    /// returns `0.0` instead ("no overlap was possible, none was achieved"),
    /// so downstream gauges and regression baselines can compare the value
    /// without NaN-guards.
    pub fn overlap_fraction(&self) -> f64 {
        let copy: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| matches!(s.engine, Engine::CopyH2D | Engine::CopyD2H))
            .map(|s| (s.start_s, s.end_s))
            .collect();
        let compute: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| s.engine == Engine::Compute)
            .map(|s| (s.start_s, s.end_s))
            .collect();
        let copy_busy = merged_length(&copy);
        let compute_busy: f64 = compute.iter().map(|(a, b)| b - a).sum();
        let shorter = copy_busy.min(compute_busy);
        if shorter <= 0.0 {
            return 0.0;
        }
        let mut overlap = 0.0;
        for &(cs, ce) in &compute {
            for &(ps, pe) in &copy {
                overlap += (ce.min(pe) - cs.max(ps)).max(0.0);
            }
        }
        (overlap / shorter).clamp(0.0, 1.0)
    }

    /// The timeline as simulated-time telemetry events: one span per op on its
    /// engine's lane, named after the op and its stream.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.trace_events_with_jobs(|_| None)
    }

    /// Like [`trace_events`](Timeline::trace_events), but stamps each span
    /// with the stable job uid `job_of(op_id)` resolves (see
    /// [`sigmavp_telemetry::trace::job_uid`]). The engine model itself only
    /// knows caller-chosen op ids; the planning layer, which knows which job
    /// record each op came from, supplies the mapping.
    pub fn trace_events_with_jobs(&self, job_of: impl Fn(u64) -> Option<u64>) -> Vec<TraceEvent> {
        self.spans
            .iter()
            .map(|span| {
                let ev = TraceEvent::span(
                    TimeDomain::Sim,
                    engine_lane(span.engine),
                    format!("op{} (stream {})", span.id, span.stream.0),
                    span.start_s,
                    span.end_s - span.start_s,
                );
                match job_of(span.id) {
                    Some(uid) => ev.with_job(uid),
                    None => ev,
                }
            })
            .collect()
    }

    /// Like [`trace_events`](Timeline::trace_events), but additionally mirrors
    /// every op onto a per-stream VP lane, so each VP's simulated device
    /// activity reads as its own track.
    pub fn trace_events_with_streams(&self) -> Vec<TraceEvent> {
        self.trace_events_with_streams_and_jobs(|_| None)
    }

    /// [`trace_events_with_streams`](Timeline::trace_events_with_streams) with
    /// a job-uid mapping applied to both the engine-lane and VP-lane copies.
    pub fn trace_events_with_streams_and_jobs(
        &self,
        job_of: impl Fn(u64) -> Option<u64>,
    ) -> Vec<TraceEvent> {
        let mut events = self.trace_events_with_jobs(&job_of);
        events.extend(self.spans.iter().map(|span| {
            let ev = TraceEvent::span(
                TimeDomain::Sim,
                Lane::Vp(span.stream.0),
                format!("op{} ({})", span.id, engine_lane(span.engine).label()),
                span.start_s,
                span.end_s - span.start_s,
            );
            match job_of(span.id) {
                Some(uid) => ev.with_job(uid),
                None => ev,
            }
        }));
        events
    }

    /// Publish this timeline's aggregates (per-engine busy seconds and
    /// utilization, overlap fraction, makespan) to the global telemetry
    /// recorder. No-op when telemetry is disabled.
    pub fn record_metrics(&self) {
        let r = sigmavp_telemetry::recorder();
        if !r.enabled() {
            return;
        }
        for (engine, key) in [
            (Engine::CopyH2D, "engine.copy_h2d"),
            (Engine::CopyD2H, "engine.copy_d2h"),
            (Engine::Compute, "engine.compute"),
        ] {
            r.gauge_set(&format!("{key}.busy_s"), self.busy_s(engine));
            r.gauge_set(&format!("{key}.utilization"), self.utilization(engine));
        }
        r.gauge_set("engine.overlap_fraction", self.overlap_fraction());
        r.gauge_set("engine.makespan_s", self.makespan_s);
        r.count("engine.ops", self.spans.len() as u64);
    }
}

fn engine_lane(engine: Engine) -> Lane {
    match engine {
        Engine::CopyH2D => Lane::CopyH2D,
        Engine::CopyD2H => Lane::CopyD2H,
        Engine::Compute => Lane::Compute,
    }
}

/// Total length of the union of (possibly overlapping) intervals.
fn merged_length(intervals: &[(f64, f64)]) -> f64 {
    let mut sorted: Vec<(f64, f64)> = intervals.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for &(start, end) in &sorted {
        match current {
            Some((cs, ce)) if start <= ce => current = Some((cs, ce.max(end))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((start, end));
            }
            None => current = Some((start, end)),
        }
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// Simulate the execution of `ops` in the given *issue order* on `arch`.
///
/// Two ordering constraints are honored:
///
/// 1. operations in the same stream execute in their issue order, and
/// 2. each engine serves its operations in issue order (no out-of-order engines).
///
/// On half-duplex devices (`arch.copy_duplex == false`), `CopyH2D` and `CopyD2H`
/// contend for a single copy channel.
pub fn simulate(arch: &GpuArch, ops: &[GpuOp]) -> Timeline {
    let mut h2d_free = 0.0f64;
    let mut d2h_free = 0.0f64;
    let mut compute_free = 0.0f64;
    let mut stream_free: std::collections::HashMap<StreamId, f64> =
        std::collections::HashMap::new();
    let mut end_by_id: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();

    let mut spans = Vec::with_capacity(ops.len());
    let mut makespan = 0.0f64;

    for op in ops {
        let engine_free = match op.engine {
            Engine::Compute => &mut compute_free,
            Engine::CopyH2D => &mut h2d_free,
            Engine::CopyD2H => {
                if arch.copy_duplex {
                    &mut d2h_free
                } else {
                    &mut h2d_free
                }
            }
        };
        let stream_prev = stream_free.entry(op.stream).or_insert(0.0);
        let dep_ready = op
            .after
            .iter()
            .map(|dep| end_by_id.get(dep).copied().unwrap_or(0.0))
            .fold(0.0f64, f64::max);
        let start = engine_free.max(*stream_prev).max(dep_ready);
        let end = start + op.duration_s;
        *engine_free = end;
        *stream_prev = end;
        end_by_id.insert(op.id, end);
        makespan = makespan.max(end);
        spans.push(OpSpan {
            id: op.id,
            stream: op.stream,
            engine: op.engine,
            start_s: start,
            end_s: end,
        });
    }

    Timeline { spans, makespan_s: makespan }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn duplex_arch() -> GpuArch {
        GpuArch::quadro_4000()
    }

    fn half_duplex_arch() -> GpuArch {
        GpuArch::tegra_k1()
    }

    /// Build N copy-in/kernel/copy-out programs with unit durations, in the given
    /// interleaving: `grouped == false` issues programs back to back (VP-serialized),
    /// `grouped == true` issues all copy-ins, then kernels, then copy-outs in a
    /// pipelined round-robin order.
    fn programs(n: u64, t: f64, pipelined: bool) -> Vec<GpuOp> {
        let mut ops = Vec::new();
        if pipelined {
            // Pipelined issue order: in0, (k0, in1), (out0, k1, in2)...
            // A simple round-robin by phase achieves the same makespan in this model.
            for i in 0..n {
                ops.push(GpuOp {
                    id: i * 3,
                    stream: StreamId(i as u32),
                    engine: Engine::CopyH2D,
                    duration_s: t,
                    after: vec![],
                });
            }
            for i in 0..n {
                ops.push(GpuOp {
                    id: i * 3 + 1,
                    stream: StreamId(i as u32),
                    engine: Engine::Compute,
                    duration_s: t,
                    after: vec![],
                });
            }
            for i in 0..n {
                ops.push(GpuOp {
                    id: i * 3 + 2,
                    stream: StreamId(i as u32),
                    engine: Engine::CopyD2H,
                    duration_s: t,
                    after: vec![],
                });
            }
        } else {
            for i in 0..n {
                let s = StreamId(0); // one synchronous queue: full serialization
                ops.push(GpuOp {
                    id: i * 3,
                    stream: s,
                    engine: Engine::CopyH2D,
                    duration_s: t,
                    after: vec![],
                });
                ops.push(GpuOp {
                    id: i * 3 + 1,
                    stream: s,
                    engine: Engine::Compute,
                    duration_s: t,
                    after: vec![],
                });
                ops.push(GpuOp {
                    id: i * 3 + 2,
                    stream: s,
                    engine: Engine::CopyD2H,
                    duration_s: t,
                    after: vec![],
                });
            }
        }
        ops
    }

    #[test]
    fn serialized_programs_take_3nt() {
        let arch = duplex_arch();
        let tl = simulate(&arch, &programs(8, 1.0, false));
        assert!((tl.makespan_s - 24.0).abs() < 1e-9);
    }

    #[test]
    fn pipelined_programs_match_eq7() {
        // Eq. 7 with Tm = Tk = T: Ttotal = (2 + N)·T.
        let arch = duplex_arch();
        for n in [2u64, 4, 8, 16, 32] {
            let tl = simulate(&arch, &programs(n, 1.0, true));
            assert!(
                (tl.makespan_s - (2.0 + n as f64)).abs() < 1e-9,
                "N={n}: got {}",
                tl.makespan_s
            );
        }
    }

    #[test]
    fn eq7_with_unequal_tm_tk() {
        // Ttotal = 2·Tm + N·max(Tm, Tk). Long kernels: compute engine is the
        // bottleneck.
        let arch = duplex_arch();
        let (tm, tk, n) = (1.0, 3.0, 5u64);
        let mut ops = Vec::new();
        for i in 0..n {
            ops.push(GpuOp {
                id: i,
                stream: StreamId(i as u32),
                engine: Engine::CopyH2D,
                duration_s: tm,
                after: vec![],
            });
        }
        for i in 0..n {
            ops.push(GpuOp {
                id: 100 + i,
                stream: StreamId(i as u32),
                engine: Engine::Compute,
                duration_s: tk,
                after: vec![],
            });
        }
        for i in 0..n {
            ops.push(GpuOp {
                id: 200 + i,
                stream: StreamId(i as u32),
                engine: Engine::CopyD2H,
                duration_s: tm,
                after: vec![],
            });
        }
        let tl = simulate(&arch, &ops);
        let expected = 2.0 * tm + n as f64 * tk.max(tm);
        assert!((tl.makespan_s - expected).abs() < 1e-9, "got {}", tl.makespan_s);
    }

    #[test]
    fn half_duplex_copies_contend() {
        // On a half-duplex device, an H2D and a D2H in different streams serialize.
        let arch = half_duplex_arch();
        let ops = [
            GpuOp {
                id: 0,
                stream: StreamId(0),
                engine: Engine::CopyH2D,
                duration_s: 1.0,
                after: vec![],
            },
            GpuOp {
                id: 1,
                stream: StreamId(1),
                engine: Engine::CopyD2H,
                duration_s: 1.0,
                after: vec![],
            },
        ];
        let tl = simulate(&arch, &ops);
        assert!((tl.makespan_s - 2.0).abs() < 1e-9);

        let duplex_tl = simulate(&duplex_arch(), &ops);
        assert!((duplex_tl.makespan_s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn stream_order_is_preserved() {
        // A kernel must not start before its stream's copy finished, even though the
        // compute engine is idle.
        let arch = duplex_arch();
        let ops = [
            GpuOp {
                id: 0,
                stream: StreamId(0),
                engine: Engine::CopyH2D,
                duration_s: 2.0,
                after: vec![],
            },
            GpuOp {
                id: 1,
                stream: StreamId(0),
                engine: Engine::Compute,
                duration_s: 1.0,
                after: vec![],
            },
        ];
        let tl = simulate(&arch, &ops);
        let k = tl.span(1).unwrap();
        assert!((k.start_s - 2.0).abs() < 1e-9);
    }

    #[test]
    fn issue_order_matters_for_makespan() {
        // Two streams: (long copy, short kernel) and (short copy, long kernel).
        // Issuing the short copy first lets its long kernel overlap the long copy.
        let arch = duplex_arch();
        let bad = [
            GpuOp {
                id: 0,
                stream: StreamId(0),
                engine: Engine::CopyH2D,
                duration_s: 4.0,
                after: vec![],
            },
            GpuOp {
                id: 1,
                stream: StreamId(1),
                engine: Engine::CopyH2D,
                duration_s: 1.0,
                after: vec![],
            },
            GpuOp {
                id: 2,
                stream: StreamId(0),
                engine: Engine::Compute,
                duration_s: 1.0,
                after: vec![],
            },
            GpuOp {
                id: 3,
                stream: StreamId(1),
                engine: Engine::Compute,
                duration_s: 4.0,
                after: vec![],
            },
        ];
        let good = [bad[1].clone(), bad[0].clone(), bad[3].clone(), bad[2].clone()];
        let t_bad = simulate(&arch, &bad).makespan_s;
        let t_good = simulate(&arch, &good).makespan_s;
        assert!(t_good < t_bad, "good {t_good} vs bad {t_bad}");
    }

    #[test]
    fn utilization_and_busy_accounting() {
        let arch = duplex_arch();
        let tl = simulate(&arch, &programs(4, 1.0, true));
        assert!((tl.busy_s(Engine::Compute) - 4.0).abs() < 1e-9);
        assert!(tl.utilization(Engine::Compute) > 0.5);
        assert!(tl.utilization(Engine::Compute) <= 1.0);
        assert_eq!(Timeline::default().utilization(Engine::Compute), 0.0);
    }

    #[test]
    fn chrome_trace_is_well_formed() {
        let arch = duplex_arch();
        let tl = simulate(&arch, &programs(2, 1.0, true));
        let trace = sigmavp_telemetry::export::chrome_trace_json(&tl.trace_events());
        assert!(trace.starts_with('['));
        assert!(trace.trim_end().ends_with(']'));
        assert_eq!(trace.matches("\"ph\":\"X\"").count(), tl.spans.len());
        assert!(trace.contains("copy engine (H2D)"));
        assert!(trace.contains("compute engine"));
        assert!(trace.contains("copy engine (D2H)"));
        // No trailing comma before the closing bracket.
        assert!(!trace.contains(",\n]"));
    }

    #[test]
    fn trace_events_mirror_spans() {
        let arch = duplex_arch();
        let tl = simulate(&arch, &programs(2, 1.0, true));
        let events = tl.trace_events();
        assert_eq!(events.len(), tl.spans.len());
        let with_streams = tl.trace_events_with_streams();
        assert_eq!(with_streams.len(), 2 * tl.spans.len());
        // The mirrored half lands on VP lanes matching the stream ids.
        assert!(with_streams.iter().any(|e| e.lane == sigmavp_telemetry::Lane::Vp(1)));
    }

    #[test]
    fn overlap_fraction_separates_serial_from_pipelined() {
        let arch = duplex_arch();
        let serial = simulate(&arch, &programs(8, 1.0, false));
        let pipelined = simulate(&arch, &programs(8, 1.0, true));
        assert_eq!(serial.overlap_fraction(), 0.0, "serialized issue never overlaps");
        assert!(
            pipelined.overlap_fraction() > 0.7,
            "pipelined issue should overlap heavily, got {}",
            pipelined.overlap_fraction()
        );
        assert!(pipelined.overlap_fraction() <= 1.0);
        assert_eq!(Timeline::default().overlap_fraction(), 0.0);
    }

    #[test]
    fn overlap_fraction_edge_cases_return_zero_not_nan() {
        // Contract: degenerate timelines score 0.0, never NaN (see the doc on
        // `overlap_fraction`).
        let arch = duplex_arch();

        // 1. Empty timeline.
        let empty = Timeline::default();
        let f = empty.overlap_fraction();
        assert!(!f.is_nan());
        assert_eq!(f, 0.0);

        // 2. Single-engine-only runs: all-compute and all-copy.
        let compute_only: Vec<GpuOp> =
            (0..4).map(|i| GpuOp::kernel(i, StreamId(i as u32), 1.0)).collect();
        let f = simulate(&arch, &compute_only).overlap_fraction();
        assert!(!f.is_nan());
        assert_eq!(f, 0.0, "no copy side: nothing to overlap with");
        let copy_only: Vec<GpuOp> =
            (0..4).map(|i| GpuOp::h2d(i, StreamId(i as u32), &arch, 1 << 20)).collect();
        let f = simulate(&arch, &copy_only).overlap_fraction();
        assert!(!f.is_nan());
        assert_eq!(f, 0.0, "no compute side: nothing to overlap with");

        // 3. Zero-duration segments on both sides: busy time is 0 on both
        //    sides, so the 0/0 ratio must collapse to 0.0. (A 0-byte copy
        //    still pays the fixed copy latency, so build the ops directly.)
        let zero_copy = |id: u64, engine: Engine| GpuOp {
            id,
            stream: StreamId(0),
            engine,
            duration_s: 0.0,
            after: vec![],
        };
        let degenerate = [
            zero_copy(0, Engine::CopyH2D),
            GpuOp::kernel(1, StreamId(0), 0.0),
            zero_copy(2, Engine::CopyD2H),
        ];
        let tl = simulate(&arch, &degenerate);
        assert_eq!(tl.makespan_s, 0.0);
        let f = tl.overlap_fraction();
        assert!(!f.is_nan());
        assert_eq!(f, 0.0);

        // Zero-duration copies next to a real kernel likewise stay finite:
        // the copy side's busy time is zero, so the fraction is 0.0.
        let mixed = [
            zero_copy(0, Engine::CopyH2D),
            GpuOp::kernel(1, StreamId(0), 1.0),
            GpuOp::kernel(2, StreamId(1), 1.0),
        ];
        let f = simulate(&arch, &mixed).overlap_fraction();
        assert!(!f.is_nan());
        assert_eq!(f, 0.0);
    }

    #[test]
    fn trace_events_with_jobs_stamp_resolved_ops_only() {
        let arch = duplex_arch();
        let tl = simulate(&arch, &programs(2, 1.0, true));
        // Pretend only even op ids resolve to a job record.
        let events =
            tl.trace_events_with_jobs(|id| if id % 2 == 0 { Some(1000 + id) } else { None });
        assert_eq!(events.len(), tl.spans.len());
        for (ev, span) in events.iter().zip(&tl.spans) {
            if span.id % 2 == 0 {
                assert_eq!(ev.job, Some(1000 + span.id));
            } else {
                assert_eq!(ev.job, None);
            }
        }
        // The stream-mirrored variant stamps both copies of each op.
        let mirrored = tl.trace_events_with_streams_and_jobs(Some);
        assert_eq!(mirrored.len(), 2 * tl.spans.len());
        assert!(mirrored.iter().all(|e| e.job.is_some()));
    }
}
