//! Integration tests for the sharded fleet front-end: bounded admission,
//! deterministic stealing, cross-session migration, and session failover.

use sigmavp_fleet::{drive, drive_with, Fleet, FleetConfig, FleetError, VpScript};
use sigmavp_ipc::message::{Request, Response, VpId};
use sigmavp_sched::Policy;
use sigmavp_vp::registry::KernelRegistry;
use sigmavp_workloads::app::Application;
use sigmavp_workloads::apps::VectorAddApp;

fn registry() -> KernelRegistry {
    VectorAddApp { n: 256 }.kernels().into_iter().collect()
}

fn scripts(count: u32, n: u32, launches: u32) -> Vec<(VpId, VpScript)> {
    (0..count).map(|vp| (VpId(vp), VpScript::vector_add(n, launches, 1000 + vp as u64))).collect()
}

#[test]
fn saturated_admission_sheds_with_typed_error() {
    let fleet = Fleet::new(FleetConfig::new(1).with_capacity(2), registry()).expect("fleet builds");
    fleet.hold_workers();
    for vp in 0..3u32 {
        fleet.admit(VpId(vp)).unwrap();
    }
    fleet.submit(VpId(0), Request::Malloc { bytes: 64 }).unwrap();
    fleet.submit(VpId(1), Request::Malloc { bytes: 64 }).unwrap();
    let err = fleet.submit(VpId(2), Request::Malloc { bytes: 64 }).unwrap_err();
    assert_eq!(err, FleetError::Saturated { depth: 2, capacity: 2 });
    assert_eq!(fleet.stats().shed, 1);
    assert_eq!(fleet.depth(), 2, "the shed request was not buffered");

    // Capacity frees as soon as workers drain the queue.
    fleet.release_workers();
    fleet.wait(VpId(0)).unwrap();
    fleet.wait(VpId(1)).unwrap();
    fleet.submit(VpId(2), Request::Malloc { bytes: 64 }).unwrap();
    let (response, _) = fleet.wait(VpId(2)).unwrap();
    assert!(matches!(response.body, Response::Malloc { .. }));
    let outcome = fleet.shutdown();
    assert_eq!(outcome.stats.completed, 3);
    assert_eq!(outcome.stats.shed, 1);
}

#[test]
fn typed_errors_for_unknown_busy_and_idle_vps() {
    let fleet = Fleet::new(FleetConfig::new(1), registry()).expect("fleet builds");
    assert_eq!(
        fleet.submit(VpId(9), Request::Synchronize).unwrap_err(),
        FleetError::UnknownVp(VpId(9))
    );
    fleet.admit(VpId(0)).unwrap();
    assert_eq!(fleet.admit(VpId(0)).unwrap_err(), FleetError::AlreadyAdmitted(VpId(0)));
    assert_eq!(fleet.wait(VpId(0)).unwrap_err(), FleetError::NothingOutstanding(VpId(0)));
    fleet.hold_workers();
    fleet.submit(VpId(0), Request::Synchronize).unwrap();
    assert_eq!(fleet.submit(VpId(0), Request::Synchronize).unwrap_err(), FleetError::Busy(VpId(0)));
    fleet.release_workers();
    fleet.wait(VpId(0)).unwrap();
    fleet.shutdown();
}

#[test]
fn scripts_complete_end_to_end_across_sessions() {
    let fleet = Fleet::new(FleetConfig::new(2), registry()).expect("fleet builds");
    let mut scripts = scripts(12, 512, 2);
    for (vp, _) in &scripts {
        fleet.admit(*vp).unwrap();
    }
    let submitted = drive(&fleet, &mut scripts).expect("every script validates");
    assert_eq!(submitted, 12 * 11);
    let outcome = fleet.shutdown();
    assert_eq!(outcome.stats.admitted, submitted);
    assert_eq!(outcome.stats.completed, submitted);
    assert_eq!(outcome.stats.shed, 0, "capacity was never hit");
    // Device-touching jobs per VP: 2 uploads + 2 launches + 1 read-back
    // (mallocs, frees and syncs never reach an engine).
    assert_eq!(outcome.gpu_jobs(), 12 * 5);
    // Both sessions did real work (the hash ring spreads 12 VPs over 2).
    assert!(outcome.sessions.iter().all(|s| s.gpu_jobs() > 0));
    // Queue waits are exposed per VP for the starvation gate.
    assert_eq!(outcome.queue_wait_by_vp().len(), 12);
    assert!(outcome.p99_queue_wait_s() >= 0.0);
}

#[test]
fn work_stealing_rebalances_and_counters_are_deterministic() {
    let run = || {
        let config = FleetConfig::new(2).with_steal_interval(16);
        let fleet = Fleet::new(config, registry()).expect("fleet builds");
        // Skewed load: even VPs run 6 launches, odd VPs run 1, so whichever
        // shard the ring loads more heavily stays hot until steals spread it.
        let mut scripts: Vec<(VpId, VpScript)> = (0..16u32)
            .map(|vp| {
                let launches = if vp % 2 == 0 { 6 } else { 1 };
                (VpId(vp), VpScript::vector_add(4096, launches, 2000 + vp as u64))
            })
            .collect();
        for (vp, _) in &scripts {
            fleet.admit(*vp).unwrap();
        }
        let submitted = drive(&fleet, &mut scripts).expect("every script validates");
        let outcome = fleet.shutdown();
        assert_eq!(outcome.stats.completed, submitted);
        (outcome.stats.admitted, outcome.stats.steals, outcome.stats.migrations)
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "steal/migration counters are byte-identical across runs");
    assert!(first.1 > 0, "the rebalancer planned at least one steal: {first:?}");
    assert!(first.2 > 0, "at least one stolen VP actually migrated: {first:?}");
}

#[test]
fn remigration_reuses_original_buffers() {
    // DESIGN.md §12: an A→B→A round trip must not leave two copies of the
    // VP's buffers on A — the return replay reuses the allocations the VP
    // left behind instead of allocating them again.
    let fleet = Fleet::new(FleetConfig::new(2), registry()).expect("fleet builds");
    let vp = VpId(3);
    let home = fleet.admit(vp).unwrap();
    let away = 1 - home;

    let roundtrip = |request: Request| {
        fleet.submit(vp, request).unwrap();
        fleet.wait(vp).unwrap().0.body
    };
    let Response::Malloc { handle } = roundtrip(Request::Malloc { bytes: 16 }) else {
        panic!("malloc failed")
    };
    let payload: Vec<u8> = (0u8..16).collect();
    assert!(matches!(
        roundtrip(Request::MemcpyH2D { handle, data: payload.clone(), stream: 0 }),
        Response::Done
    ));
    assert_eq!(fleet.live_buffers()[home], 1);

    fleet.migrate(vp, away).expect("idle vp migrates away");
    assert_eq!(fleet.live_buffers()[away], 1, "replay re-created the buffer on B");
    // Overwrite the data while away so the return replay provably restores
    // the *current* contents into the reused buffer, not the stale ones.
    let fresh: Vec<u8> = (100u8..116).collect();
    assert!(matches!(
        roundtrip(Request::MemcpyH2D { handle, data: fresh.clone(), stream: 0 }),
        Response::Done
    ));

    fleet.migrate(vp, home).expect("idle vp migrates back");
    assert_eq!(
        fleet.live_buffers()[home],
        1,
        "the return replay reuses the original allocation instead of leaking it"
    );
    assert_eq!(fleet.stats().reuse_migrations, 1);

    let Response::Data { data } = roundtrip(Request::MemcpyD2H { handle, len: 16, stream: 0 })
    else {
        panic!("read-back failed after re-migration")
    };
    assert_eq!(data, fresh, "reused buffer holds the data written while away");

    // A second bounce keeps the footprint stable on both sessions.
    fleet.migrate(vp, away).expect("second hop away");
    fleet.migrate(vp, home).expect("second hop back");
    assert_eq!(fleet.live_buffers()[home], 1);
    assert_eq!(fleet.live_buffers()[away], 1);
    assert_eq!(fleet.stats().reuse_migrations, 3, "both returns and the away hop reused");

    assert!(matches!(roundtrip(Request::Free { handle }), Response::Done));
    assert_eq!(fleet.live_buffers()[home], 0, "the reused buffer frees cleanly");
    fleet.shutdown();
}

#[test]
fn forced_migration_preserves_guest_handles_and_data() {
    let fleet = Fleet::new(FleetConfig::new(2), registry()).expect("fleet builds");
    let vp = VpId(3);
    let home = fleet.admit(vp).unwrap();
    let away = 1 - home;

    let roundtrip = |request: Request| {
        fleet.submit(vp, request).unwrap();
        fleet.wait(vp).unwrap().0.body
    };
    let Response::Malloc { handle } = roundtrip(Request::Malloc { bytes: 16 }) else {
        panic!("malloc failed")
    };
    let payload = vec![7u8, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22];
    assert!(matches!(
        roundtrip(Request::MemcpyH2D { handle, data: payload.clone(), stream: 0 }),
        Response::Done
    ));

    // Migration is refused while a request is in flight.
    fleet.hold_workers();
    fleet.submit(vp, Request::Synchronize).unwrap();
    assert_eq!(fleet.migrate(vp, away).unwrap_err(), FleetError::Busy(vp));
    fleet.release_workers();
    fleet.wait(vp).unwrap();

    fleet.migrate(vp, away).expect("idle vp migrates");
    assert_eq!(fleet.stats().migrations, 1);

    // The guest handle survives the move: the journal replay re-created the
    // buffer on the target session and the handle map translates reads.
    let Response::Data { data } = roundtrip(Request::MemcpyD2H { handle, len: 16, stream: 0 })
    else {
        panic!("read-back failed after migration")
    };
    assert_eq!(data, payload);

    // Post-migration allocations hand the guest virtualized handles that
    // never collide with pre-migration ones.
    let Response::Malloc { handle: fresh } = roundtrip(Request::Malloc { bytes: 16 }) else {
        panic!("malloc after migration failed")
    };
    assert!(fresh >= 1 << 32, "virtualized handle expected, got {fresh}");
    assert_ne!(fresh, handle);
    assert!(matches!(roundtrip(Request::Free { handle: fresh }), Response::Done));
    assert!(matches!(roundtrip(Request::Free { handle }), Response::Done));
    fleet.shutdown();
}

#[test]
fn killed_session_drains_to_survivors_and_all_jobs_complete() {
    let fleet = Fleet::new(FleetConfig::new(2), registry()).expect("fleet builds");
    let mut scripts = scripts(10, 512, 3);
    for (vp, _) in &scripts {
        fleet.admit(*vp).unwrap();
    }
    let expected: u64 = scripts.iter().map(|(_, s)| s.jobs_total()).sum();
    let submitted = drive_with(&fleet, &mut scripts, |fleet, admitted| {
        if admitted == expected / 2 {
            fleet.kill_session(0).expect("session 0 exists");
        }
    })
    .expect("every script completes on the survivor");
    assert_eq!(submitted, expected);
    assert!(!fleet.is_alive(0));
    assert!(fleet.is_alive(1));

    // Idempotent: a second kill is a no-op.
    assert_eq!(fleet.kill_session(0).unwrap(), 0);

    let outcome = fleet.shutdown();
    assert_eq!(outcome.stats.completed, submitted);
    assert_eq!(outcome.stats.session_trips, 1);
    // 2 uploads + 3 launches + 1 read-back per VP: every device job ran
    // exactly once (rescues re-enqueue, they do not re-execute, and journal
    // replays are not recorded as jobs).
    assert_eq!(outcome.gpu_jobs(), 10 * 6);
    // VPs homed on session 0 moved over (lazily or via rescue).
    assert!(outcome.stats.migrations > 0, "dead session's vps migrated: {:?}", outcome.stats);
    // New admissions avoid the dead session.
    assert_eq!(fleet.admit(VpId(99)).unwrap_err(), FleetError::Closed);
}

#[test]
fn no_surviving_sessions_is_a_typed_error() {
    let fleet = Fleet::new(FleetConfig::new(1), registry()).expect("fleet builds");
    fleet.admit(VpId(0)).unwrap();
    fleet.kill_session(0).unwrap();
    assert_eq!(
        fleet.submit(VpId(0), Request::Synchronize).unwrap_err(),
        FleetError::NoSurvivingSessions
    );
    assert_eq!(fleet.admit(VpId(1)).unwrap_err(), FleetError::NoSurvivingSessions);
    let outcome = fleet.shutdown();
    assert_eq!(outcome.stats.session_trips, 1);
}

// --- Liveness layer (DESIGN.md §15): quorum flushing, deadlines, watchdog ---

/// Drive one VP's script to completion with strict submit/wait alternation
/// (a deterministic single-threaded guest).
fn run_script(fleet: &Fleet, vp: VpId, script: &mut VpScript) {
    let mut last: Option<Response> = None;
    while let Some(request) = script.next(last.as_ref()).expect("script step validates") {
        fleet.submit(vp, request).expect("submit accepted");
        let (envelope, _) = fleet.wait(vp).expect("response delivered");
        last = Some(envelope.body);
    }
}

#[test]
fn quorum_flushes_partial_sync_windows_deterministically() {
    let run = || {
        let mut config = FleetConfig::new(1);
        config.policy = Policy::Fifo.with_sync_hold(true).sync_quorum(0.5);
        let fleet = Fleet::new(config, registry()).expect("fleet builds");
        fleet.admit(VpId(0)).unwrap();
        fleet.admit(VpId(1)).unwrap();
        // Two eligible VPs at quorum 0.5: a single held launch meets the
        // threshold, so each guest's sync launch flushes alone instead of
        // deadlocking against a peer that never launches concurrently.
        run_script(&fleet, VpId(0), &mut VpScript::vector_add(256, 1, 41));
        run_script(&fleet, VpId(1), &mut VpScript::vector_add(256, 1, 42));
        fleet.shutdown().stats
    };
    let first = run();
    assert_eq!(first.sync_holds, 2);
    assert_eq!(first.sync_windows, 2);
    assert_eq!(first.quorum_flushes, 2, "neither window was a full house: {first:?}");
    assert_eq!(first.timeout_flushes, 0);
    assert_eq!(first.completed, first.admitted);
    assert_eq!(first, run(), "liveness counters are byte-identical across same runs");
}

#[test]
fn window_timeout_flushes_when_quorum_is_unreachable() {
    let mut config = FleetConfig::new(1);
    // Lockstep quorum (100%) with a copies-only companion that never
    // launches: only the simulated-time window timeout can flush.
    config.policy = Policy::Fifo.with_sync_hold(true).with_sync_timeout_us(1);
    let fleet = Fleet::new(config, registry()).expect("fleet builds");
    let (a, b) = (VpId(0), VpId(1));
    fleet.admit(a).unwrap();
    fleet.admit(b).unwrap();

    // Drive A up to (and including) submitting its sync launch, then leave
    // it parked in the window.
    let mut script = VpScript::vector_add(256, 1, 7);
    let mut last: Option<Response> = None;
    loop {
        let request = script.next(last.as_ref()).expect("step validates").expect("not done");
        let is_launch = matches!(request, Request::Launch { .. });
        fleet.submit(a, request).unwrap();
        if is_launch {
            break;
        }
        last = Some(fleet.wait(a).unwrap().0.body);
    }
    assert_eq!(fleet.stats().sync_holds, 1);

    // B's async traffic advances the shard's simulated clock past the
    // window's deadline; no launch from B is ever needed.
    fleet.submit(b, Request::Malloc { bytes: 4096 }).unwrap();
    let Response::Malloc { handle } = fleet.wait(b).unwrap().0.body else {
        panic!("malloc failed")
    };
    for _ in 0..8 {
        fleet.submit(b, Request::MemcpyH2D { handle, data: vec![0u8; 4096], stream: 0 }).unwrap();
        fleet.wait(b).unwrap();
    }

    let (envelope, _) = fleet.wait(a).expect("the timeout released the held launch");
    assert!(matches!(envelope.body, Response::Launched { .. }), "{:?}", envelope.body);
    let stats = fleet.stats();
    assert_eq!(stats.sync_windows, 1);
    assert_eq!(stats.timeout_flushes, 1, "{stats:?}");
    assert_eq!(stats.quorum_flushes, 0);
    fleet.shutdown();
}

#[test]
fn admission_deadline_refuses_uncompletable_requests() {
    let mut config = FleetConfig::new(1);
    config.policy = Policy::Fifo.with_deadline_us(1);
    let fleet = Fleet::new(config, registry()).expect("fleet builds");
    fleet.admit(VpId(0)).unwrap();
    // A 4 KiB copy costs ~8.7 simulated microseconds against a 1 µs budget:
    // no schedule can save it, so the front door refuses it outright.
    let err = fleet
        .submit(VpId(0), Request::MemcpyH2D { handle: 1, data: vec![0u8; 4096], stream: 0 })
        .unwrap_err();
    let FleetError::DeadlineExceeded { vp, source } = &err else {
        panic!("expected a deadline refusal, got {err:?}")
    };
    assert_eq!(*vp, VpId(0));
    assert!(source.to_string().contains("admission"), "{source}");
    let stats = fleet.stats();
    assert_eq!(stats.deadline_misses, 1);
    assert_eq!(fleet.depth(), 0, "the refused request was not buffered");
    // A request that fits the budget still goes through.
    fleet.submit(VpId(0), Request::Malloc { bytes: 64 }).unwrap();
    fleet.wait(VpId(0)).unwrap();
    fleet.shutdown();
}

#[test]
fn held_launch_past_its_deadline_gets_a_typed_hold_error() {
    let mut config = FleetConfig::new(1);
    config.policy = Policy::Fifo.with_sync_hold(true).with_sync_timeout_us(2).with_deadline_us(1);
    let fleet = Fleet::new(config, registry()).expect("fleet builds");
    let (a, b) = (VpId(0), VpId(1));
    fleet.admit(a).unwrap();
    fleet.admit(b).unwrap();

    // A allocates (cheap, within budget) and launches on uninitialized
    // buffers; the launch parks in the sync window.
    let mut handles = Vec::new();
    for _ in 0..3 {
        fleet.submit(a, Request::Malloc { bytes: 1024 }).unwrap();
        let Response::Malloc { handle } = fleet.wait(a).unwrap().0.body else {
            panic!("malloc failed")
        };
        handles.push(handle);
    }
    fleet
        .submit(
            a,
            Request::Launch {
                kernel: "vector_add".into(),
                grid_dim: 1,
                block_dim: 256,
                params: vec![
                    sigmavp_ipc::message::WireParam::Buffer(handles[0]),
                    sigmavp_ipc::message::WireParam::Buffer(handles[1]),
                    sigmavp_ipc::message::WireParam::Buffer(handles[2]),
                    sigmavp_ipc::message::WireParam::I64(256),
                ],
                sync: true,
                stream: 0,
            },
        )
        .unwrap();

    // B's cheap mallocs (the only traffic that fits a 1 µs budget) advance
    // simulated time past both the window timeout and A's deadline.
    for _ in 0..40 {
        fleet.submit(b, Request::Malloc { bytes: 16 }).unwrap();
        fleet.wait(b).unwrap();
    }

    let (envelope, _) = fleet.wait(a).expect("the expired launch still completes");
    let Response::Error { message } = &envelope.body else {
        panic!("expected a hold-stage deadline error, got {:?}", envelope.body)
    };
    assert!(message.starts_with("deadline-exceeded:"), "{message}");
    assert!(message.contains("stage=hold"), "{message}");
    let stats = fleet.stats();
    assert_eq!(stats.timeout_flushes, 1, "{stats:?}");
    assert_eq!(stats.deadline_misses, 1, "{stats:?}");
    fleet.shutdown();
}

#[test]
fn hung_vp_is_quarantined_sheds_and_readmits() {
    let run = || {
        let mut config = FleetConfig::new(1);
        // Lockstep quorum plus the watchdog: the only way A's window can
        // flush is for the watchdog to quarantine the wedged peer.
        config.policy = Policy::Fifo.with_sync_hold(true).with_hang_windows(1);
        let fleet = Fleet::new(config, registry()).expect("fleet builds");
        let (a, d) = (VpId(0), VpId(1));
        fleet.admit(a).unwrap();
        fleet.admit(d).unwrap();

        // D does a little work, then wedges (never submits again).
        fleet.submit(d, Request::Malloc { bytes: 64 }).unwrap();
        fleet.wait(d).unwrap();

        // A's script stalls at its sync launch (1 of 2 eligible VPs held)
        // until the stall backstop quarantines D; then the window is a full
        // house over the shrunken denominator and A finishes alone.
        run_script(&fleet, a, &mut VpScript::vector_add(256, 1, 11));

        // Quarantine feeds admission: D's later submissions shed with a
        // typed error instead of buffering against a dead quorum.
        let mut shed = 0u64;
        for _ in 0..3 {
            let err = fleet.submit(d, Request::Malloc { bytes: 64 }).unwrap_err();
            assert!(
                matches!(err, FleetError::Quarantined { vp, .. } if vp == d),
                "expected quarantine shed, got {err:?}"
            );
            shed += 1;
        }

        // Readmission restores D to the quorum denominator and its work flows.
        fleet.readmit(d).expect("readmit clears the quarantine");
        fleet.submit(d, Request::Malloc { bytes: 64 }).unwrap();
        fleet.wait(d).unwrap();

        let stats = fleet.shutdown().stats;
        assert_eq!(stats.quarantined, shed);
        stats
    };
    let first = run();
    assert_eq!(first.quarantined_vps, 1, "{first:?}");
    assert_eq!(first.quarantined, 3, "{first:?}");
    assert_eq!(first.readmitted, 1, "{first:?}");
    assert_eq!(first.sync_holds, 1, "{first:?}");
    assert_eq!(first.completed, first.admitted, "every non-shed submission completed: {first:?}");
    assert_eq!(first, run(), "chaos counters are byte-identical across same runs");
}

#[test]
fn retirement_shrinks_the_quorum_denominator() {
    let mut config = FleetConfig::new(1);
    config.policy = Policy::Fifo.with_sync_hold(true);
    let fleet = Fleet::new(config, registry()).expect("fleet builds");
    let (a, b) = (VpId(0), VpId(1));
    fleet.admit(a).unwrap();
    fleet.admit(b).unwrap();
    // B finishes its (trivial) run and retires; A's lockstep windows must
    // not wait for it afterwards.
    fleet.submit(b, Request::Malloc { bytes: 64 }).unwrap();
    fleet.wait(b).unwrap();
    fleet.retire(b).expect("idle vp retires");
    run_script(&fleet, a, &mut VpScript::vector_add(256, 2, 13));
    let stats = fleet.shutdown().stats;
    assert_eq!(stats.sync_holds, 2);
    assert_eq!(stats.sync_windows, 2);
    assert_eq!(stats.quorum_flushes, 0, "full houses over the shrunken denominator: {stats:?}");
    assert_eq!(stats.completed, stats.admitted);
}

#[test]
fn shutdown_drains_a_held_sync_window() {
    let mut config = FleetConfig::new(1);
    config.policy = Policy::Fifo.with_sync_hold(true);
    let fleet = Fleet::new(config, registry()).expect("fleet builds");
    let (a, b) = (VpId(0), VpId(1));
    fleet.admit(a).unwrap();
    fleet.admit(b).unwrap();
    let mut handles = Vec::new();
    for _ in 0..3 {
        fleet.submit(a, Request::Malloc { bytes: 1024 }).unwrap();
        let Response::Malloc { handle } = fleet.wait(a).unwrap().0.body else {
            panic!("malloc failed")
        };
        handles.push(handle);
    }
    fleet
        .submit(
            a,
            Request::Launch {
                kernel: "vector_add".into(),
                grid_dim: 1,
                block_dim: 256,
                params: vec![
                    sigmavp_ipc::message::WireParam::Buffer(handles[0]),
                    sigmavp_ipc::message::WireParam::Buffer(handles[1]),
                    sigmavp_ipc::message::WireParam::Buffer(handles[2]),
                    sigmavp_ipc::message::WireParam::I64(256),
                ],
                sync: true,
                stream: 0,
            },
        )
        .unwrap();
    // B never launches, so the lockstep window can only flush at shutdown:
    // the final drain completes A's launch instead of losing it.
    let outcome = fleet.shutdown();
    assert_eq!(outcome.stats.sync_windows, 1);
    assert_eq!(outcome.stats.completed, outcome.stats.admitted);
    let (envelope, _) = fleet.try_take(a).expect("drained response is in the mailbox");
    assert!(matches!(envelope.body, Response::Launched { .. }), "{:?}", envelope.body);
}

#[test]
fn sync_quorum_knob_is_validated() {
    let mut config = FleetConfig::new(1);
    config.policy.sync_quorum_pct = 0;
    assert!(matches!(
        Fleet::new(config, registry()).unwrap_err(),
        FleetError::Config(msg) if msg.contains("quorum")
    ));
    let mut config = FleetConfig::new(1);
    config.policy.sync_quorum_pct = 150;
    assert!(Fleet::new(config, registry()).is_err());
}

/// Pins the constants behind placement and stealing: the ring's 16 vnodes per
/// session decide every VP's home, and the steal ratio and per-round cap decide
/// how many VPs the skewed load moves. Values were measured on the fleet whose
/// knobs these constants replaced.
#[test]
fn ring_placement_and_steal_plan_are_pinned() {
    let fleet =
        Fleet::new(FleetConfig::new(2).with_steal_interval(16), registry()).expect("fleet builds");
    let mut scripts: Vec<(VpId, VpScript)> = (0..16u32)
        .map(|vp| {
            let launches = if vp % 2 == 0 { 6 } else { 1 };
            (VpId(vp), VpScript::vector_add(4096, launches, 2000 + vp as u64))
        })
        .collect();
    let homes: Vec<usize> = scripts.iter().map(|(vp, _)| fleet.admit(*vp).unwrap()).collect();
    assert_eq!(homes, vec![0; 16], "VPs 0..16 hash onto session 0");
    let submitted = drive(&fleet, &mut scripts).expect("every script validates");
    let outcome = fleet.shutdown();
    assert_eq!(outcome.stats.completed, submitted);
    let plan = (outcome.stats.admitted, outcome.stats.steals, outcome.stats.migrations);
    assert_eq!(plan, (200, 8, 8), "(admitted, steals, migrations)");

    // Past the first 16 keys the ring spreads VPs over both sessions.
    let fleet = Fleet::new(FleetConfig::new(2), registry()).expect("fleet builds");
    let homes: Vec<usize> = (16..64u32).map(|vp| fleet.admit(VpId(vp)).unwrap()).collect();
    let expected = [
        1, 1, 1, 0, 1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 1, 0, 1, //
        1, 1, 1, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 0, 0, 0, 1, 1, 0, 0, 1, 1, 0,
    ];
    assert_eq!(homes, expected);
    fleet.shutdown();
}

#[test]
fn migrating_onto_a_killed_session_is_refused() {
    let fleet = Fleet::new(FleetConfig::new(2), registry()).expect("fleet builds");
    fleet.admit(VpId(0)).unwrap();
    fleet.kill_session(1).unwrap();
    assert_eq!(
        fleet.migrate(VpId(0), 1).unwrap_err(),
        FleetError::Config("session 1 is dead".into())
    );
    assert_eq!(fleet.stats().migrations, 0, "nothing moved");
    fleet.shutdown();
}
