//! Cross-front differential: the same guest applications run through
//! `DispatchedSigmaVp` (VP threads over real transports) and through a
//! one-session `Fleet` (VP threads calling `submit` + `wait`). Both fronts
//! drive the same engine shard, so every guest validates, each VP's device
//! records match kind for kind and bit for bit, and the window ledger —
//! holds, windows, quorum and timeout flushes, deadline misses — is equal.

use std::sync::Arc;

use sigmavp::dispatcher::DispatchedSigmaVp;
use sigmavp::host::JobRecord;
use sigmavp::Policy;
use sigmavp_fleet::{Fleet, FleetConfig};
use sigmavp_gpu::GpuArch;
use sigmavp_ipc::message::{Request, Response, VpId, WireParam};
use sigmavp_ipc::transport::TransportCost;
use sigmavp_vp::error::VpError;
use sigmavp_vp::platform::VirtualPlatform;
use sigmavp_vp::registry::KernelRegistry;
use sigmavp_vp::service::GpuService;
use sigmavp_workloads::app::{AppEnv, Application};
use sigmavp_workloads::apps::{BlackScholesApp, MergeSortApp, StaggeredAdd, VectorAddApp};

/// A fleet guest's GPU: every call is one `submit` + `wait` round trip.
struct FleetGpu {
    fleet: Arc<Fleet>,
    vp: VpId,
}

impl FleetGpu {
    fn call(&mut self, request: Request) -> Result<(Response, f64), VpError> {
        let device = |e: sigmavp_fleet::FleetError| VpError::Device(e.to_string());
        self.fleet.submit(self.vp, request).map_err(device)?;
        let (envelope, advance_s) = self.fleet.wait(self.vp).map_err(device)?;
        match envelope.body {
            Response::Error { message } => Err(VpError::Device(message)),
            body => Ok((body, advance_s)),
        }
    }
}

impl GpuService for FleetGpu {
    fn malloc(&mut self, bytes: u64) -> Result<(u64, f64), VpError> {
        match self.call(Request::Malloc { bytes })? {
            (Response::Malloc { handle }, dt) => Ok((handle, dt)),
            (other, _) => Err(VpError::Device(format!("unexpected response {other:?}"))),
        }
    }

    fn free(&mut self, handle: u64) -> Result<f64, VpError> {
        Ok(self.call(Request::Free { handle })?.1)
    }

    fn memcpy_h2d(&mut self, handle: u64, data: &[u8]) -> Result<f64, VpError> {
        Ok(self.call(Request::MemcpyH2D { handle, data: data.to_vec(), stream: 0 })?.1)
    }

    fn memcpy_d2h(&mut self, handle: u64, out: &mut [u8]) -> Result<f64, VpError> {
        match self.call(Request::MemcpyD2H { handle, len: out.len() as u64, stream: 0 })? {
            (Response::Data { data }, dt) if data.len() == out.len() => {
                out.copy_from_slice(&data);
                Ok(dt)
            }
            (other, _) => Err(VpError::Device(format!("unexpected response {other:?}"))),
        }
    }

    fn launch(
        &mut self,
        kernel: &str,
        grid_dim: u32,
        block_dim: u32,
        params: &[WireParam],
        sync: bool,
    ) -> Result<f64, VpError> {
        let request = Request::Launch {
            kernel: kernel.to_string(),
            grid_dim,
            block_dim,
            params: params.to_vec(),
            sync,
            stream: 0,
        };
        Ok(self.call(request)?.1)
    }

    fn synchronize(&mut self) -> Result<f64, VpError> {
        Ok(self.call(Request::Synchronize)?.1)
    }
}

/// What one front produced: per-VP device records (kind and duration bits)
/// and the window ledger `(holds, windows, quorum, timeout, deadline misses)`.
#[derive(Debug, PartialEq)]
struct Ledger {
    records: Vec<Vec<(String, u64)>>,
    windows: (u64, u64, u64, u64, u64),
}

fn per_vp(records: &[JobRecord], vps: usize) -> Vec<Vec<(String, u64)>> {
    (0..vps)
        .map(|vp| {
            records
                .iter()
                .filter(|r| r.vp == VpId(vp as u32))
                .map(|r| (format!("{:?}", r.kind), r.duration_s.to_bits()))
                .collect()
        })
        .collect()
}

fn registry(apps: &[Box<dyn Application + Send>]) -> KernelRegistry {
    let mut registry = KernelRegistry::new();
    for app in apps {
        for kernel in app.kernels() {
            registry.register(kernel);
        }
    }
    registry
}

fn dispatched(policy: Policy, apps: Vec<Box<dyn Application + Send>>) -> Ledger {
    let vps = apps.len();
    let mut sys = DispatchedSigmaVp::single(
        GpuArch::quadro_4000(),
        registry(&apps),
        TransportCost::shared_memory(),
    )
    .with_policy(policy);
    for app in apps {
        sys.spawn(app);
    }
    let (report, stats) = sys.join();
    assert!(report.all_ok(), "dispatcher guests: {:?}", report.outcomes);
    Ledger {
        records: per_vp(&report.records, vps),
        windows: (
            stats.holds,
            stats.sync_windows,
            stats.quorum_flushes,
            stats.timeout_flushes,
            stats.deadline_misses,
        ),
    }
}

fn fleet(policy: Policy, apps: Vec<Box<dyn Application + Send>>) -> Ledger {
    let vps = apps.len();
    let mut config = FleetConfig::new(1).with_steal_interval(0);
    config.policy = policy;
    let fleet = Arc::new(Fleet::new(config, registry(&apps)).expect("fleet builds"));
    let guests: Vec<_> = apps
        .into_iter()
        .enumerate()
        .map(|(i, app)| {
            let vp = VpId(i as u32);
            fleet.admit(vp).expect("admitted");
            let fleet = Arc::clone(&fleet);
            std::thread::spawn(move || {
                let mut platform = VirtualPlatform::new(vp);
                let mut gpu = FleetGpu { fleet: Arc::clone(&fleet), vp };
                let result = app.run_once(&mut AppEnv::new(&mut platform, &mut gpu));
                // A finished guest leaves the quorum, as a disconnect does.
                fleet.retire(vp).expect("idle guest retires");
                result
            })
        })
        .collect();
    for (vp, guest) in guests.into_iter().enumerate() {
        let result = guest.join().expect("guest thread");
        assert!(result.is_ok(), "fleet guest {vp}: {result:?}");
    }
    let outcome = fleet.shutdown();
    let records: Vec<JobRecord> = outcome.sessions[0].flat_records();
    let stats = outcome.stats;
    Ledger {
        records: per_vp(&records, vps),
        windows: (
            stats.sync_holds,
            stats.sync_windows,
            stats.quorum_flushes,
            stats.timeout_flushes,
            stats.deadline_misses,
        ),
    }
}

fn agree(policy: Policy, apps: impl Fn() -> Vec<Box<dyn Application + Send>>) -> Ledger {
    let a = dispatched(policy, apps());
    let b = fleet(policy, apps());
    assert_eq!(a, b, "dispatcher and fleet fronts diverge");
    a
}

#[test]
fn async_fifo_fronts_agree() {
    let ledger = agree(Policy::Fifo, || {
        vec![
            Box::new(VectorAddApp { n: 2048 }),
            Box::new(BlackScholesApp { n: 1024, iterations: 2, ..BlackScholesApp::new(1) }),
            Box::new(MergeSortApp { n: 64 }),
        ]
    });
    assert_eq!(ledger.windows, (0, 0, 0, 0, 0));
    assert!(ledger.records.iter().all(|r| !r.is_empty()));
}

#[test]
fn lockstep_sync_windows_agree() {
    let app = || BlackScholesApp { n: 1024, iterations: 3, ..BlackScholesApp::new(1) };
    let ledger = agree(Policy::Fifo.with_sync_hold(true), || {
        vec![Box::new(app()), Box::new(app()), Box::new(app())]
    });
    // Three identical guests hold each of their three launches together.
    assert_eq!(ledger.windows, (9, 3, 0, 0, 0));
}

#[test]
fn staggered_quorum_windows_agree() {
    let ledger = agree(Policy::Fifo.with_sync_hold(true).sync_quorum(0.5), || {
        let staggered =
            |pre_ms| StaggeredAdd { n: 2048, launches: 1, pre_ms, mid_ms: 0, post_ms: 0 };
        vec![Box::new(staggered(0)), Box::new(staggered(100))]
    });
    // The prompt guest's launch flushes alone on the quorum; the late one
    // flushes as a full house once the first has left.
    assert_eq!(ledger.windows, (2, 2, 1, 0, 0));
}
