//! Guest-side call timing: an [`Application`] wrapper that runs one VP's app
//! sequence and a [`GpuService`] decorator that times every forwarded call.
//!
//! The decorator costs two clock reads per call and writes into a sample
//! buffer sized before the run, so it works with tracing off and adds no
//! allocation to the measured path.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use sigmavp_ipc::message::WireParam;
use sigmavp_sptx::KernelProgram;
use sigmavp_vp::error::VpError;
use sigmavp_vp::service::GpuService;
use sigmavp_workloads::app::{AppEnv, AppTraits, Application};

/// What one VP's guest observed during a run.
#[derive(Debug, Default, Clone)]
pub struct CallLog {
    /// Round trip of every GPU call, in nanoseconds, in call order.
    pub latencies_ns: Vec<u64>,
    /// Time spent inside GPU calls, in nanoseconds.
    pub in_calls_ns: u64,
    /// Time spent in `run_once` over the whole app sequence, in nanoseconds.
    pub run_ns: u64,
}

impl CallLog {
    fn with_capacity(calls: usize) -> Self {
        CallLog { latencies_ns: Vec::with_capacity(calls), in_calls_ns: 0, run_ns: 0 }
    }

    /// Guest calls issued.
    pub fn calls(&self) -> u64 {
        self.latencies_ns.len() as u64
    }

    /// Guest time outside GPU calls, in seconds.
    pub fn guest_self_s(&self) -> f64 {
        self.run_ns.saturating_sub(self.in_calls_ns) as f64 * 1e-9
    }
}

/// Times every call it forwards to `inner`.
pub struct TimedGpu<'a> {
    inner: &'a mut dyn GpuService,
    log: &'a mut CallLog,
}

impl<'a> TimedGpu<'a> {
    /// Wrap `inner`, recording into `log`.
    pub fn new(inner: &'a mut dyn GpuService, log: &'a mut CallLog) -> Self {
        TimedGpu { inner, log }
    }

    fn timed<T>(&mut self, call: impl FnOnce(&mut dyn GpuService) -> T) -> T {
        let started = Instant::now();
        let out = call(&mut *self.inner);
        let ns = started.elapsed().as_nanos() as u64;
        self.log.latencies_ns.push(ns);
        self.log.in_calls_ns += ns;
        out
    }
}

impl GpuService for TimedGpu<'_> {
    fn malloc(&mut self, bytes: u64) -> Result<(u64, f64), VpError> {
        self.timed(|g| g.malloc(bytes))
    }

    fn free(&mut self, handle: u64) -> Result<f64, VpError> {
        self.timed(|g| g.free(handle))
    }

    fn memcpy_h2d(&mut self, handle: u64, data: &[u8]) -> Result<f64, VpError> {
        self.timed(|g| g.memcpy_h2d(handle, data))
    }

    fn memcpy_d2h(&mut self, handle: u64, out: &mut [u8]) -> Result<f64, VpError> {
        self.timed(|g| g.memcpy_d2h(handle, out))
    }

    fn launch(
        &mut self,
        kernel: &str,
        grid_dim: u32,
        block_dim: u32,
        params: &[WireParam],
        sync: bool,
    ) -> Result<f64, VpError> {
        self.timed(|g| g.launch(kernel, grid_dim, block_dim, params, sync))
    }

    fn memcpy_h2d_async(&mut self, stream: u32, handle: u64, data: &[u8]) -> Result<f64, VpError> {
        self.timed(|g| g.memcpy_h2d_async(stream, handle, data))
    }

    fn memcpy_d2h_async(
        &mut self,
        stream: u32,
        handle: u64,
        out: &mut [u8],
    ) -> Result<f64, VpError> {
        self.timed(|g| g.memcpy_d2h_async(stream, handle, out))
    }

    fn launch_on_stream(
        &mut self,
        stream: u32,
        kernel: &str,
        grid_dim: u32,
        block_dim: u32,
        params: &[WireParam],
        sync: bool,
    ) -> Result<f64, VpError> {
        self.timed(|g| g.launch_on_stream(stream, kernel, grid_dim, block_dim, params, sync))
    }

    fn synchronize(&mut self) -> Result<f64, VpError> {
        self.timed(|g| g.synchronize())
    }
}

/// One VP's guest program: a sequence of suite apps run back to back, every
/// GPU call timed. The log lands in a shared slot when the sequence ends.
pub struct VpProgram {
    apps: Vec<Box<dyn Application + Send>>,
    expected_calls: usize,
    log: Arc<Mutex<Option<CallLog>>>,
}

impl VpProgram {
    /// A program over `apps`; `expected_calls` sizes the sample buffer.
    pub fn new(apps: Vec<Box<dyn Application + Send>>, expected_calls: usize) -> Self {
        VpProgram { apps, expected_calls, log: Arc::new(Mutex::new(None)) }
    }

    /// Where the call log appears once `run_once` returns.
    pub fn log_slot(&self) -> Arc<Mutex<Option<CallLog>>> {
        self.log.clone()
    }
}

impl Application for VpProgram {
    fn name(&self) -> &str {
        "vp-program"
    }

    fn kernels(&self) -> Vec<KernelProgram> {
        self.apps.iter().flat_map(|app| app.kernels()).collect()
    }

    fn characteristics(&self) -> AppTraits {
        let mut traits = AppTraits::pure_cuda();
        for app in &self.apps {
            let t = app.characteristics();
            traits.coalescible &= t.coalescible;
            traits.file_io_bytes += t.file_io_bytes;
            traits.gl_pixels += t.gl_pixels;
        }
        traits
    }

    fn run_once(&self, env: &mut AppEnv<'_>) -> Result<(), VpError> {
        let mut log = CallLog::with_capacity(self.expected_calls);
        let started = Instant::now();
        let mut result = Ok(());
        for app in &self.apps {
            let mut gpu = TimedGpu::new(&mut *env.gpu, &mut log);
            result = app.run_once(&mut AppEnv::new(&mut *env.vp, &mut gpu));
            if result.is_err() {
                break;
            }
        }
        log.run_ns = started.elapsed().as_nanos() as u64;
        *self.log.lock().expect("call-log slot lock") = Some(log);
        result
    }
}
