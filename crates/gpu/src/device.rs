//! The simulated GPU device: memory, transfers, kernel launches and bookkeeping.
//!
//! A [`GpuDevice`] combines
//!
//! * an [`arch`](crate::arch::GpuArch) description,
//! * a bounds-checked device memory with a [first-fit allocator](crate::alloc),
//! * the SPTX interpreter for *functional* kernel execution,
//! * the [timing model](crate::timing) for *cost* accounting, and
//! * a launch log that acts as the manufacturer [profiler](crate::profiler).

use crate::alloc::{DeviceAllocator, DeviceBuffer};
use crate::arch::GpuArch;
use crate::error::GpuError;
use crate::profiler::HardwareProfile;
use crate::timing::{kernel_cost, KernelCost};
use sigmavp_sptx::counters::ExecutionProfile;
use sigmavp_sptx::interp::{Interpreter, LaunchConfig, Memory, ParamValue};
use sigmavp_sptx::program::KernelProgram;
use sigmavp_sptx::Tier;

/// Default simulated device-memory size: large enough for every paper workload at
/// reproduction scale, small enough to allocate eagerly.
pub const DEFAULT_SIM_MEMORY_BYTES: u64 = 64 * 1024 * 1024;

/// Result of one kernel launch: functional profile plus modeled cost.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelRun {
    /// Functional execution profile (instruction counts, λ, memory trace).
    pub profile: ExecutionProfile,
    /// Modeled cost (cycles, time, energy).
    pub cost: KernelCost,
}

/// Aggregate device statistics since construction.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DeviceStats {
    /// Number of kernel launches.
    pub launches: u64,
    /// Number of host-to-device transfers.
    pub h2d_transfers: u64,
    /// Number of device-to-host transfers.
    pub d2h_transfers: u64,
    /// Total bytes copied in either direction.
    pub bytes_copied: u64,
    /// Accumulated kernel execution time (simulated seconds).
    pub kernel_time_s: f64,
    /// Accumulated copy time (simulated seconds).
    pub copy_time_s: f64,
    /// Accumulated energy (joules).
    pub energy_j: f64,
}

/// The simulated GPU device.
#[derive(Debug)]
pub struct GpuDevice {
    arch: GpuArch,
    allocator: DeviceAllocator,
    memory: Memory,
    interp: Interpreter,
    launches: Vec<HardwareProfile>,
    stats: DeviceStats,
}

impl GpuDevice {
    /// A device of architecture `arch` with the default simulated memory size
    /// (the smaller of [`DEFAULT_SIM_MEMORY_BYTES`] and the arch's nominal memory).
    pub fn new(arch: GpuArch) -> Self {
        let bytes = arch.memory_bytes.min(DEFAULT_SIM_MEMORY_BYTES);
        Self::with_memory(arch, bytes)
    }

    /// A device with an explicit simulated memory size in bytes.
    pub fn with_memory(arch: GpuArch, bytes: u64) -> Self {
        GpuDevice {
            arch,
            allocator: DeviceAllocator::new(bytes),
            memory: Memory::new(bytes as usize),
            interp: Interpreter::new(),
            launches: Vec::new(),
            stats: DeviceStats::default(),
        }
    }

    /// Set the block-parallel worker count used for kernel launches
    /// (`0` = one worker per available core, `1` = sequential).
    pub fn set_workers(&mut self, workers: u32) {
        self.interp = self.interp.clone().with_workers(workers);
    }

    /// Select the SPTX execution tier used for kernel launches
    /// ([`Tier::Warp`] decoded lockstep by default, [`Tier::Scalar`] for the
    /// reference interpreter). Both tiers produce byte-identical results and
    /// profiles.
    pub fn set_tier(&mut self, tier: Tier) {
        self.interp = self.interp.clone().with_tier(tier);
    }

    /// The device's architecture.
    pub fn arch(&self) -> &GpuArch {
        &self.arch
    }

    /// Aggregate statistics since construction.
    pub fn stats(&self) -> DeviceStats {
        self.stats
    }

    /// The launch log — one [`HardwareProfile`] per kernel launch, oldest first.
    /// This is the interface the paper's Profile-Based Execution Analysis reads.
    pub fn profiler_log(&self) -> &[HardwareProfile] {
        &self.launches
    }

    /// Bytes currently free in device memory.
    pub fn free_bytes(&self) -> u64 {
        self.allocator.free_bytes()
    }

    /// Allocate a device buffer (`cudaMalloc`).
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::OutOfMemory`] when the request cannot be satisfied.
    pub fn malloc(&mut self, len: u64) -> Result<DeviceBuffer, GpuError> {
        self.allocator.alloc(len)
    }

    /// Release a device buffer (`cudaFree`).
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::InvalidBuffer`] for stale or foreign handles.
    pub fn free(&mut self, buffer: DeviceBuffer) -> Result<(), GpuError> {
        self.allocator.free(buffer)
    }

    /// Copy host data into a device buffer (`cudaMemcpyHostToDevice`), returning the
    /// modeled transfer time in seconds.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::InvalidBuffer`] for a dead handle or
    /// [`GpuError::SizeMismatch`] when `data` does not fit the buffer exactly.
    pub fn memcpy_h2d(&mut self, buffer: DeviceBuffer, data: &[u8]) -> Result<f64, GpuError> {
        self.check_buffer(buffer)?;
        if data.len() as u64 != buffer.len() {
            return Err(GpuError::SizeMismatch { buffer: buffer.len(), host: data.len() as u64 });
        }
        self.memory.write_slice(buffer.addr(), data)?;
        let t = self.arch.copy_time_s(data.len() as u64);
        self.stats.h2d_transfers += 1;
        self.stats.bytes_copied += data.len() as u64;
        self.stats.copy_time_s += t;
        Ok(t)
    }

    /// Copy a device buffer back to host memory (`cudaMemcpyDeviceToHost`),
    /// returning the modeled transfer time in seconds.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::InvalidBuffer`] for a dead handle or
    /// [`GpuError::SizeMismatch`] when `out` does not match the buffer size.
    pub fn memcpy_d2h(&mut self, out: &mut [u8], buffer: DeviceBuffer) -> Result<f64, GpuError> {
        self.check_buffer(buffer)?;
        if out.len() as u64 != buffer.len() {
            return Err(GpuError::SizeMismatch { buffer: buffer.len(), host: out.len() as u64 });
        }
        out.copy_from_slice(self.memory.read_slice(buffer.addr(), buffer.len())?);
        let t = self.arch.copy_time_s(out.len() as u64);
        self.stats.d2h_transfers += 1;
        self.stats.bytes_copied += out.len() as u64;
        self.stats.copy_time_s += t;
        Ok(t)
    }

    /// Launch a kernel: execute it functionally over device memory and price it with
    /// the device's timing model. The launch is appended to the profiler log.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::Kernel`] when the kernel faults (bad launch shape, bounds
    /// violation, integer division by zero, instruction-budget exhaustion).
    pub fn launch(
        &mut self,
        program: &KernelProgram,
        cfg: &LaunchConfig,
        params: &[ParamValue],
    ) -> Result<KernelRun, GpuError> {
        let profile = self.interp.run(program, cfg, params, &mut self.memory)?;
        let cost = kernel_cost(&self.arch, &profile, cfg);
        self.stats.launches += 1;
        self.stats.kernel_time_s += cost.time_s;
        self.stats.energy_j += cost.energy_j;
        self.launches.push(HardwareProfile::from_run(program.name(), *cfg, &profile, &cost));
        Ok(KernelRun { profile, cost })
    }

    /// Price a kernel on this device **without** executing it, reusing a profile
    /// captured elsewhere. Used when replaying a host-captured profile against the
    /// cost model (no functional side effects, nothing logged).
    pub fn price(&self, profile: &ExecutionProfile, cfg: &LaunchConfig) -> KernelCost {
        kernel_cost(&self.arch, profile, cfg)
    }

    fn check_buffer(&self, buffer: DeviceBuffer) -> Result<(), GpuError> {
        if !self.allocator.is_live(buffer) {
            return Err(GpuError::InvalidBuffer { addr: buffer.addr() });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigmavp_sptx::asm;

    fn scale_kernel() -> KernelProgram {
        asm::parse(
            ".kernel scale\nentry:\n    rs r0, gtid\n    ldp r1, 0\n    ld.f32 r2, [r1 + r0]\n    add.f32 r2, r2, r2\n    st.f32 [r1 + r0], r2\n    ret\n",
        )
        .unwrap()
    }

    #[test]
    fn end_to_end_malloc_copy_launch_copy() {
        let mut dev = GpuDevice::new(GpuArch::quadro_4000());
        let n = 256u64;
        let buf = dev.malloc(n * 4).unwrap();
        let host: Vec<u8> = (0..n).flat_map(|i| (i as f32).to_le_bytes()).collect();
        let t_in = dev.memcpy_h2d(buf, &host).unwrap();
        let run = dev
            .launch(
                &scale_kernel(),
                &LaunchConfig::covering(n, 128).unwrap(),
                &[ParamValue::Ptr(buf.addr())],
            )
            .unwrap();
        let mut out = vec![0u8; (n * 4) as usize];
        let t_out = dev.memcpy_d2h(&mut out, buf).unwrap();
        dev.free(buf).unwrap();

        assert!(t_in > 0.0 && t_out > 0.0);
        assert!(run.cost.time_s > 0.0);
        for i in 0..n as usize {
            let v = f32::from_le_bytes(out[i * 4..i * 4 + 4].try_into().unwrap());
            assert_eq!(v, 2.0 * i as f32);
        }
        let stats = dev.stats();
        assert_eq!(stats.launches, 1);
        assert_eq!(stats.h2d_transfers, 1);
        assert_eq!(stats.d2h_transfers, 1);
        assert_eq!(stats.bytes_copied, 2 * n * 4);
        assert_eq!(dev.profiler_log().len(), 1);
        assert_eq!(dev.profiler_log()[0].kernel, "scale");
    }

    #[test]
    fn size_mismatch_is_rejected() {
        let mut dev = GpuDevice::new(GpuArch::tegra_k1());
        let buf = dev.malloc(64).unwrap();
        assert!(matches!(dev.memcpy_h2d(buf, &[0u8; 32]), Err(GpuError::SizeMismatch { .. })));
        let mut small = [0u8; 32];
        assert!(matches!(dev.memcpy_d2h(&mut small, buf), Err(GpuError::SizeMismatch { .. })));
    }

    #[test]
    fn stale_buffer_is_rejected() {
        let mut dev = GpuDevice::new(GpuArch::tegra_k1());
        let buf = dev.malloc(64).unwrap();
        dev.free(buf).unwrap();
        assert!(matches!(dev.memcpy_h2d(buf, &[0u8; 64]), Err(GpuError::InvalidBuffer { .. })));
    }

    #[test]
    fn kernel_fault_surfaces_as_gpu_error() {
        // Kernel stores through an unset (zero) pointer with a huge index.
        let program = asm::parse(
            ".kernel bad\nentry:\n    mov r0, 999999999\n    mov r1, 1\n    st.i64 [r0], r1\n    ret\n",
        )
        .unwrap();
        let mut dev = GpuDevice::new(GpuArch::tegra_k1());
        let err = dev.launch(&program, &LaunchConfig::linear(1, 1), &[]).unwrap_err();
        assert!(matches!(err, GpuError::Kernel(_)));
    }

    #[test]
    fn device_survives_kernel_faults() {
        // A fault mid-launch must not poison the device: partial writes remain
        // (like a real GPU) but the allocator, stats and subsequent launches work.
        let bad = asm::parse(
            ".kernel bad\nentry:\n    mov r0, 999999999\n    mov r1, 1\n    st.i64 [r0], r1\n    ret\n",
        )
        .unwrap();
        let mut dev = GpuDevice::new(GpuArch::quadro_4000());
        let buf = dev.malloc(256).unwrap();
        dev.memcpy_h2d(buf, &[7u8; 256]).unwrap();
        let before = dev.stats();
        assert!(dev.launch(&bad, &LaunchConfig::linear(1, 1), &[]).is_err());
        // Failed launches are not logged or charged.
        assert_eq!(dev.stats().launches, before.launches);
        assert_eq!(dev.profiler_log().len(), 0);
        // The device still serves good work.
        let run = dev
            .launch(&scale_kernel(), &LaunchConfig::linear(1, 64), &[ParamValue::Ptr(buf.addr())])
            .unwrap();
        assert!(run.cost.time_s > 0.0);
        dev.free(buf).unwrap();
    }

    #[test]
    fn price_reuses_profiles_across_devices() {
        // Profile captured on the host device, priced on the target: the target must
        // be slower. This is the core maneuver of profile-based execution analysis.
        let mut host = GpuDevice::new(GpuArch::quadro_4000());
        let n = 512u64;
        let buf = host.malloc(n * 4).unwrap();
        host.memcpy_h2d(buf, &vec![0u8; (n * 4) as usize]).unwrap();
        let cfg = LaunchConfig::covering(n, 128).unwrap();
        let run = host.launch(&scale_kernel(), &cfg, &[ParamValue::Ptr(buf.addr())]).unwrap();

        let target = GpuDevice::new(GpuArch::tegra_k1());
        let target_cost = target.price(&run.profile, &cfg);
        assert!(target_cost.time_s > run.cost.time_s);
        assert_eq!(target.profiler_log().len(), 0); // pricing does not log
    }

    #[test]
    fn memory_exhaustion() {
        let mut dev = GpuDevice::with_memory(GpuArch::tegra_k1(), 1024);
        assert!(dev.malloc(2048).is_err());
        let b = dev.malloc(1024).unwrap();
        assert!(dev.malloc(128).is_err());
        dev.free(b).unwrap();
        assert!(dev.malloc(128).is_ok());
    }
}
