//! Liveness probes: guests whose wall-clock timing is the point. They drive
//! the sync-window quorum, timeout and hung-VP watchdog scenarios of the live
//! runtimes (tests and the `audit --sync` gate).

use sigmavp_sptx::KernelProgram;
use sigmavp_vp::error::VpError;

use crate::app::{download, p, pi, upload, AppEnv, AppTraits, Application};
use crate::kernels;

/// A vector-add guest with configurable wall-clock stalls around its
/// synchronous launches: `pre_ms` delays the first launch (staggers arrival
/// against other VPs), `mid_ms` wedges the VP between launches (exercises the
/// hung-VP watchdog), `post_ms` keeps the guest connected after its last
/// request (pins the quorum denominator so a later partial flush stays a
/// *quorum* flush, not a lone-survivor full one).
#[derive(Debug, Clone, Copy)]
pub struct StaggeredAdd {
    /// Vector length.
    pub n: u64,
    /// Synchronous launches.
    pub launches: u32,
    /// Stall before the first launch, in milliseconds.
    pub pre_ms: u64,
    /// Stall between launches, in milliseconds.
    pub mid_ms: u64,
    /// Stall after the last request, in milliseconds.
    pub post_ms: u64,
}

impl Application for StaggeredAdd {
    fn name(&self) -> &str {
        "staggeredAdd"
    }
    fn kernels(&self) -> Vec<KernelProgram> {
        vec![kernels::vector_add()]
    }
    fn characteristics(&self) -> AppTraits {
        AppTraits::pure_cuda()
    }
    fn run_once(&self, env: &mut AppEnv<'_>) -> Result<(), VpError> {
        let sleep = |ms: u64| {
            if ms > 0 {
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }
        };
        let n = self.n;
        let ones = vec![1u8; (n * 4) as usize];
        let mut cuda = env.cuda();
        let da = upload(&mut cuda, &ones)?;
        let db = upload(&mut cuda, &ones)?;
        let dc = cuda.malloc(n * 4)?;
        sleep(self.pre_ms);
        for launch in 0..self.launches {
            let params = [p(da), p(db), p(dc), pi(n as i64)];
            cuda.launch_sync("vector_add", n.div_ceil(256) as u32, 256, &params)?;
            if launch + 1 < self.launches {
                sleep(self.mid_ms);
            }
        }
        download(&mut cuda, dc)?;
        for buf in [da, db, dc] {
            cuda.free(buf)?;
        }
        sleep(self.post_ms);
        Ok(())
    }
}

/// A guest that only moves bytes: it never launches, so it never holds, and
/// its steady request stream advances the host's simulated clock past a held
/// window's timeout while keeping the full-house flush predicate unreachable.
#[derive(Debug, Clone, Copy)]
pub struct CopyStream {
    /// Upload/download/free rounds of a 4 KiB buffer.
    pub iterations: u32,
}

impl Application for CopyStream {
    fn name(&self) -> &str {
        "copyStream"
    }
    fn kernels(&self) -> Vec<KernelProgram> {
        vec![]
    }
    fn characteristics(&self) -> AppTraits {
        AppTraits::pure_cuda()
    }
    fn run_once(&self, env: &mut AppEnv<'_>) -> Result<(), VpError> {
        let mut cuda = env.cuda();
        for _ in 0..self.iterations {
            let buf = upload(&mut cuda, &[7u8; 4096])?;
            download(&mut cuda, buf)?;
            cuda.free(buf)?;
        }
        Ok(())
    }
}
