//! Top-level error type.

use std::fmt;

use sigmavp_gpu::GpuError;
use sigmavp_ipc::IpcError;
use sigmavp_vp::VpError;

/// Any failure while running a ΣVP simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum SigmaVpError {
    /// A guest-side (VP/application) failure, including validation failures.
    Vp(VpError),
    /// A host-GPU failure.
    Gpu(GpuError),
    /// An IPC failure (codec or transport).
    Ipc(IpcError),
    /// Scenario configuration problem (no VPs, mismatched kernels, …).
    Config(String),
}

impl fmt::Display for SigmaVpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SigmaVpError::Vp(e) => write!(f, "virtual platform error: {e}"),
            SigmaVpError::Gpu(e) => write!(f, "host gpu error: {e}"),
            SigmaVpError::Ipc(e) => write!(f, "ipc error: {e}"),
            SigmaVpError::Config(msg) => write!(f, "scenario configuration error: {msg}"),
        }
    }
}

impl std::error::Error for SigmaVpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SigmaVpError::Vp(e) => Some(e),
            SigmaVpError::Gpu(e) => Some(e),
            SigmaVpError::Ipc(e) => Some(e),
            SigmaVpError::Config(_) => None,
        }
    }
}

impl From<VpError> for SigmaVpError {
    fn from(e: VpError) -> Self {
        SigmaVpError::Vp(e)
    }
}

impl From<GpuError> for SigmaVpError {
    fn from(e: GpuError) -> Self {
        SigmaVpError::Gpu(e)
    }
}

impl From<IpcError> for SigmaVpError {
    fn from(e: IpcError) -> Self {
        SigmaVpError::Ipc(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn wraps_and_chains() {
        let e = SigmaVpError::from(VpError::UnknownKernel("k".into()));
        assert!(e.to_string().contains('k'));
        assert!(e.source().is_some());
        let c = SigmaVpError::Config("no vps".into());
        assert!(c.source().is_none());
    }
}
