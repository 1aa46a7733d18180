//! The forwarding GPU backend: the guest side of host-GPU multiplexing.
//!
//! [`MultiplexedGpu`] implements the guest-facing
//! [`GpuService`] by encoding every call into the
//! wire protocol, "sending" it through a cost-modeled transport to the shared
//! [`HostRuntime`], and decoding the response — the full Fig. 1b path. Frames
//! really are encoded and decoded (the codec is on the hot path, exactly like a
//! production remoting stack), and the transport's latency model charges the VP for
//! every round trip.

use std::sync::Arc;

use parking_lot::Mutex;

use sigmavp_ipc::codec;
use sigmavp_ipc::message::{Envelope, Request, Response, VpId, WireParam};
use sigmavp_ipc::transport::TransportCost;
use sigmavp_vp::error::VpError;
use sigmavp_vp::service::GpuService;

use crate::host::HostRuntime;

/// Per-VP IPC accounting, exposed for the scenario engine's composition.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IpcStats {
    /// Total transport delay charged to this VP, seconds.
    pub transport_time_s: f64,
    /// Messages exchanged (requests + responses).
    pub messages: u64,
    /// Bytes moved over the transport in both directions.
    pub bytes: u64,
}

/// A guest-side handle to the multiplexed host GPU.
#[derive(Debug)]
pub struct MultiplexedGpu {
    vp: VpId,
    runtime: Arc<Mutex<HostRuntime>>,
    cost: TransportCost,
    seq: u64,
    ipc: IpcStats,
}

impl MultiplexedGpu {
    /// Connect VP `vp` to a shared host runtime over a transport with the given
    /// cost model. Requests are stamped at simulated time zero: the scenario
    /// engine that drives this backend prices timing offline.
    pub fn new(vp: VpId, runtime: Arc<Mutex<HostRuntime>>, cost: TransportCost) -> Self {
        MultiplexedGpu { vp, runtime, cost, seq: 0, ipc: IpcStats::default() }
    }

    /// IPC accounting for this VP so far.
    pub fn ipc_stats(&self) -> IpcStats {
        self.ipc
    }

    /// Perform one request/response round trip. Returns the response body and the
    /// transport delay (device time is carried inside the response).
    fn round_trip(&mut self, body: Request) -> Result<(Response, f64), VpError> {
        let envelope = Envelope {
            vp: self.vp,
            seq: self.seq,
            sent_at_s: 0.0,
            deadline_s: f64::INFINITY,
            body,
        };
        self.seq += 1;

        let frame = codec::encode_request(&envelope);
        let out_delay = self.cost.delay_for(frame.len() as u64);
        self.ipc.messages += 1;
        self.ipc.bytes += frame.len() as u64;

        let response = {
            let mut rt = self.runtime.lock();
            let decoded = codec::decode_request(&frame).map_err(|_| VpError::Disconnected)?;
            rt.process(&decoded)
        };
        let resp_frame = codec::encode_response(&response);
        let back_delay = self.cost.delay_for(resp_frame.len() as u64);
        self.ipc.messages += 1;
        self.ipc.bytes += resp_frame.len() as u64;
        let decoded = codec::decode_response(&resp_frame).map_err(|_| VpError::Disconnected)?;

        let delay = out_delay + back_delay;
        self.ipc.transport_time_s += delay;
        match decoded.body {
            Response::Error { message } => Err(VpError::Device(message)),
            other => Ok((other, delay)),
        }
    }
}

impl GpuService for MultiplexedGpu {
    fn malloc(&mut self, bytes: u64) -> Result<(u64, f64), VpError> {
        let (resp, delay) = self.round_trip(Request::Malloc { bytes })?;
        match resp {
            Response::Malloc { handle } => Ok((handle, delay)),
            other => Err(VpError::Device(format!("unexpected response {other:?}"))),
        }
    }

    fn free(&mut self, handle: u64) -> Result<f64, VpError> {
        let (_, delay) = self.round_trip(Request::Free { handle })?;
        Ok(delay)
    }

    fn memcpy_h2d(&mut self, handle: u64, data: &[u8]) -> Result<f64, VpError> {
        let bytes = data.len() as u64;
        let (_, delay) =
            self.round_trip(Request::MemcpyH2D { handle, data: data.to_vec(), stream: 0 })?;
        // A synchronous copy blocks the VP for the transport plus the device copy.
        let copy_time = self.runtime.lock().device().arch().copy_time_s(bytes);
        Ok(delay + copy_time)
    }

    fn memcpy_h2d_async(&mut self, stream: u32, handle: u64, data: &[u8]) -> Result<f64, VpError> {
        let (_, delay) =
            self.round_trip(Request::MemcpyH2D { handle, data: data.to_vec(), stream })?;
        // Submission cost only; the timeline model accounts for completion.
        Ok(delay)
    }

    fn memcpy_d2h(&mut self, handle: u64, out: &mut [u8]) -> Result<f64, VpError> {
        let len = out.len() as u64;
        let (resp, delay) = self.round_trip(Request::MemcpyD2H { handle, len, stream: 0 })?;
        match resp {
            Response::Data { data } => {
                if data.len() != out.len() {
                    return Err(VpError::SizeMismatch { buffer: data.len() as u64, host: len });
                }
                out.copy_from_slice(&data);
                let copy_time = self.runtime.lock().device().arch().copy_time_s(len);
                Ok(delay + copy_time)
            }
            other => Err(VpError::Device(format!("unexpected response {other:?}"))),
        }
    }

    fn memcpy_d2h_async(
        &mut self,
        stream: u32,
        handle: u64,
        out: &mut [u8],
    ) -> Result<f64, VpError> {
        let len = out.len() as u64;
        let (resp, delay) = self.round_trip(Request::MemcpyD2H { handle, len, stream })?;
        match resp {
            Response::Data { data } => {
                if data.len() != out.len() {
                    return Err(VpError::SizeMismatch { buffer: data.len() as u64, host: len });
                }
                out.copy_from_slice(&data);
                Ok(delay)
            }
            other => Err(VpError::Device(format!("unexpected response {other:?}"))),
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
        self.launch_on_stream(0, kernel, grid_dim, block_dim, params, sync)
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
        let (resp, delay) = self.round_trip(Request::Launch {
            kernel: kernel.to_string(),
            grid_dim,
            block_dim,
            params: params.to_vec(),
            sync,
            stream,
        })?;
        match resp {
            Response::Launched { device_time_s } => {
                // Synchronous launches block the VP for the kernel; asynchronous
                // ones only pay the submission round trip (the timeline model
                // accounts for device completion).
                Ok(if sync { delay + device_time_s } else { delay })
            }
            other => Err(VpError::Device(format!("unexpected response {other:?}"))),
        }
    }

    fn synchronize(&mut self) -> Result<f64, VpError> {
        let (_, delay) = self.round_trip(Request::Synchronize)?;
        Ok(delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigmavp_gpu::GpuArch;
    use sigmavp_sptx::asm;
    use sigmavp_vp::registry::KernelRegistry;

    fn shared_runtime() -> Arc<Mutex<HostRuntime>> {
        let scale = asm::parse(
            ".kernel scale\nentry:\n    rs r0, gtid\n    ldp r1, 0\n    ld.f32 r2, [r1 + r0]\n    add.f32 r2, r2, r2\n    st.f32 [r1 + r0], r2\n    ret\n",
        )
        .unwrap();
        let registry: KernelRegistry = [scale].into_iter().collect();
        Arc::new(Mutex::new(HostRuntime::new(GpuArch::quadro_4000(), registry)))
    }

    #[test]
    fn forwarding_is_functionally_correct() {
        let rt = shared_runtime();
        let mut gpu = MultiplexedGpu::new(VpId(0), rt, TransportCost::shared_memory());
        let n = 128u64;
        let (h, _) = gpu.malloc(n * 4).unwrap();
        let data: Vec<u8> = (0..n).flat_map(|i| (i as f32).to_le_bytes()).collect();
        gpu.memcpy_h2d(h, &data).unwrap();
        let t = gpu.launch("scale", 1, n as u32, &[WireParam::Buffer(h)], true).unwrap();
        assert!(t > 0.0);
        let mut out = vec![0u8; (n * 4) as usize];
        gpu.memcpy_d2h(h, &mut out).unwrap();
        gpu.free(h).unwrap();
        assert_eq!(f32::from_le_bytes(out[8..12].try_into().unwrap()), 4.0);
        let stats = gpu.ipc_stats();
        assert_eq!(stats.messages, 10); // five calls × two frames
        assert!(stats.transport_time_s > 0.0);
        assert!(stats.bytes > n * 4); // the payload crossed the wire
    }

    #[test]
    fn two_vps_share_one_device() {
        let rt = shared_runtime();
        let mut a = MultiplexedGpu::new(VpId(0), rt.clone(), TransportCost::shared_memory());
        let mut b = MultiplexedGpu::new(VpId(1), rt.clone(), TransportCost::shared_memory());
        let (ha, _) = a.malloc(64).unwrap();
        let (hb, _) = b.malloc(64).unwrap();
        assert_ne!(ha, hb, "handles are device-global");
        a.free(ha).unwrap();
        b.free(hb).unwrap();
        assert_eq!(rt.lock().records().len(), 0); // malloc/free are not jobs
    }

    #[test]
    fn socket_transport_is_slower_than_shared_memory() {
        let rt = shared_runtime();
        let mut shm = MultiplexedGpu::new(VpId(0), rt.clone(), TransportCost::shared_memory());
        let mut sock = MultiplexedGpu::new(VpId(1), rt, TransportCost::socket());
        let (h1, t1) = shm.malloc(64).unwrap();
        let (h2, t2) = sock.malloc(64).unwrap();
        assert!(t2 > t1);
        shm.free(h1).unwrap();
        sock.free(h2).unwrap();
    }

    #[test]
    fn host_errors_surface_as_device_errors() {
        let rt = shared_runtime();
        let mut gpu = MultiplexedGpu::new(VpId(0), rt, TransportCost::shared_memory());
        let err = gpu.launch("missing", 1, 1, &[], true).unwrap_err();
        assert!(matches!(err, VpError::Device(_)));
        assert!(matches!(gpu.free(1234), Err(VpError::Device(_))));
    }

    #[test]
    fn async_launch_blocks_only_for_submission() {
        let rt = shared_runtime();
        let mut gpu = MultiplexedGpu::new(VpId(0), rt, TransportCost::shared_memory());
        let (h, _) = gpu.malloc(4096 * 4).unwrap();
        gpu.memcpy_h2d(h, &vec![0u8; 4096 * 4]).unwrap();
        let sync_t = gpu.launch("scale", 16, 256, &[WireParam::Buffer(h)], true).unwrap();
        let async_t = gpu.launch("scale", 16, 256, &[WireParam::Buffer(h)], false).unwrap();
        assert!(async_t < sync_t);
    }
}
