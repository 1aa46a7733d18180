//! The serial-pipe replay: the same guest programs run one VP after another
//! on the calling thread, every request pushed through the wire codec and
//! [`HostRuntime::process`] by hand. Each layer is timed from outside, so the
//! rows of the resulting [`Ledger`] can be checked to add up to the serial
//! wall.

use std::time::Instant;

use sigmavp::HostRuntime;
use sigmavp_ipc::codec;
use sigmavp_ipc::message::{Envelope, Request, Response, VpId, WireParam};
use sigmavp_ipc::transport::TransportCost;
use sigmavp_vp::error::VpError;
use sigmavp_vp::platform::SimClock;
use sigmavp_vp::service::GpuService;

/// Host time spent per layer, in nanoseconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ledger {
    /// `encode_request` plus `encode_response`.
    pub encode_ns: u64,
    /// `decode_request` plus `decode_response`.
    pub decode_ns: u64,
    /// `HostRuntime::process` on kernel launches.
    pub launch_ns: u64,
    /// `HostRuntime::process` on copies in either direction.
    pub copy_ns: u64,
    /// `HostRuntime::process` on everything else (malloc, free, synchronize).
    pub other_ns: u64,
    /// Round trips served.
    pub requests: u64,
}

impl Ledger {
    /// Time spent in the codec.
    pub fn codec_ns(&self) -> u64 {
        self.encode_ns + self.decode_ns
    }

    /// Time spent in the host runtime.
    pub fn host_ns(&self) -> u64 {
        self.launch_ns + self.copy_ns + self.other_ns
    }

    /// Charge `ns` of `HostRuntime::process` time to the row of `request`.
    pub fn charge_host(&mut self, request: &Request, ns: u64) {
        match request {
            Request::Launch { .. } => self.launch_ns += ns,
            Request::MemcpyH2D { .. } | Request::MemcpyD2H { .. } => self.copy_ns += ns,
            Request::Malloc { .. } | Request::Free { .. } | Request::Synchronize => {
                self.other_ns += ns
            }
        }
    }
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// A single-thread [`GpuService`]: encode, decode, process, encode, decode.
pub struct SerialPipe<'a> {
    host: &'a mut HostRuntime,
    ledger: &'a mut Ledger,
    cost: TransportCost,
    vp: VpId,
    seq: u64,
    clock: SimClock,
}

impl<'a> SerialPipe<'a> {
    /// A pipe for `vp` into `host`, stamping requests from `clock`.
    pub fn new(
        host: &'a mut HostRuntime,
        ledger: &'a mut Ledger,
        cost: TransportCost,
        vp: VpId,
        clock: SimClock,
    ) -> Self {
        SerialPipe { host, ledger, cost, vp, seq: 0, clock }
    }

    fn round_trip(&mut self, body: Request) -> Result<(Response, f64), VpError> {
        let envelope = Envelope {
            vp: self.vp,
            seq: self.seq,
            sent_at_s: self.clock.now_s(),
            deadline_s: Envelope::NO_DEADLINE,
            body,
        };
        self.seq += 1;

        let t = Instant::now();
        let frame = codec::encode_request(&envelope);
        self.ledger.encode_ns += ns_since(t);

        let t = Instant::now();
        let decoded = codec::decode_request(&frame).map_err(VpError::Ipc)?;
        self.ledger.decode_ns += ns_since(t);

        let t = Instant::now();
        let response = self.host.process(&decoded);
        self.ledger.charge_host(&decoded.body, ns_since(t));

        let t = Instant::now();
        let back = codec::encode_response(&response);
        self.ledger.encode_ns += ns_since(t);

        let t = Instant::now();
        let answer = codec::decode_response(&back).map_err(VpError::Ipc)?;
        self.ledger.decode_ns += ns_since(t);

        self.ledger.requests += 1;
        let delay =
            self.cost.delay_for(frame.len() as u64) + self.cost.delay_for(back.len() as u64);
        match answer.body {
            Response::Error { message } => Err(VpError::Device(message)),
            body => Ok((body, delay)),
        }
    }
}

fn unexpected(response: Response) -> VpError {
    VpError::Device(format!("unexpected response {response:?}"))
}

impl GpuService for SerialPipe<'_> {
    fn malloc(&mut self, bytes: u64) -> Result<(u64, f64), VpError> {
        match self.round_trip(Request::Malloc { bytes })? {
            (Response::Malloc { handle }, delay) => Ok((handle, delay)),
            (other, _) => Err(unexpected(other)),
        }
    }

    fn free(&mut self, handle: u64) -> Result<f64, VpError> {
        Ok(self.round_trip(Request::Free { handle })?.1)
    }

    fn memcpy_h2d(&mut self, handle: u64, data: &[u8]) -> Result<f64, VpError> {
        Ok(self.round_trip(Request::MemcpyH2D { handle, data: data.to_vec(), stream: 0 })?.1)
    }

    fn memcpy_d2h(&mut self, handle: u64, out: &mut [u8]) -> Result<f64, VpError> {
        match self.round_trip(Request::MemcpyD2H { handle, len: out.len() as u64, stream: 0 })? {
            (Response::Data { data }, delay) if data.len() == out.len() => {
                out.copy_from_slice(&data);
                Ok(delay)
            }
            (Response::Data { data }, _) => {
                Err(VpError::SizeMismatch { buffer: data.len() as u64, host: out.len() as u64 })
            }
            (other, _) => Err(unexpected(other)),
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
        let request = Request::Launch {
            kernel: kernel.to_string(),
            grid_dim,
            block_dim,
            params: params.to_vec(),
            sync,
            stream,
        };
        match self.round_trip(request)? {
            (Response::Launched { device_time_s }, delay) => {
                Ok(if sync { delay + device_time_s } else { delay })
            }
            (other, _) => Err(unexpected(other)),
        }
    }

    fn synchronize(&mut self) -> Result<f64, VpError> {
        Ok(self.round_trip(Request::Synchronize)?.1)
    }
}
