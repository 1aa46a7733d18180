//! Host-side resilience state: circuit breakers, effect-once dedup, and the
//! journal/handle-map pair that replays a VP's device state after a failover.

use std::collections::HashMap;

use sigmavp_ipc::message::{Request, Response, ResponseEnvelope, VpId, WireParam};

/// Per-device consecutive-failure counter that opens after a threshold.
///
/// The dispatcher records every attempted operation outcome; once `threshold`
/// consecutive failures accumulate the breaker opens and the device is
/// treated as down (its VPs are migrated to survivors). An open breaker
/// latches open: a device that went down never rejoins its session.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    threshold: u32,
    consecutive: u32,
    open: bool,
}

impl CircuitBreaker {
    /// A closed breaker tripping after `threshold` consecutive failures.
    pub fn new(threshold: u32) -> Self {
        CircuitBreaker { threshold: threshold.max(1), consecutive: 0, open: false }
    }

    /// Record a failed operation. Returns `true` iff this failure trips the
    /// breaker (open edge — reported exactly once per trip).
    pub fn record_failure(&mut self) -> bool {
        if self.open {
            return false;
        }
        self.consecutive += 1;
        self.open = self.consecutive >= self.threshold;
        self.open
    }

    /// Record a successful operation: resets the consecutive-failure count.
    /// An open breaker stays open.
    pub fn record_success(&mut self) {
        self.consecutive = 0;
    }

    /// Whether the breaker is open (device considered down).
    pub fn is_open(&self) -> bool {
        self.open
    }

    /// Force the breaker open (e.g. a scheduled outage was noticed).
    pub fn trip(&mut self) {
        self.open = true;
    }
}

/// Effect-once guard: remembers the last *executed* response per VP so a
/// retried request (same sequence number) is answered from cache instead of
/// being applied twice.
///
/// Guests are synchronous — at most one request is outstanding per VP — so one
/// slot per VP suffices. Only actually-executed responses are stored; injected
/// transient errors never are, so a retry after a transient failure reaches the
/// device again.
#[derive(Debug, Default)]
pub struct DedupCache {
    last: HashMap<VpId, (u64, ResponseEnvelope)>,
}

impl DedupCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cached response for `(vp, seq)`, if this exact request was already
    /// executed.
    pub fn lookup(&self, vp: VpId, seq: u64) -> Option<&ResponseEnvelope> {
        self.last.get(&vp).filter(|(s, _)| *s == seq).map(|(_, r)| r)
    }

    /// Remember an executed response as the latest for its VP.
    pub fn store(&mut self, response: &ResponseEnvelope) {
        self.last.insert(response.vp, (response.seq, response.clone()));
    }
}

/// One successfully executed, guest-visible mutating operation.
#[derive(Debug, Clone)]
pub struct JournalEntry {
    /// VP-local sequence number of the originating request — the key that
    /// lets a migration replay stitch back onto the original job's telemetry
    /// uid.
    pub seq: u64,
    /// The request as the guest sent it (guest handle space).
    pub request: Request,
    /// The successful response the guest saw.
    pub response: Response,
}

/// Per-VP log of successful mutating operations, replayed onto a surviving
/// device to reconstruct the VP's memory state after its GPU dies.
///
/// Only operations that change device state the guest can later observe are
/// kept: `Malloc`, `Free`, `MemcpyH2D` and `Launch`. Reads (`MemcpyD2H`) and
/// `Synchronize` are stateless; failed operations changed nothing.
#[derive(Debug, Clone, Default)]
pub struct VpJournal {
    entries: Vec<JournalEntry>,
}

impl VpJournal {
    /// Append `(request, response)` if it is a successful mutating operation.
    /// `seq` is the VP-local sequence number of the originating request, kept
    /// so a later replay can be stitched back onto the original job's
    /// telemetry uid.
    pub fn record(&mut self, seq: u64, request: &Request, response: &Response) {
        let mutating = matches!(
            (request, response),
            (Request::Malloc { .. }, Response::Malloc { .. })
                | (Request::Free { .. }, Response::Done)
                | (Request::MemcpyH2D { .. }, Response::Done)
                | (Request::Launch { .. }, Response::Launched { .. })
        );
        if mutating {
            self.entries.push(JournalEntry {
                seq,
                request: request.clone(),
                response: response.clone(),
            });
        }
    }

    /// Number of journaled operations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the journal is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The journaled operations, oldest first.
    pub fn entries(&self) -> &[JournalEntry] {
        &self.entries
    }
}

/// Base for virtual guest handles allocated after a migration; high enough to
/// never collide with real device handles.
const VIRTUAL_HANDLE_BASE: u64 = 1 << 32;

/// Guest-handle → device-handle translation for a migrated VP.
///
/// After a failover the survivor's allocator hands out handles that differ from
/// the ones the guest already holds, so every request from a migrated VP is
/// translated on the way in and `Malloc` responses are virtualised on the way
/// out (virtual guest handles start at `1 << 32`).
#[derive(Debug, Clone)]
pub struct HandleMap {
    map: HashMap<u64, u64>,
    next_virtual: u64,
}

impl Default for HandleMap {
    fn default() -> Self {
        HandleMap { map: HashMap::new(), next_virtual: VIRTUAL_HANDLE_BASE }
    }
}

impl HandleMap {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Map a guest handle to the device handle the survivor allocated.
    pub fn insert(&mut self, guest: u64, device: u64) {
        if guest >= self.next_virtual {
            self.next_virtual = guest + 1;
        }
        self.map.insert(guest, device);
    }

    /// The device handle backing `guest`, if mapped.
    pub fn device_of(&self, guest: u64) -> Option<u64> {
        self.map.get(&guest).copied()
    }

    /// Drop a mapping (the guest freed the buffer).
    pub fn remove(&mut self, guest: u64) {
        self.map.remove(&guest);
    }

    /// Allocate a fresh virtual guest handle for a post-migration `device`
    /// handle and record the mapping.
    pub fn virtualize(&mut self, device: u64) -> u64 {
        let guest = self.next_virtual;
        self.next_virtual += 1;
        self.map.insert(guest, device);
        guest
    }

    /// Number of live mappings.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no mappings are live.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Rewrite every guest handle in `request` to its device handle.
    ///
    /// Returns the translated request, or `Err(handle)` naming the first guest
    /// handle with no mapping.
    pub fn translate(&self, request: &Request) -> Result<Request, u64> {
        let lookup = |h: u64| self.device_of(h).ok_or(h);
        Ok(match request {
            Request::Malloc { .. } | Request::Synchronize => request.clone(),
            Request::Free { handle } => Request::Free { handle: lookup(*handle)? },
            Request::MemcpyH2D { handle, data, stream } => {
                Request::MemcpyH2D { handle: lookup(*handle)?, data: data.clone(), stream: *stream }
            }
            Request::MemcpyD2H { handle, len, stream } => {
                Request::MemcpyD2H { handle: lookup(*handle)?, len: *len, stream: *stream }
            }
            Request::Launch { kernel, grid_dim, block_dim, params, sync, stream } => {
                let mut translated = Vec::with_capacity(params.len());
                for p in params {
                    translated.push(match p {
                        WireParam::Buffer(h) => WireParam::Buffer(lookup(*h)?),
                        other => *other,
                    });
                }
                Request::Launch {
                    kernel: kernel.clone(),
                    grid_dim: *grid_dim,
                    block_dim: *block_dim,
                    params: translated,
                    sync: *sync,
                    stream: *stream,
                }
            }
        })
    }
}

/// Replay a VP's journal onto a device, building the guest→device
/// [`HandleMap`] as allocations land.
///
/// `process` executes one translated request on the target and returns its
/// response; it also receives the entry's original sequence number so callers
/// can attribute the replayed work to the original job. Returns the finished
/// map, or `Err(message)` if the target rejected a replayed operation.
///
/// `retained` is the guest→device map snapshotted when the VP last left this
/// device (empty for a first visit): those buffers were never freed, so a
/// replayed `Malloc` whose guest handle is still retained is remapped in place
/// instead of allocated a second time (DESIGN.md §12). Everything else —
/// memcpys that restore current data, frees issued while the VP lived
/// elsewhere, mallocs from later residencies — replays through `process` as
/// usual. Without this, every A→B→A round trip doubles the VP's footprint
/// on A.
pub fn replay_journal_reusing(
    journal: &VpJournal,
    retained: &HandleMap,
    mut process: impl FnMut(u64, &Request) -> Response,
) -> Result<HandleMap, String> {
    let mut map = HandleMap::new();
    for entry in journal.entries() {
        if let (Request::Malloc { .. }, Response::Malloc { handle: guest }) =
            (&entry.request, &entry.response)
        {
            if let Some(device) = retained.device_of(*guest) {
                map.insert(*guest, device);
                continue;
            }
        }
        let translated = map
            .translate(&entry.request)
            .map_err(|h| format!("replay references unmapped handle {h}"))?;
        let response = process(entry.seq, &translated);
        match (&entry.request, &entry.response, &response) {
            (
                Request::Malloc { .. },
                Response::Malloc { handle: guest },
                Response::Malloc { handle: device },
            ) => {
                map.insert(*guest, *device);
            }
            (Request::Free { handle }, _, Response::Done) => {
                map.remove(*handle);
            }
            (_, _, Response::Error { message }) => {
                return Err(format!("replay failed: {message}"));
            }
            _ => {}
        }
    }
    Ok(map)
}

/// The guest→device map a VP leaves behind on its *home* device: guest
/// handles equal device handles there, so the departure snapshot is the
/// identity over the handles the journal says are still live.
pub fn journal_live_identity(journal: &VpJournal) -> HandleMap {
    let mut map = HandleMap::new();
    for entry in journal.entries() {
        match (&entry.request, &entry.response) {
            (Request::Malloc { .. }, Response::Malloc { handle }) => map.insert(*handle, *handle),
            (Request::Free { handle }, Response::Done) => map.remove(*handle),
            _ => {}
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_trips_on_consecutive_failures_only() {
        let mut b = CircuitBreaker::new(3);
        assert!(!b.record_failure());
        assert!(!b.record_failure());
        b.record_success();
        assert!(!b.record_failure());
        assert!(!b.record_failure());
        assert!(b.record_failure(), "third consecutive failure trips");
        assert!(b.is_open());
        assert!(!b.record_failure(), "trip edge reported once");
    }

    #[test]
    fn breaker_without_cooldown_latches_open_forever() {
        let mut b = CircuitBreaker::new(1);
        assert!(!b.is_open(), "closed breaker admits requests");
        assert!(b.record_failure());
        assert!(b.is_open());
        for _ in 0..3 {
            assert!(!b.record_failure(), "open latches: no second trip edge");
            assert!(b.is_open(), "no cooldown: open latches");
        }
        b.record_success();
        assert!(b.is_open(), "success while open is ignored");
    }

    #[test]
    fn dedup_caches_latest_seq_per_vp() {
        let mut cache = DedupCache::new();
        let r = ResponseEnvelope { vp: VpId(1), seq: 5, sent_at_s: 0.0, body: Response::Done };
        cache.store(&r);
        assert!(cache.lookup(VpId(1), 5).is_some());
        assert!(cache.lookup(VpId(1), 4).is_none(), "older seqs are gone");
        assert!(cache.lookup(VpId(2), 5).is_none(), "per-vp isolation");
    }

    #[test]
    fn journal_keeps_only_successful_mutations() {
        let mut j = VpJournal::default();
        j.record(1, &Request::Malloc { bytes: 64 }, &Response::Malloc { handle: 1 });
        j.record(
            101,
            &Request::MemcpyD2H { handle: 1, len: 64, stream: 0 },
            &Response::Data { data: Vec::new() },
        );
        j.record(2, &Request::Synchronize, &Response::Done);
        j.record(
            102,
            &Request::MemcpyH2D { handle: 1, data: b"abcd".to_vec(), stream: 0 },
            &Response::Error { message: "nope".into() },
        );
        assert_eq!(j.len(), 1, "reads, syncs and failures are not journaled");
    }

    #[test]
    fn replay_builds_handle_map_and_translates() {
        let mut j = VpJournal::default();
        j.record(3, &Request::Malloc { bytes: 16 }, &Response::Malloc { handle: 7 });
        j.record(
            103,
            &Request::MemcpyH2D { handle: 7, data: b"abcd".to_vec(), stream: 0 },
            &Response::Done,
        );
        j.record(
            104,
            &Request::Launch {
                kernel: "k".into(),
                grid_dim: 1,
                block_dim: 1,
                params: vec![WireParam::Buffer(7)],
                sync: true,
                stream: 0,
            },
            &Response::Launched { device_time_s: 0.0 },
        );

        let mut seen = Vec::new();
        let mut seqs = Vec::new();
        let map = replay_journal_reusing(&j, &HandleMap::new(), |seq, req| {
            seqs.push(seq);
            seen.push(req.clone());
            match req {
                Request::Malloc { .. } => Response::Malloc { handle: 42 },
                Request::Launch { .. } => Response::Launched { device_time_s: 0.0 },
                _ => Response::Done,
            }
        })
        .expect("replay succeeds");

        assert_eq!(map.device_of(7), Some(42), "guest 7 now backed by device 42");
        match &seen[1] {
            Request::MemcpyH2D { handle, .. } => assert_eq!(*handle, 42),
            other => panic!("unexpected replayed request {other:?}"),
        }
        match &seen[2] {
            Request::Launch { params, .. } => assert_eq!(params[0], WireParam::Buffer(42)),
            other => panic!("unexpected replayed request {other:?}"),
        }
    }

    #[test]
    fn reusing_replay_skips_retained_mallocs_but_restores_data() {
        let mut j = VpJournal::default();
        j.record(4, &Request::Malloc { bytes: 16 }, &Response::Malloc { handle: 7 });
        j.record(5, &Request::Malloc { bytes: 16 }, &Response::Malloc { handle: 8 });
        j.record(
            105,
            &Request::MemcpyH2D { handle: 7, data: b"abcd".to_vec(), stream: 0 },
            &Response::Done,
        );
        // Guest 7 still has its original buffer on this device; guest 8 was
        // allocated during a later residency elsewhere.
        let mut retained = HandleMap::new();
        retained.insert(7, 7);

        let mut mallocs = 0u32;
        let mut seen = Vec::new();
        let map = replay_journal_reusing(&j, &retained, |_seq, req| {
            seen.push(req.clone());
            match req {
                Request::Malloc { .. } => {
                    mallocs += 1;
                    Response::Malloc { handle: 40 + u64::from(mallocs) }
                }
                _ => Response::Done,
            }
        })
        .expect("replay succeeds");

        assert_eq!(mallocs, 1, "the retained buffer is not allocated again");
        assert_eq!(map.device_of(7), Some(7), "guest 7 reuses its old buffer");
        assert_eq!(map.device_of(8), Some(41), "guest 8 gets a fresh one");
        match &seen[1] {
            Request::MemcpyH2D { handle, .. } => {
                assert_eq!(*handle, 7, "data restored into the reused buffer");
            }
            other => panic!("unexpected replayed request {other:?}"),
        }
    }

    #[test]
    fn reusing_replay_frees_buffers_freed_while_away() {
        let mut j = VpJournal::default();
        j.record(6, &Request::Malloc { bytes: 16 }, &Response::Malloc { handle: 7 });
        j.record(0, &Request::Free { handle: 7 }, &Response::Done);
        let mut retained = HandleMap::new();
        retained.insert(7, 7);

        let mut freed = Vec::new();
        let map = replay_journal_reusing(&j, &retained, |_seq, req| {
            if let Request::Free { handle } = req {
                freed.push(*handle);
            }
            Response::Done
        })
        .expect("replay succeeds");
        assert_eq!(freed, vec![7], "the free issued while away lands here");
        assert!(map.is_empty());
    }

    #[test]
    fn journal_identity_tracks_live_handles() {
        let mut j = VpJournal::default();
        j.record(1, &Request::Malloc { bytes: 16 }, &Response::Malloc { handle: 3 });
        j.record(2, &Request::Malloc { bytes: 16 }, &Response::Malloc { handle: 4 });
        j.record(3, &Request::Free { handle: 3 }, &Response::Done);
        let map = journal_live_identity(&j);
        assert_eq!(map.len(), 1);
        assert_eq!(map.device_of(4), Some(4));
        assert_eq!(map.device_of(3), None, "freed handles are not retained");
    }

    #[test]
    fn replay_surfaces_survivor_errors() {
        let mut j = VpJournal::default();
        j.record(4, &Request::Malloc { bytes: 16 }, &Response::Malloc { handle: 7 });
        let err = replay_journal_reusing(&j, &HandleMap::new(), |_, _| Response::Error {
            message: "oom".into(),
        });
        assert!(err.is_err());
    }

    #[test]
    fn virtual_handles_never_collide() {
        let mut map = HandleMap::new();
        map.insert(7, 42);
        let v = map.virtualize(99);
        assert!(v >= 1 << 32);
        assert_ne!(v, 7);
        assert_eq!(map.device_of(v), Some(99));
        let v2 = map.virtualize(100);
        assert_ne!(v, v2);
    }

    #[test]
    fn translate_reports_unmapped_handles() {
        let map = HandleMap::new();
        let err = map.translate(&Request::Free { handle: 9 });
        assert_eq!(err, Err(9));
    }
}
