//! A first-fit device-memory allocator with free-list coalescing.
//!
//! Kernel Coalescing (paper Fig. 5) needs *physically contiguous* device
//! allocations: ΣVP allocates one big chunk and copies each VP's buffers into
//! adjacent sub-ranges. The allocator therefore guarantees that a single
//! [`DeviceAllocator::alloc`] returns one contiguous range, and exposes enough
//! introspection (free/used bytes, largest hole) for the coalescing planner to decide
//! whether a merged buffer fits.

use crate::error::GpuError;

/// Alignment of every allocation, in bytes. Matches the 128-byte transaction
/// segments so allocations never straddle segments unnecessarily.
pub const ALLOC_ALIGN: u64 = 128;

/// A handle to an allocated device buffer.
///
/// The handle is a plain value (address + length); the allocator validates handles
/// on free, so a stale handle is an error rather than undefined behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeviceBuffer {
    addr: u64,
    len: u64,
}

impl DeviceBuffer {
    /// Base byte address within device memory.
    pub fn addr(&self) -> u64 {
        self.addr
    }

    /// Length in bytes as requested at allocation.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the buffer is zero-length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FreeRange {
    start: u64,
    len: u64,
}

/// First-fit allocator over a fixed-size device memory.
#[derive(Debug, Clone)]
pub struct DeviceAllocator {
    capacity: u64,
    free: Vec<FreeRange>, // sorted by start, non-overlapping, coalesced
    live: std::collections::HashMap<u64, u64>, // addr -> aligned length
}

impl DeviceAllocator {
    /// An allocator over `capacity` bytes of device memory.
    pub fn new(capacity: u64) -> Self {
        Self {
            capacity,
            free: if capacity > 0 { vec![FreeRange { start: 0, len: capacity }] } else { vec![] },
            live: std::collections::HashMap::new(),
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently free (possibly fragmented).
    pub fn free_bytes(&self) -> u64 {
        self.free.iter().map(|r| r.len).sum()
    }

    /// Bytes currently allocated (including alignment padding).
    pub fn used_bytes(&self) -> u64 {
        self.capacity - self.free_bytes()
    }

    /// Size of the largest contiguous free range — the biggest buffer Kernel
    /// Coalescing could allocate right now.
    pub fn largest_hole(&self) -> u64 {
        self.free.iter().map(|r| r.len).max().unwrap_or(0)
    }

    /// Allocate `len` bytes (rounded up to [`ALLOC_ALIGN`]), first-fit.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::OutOfMemory`] when no free range can hold the rounded
    /// request (including by fragmentation).
    pub fn alloc(&mut self, len: u64) -> Result<DeviceBuffer, GpuError> {
        let aligned = align_up(len.max(1));
        let idx = self.free.iter().position(|r| r.len >= aligned).ok_or(GpuError::OutOfMemory {
            requested: aligned,
            capacity: self.capacity,
            free: self.free_bytes(),
        })?;
        let range = self.free[idx];
        let addr = range.start;
        if range.len == aligned {
            self.free.remove(idx);
        } else {
            self.free[idx] = FreeRange { start: range.start + aligned, len: range.len - aligned };
        }
        self.live.insert(addr, aligned);
        Ok(DeviceBuffer { addr, len })
    }

    /// Release a buffer, coalescing adjacent free ranges.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::InvalidBuffer`] for a handle that is not live (double
    /// free or foreign handle).
    pub fn free(&mut self, buffer: DeviceBuffer) -> Result<(), GpuError> {
        let aligned =
            self.live.remove(&buffer.addr).ok_or(GpuError::InvalidBuffer { addr: buffer.addr })?;
        let pos = self.free.partition_point(|r| r.start < buffer.addr);
        self.free.insert(pos, FreeRange { start: buffer.addr, len: aligned });
        // Coalesce with neighbours.
        if pos + 1 < self.free.len()
            && self.free[pos].start + self.free[pos].len == self.free[pos + 1].start
        {
            self.free[pos].len += self.free[pos + 1].len;
            self.free.remove(pos + 1);
        }
        if pos > 0 && self.free[pos - 1].start + self.free[pos - 1].len == self.free[pos].start {
            self.free[pos - 1].len += self.free[pos].len;
            self.free.remove(pos);
        }
        Ok(())
    }

    /// Whether a handle refers to a live allocation with the stated length.
    pub fn is_live(&self, buffer: DeviceBuffer) -> bool {
        self.live.get(&buffer.addr).is_some_and(|&aligned| align_up(buffer.len.max(1)) == aligned)
    }
}

fn align_up(len: u64) -> u64 {
    len.div_ceil(ALLOC_ALIGN) * ALLOC_ALIGN
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_roundtrip_restores_capacity() {
        let mut a = DeviceAllocator::new(4096);
        let b1 = a.alloc(100).unwrap();
        let b2 = a.alloc(200).unwrap();
        assert!(a.is_live(b1) && a.is_live(b2), "two live allocations");
        a.free(b1).unwrap();
        a.free(b2).unwrap();
        assert_eq!(a.free_bytes(), 4096);
        assert_eq!(a.largest_hole(), 4096);
        assert!(!a.is_live(b1) && !a.is_live(b2), "no live allocations");
    }

    #[test]
    fn allocations_are_aligned_and_disjoint() {
        let mut a = DeviceAllocator::new(4096);
        let b1 = a.alloc(1).unwrap();
        let b2 = a.alloc(129).unwrap();
        assert_eq!(b1.addr() % ALLOC_ALIGN, 0);
        assert_eq!(b2.addr() % ALLOC_ALIGN, 0);
        assert!(b2.addr() >= b1.addr() + ALLOC_ALIGN);
    }

    #[test]
    fn out_of_memory_is_reported() {
        let mut a = DeviceAllocator::new(256);
        let _b = a.alloc(200).unwrap();
        let err = a.alloc(200).unwrap_err();
        assert!(matches!(err, GpuError::OutOfMemory { .. }));
    }

    #[test]
    fn double_free_is_an_error() {
        let mut a = DeviceAllocator::new(1024);
        let b = a.alloc(64).unwrap();
        a.free(b).unwrap();
        assert!(matches!(a.free(b), Err(GpuError::InvalidBuffer { .. })));
    }

    #[test]
    fn fragmentation_limits_largest_hole_and_coalescing_heals_it() {
        let mut a = DeviceAllocator::new(3 * ALLOC_ALIGN);
        let b1 = a.alloc(ALLOC_ALIGN).unwrap();
        let b2 = a.alloc(ALLOC_ALIGN).unwrap();
        let b3 = a.alloc(ALLOC_ALIGN).unwrap();
        a.free(b1).unwrap();
        a.free(b3).unwrap();
        // Two separate holes of one unit each.
        assert_eq!(a.free_bytes(), 2 * ALLOC_ALIGN);
        assert_eq!(a.largest_hole(), ALLOC_ALIGN);
        assert!(a.alloc(2 * ALLOC_ALIGN).is_err());
        // Freeing the middle coalesces everything.
        a.free(b2).unwrap();
        assert_eq!(a.largest_hole(), 3 * ALLOC_ALIGN);
        assert!(a.alloc(3 * ALLOC_ALIGN).is_ok());
    }

    #[test]
    fn zero_capacity_allocator_rejects_everything() {
        let mut a = DeviceAllocator::new(0);
        assert!(a.alloc(1).is_err());
        assert_eq!(a.largest_hole(), 0);
    }

    #[test]
    fn first_fit_reuses_earliest_hole() {
        let mut a = DeviceAllocator::new(4 * ALLOC_ALIGN);
        let b1 = a.alloc(ALLOC_ALIGN).unwrap();
        let _b2 = a.alloc(ALLOC_ALIGN).unwrap();
        a.free(b1).unwrap();
        let b3 = a.alloc(ALLOC_ALIGN).unwrap();
        assert_eq!(b3.addr(), 0);
    }
}
