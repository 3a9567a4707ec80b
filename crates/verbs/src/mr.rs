//! Protection domains and registered memory regions.
//!
//! Registration pins a buffer and hands out an `lkey` (local use) and an
//! `rkey` (advertised to peers for one-sided access). The simulation keeps
//! each region as a byte vector behind `Rc<RefCell<..>>`; inbound RDMA
//! resolves the rkey through the owning HCA's region table, checks access
//! and bounds, and then actually moves the bytes, from region to region —
//! so data integrity is end-to-end observable in tests.

use std::cell::{Ref, RefCell};
use std::rc::{Rc, Weak};

use crate::types::{Access, RemoteMemory, VerbsError};
use simnet::NodeId;

pub(crate) struct MrInner {
    pub rkey: u32,
    pub pd_id: u32,
    pub access: Access,
    pub buf: RefCell<Vec<u8>>,
}

/// A protection domain: the allocation scope for memory regions and queue
/// pairs. Regions registered in one PD are usable by QPs of the same PD.
/// Holds its HCA strongly — a PD is an explicit adapter resource, so the
/// adapter state outlives it by construction (no fallible upgrade on the
/// registration path). The HCA only holds PDs' *products* weakly (MRs) or
/// without back-references, so this creates no cycle.
pub struct Pd {
    pub(crate) node: NodeId,
    pub(crate) pd_id: u32,
    pub(crate) hca: Rc<crate::fabric::HcaInner>,
}

/// A registered memory region.
pub struct Mr {
    pub(crate) inner: Rc<MrInner>,
    pub(crate) node: NodeId,
    pub(crate) hca: Weak<crate::fabric::HcaInner>,
}

/// A borrowable window into a registered region, used as the local buffer
/// of work requests. Cheap to clone.
#[derive(Clone)]
pub struct MrSlice {
    pub(crate) inner: Rc<MrInner>,
    pub(crate) offset: usize,
    pub(crate) len: usize,
}

impl Pd {
    /// Registers a fresh zero-filled region of `len` bytes.
    pub fn register(&self, len: usize, access: Access) -> Mr {
        self.register_with(vec![0u8; len], access)
    }

    /// Registers a region initialized with `data`.
    pub fn register_with(&self, data: Vec<u8>, access: Access) -> Mr {
        let hca = &self.hca;
        let rkey = hca.next_key();
        let inner = Rc::new(MrInner {
            rkey,
            pd_id: self.pd_id,
            access,
            buf: RefCell::new(data),
        });
        hca.mrs.borrow_mut().insert(rkey, Rc::downgrade(&inner));
        Mr {
            inner,
            node: self.node,
            hca: Rc::downgrade(hca),
        }
    }
}

impl Mr {
    /// Region length in bytes.
    pub fn len(&self) -> usize {
        self.inner.buf.borrow().len()
    }

    /// True if the region is zero-length.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The steering key peers use to target this region.
    pub fn rkey(&self) -> u32 {
        self.inner.rkey
    }

    /// Copies `data` into the region at `offset` (application-side write,
    /// e.g. staging a value before a send).
    pub fn write_at(&self, offset: usize, data: &[u8]) {
        let mut buf = self.inner.buf.borrow_mut();
        assert!(
            offset + data.len() <= buf.len(),
            "write_at out of bounds: {}+{} > {}",
            offset,
            data.len(),
            buf.len()
        );
        buf[offset..offset + data.len()].copy_from_slice(data);
    }

    /// The region's bytes, borrowed in place (application-side read without
    /// a copy). The region must not be written — by the application or by
    /// inbound DMA — while the borrow is held.
    pub fn bytes(&self) -> Ref<'_, [u8]> {
        Ref::map(self.inner.buf.borrow(), Vec::as_slice)
    }

    /// Copies bytes out of the region (application-side read).
    pub fn read_at(&self, offset: usize, len: usize) -> Vec<u8> {
        let buf = self.bytes();
        assert!(offset + len <= buf.len(), "read_at out of bounds");
        buf[offset..offset + len].to_vec()
    }

    /// Deregisters the region and returns its buffer without copying it.
    /// Windows still held on the region see it empty.
    pub fn into_vec(self) -> Vec<u8> {
        std::mem::take(&mut *self.inner.buf.borrow_mut())
    }

    /// A window over `[offset, offset+len)` usable in work requests.
    pub fn slice(&self, offset: usize, len: usize) -> MrSlice {
        assert!(
            offset + len <= self.len(),
            "slice out of bounds: {}+{} > {}",
            offset,
            len,
            self.len()
        );
        MrSlice {
            inner: self.inner.clone(),
            offset,
            len,
        }
    }

    /// The whole region as a slice.
    pub fn full(&self) -> MrSlice {
        self.slice(0, self.len())
    }

    /// A descriptor a peer can use to RDMA into/out of this window.
    pub fn remote(&self, offset: usize, len: usize) -> RemoteMemory {
        assert!(offset + len <= self.len(), "remote window out of bounds");
        RemoteMemory {
            node: self.node,
            rkey: self.inner.rkey,
            offset: offset as u64,
            len: len as u64,
        }
    }
}

impl Drop for Mr {
    fn drop(&mut self) {
        // Deregister: peers holding a stale rkey get RemoteAccessError.
        if let Some(hca) = self.hca.upgrade() {
            hca.mrs.borrow_mut().remove(&self.inner.rkey);
        }
    }
}

impl MrSlice {
    /// Window length.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the window is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The window's bytes in place, as the HCA's DMA engine reads them to
    /// send: no copy. `None` if the region cannot be read at this instant
    /// (the application holds it mutably borrowed) or the window lies
    /// outside it (a region emptied by [`Mr::into_vec`]).
    pub(crate) fn dma_view(&self) -> Option<Ref<'_, [u8]>> {
        let buf = self.inner.buf.try_borrow().ok()?;
        Ref::filter_map(buf, |b| b.get(self.offset..self.offset + self.len)).ok()
    }

    /// Writes `data` into the window's prefix (models HCA DMA delivery).
    /// Fails, never panics, if `data` is longer than the window, the region
    /// lacks LOCAL_WRITE, or it cannot be written at this instant: the
    /// application holds it borrowed, or it is the region `data` is read
    /// from.
    pub(crate) fn dma_write(&self, data: &[u8]) -> Result<(), VerbsError> {
        if !self.inner.access.allows(Access::LOCAL_WRITE) {
            return Err(VerbsError::AccessViolation("region lacks LOCAL_WRITE"));
        }
        if data.len() > self.len {
            return Err(VerbsError::AccessViolation("inbound data exceeds buffer"));
        }
        let mut buf = self.inner.buf.try_borrow_mut().map_err(|_| busy())?;
        let window = buf.get_mut(self.offset..self.offset + data.len());
        let window = window.ok_or(VerbsError::AccessViolation("window outside its region"))?;
        window.copy_from_slice(data);
        Ok(())
    }

    /// Fills the window from `src` at `src_at` (models the HCA landing an
    /// RDMA READ straight from the source region). Fails if the region
    /// lacks LOCAL_WRITE, or as [`dma_copy`] does.
    pub(crate) fn dma_fill(&self, src: &MrInner, src_at: usize) -> Result<(), VerbsError> {
        if !self.inner.access.allows(Access::LOCAL_WRITE) {
            return Err(VerbsError::AccessViolation("region lacks LOCAL_WRITE"));
        }
        dma_copy(src, src_at, &self.inner, self.offset, self.len)
    }

    /// Copies the window into `dst` at `dst_at` (models an RDMA WRITE
    /// landing in the target region). Fails as [`dma_copy`] does.
    pub(crate) fn dma_copy_to(&self, dst: &MrInner, dst_at: usize) -> Result<(), VerbsError> {
        dma_copy(&self.inner, self.offset, dst, dst_at, self.len)
    }

    /// Writes `data` into the window's prefix (application-side write into
    /// its own registered memory; requires LOCAL_WRITE, like a recv).
    pub fn write_prefix(&self, data: &[u8]) -> Result<(), VerbsError> {
        self.dma_write(data)
    }

    /// Application-level view of the received bytes.
    pub fn read(&self, len: usize) -> Vec<u8> {
        assert!(len <= self.len, "read beyond slice");
        let buf = self.inner.buf.borrow();
        buf[self.offset..self.offset + len].to_vec()
    }
}

/// Copies `len` bytes from `src` at `src_at` into `dst` at `dst_at`: the
/// DMA engine moving bytes from region to region with no buffer in between.
/// Refused, never a panic, if either window lies outside its region (one
/// emptied by [`Mr::into_vec`]) or a region cannot be borrowed at that
/// instant: the application holds it, or both ends are one region.
fn dma_copy(
    src: &MrInner,
    src_at: usize,
    dst: &MrInner,
    dst_at: usize,
    len: usize,
) -> Result<(), VerbsError> {
    let from = src.buf.try_borrow().map_err(|_| busy())?;
    let mut to = dst.buf.try_borrow_mut().map_err(|_| busy())?;
    let window = |at: usize, region: usize| {
        let end = at.checked_add(len).filter(|&end| end <= region)?;
        Some(at..end)
    };
    match (window(src_at, from.len()), window(dst_at, to.len())) {
        (Some(s), Some(d)) => {
            to[d].copy_from_slice(&from[s]);
            Ok(())
        }
        _ => Err(VerbsError::AccessViolation("window outside its region")),
    }
}

/// What a copy into or out of a region the HCA cannot borrow fails with.
fn busy() -> VerbsError {
    VerbsError::AccessViolation("region already borrowed")
}

/// Resolves an inbound one-sided access against an HCA's region table.
/// Returns the region and checked byte range.
pub(crate) fn resolve_remote(
    hca: &crate::fabric::HcaInner,
    mem: &RemoteMemory,
    need: Access,
    len: u64,
) -> Result<(Rc<MrInner>, usize), VerbsError> {
    let mr = hca
        .mrs
        .borrow()
        .get(&mem.rkey)
        .and_then(Weak::upgrade)
        .ok_or(VerbsError::AccessViolation("unknown or deregistered rkey"))?;
    if !mr.access.allows(need) {
        return Err(VerbsError::AccessViolation("permission denied"));
    }
    let end = mem
        .offset
        .checked_add(len)
        .ok_or(VerbsError::AccessViolation("window overflow"))?;
    if len > mem.len || end as usize > mr.buf.borrow().len() {
        return Err(VerbsError::AccessViolation("window out of bounds"));
    }
    Ok((mr, mem.offset as usize))
}
