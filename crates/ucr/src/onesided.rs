//! One-sided put/get (paper §IV-B).
//!
//! Alongside active messages, UCR exposes direct one-sided transfers for
//! PGAS-style consumers (the runtime is shared with UPC, §I): a peer
//! registers a memory region, advertises a descriptor out of band (e.g.
//! inside an active-message header), and the origin then reads or writes
//! it with zero remote CPU involvement. Completion is tracked with the
//! same counters as active messages.

use verbs::{Access, Mr, SendOp, SendWr, WcStatus};

use crate::counter::Counter;
use crate::endpoint::Endpoint;
use crate::runtime::{Pending, UcrRuntime};
use crate::UcrError;

/// A registered, remotely accessible memory region.
pub struct UcrMemory {
    mr: Mr,
}

/// Descriptor a peer uses to target a [`UcrMemory`] window. Plain data —
/// ship it in an active-message header.
pub type MemoryDescriptor = verbs::RemoteMemory;

impl UcrRuntime {
    /// Registers `len` bytes for remote one-sided access (put and get).
    pub fn register_memory(&self, len: usize) -> UcrMemory {
        UcrMemory {
            mr: self.pd_ref().register(
                len,
                Access::LOCAL_WRITE | Access::REMOTE_READ | Access::REMOTE_WRITE,
            ),
        }
    }
}

impl UcrMemory {
    /// Region length.
    pub fn len(&self) -> usize {
        self.mr.len()
    }

    /// True if zero-length.
    pub fn is_empty(&self) -> bool {
        self.mr.len() == 0
    }

    /// Local write into the region.
    pub fn write(&self, offset: usize, data: &[u8]) {
        self.mr.write_at(offset, data);
    }

    /// Local read out of the region.
    pub fn read(&self, offset: usize, len: usize) -> Vec<u8> {
        self.mr.read_at(offset, len)
    }

    /// Descriptor for the window `[offset, offset+len)`.
    pub fn descriptor(&self, offset: usize, len: usize) -> MemoryDescriptor {
        self.mr.remote(offset, len)
    }
}

impl Endpoint {
    /// One-sided put: writes `data` into the peer's advertised window.
    /// The counter bumps when the data is placed (remote CPU untouched).
    pub fn put(
        &self,
        remote: MemoryDescriptor,
        data: &[u8],
        done: Option<Counter>,
    ) -> Result<(), UcrError> {
        if self.is_unreliable() {
            return Err(UcrError::MessageTooLarge); // RDMA needs RC
        }
        let rt = self.runtime()?;
        let src = rt.pd_ref().register_with(data.to_vec(), Access::default());
        let local = src.full();
        let wr_id = rt.alloc_pending(Pending::OneSided {
            done,
            ep: self.downgrade(),
            _src: Some(src),
        });
        let write = SendOp::RdmaWrite {
            local,
            remote,
            imm: None,
        };
        rt.post(self.qp_ref(), SendWr::new(wr_id, write))
    }

    /// One-sided get: reads the peer's advertised window into `local`
    /// (a region from [`UcrRuntime::register_memory`]). The counter bumps
    /// when the data has landed locally.
    pub fn get(
        &self,
        local: &UcrMemory,
        local_offset: usize,
        remote: MemoryDescriptor,
        done: Option<Counter>,
    ) -> Result<(), UcrError> {
        if self.is_unreliable() {
            return Err(UcrError::MessageTooLarge);
        }
        let rt = self.runtime()?;
        let len = remote.len as usize;
        let slice = local.mr.slice(local_offset, len);
        let wr_id = rt.alloc_pending(Pending::OneSided {
            done,
            ep: self.downgrade(),
            _src: None,
        });
        let read = SendOp::RdmaRead {
            local: slice,
            remote,
        };
        rt.post(self.qp_ref(), SendWr::new(wr_id, read))
    }
}

/// Completion handling for one-sided operations, called from the progress
/// engine.
pub(crate) fn complete_onesided(
    done: Option<Counter>,
    ep: &std::rc::Weak<crate::endpoint::EpInner>,
    status: WcStatus,
) -> bool {
    if status.is_ok() {
        if let Some(c) = done {
            c.bump();
        }
        true
    } else {
        if let Some(ep) = ep.upgrade() {
            ep.failed.set(true);
        }
        false
    }
}
