//! Active-message handlers (paper §IV-B).
//!
//! An active message carries a `msg_id` selecting a registered handler at
//! the target. The **header handler** runs when the header arrives and
//! identifies the destination buffer for the data; UCR then places the
//! data (memcpy off the network buffer for eager messages, RDMA read for
//! rendezvous) and runs the **completion handler**.

use std::ops::Deref;
use std::rc::Weak;

use crate::endpoint::Endpoint;
use crate::runtime::RtInner;

/// Where the target wants an active message's data placed.
pub enum AmDest {
    /// Let the runtime place it in a pool buffer; the completion handler
    /// receives it as [`AmBytes`].
    Pool,
    /// Place it directly into caller-provided registered memory (the
    /// zero-copy path for known destinations, e.g. a Memcached client's
    /// value buffer).
    Buffer(verbs::MrSlice),
    /// Drop the data (header-only protocols).
    Discard,
}

/// An active message's data in a buffer the runtime owns. A rendezvous
/// landed its data in bytes from the runtime's rendezvous pool, and they go
/// back to it when this is dropped; [`into_vec`](AmBytes::into_vec) keeps
/// them instead. An eager message's data is a buffer of its own.
#[derive(Default)]
pub struct AmBytes {
    bytes: Vec<u8>,
    /// The runtime whose pool the bytes return to (none for eager data).
    pool: Weak<RtInner>,
}

impl AmBytes {
    pub(crate) fn new(bytes: Vec<u8>, pool: Weak<RtInner>) -> AmBytes {
        AmBytes { bytes, pool }
    }

    /// Takes the bytes out, for a caller that keeps them.
    pub fn into_vec(mut self) -> Vec<u8> {
        std::mem::take(&mut self.bytes)
    }
}

impl Deref for AmBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes
    }
}

impl Drop for AmBytes {
    fn drop(&mut self) {
        if let Some(rt) = self.pool.upgrade() {
            rt.give_back(std::mem::take(&mut self.bytes));
        }
    }
}

/// The data as delivered to the completion handler.
pub enum AmData {
    /// Data in a runtime pool buffer.
    Pool(AmBytes),
    /// `n` bytes were placed into the buffer returned by the header
    /// handler.
    Placed(usize),
    /// The header handler asked for the data to be dropped.
    Discarded,
}

impl AmData {
    /// Number of data bytes delivered.
    pub fn len(&self) -> usize {
        match self {
            AmData::Pool(v) => v.len(),
            AmData::Placed(n) => *n,
            AmData::Discarded => 0,
        }
    }

    /// True when no data was delivered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bytes, if the runtime owns them, taken out to keep.
    pub fn into_vec(self) -> Option<Vec<u8>> {
        match self {
            AmData::Pool(v) => Some(v.into_vec()),
            _ => None,
        }
    }
}

/// A registered active-message handler.
pub trait AmHandler {
    /// Runs when the message header arrives; returns the data destination.
    /// The default accepts into a pool buffer.
    fn on_header(&self, ep: &Endpoint, hdr: &[u8], data_len: usize) -> AmDest {
        let _ = (ep, hdr, data_len);
        AmDest::Pool
    }

    /// Runs once the data is fully placed. Replies are issued with
    /// [`Endpoint::post_message`] (handlers are synchronous; the post is
    /// fire-and-forget, as header/completion handlers must not block —
    /// the classic active-message restriction).
    fn on_complete(&self, ep: &Endpoint, hdr: &[u8], data: AmData);
}

/// Wraps a closure as a pool-destination handler.
pub struct FnHandler<F>(pub F);

impl<F: Fn(&Endpoint, &[u8], AmData)> AmHandler for FnHandler<F> {
    fn on_complete(&self, ep: &Endpoint, hdr: &[u8], data: AmData) {
        (self.0)(ep, hdr, data)
    }
}
