//! Active-message handlers (paper §IV-B).
//!
//! An active message carries a `msg_id` selecting a registered handler at
//! the target. The **header handler** runs when the header arrives and
//! identifies the destination buffer for the data; UCR then places the
//! data (memcpy off the network buffer for eager messages, RDMA read for
//! rendezvous) and runs the **completion handler**.

use crate::endpoint::Endpoint;

/// Where the target wants an active message's data placed.
pub enum AmDest {
    /// Let the runtime place it in a pool buffer; the completion handler
    /// receives it as [`AmBytes`].
    Pool,
    /// Place it directly into caller-provided registered memory: the
    /// zero-copy path for a destination the header handler picks once it
    /// knows the data's length. The memcached client does not use it: its
    /// values are [`Pool`](AmDest::Pool) buffers, lent to its caller.
    Buffer(verbs::MrSlice),
    /// Drop the data (header-only protocols).
    Discard,
}

/// An active message's data in a buffer lent by one of its runtime's
/// pools: an eager message's data was copied off its network buffer into a
/// buffer from the eager pool, a rendezvous landed its data in bytes from
/// the rendezvous pool. The bytes go back to their pool when this is
/// dropped, wherever the handler passed them on to;
/// [`into_vec`](simnet::Lent::into_vec) keeps them instead. Empty data
/// holds no buffer.
pub type AmBytes = simnet::Lent;

/// The data as delivered to the completion handler.
pub enum AmData {
    /// Data in a runtime pool buffer.
    Pool(AmBytes),
    /// `n` bytes were placed into the buffer returned by the header
    /// handler.
    Placed(usize),
    /// Nothing was placed: the header handler asked for the data to be
    /// dropped, or the buffer it returned could not take them (a region
    /// registered without `LOCAL_WRITE`, say).
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
