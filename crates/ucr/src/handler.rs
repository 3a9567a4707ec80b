//! Active-message handlers (paper §IV-B).
//!
//! An active message carries a `msg_id` selecting a registered handler at
//! the target. The **header handler** runs when the header arrives and
//! learns the data's length; it takes the data or drops it. UCR lands
//! taken data in a buffer from one of its pools (a copy off the network
//! buffer for eager messages, an RDMA read for rendezvous) and runs the
//! **completion handler** with it.

use crate::endpoint::Endpoint;

/// What the target does with an active message's data.
pub enum AmDest {
    /// Land it in a runtime pool buffer; the completion handler receives
    /// it as [`AmBytes`].
    Pool,
    /// Drop it (header-only protocols). A rendezvous is still read, into a
    /// pool buffer that goes straight back, so the peer's Fin comes as
    /// always.
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
    /// Nothing was delivered: the header handler asked for the data to be
    /// dropped.
    Discarded,
}

impl AmData {
    /// Number of data bytes delivered.
    pub fn len(&self) -> usize {
        match self {
            AmData::Pool(v) => v.len(),
            AmData::Discarded => 0,
        }
    }

    /// True when no data was delivered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bytes, if any were delivered, taken out to keep.
    pub fn into_vec(self) -> Option<Vec<u8>> {
        match self {
            AmData::Pool(v) => Some(v.into_vec()),
            AmData::Discarded => None,
        }
    }
}

/// A registered active-message handler.
pub trait AmHandler {
    /// Runs when the message header arrives, with the data's length;
    /// returns whether the data is taken. The default takes it into a pool
    /// buffer.
    fn on_header(&self, ep: &Endpoint, hdr: &[u8], data_len: usize) -> AmDest {
        let _ = (ep, hdr, data_len);
        AmDest::Pool
    }

    /// Runs once the data has landed. Replies are issued with
    /// [`Endpoint::post_message`] (handlers are synchronous; the post is
    /// fire-and-forget, as header/completion handlers must not block —
    /// the classic active-message restriction).
    fn on_complete(&self, ep: &Endpoint, hdr: &[u8], data: AmData);
}

/// Wraps a closure as a completion handler whose header handler takes the
/// data into a pool buffer.
pub struct FnHandler<F>(pub F);

impl<F: Fn(&Endpoint, &[u8], AmData)> AmHandler for FnHandler<F> {
    fn on_complete(&self, ep: &Endpoint, hdr: &[u8], data: AmData) {
        (self.0)(ep, hdr, data)
    }
}
