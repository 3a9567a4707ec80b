//! What a header handler's choice does with a message's data, checked at
//! three sizes: 4 B, a payload exactly at the eager threshold, and 50 000 B
//! by rendezvous. Shared by `tests/ucr.rs` and the crate's own unit tests;
//! each imports the UCR names below into the module that includes it, and
//! each uses part of it.
#![allow(dead_code)]

use std::cell::RefCell;
use std::rc::Rc;

use simnet::profiles::UCR_EAGER_THRESHOLD;
use simnet::{Cluster, NodeId, SimDuration};
use verbs::IbFabric;

use super::{AmData, AmDest, AmHandler, Endpoint, SendOptions, UcrRuntime};

/// The data lengths checked. Messages go with an empty application header,
/// so the middle one's payload is exactly the eager threshold.
const LENS: [usize; 3] = [4, UCR_EAGER_THRESHOLD, 50_000];

/// With [`AmDest::Pool`] the completion handler receives the bytes sent.
pub fn pool_delivers_the_bytes_sent() {
    for len in LENS {
        check(true, len);
    }
}

/// With [`AmDest::Discard`] the completion handler receives
/// [`AmData::Discarded`].
pub fn discard_delivers_nothing() {
    for len in LENS {
        check(false, len);
    }
}

/// Takes the data (`keep`) or drops it, and records what its completion
/// handler was handed: a copy of the bytes, or `None` for `Discarded`.
struct Choose {
    keep: bool,
    seen: Rc<RefCell<Vec<Option<Vec<u8>>>>>,
}

impl AmHandler for Choose {
    fn on_header(&self, _: &Endpoint, _: &[u8], _: usize) -> AmDest {
        if self.keep {
            AmDest::Pool
        } else {
            AmDest::Discard
        }
    }

    fn on_complete(&self, _: &Endpoint, _: &[u8], data: AmData) {
        let seen = match data {
            AmData::Pool(bytes) => Some(bytes.to_vec()),
            AmData::Discarded => None,
        };
        self.seen.borrow_mut().push(seen);
    }
}

/// Sends two messages of `len` bytes, one after the other, to a handler
/// that takes (`keep`) or drops their data, each with a completion counter
/// the target's Fin bumps. The handler gets each message's bytes or
/// `Discarded`, and the endpoint stays up at both ends. Past the eager
/// threshold, the first message's landing bytes went back to the target's
/// rendezvous pool and its Fin released the sender's source to the
/// sender's: the second message's landing region and source each reuse
/// them.
fn check(keep: bool, len: usize) {
    const MSG: u16 = 7;
    const PORT: u16 = 11311;
    const WAIT: SimDuration = SimDuration::from_millis(100);
    let cluster = Rc::new(Cluster::cluster_b(21, 2));
    let fabric = IbFabric::new(cluster.clone());
    let server = UcrRuntime::new(&fabric, NodeId(1));
    let client = UcrRuntime::new(&fabric, NodeId(0));
    let seen = Rc::default();
    let choose = Choose {
        keep,
        seen: Rc::clone(&seen),
    };
    server.register_handler(MSG, choose);
    let listener = server.listen(PORT).expect("port free");
    let accepted = cluster.sim().spawn(async move { listener.accept().await });
    let sending = client.clone();
    let sent: Vec<Vec<u8>> = (0..2u8)
        .map(|round| (0..len).map(|i| (i % 251) as u8 ^ round).collect())
        .collect();
    let data = sent.clone();
    let (ep, peer) = cluster.sim().block_on(async move {
        let ep = sending.connect(NodeId(1), PORT, WAIT).await.expect("up");
        let peer = accepted.await.expect("accepted");
        let done = sending.counter();
        for (n, data) in (1..).zip(&data) {
            let opts = SendOptions {
                completion: Some(done.clone()),
                ..Default::default()
            };
            ep.send_message(MSG, b"", data, opts).await.expect("sent");
            done.wait_for(n, WAIT).await.expect("the Fin");
        }
        (ep, peer)
    });
    cluster.sim().run();
    let case = format!("keep {keep}, {len} B");
    let want: Vec<_> = sent.into_iter().map(|s| keep.then_some(s)).collect();
    assert!(
        *seen.borrow() == want,
        "{case}: what the handler was handed"
    );
    assert!(!ep.is_failed() && !peer.is_failed(), "{case}: endpoint up");
    assert_eq!((client.endpoints(), server.endpoints()), (1, 1), "{case}");
    let drawn = |rt: &UcrRuntime| {
        let st = rt.stats();
        (st.mr_cache_hits.get(), st.mr_cache_misses.get())
    };
    let rndv = if len > UCR_EAGER_THRESHOLD {
        (1, 1)
    } else {
        (0, 0)
    };
    assert_eq!(drawn(&server), rndv, "{case}: landing bytes reused");
    assert_eq!(drawn(&client), rndv, "{case}: source bytes reused");
}
