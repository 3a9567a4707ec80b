//! A cell two test binaries pin: `tests/wire_parity.rs` over every wire,
//! `crates/core/tests/rmc.rs` over UCR.

use mcstore::StoreStats;
use rmc::{McClientConfig, McError, McServerConfig, Scenario, Transport, World};
use simnet::NodeId;

/// A 2 MB value, past the store's item limit, set over `wire` is refused
/// (over UDP by the client: a request must fit one datagram) and leaves
/// the store untouched.
pub fn oversize_is_refused(wire: Transport) {
    let client = McClientConfig::single(wire, NodeId(0));
    let bed = Scenario::new(World::cluster_a(63, 6), McServerConfig::default(), [client]);
    let (c, big) = (bed.clients[0].clone(), vec![7u8; 2 << 20]);
    let refused = bed
        .world
        .sim()
        .block_on(async move { c.set(b"big", &big, 0, 0).await });
    assert_eq!(refused, Err(McError::TooLarge), "{wire:?}");
    assert_eq!(bed.server.store_stats(), StoreStats::default(), "{wire:?}");
    assert_eq!(bed.server.curr_items(), 0, "{wire:?}");
}
