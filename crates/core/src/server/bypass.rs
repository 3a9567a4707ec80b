//! The bypass-GET item directory (the paper's one-sided §IV-B primitive
//! applied to `get`): RDMA-registered mirrors of slab pages, and the
//! inline handler that answers descriptor lookups without waking a
//! worker.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Weak;

use mcstore::{ClassId, SegmentedStore, SlabAllocator, SlabEvent, Store};
use simnet::trace::{Layer, Track};
use ucr::{AmData, AmHandler, Endpoint, SendOptions, UcrMemory, UcrRuntime};

use super::SrvInner;
use crate::am_wire::{DirReq, DirResp, BYPASS_VERSION_BYTES, MSG_MC_DIR_RESP};

/// Which RDMA fabric a directory handler serves (index into the
/// executor's `fabrics` and mirrors).
#[derive(Clone, Copy)]
pub(super) enum FabricSide {
    Ib = 0,
    Roce = 1,
}

/// Per-fabric mirror directory for the server-CPU-bypass GET path.
///
/// The store's slab pages are plain host memory, invisible to the HCA, so
/// clients cannot RDMA-read them directly. A `BypassDir` keeps an
/// RDMA-registered **mirror** of every slab page holding at least one
/// item a client requested a descriptor for. A mirror page lays chunks
/// out at the slab page's offsets; the last 8 bytes of each chunk-sized
/// slot (slack the 48-byte modeled item header guarantees) carry the
/// item's seqlock version word, so a single RDMA read fetches value
/// bytes and version together and the client can detect a concurrent
/// writer without a second round trip.
#[derive(Default)]
pub(super) struct BypassDir {
    /// Mirrored slab pages keyed `(segment, class, page)` — slab page
    /// indices are per-segment arenas, so the segment disambiguates.
    pages: RefCell<HashMap<(usize, u8, u32), MirrorPage>>,
}

/// One RDMA-registered mirror of a slab page.
struct MirrorPage {
    mem: UcrMemory,
    chunk_size: usize,
    /// Chunks clients may hold descriptors for: added when a descriptor
    /// is served or the chunk is rewritten while mirrored, removed when
    /// the item dies. When this empties the page is retired — dropping
    /// the `MirrorPage` deregisters its MR, so a stale cached descriptor
    /// faults (`AccessViolation`) instead of silently reading memory the
    /// allocator has reassigned. That hard fault is the server half of
    /// the pin-down-cache fix.
    published: HashSet<u32>,
}

impl MirrorPage {
    /// Copies one chunk's raw bytes and current version word from the
    /// slab page into the mirror.
    fn sync_chunk(&self, slabs: &SlabAllocator, class: ClassId, page: u32, chunk: u32) {
        let raw = slabs.chunk_raw(class, page, chunk);
        let base = chunk as usize * self.chunk_size;
        self.mem
            .write(base, &raw[..self.chunk_size - BYPASS_VERSION_BYTES]);
        self.mem.write(
            base + self.chunk_size - BYPASS_VERSION_BYTES,
            &slabs.version_at(class, page, chunk).to_le_bytes(),
        );
    }
}

impl BypassDir {
    /// Serves one directory lookup against `store` at unix time `now`,
    /// mirroring the item's slab page on `rt`'s fabric if it is not yet.
    pub(super) fn serve(
        &self,
        store: &SegmentedStore,
        now: u32,
        rt: &UcrRuntime,
        req: &DirReq,
    ) -> DirResp {
        let Some((seg, item)) = store.locate(&req.key, now) else {
            return DirResp::miss(req.req_id);
        };
        let slabs = store.segment(seg).slabs();
        let (class, pidx, chunk) = (item.loc.class, item.loc.page(), item.loc.chunk());
        let chunk_size = slabs.chunk_size(class);
        let mut pages = self.pages.borrow_mut();
        let page = pages.entry((seg, class.0, pidx)).or_insert_with(|| {
            let per_page = slabs.chunks_per_page(class);
            MirrorPage {
                mem: rt.register_memory(per_page as usize * chunk_size),
                chunk_size,
                published: HashSet::new(),
            }
        });
        // Snapshot (or defensively re-sync) the served chunk; every later
        // store mutation reaches the mirror through the slab-event drain.
        page.sync_chunk(slabs, class, pidx, chunk);
        page.published.insert(chunk);
        let base = chunk as usize * chunk_size;
        let window = page
            .mem
            .descriptor(base + item.klen as usize, chunk_size - item.klen as usize);
        DirResp {
            req_id: req.req_id,
            found: true,
            node: window.node.0,
            rkey: window.rkey,
            offset: window.offset,
            len: window.len,
            vlen: item.vlen,
            flags: item.flags,
            cas: item.cas,
            exp: item.exp,
            version: item.version,
        }
    }

    /// Applies one segment's batch of slab events to the mirrored pages.
    /// `Written` refreshes chunk bytes and version; `Invalidated` bumps
    /// only the version word so an in-flight client read observes the
    /// mismatch. Pages whose published set empties are retired (MR
    /// deregistered).
    pub(super) fn apply(&self, segment: &Store, seg: usize, events: &[SlabEvent]) {
        let slabs = segment.slabs();
        let mut pages = self.pages.borrow_mut();
        for ev in events {
            let loc = ev.loc();
            let Some(page) = pages.get_mut(&(seg, loc.class.0, loc.page())) else {
                continue;
            };
            match ev {
                SlabEvent::Written { .. } => {
                    page.sync_chunk(slabs, loc.class, loc.page(), loc.chunk());
                    page.published.insert(loc.chunk());
                }
                SlabEvent::Invalidated { version, .. } => {
                    let base = loc.chunk() as usize * page.chunk_size;
                    page.mem.write(
                        base + page.chunk_size - BYPASS_VERSION_BYTES,
                        &version.to_le_bytes(),
                    );
                    page.published.remove(&loc.chunk());
                }
            }
        }
        pages.retain(|_, p| !p.published.is_empty());
    }
}

/// Inline handler for `MSG_MC_DIR_REQ`: answers item-directory lookups
/// from the progress engine — a bypassed GET never wakes a worker thread.
pub(super) struct DirDispatch {
    pub(super) srv: Weak<SrvInner>,
    pub(super) side: FabricSide,
}

impl AmHandler for DirDispatch {
    fn on_complete(&self, ep: &Endpoint, hdr: &[u8], _data: AmData) {
        let Some(srv) = self.srv.upgrade() else {
            return;
        };
        if !srv.running.get() {
            return;
        }
        let Some(req) = DirReq::decode(hdr) else {
            return;
        };
        let exec = &srv.exec;
        let side = self.side as usize;
        let Some(rt) = exec.fabrics[side].borrow().clone() else {
            return;
        };
        let resp = exec.dir_lookup(side, &rt, &req);
        exec.tracer.instant(
            Layer::Core,
            "dir_lookup",
            exec.node,
            Track::Main,
            req.req_id,
            resp.found as u64,
            exec.sim.now(),
        );
        ep.post_message(
            MSG_MC_DIR_RESP,
            resp.encode(),
            Vec::new(),
            SendOptions {
                target_ctr: req.ctr_id,
                ..Default::default()
            },
        );
    }
}
