//! Slab allocator, after memcached's `slabs.c`.
//!
//! Memory is obtained in fixed-size pages (1 MB by default) and carved into
//! equal chunks per *slab class*; class chunk sizes grow geometrically by a
//! configurable factor (memcached's `-f`, default 1.25). An item is stored
//! in the smallest class whose chunk fits its header + key + value. Pages
//! are never returned between classes — exactly the fragmentation-avoidance
//! behaviour that makes it impossible for Memcached clients to cache item
//! addresses, one of the paper's arguments (§III) against the Blue Gene
//! design's client-side hash table split.
//!
//! Unlike an accounting-only model, chunks here own real bytes: items are
//! written into and read out of page memory, so property tests can verify
//! no two live items ever overlap.

use std::fmt;

/// Identifies a slab class (index into the class table).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ClassId(pub u8);

/// The location of an allocated chunk.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SlabLoc {
    /// Owning class.
    pub class: ClassId,
    /// Page index within the class.
    page: u32,
    /// Chunk index within the page.
    chunk: u32,
}

impl SlabLoc {
    /// A placeholder location (class 0, page 0, chunk 0) for slots whose
    /// real location is assigned immediately after.
    pub fn placeholder() -> SlabLoc {
        SlabLoc {
            class: ClassId(0),
            page: 0,
            chunk: 0,
        }
    }

    /// Page index within the owning class.
    pub fn page(&self) -> u32 {
        self.page
    }

    /// Chunk index within the page.
    pub fn chunk(&self) -> u32 {
        self.chunk
    }
}

struct SlabClass {
    /// Chunk size in bytes (includes the modeled item header).
    chunk_size: u32,
    /// Chunks per page.
    per_page: u32,
    /// Page storage (each page is one Vec).
    pages: Vec<Box<[u8]>>,
    /// Freed chunks, reused last-freed first.
    free: Vec<SlabLoc>,
    /// Chunks of the newest page never handed out (memcached 1.4's
    /// `end_page_free`): carved one at a time once `free` is empty.
    uncarved: u32,
    /// Number of chunks handed out.
    used: u32,
    /// Total allocation requests.
    alloc_count: u64,
    /// Per-chunk seqlock-style versions, indexed `page * per_page + chunk`.
    /// A version changes exactly when the chunk's contents (or liveness)
    /// change, which is what lets a remote reader detect that a directly
    /// read chunk raced with a writer (RFP-style bypass gets).
    versions: Vec<u64>,
}

/// Configuration for the allocator.
#[derive(Clone, Copy, Debug)]
pub struct SlabConfig {
    /// Total memory limit (memcached `-m`), bytes.
    pub mem_limit: usize,
    /// Page size (memcached's `settings.item_size_max`), bytes.
    pub page_size: usize,
    /// Geometric growth factor between classes (memcached `-f`).
    pub growth_factor: f64,
    /// Smallest chunk size.
    pub min_chunk: usize,
}

impl Default for SlabConfig {
    fn default() -> Self {
        SlabConfig {
            mem_limit: 64 << 20,
            page_size: 1 << 20,
            growth_factor: 1.25,
            min_chunk: 96,
        }
    }
}

/// Per-class statistics snapshot.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ClassStats {
    /// Chunk size of the class.
    pub chunk_size: u32,
    /// Pages assigned.
    pub pages: u32,
    /// Chunks in use.
    pub used: u32,
    /// Chunks free.
    pub free: u32,
    /// Allocation requests served.
    pub alloc_count: u64,
}

/// The slab allocator.
pub struct SlabAllocator {
    classes: Vec<SlabClass>,
    config: SlabConfig,
    mem_allocated: usize,
    /// Bit `c`: class `c` went through [`alloc`](Self::alloc) or
    /// [`free`](Self::free), the only places its pages and chunks move,
    /// since the last [`take_moved`](Self::take_moved).
    moved: u64,
}

impl SlabAllocator {
    /// Builds the class table from the configuration.
    pub fn new(config: SlabConfig) -> SlabAllocator {
        assert!(config.growth_factor > 1.0, "growth factor must exceed 1");
        assert!(config.min_chunk >= 48, "chunks must fit an item header");
        assert!(config.page_size >= config.min_chunk);
        let mut classes = Vec::new();
        let mut size = config.min_chunk;
        while size < config.page_size && classes.len() < 62 {
            let aligned = size.next_multiple_of(8);
            classes.push(SlabClass {
                chunk_size: aligned as u32,
                per_page: (config.page_size / aligned) as u32,
                pages: Vec::new(),
                free: Vec::new(),
                uncarved: 0,
                used: 0,
                alloc_count: 0,
                versions: Vec::new(),
            });
            size = ((aligned as f64) * config.growth_factor).ceil() as usize;
        }
        // Final class: one chunk per page (largest storable item).
        classes.push(SlabClass {
            chunk_size: config.page_size as u32,
            per_page: 1,
            pages: Vec::new(),
            free: Vec::new(),
            uncarved: 0,
            used: 0,
            alloc_count: 0,
            versions: Vec::new(),
        });
        assert!(classes.len() <= 63, "a class is one bit of the moved mask");
        SlabAllocator {
            classes,
            config,
            mem_allocated: 0,
            moved: 0,
        }
    }

    /// Number of slab classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Chunk size of a class.
    pub fn chunk_size(&self, class: ClassId) -> usize {
        self.classes[class.0 as usize].chunk_size as usize
    }

    /// The smallest class whose chunks hold `size` bytes; `None` if the
    /// item exceeds the largest chunk (memcached: SERVER_ERROR object too
    /// large for cache).
    pub fn class_for(&self, size: usize) -> Option<ClassId> {
        // Classes are sorted by chunk size: binary search the first fit.
        let idx = self
            .classes
            .partition_point(|c| (c.chunk_size as usize) < size);
        (idx < self.classes.len()).then_some(ClassId(idx as u8))
    }

    /// Allocates a chunk in `class`: the last one freed, else the newest
    /// page's next uncarved one, else a new page's first. `None` when the
    /// memory limit forbids that page — the caller (the store) must evict.
    pub fn alloc(&mut self, class: ClassId) -> Option<SlabLoc> {
        let limit = self.config.mem_limit;
        let page_size = self.config.page_size;
        self.moved |= 1 << class.0;
        let c = &mut self.classes[class.0 as usize];
        c.alloc_count += 1;
        if let Some(loc) = c.free.pop() {
            c.used += 1;
            return Some(loc);
        }
        if c.uncarved == 0 {
            if self.mem_allocated + page_size > limit {
                return None;
            }
            // Grab a fresh page; its chunks are carved as they are needed.
            c.pages.push(vec![0u8; page_size].into_boxed_slice());
            c.versions.resize(c.versions.len() + c.per_page as usize, 0);
            self.mem_allocated += page_size;
            c.uncarved = c.per_page;
        }
        c.uncarved -= 1;
        c.used += 1;
        Some(SlabLoc {
            class,
            page: c.pages.len() as u32 - 1,
            chunk: c.per_page - 1 - c.uncarved,
        })
    }

    /// Returns a chunk to its class's free list.
    pub fn free(&mut self, loc: SlabLoc) {
        self.moved |= 1 << loc.class.0;
        let c = &mut self.classes[loc.class.0 as usize];
        debug_assert!(!c.free.contains(&loc), "double free of slab chunk {loc:?}");
        c.used -= 1;
        c.free.push(loc);
    }

    /// Writes `data` at `offset` within the chunk.
    pub fn write(&mut self, loc: SlabLoc, offset: usize, data: &[u8]) {
        let c = &mut self.classes[loc.class.0 as usize];
        let chunk_size = c.chunk_size as usize;
        assert!(offset + data.len() <= chunk_size, "write outside chunk");
        let base = loc.chunk as usize * chunk_size;
        let page = &mut c.pages[loc.page as usize];
        page[base + offset..base + offset + data.len()].copy_from_slice(data);
    }

    /// Reads `len` bytes at `offset` within the chunk.
    pub fn read(&self, loc: SlabLoc, offset: usize, len: usize) -> &[u8] {
        let c = &self.classes[loc.class.0 as usize];
        let chunk_size = c.chunk_size as usize;
        assert!(offset + len <= chunk_size, "read outside chunk");
        let base = loc.chunk as usize * chunk_size;
        &c.pages[loc.page as usize][base + offset..base + offset + len]
    }

    /// Current seqlock version of the chunk at `loc`.
    pub fn version(&self, loc: SlabLoc) -> u64 {
        let c = &self.classes[loc.class.0 as usize];
        c.versions[(loc.page * c.per_page + loc.chunk) as usize]
    }

    /// Bumps the chunk's version and returns the new value. The store
    /// calls this on every mutation that changes the chunk's contents or
    /// liveness (set / in-place arithmetic / touch / delete / eviction /
    /// flush), so a remote bypass reader comparing versions observes any
    /// concurrent write as a mismatch.
    pub fn bump_version(&mut self, loc: SlabLoc) -> u64 {
        let c = &mut self.classes[loc.class.0 as usize];
        let v = &mut c.versions[(loc.page * c.per_page + loc.chunk) as usize];
        *v += 1;
        *v
    }

    /// Chunks per page of a class.
    pub fn chunks_per_page(&self, class: ClassId) -> u32 {
        self.classes[class.0 as usize].per_page
    }

    /// Raw bytes of one whole chunk addressed by indices (no `SlabLoc`
    /// needed): used by the server's bypass mirror to snapshot a page.
    pub fn chunk_raw(&self, class: ClassId, page: u32, chunk: u32) -> &[u8] {
        let c = &self.classes[class.0 as usize];
        let chunk_size = c.chunk_size as usize;
        let base = chunk as usize * chunk_size;
        &c.pages[page as usize][base..base + chunk_size]
    }

    /// Version of the chunk addressed by indices.
    pub fn version_at(&self, class: ClassId, page: u32, chunk: u32) -> u64 {
        let c = &self.classes[class.0 as usize];
        c.versions[(page * c.per_page + chunk) as usize]
    }

    /// The classes whose [`class_stats`](Self::class_stats) may answer
    /// differently since the last call, one bit per class id; clears them.
    pub fn take_moved(&mut self) -> u64 {
        std::mem::take(&mut self.moved)
    }

    /// Marks every class as moved.
    pub(crate) fn mark_all_moved(&mut self) {
        self.moved = (1 << self.classes.len()) - 1;
    }

    /// Total bytes of pages grabbed from the OS.
    pub fn mem_allocated(&self) -> usize {
        self.mem_allocated
    }

    /// The configured memory limit.
    pub fn mem_limit(&self) -> usize {
        self.config.mem_limit
    }

    /// Statistics for one class.
    pub fn class_stats(&self, class: ClassId) -> ClassStats {
        let c = &self.classes[class.0 as usize];
        ClassStats {
            chunk_size: c.chunk_size,
            pages: c.pages.len() as u32,
            used: c.used,
            free: c.free.len() as u32 + c.uncarved,
            alloc_count: c.alloc_count,
        }
    }
}

impl fmt::Debug for SlabAllocator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SlabAllocator({} classes, {}/{} bytes)",
            self.classes.len(),
            self.mem_allocated,
            self.config.mem_limit
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SlabAllocator {
        SlabAllocator::new(SlabConfig {
            mem_limit: 4 << 20,
            page_size: 1 << 20,
            growth_factor: 1.25,
            min_chunk: 96,
        })
    }

    #[test]
    fn class_sizes_grow_geometrically() {
        let s = small();
        let mut prev = 0usize;
        for i in 0..s.class_count() - 1 {
            let sz = s.chunk_size(ClassId(i as u8));
            assert!(sz > prev, "class sizes must increase");
            assert_eq!(sz % 8, 0, "chunk sizes are 8-aligned");
            prev = sz;
        }
        assert_eq!(s.chunk_size(ClassId((s.class_count() - 1) as u8)), 1 << 20);
    }

    #[test]
    fn class_for_picks_smallest_fit() {
        let s = small();
        let c = s.class_for(100).unwrap();
        assert!(s.chunk_size(c) >= 100);
        if c.0 > 0 {
            assert!(s.chunk_size(ClassId(c.0 - 1)) < 100);
        }
        // Exactly a chunk size fits that class.
        let sz = s.chunk_size(ClassId(3));
        assert_eq!(s.class_for(sz).unwrap(), ClassId(3));
        // Oversized objects are rejected.
        assert!(s.class_for((1 << 20) + 1).is_none());
        // The largest storable item fits the last class.
        assert_eq!(
            s.class_for(1 << 20).unwrap(),
            ClassId((s.class_count() - 1) as u8)
        );
    }

    #[test]
    fn alloc_free_reuse() {
        let mut s = small();
        let class = s.class_for(500).unwrap();
        let a = s.alloc(class).unwrap();
        let b = s.alloc(class).unwrap();
        assert_ne!(a, b);
        s.free(a);
        let c = s.alloc(class).unwrap();
        assert_eq!(c, a, "freed chunk is reused");
        s.free(b);
        s.free(c);
        assert_eq!(s.class_stats(class).used, 0);
    }

    #[test]
    fn memory_limit_is_enforced() {
        let mut s = small(); // 4 pages total
        let class = s.class_for(900_000).unwrap(); // 1 chunk per page
        let mut got = Vec::new();
        while let Some(loc) = s.alloc(class) {
            got.push(loc);
        }
        assert_eq!(got.len(), 4, "exactly mem_limit/page_size big chunks");
        assert_eq!(s.mem_allocated(), 4 << 20);
        // Freeing lets allocation proceed again.
        s.free(got.pop().unwrap());
        assert!(s.alloc(class).is_some());
    }

    #[test]
    fn pages_are_not_shared_across_classes() {
        let mut s = small();
        let c1 = s.class_for(100).unwrap();
        let c2 = s.class_for(10_000).unwrap();
        let a = s.alloc(c1).unwrap();
        let b = s.alloc(c2).unwrap();
        assert_eq!(a.class, c1);
        assert_eq!(b.class, c2);
        // Each grabbed its own page.
        assert_eq!(s.mem_allocated(), 2 << 20);
    }

    #[test]
    fn data_round_trips_and_does_not_bleed() {
        let mut s = small();
        let class = s.class_for(256).unwrap();
        let a = s.alloc(class).unwrap();
        let b = s.alloc(class).unwrap();
        s.write(a, 0, &[0xaa; 256]);
        s.write(b, 0, &[0xbb; 256]);
        assert!(s.read(a, 0, 256).iter().all(|&x| x == 0xaa));
        assert!(s.read(b, 0, 256).iter().all(|&x| x == 0xbb));
        // Offset writes.
        s.write(a, 100, b"hello");
        assert_eq!(s.read(a, 100, 5), b"hello");
        assert_eq!(s.read(a, 0, 1)[0], 0xaa);
    }

    #[test]
    #[should_panic(expected = "write outside chunk")]
    fn chunk_overflow_is_caught() {
        let mut s = small();
        let class = s.class_for(96).unwrap();
        let size = s.chunk_size(class);
        let a = s.alloc(class).unwrap();
        s.write(a, size - 2, &[1, 2, 3]);
    }

    #[test]
    fn alloc_counter_tracks_requests() {
        let mut s = small();
        let class = s.class_for(200).unwrap();
        for _ in 0..10 {
            let loc = s.alloc(class).unwrap();
            s.free(loc);
        }
        assert_eq!(s.class_stats(class).alloc_count, 10);
    }

    #[test]
    fn alloc_and_free_mark_their_classes_until_taken() {
        let mut s = small();
        let (a, b) = (s.class_for(100).unwrap(), s.class_for(10_000).unwrap());
        let in_b = s.alloc(b).unwrap();
        s.take_moved();
        s.alloc(a).unwrap();
        s.free(in_b);
        assert_eq!(s.take_moved(), 1 << a.0 | 1 << b.0);
        assert_eq!(s.take_moved(), 0, "taking the mask clears it");
    }

    /// A carve that pushes a fresh page's other chunks on the free list
    /// last-first, as this allocator once did: the model lazy carving
    /// must match chunk for chunk.
    #[derive(Default)]
    struct EagerClass {
        pages: u32,
        free: Vec<SlabLoc>,
        used: u32,
        alloc_count: u64,
    }

    #[test]
    fn lazy_carving_hands_out_chunks_in_the_eager_order() {
        let config = SlabConfig {
            mem_limit: 8 << 20,
            ..SlabConfig::default()
        };
        let mut s = SlabAllocator::new(config);
        let classes = [s.class_for(150_000).unwrap(), s.class_for(300_000).unwrap()];
        let mut eager: Vec<EagerClass> = classes.iter().map(|_| EagerClass::default()).collect();
        let mut live: Vec<Vec<SlabLoc>> = vec![Vec::new(); classes.len()];
        let mut mem = 0;
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |n: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as usize % n
        };
        for step in 0..3_000 {
            let i = next(classes.len());
            let (class, m) = (classes[i], &mut eager[i]);
            if live[i].is_empty() || next(10) < 6 {
                m.alloc_count += 1;
                let want = if let Some(loc) = m.free.pop() {
                    Some(loc)
                } else if mem + config.page_size > config.mem_limit {
                    None
                } else {
                    mem += config.page_size;
                    let page = m.pages;
                    m.pages += 1;
                    for chunk in (1..s.chunks_per_page(class)).rev() {
                        m.free.push(SlabLoc { class, page, chunk });
                    }
                    Some(SlabLoc {
                        class,
                        page,
                        chunk: 0,
                    })
                };
                m.used += u32::from(want.is_some());
                assert_eq!(s.alloc(class), want, "step {step}");
                live[i].extend(want);
            } else {
                let at = next(live[i].len());
                let loc = live[i].swap_remove(at);
                m.used -= 1;
                m.free.push(loc);
                s.free(loc);
            }
            let want = ClassStats {
                chunk_size: s.chunk_size(class) as u32,
                pages: m.pages,
                used: m.used,
                free: m.free.len() as u32,
                alloc_count: m.alloc_count,
            };
            assert_eq!(s.class_stats(class), want, "step {step}");
        }
        assert!(eager.iter().all(|m| m.pages >= 3));
        assert_eq!(s.mem_allocated(), config.mem_limit);
    }
}
