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
//! no two live items ever overlap. A chunk holds its item's key and value
//! from its first byte and the item's header in its last
//! [`ITEM_HEADER_SIZE`] bytes. A chunk is named by its id, a `u32` packing
//! its class, its page and its place in the page; no id is `u32::MAX`.

use std::ops::Range;

/// Bytes of item header at the tail of every chunk (memcached's
/// `sizeof(item)` ballpark); counted toward size-class selection, so a
/// payload never reaches them.
pub const ITEM_HEADER_SIZE: usize = 48;

/// Identifies a slab class (index into the class table).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ClassId(pub u8);

/// Where a chunk sits: what [`SlabAllocator::loc_of`] makes of its id.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SlabLoc {
    /// Owning class.
    pub class: ClassId,
    /// Page index within the class.
    pub page: u32,
    /// Chunk index within the page.
    pub chunk: u32,
}

struct SlabClass {
    /// Chunk size in bytes (includes the item header).
    chunk_size: u32,
    /// Chunks per page.
    per_page: u32,
    /// Page storage (each page is one Vec).
    pages: Vec<Box<[u8]>>,
    /// Ids of freed chunks, reused last-freed first.
    free: Vec<u32>,
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

impl SlabClass {
    fn new(chunk_size: usize, page_size: usize) -> SlabClass {
        SlabClass {
            chunk_size: chunk_size as u32,
            per_page: (page_size / chunk_size) as u32,
            pages: Vec::new(),
            free: Vec::new(),
            uncarved: 0,
            used: 0,
            alloc_count: 0,
            versions: Vec::new(),
        }
    }

    /// Chunks carved from the class's pages so far.
    fn carved(&self) -> u32 {
        self.pages.len() as u32 * self.per_page - self.uncarved
    }
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
    /// Bits of a chunk id below its page: its place in the page.
    chunk_bits: u32,
    /// Bits of a chunk id below its class.
    class_shift: u32,
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
            classes.push(SlabClass::new(aligned, config.page_size));
            size = ((aligned as f64) * config.growth_factor).ceil() as usize;
        }
        // Final class: one chunk per page (largest storable item).
        classes.push(SlabClass::new(config.page_size, config.page_size));
        assert!(classes.len() <= 63, "a class is one bit of the moved mask");
        let bits = |n: u32| u32::BITS - n.leading_zeros();
        let chunk_bits = bits(classes[0].per_page - 1);
        let most_pages = (config.mem_limit / config.page_size) as u32;
        let class_shift = chunk_bits + bits(most_pages.saturating_sub(1));
        // Room for one class more than there are, so no id is all ones.
        let class_bits = bits(classes.len() as u32);
        assert!(class_shift + class_bits <= 32, "chunk ids must fit a u32");
        SlabAllocator {
            classes,
            config,
            mem_allocated: 0,
            chunk_bits,
            class_shift,
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

    /// Allocates a chunk in `class` and returns its id: the last one
    /// freed, else the newest page's next uncarved one, else a new page's
    /// first. `None` when the memory limit forbids that page — the caller
    /// (the store) must evict.
    pub fn alloc(&mut self, class: ClassId) -> Option<u32> {
        let limit = self.config.mem_limit;
        let page_size = self.config.page_size;
        self.moved |= 1 << class.0;
        let c = &mut self.classes[class.0 as usize];
        c.alloc_count += 1;
        if let Some(id) = c.free.pop() {
            c.used += 1;
            return Some(id);
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
        let (page, chunk) = (c.pages.len() as u32 - 1, c.per_page - 1 - c.uncarved);
        Some(self.id(class, page, chunk))
    }

    /// Returns a chunk to its class's free list.
    pub fn free(&mut self, id: u32) {
        let class = self.class_of(id);
        self.moved |= 1 << class.0;
        let c = &mut self.classes[class.0 as usize];
        debug_assert!(!c.free.contains(&id), "double free of slab chunk {id:#x}");
        c.used -= 1;
        c.free.push(id);
    }

    /// The class of a chunk id.
    pub(crate) fn class_of(&self, id: u32) -> ClassId {
        ClassId((id >> self.class_shift) as u8)
    }

    /// Where the chunk an id names sits.
    pub fn loc_of(&self, id: u32) -> SlabLoc {
        SlabLoc {
            class: self.class_of(id),
            page: (id & ((1 << self.class_shift) - 1)) >> self.chunk_bits,
            chunk: id & ((1 << self.chunk_bits) - 1),
        }
    }

    /// The id of chunk `chunk` of page `page` of `class`.
    fn id(&self, class: ClassId, page: u32, chunk: u32) -> u32 {
        u32::from(class.0) << self.class_shift | page << self.chunk_bits | chunk
    }

    /// The ids of every chunk of `class` carved so far, page by page.
    pub(crate) fn carved(&self, class: ClassId) -> impl Iterator<Item = u32> + '_ {
        let c = &self.classes[class.0 as usize];
        (0..c.carved()).map(move |i| self.id(class, i / c.per_page, i % c.per_page))
    }

    /// Class, page and byte range within the page of a chunk id.
    fn span(&self, id: u32) -> (usize, usize, Range<usize>) {
        let loc = self.loc_of(id);
        let size = self.classes[loc.class.0 as usize].chunk_size as usize;
        let base = loc.chunk as usize * size;
        (loc.class.0 as usize, loc.page as usize, base..base + size)
    }

    /// Writes `data` at `offset` within the chunk's payload, below its
    /// header.
    pub fn write(&mut self, id: u32, offset: usize, data: &[u8]) {
        let (c, page, chunk) = self.span(id);
        let room = chunk.len() - ITEM_HEADER_SIZE;
        assert!(offset + data.len() <= room, "write outside chunk payload");
        let at = chunk.start + offset;
        self.classes[c].pages[page][at..at + data.len()].copy_from_slice(data);
    }

    /// Reads `len` bytes at `offset` within the chunk.
    pub fn read(&self, id: u32, offset: usize, len: usize) -> &[u8] {
        let (c, page, chunk) = self.span(id);
        assert!(offset + len <= chunk.len(), "read outside chunk");
        let at = chunk.start + offset;
        &self.classes[c].pages[page][at..at + len]
    }

    /// The chunk's payload, every byte below its item header, and the
    /// header: its last [`ITEM_HEADER_SIZE`] bytes.
    pub(crate) fn item(&self, id: u32) -> (&[u8], &[u8; ITEM_HEADER_SIZE]) {
        let (c, page, chunk) = self.span(id);
        let room = chunk.len() - ITEM_HEADER_SIZE;
        let (payload, header) = self.classes[c].pages[page][chunk].split_at(room);
        (payload, header.try_into().expect("a header's bytes"))
    }

    /// The chunk's item header.
    pub(crate) fn header(&self, id: u32) -> &[u8; ITEM_HEADER_SIZE] {
        self.item(id).1
    }

    /// The chunk's item header, to write.
    pub(crate) fn header_mut(&mut self, id: u32) -> &mut [u8; ITEM_HEADER_SIZE] {
        let (c, page, chunk) = self.span(id);
        let bytes = &mut self.classes[c].pages[page][chunk.end - ITEM_HEADER_SIZE..chunk.end];
        bytes.try_into().expect("a header's bytes")
    }

    /// Current seqlock version of the chunk.
    pub fn version(&self, id: u32) -> u64 {
        let loc = self.loc_of(id);
        self.version_at(loc.class, loc.page, loc.chunk)
    }

    /// Bumps the chunk's version and returns the new value. The store
    /// calls this on every mutation that changes the chunk's contents or
    /// liveness (set / in-place arithmetic / touch / delete / eviction /
    /// flush), so a remote bypass reader comparing versions observes any
    /// concurrent write as a mismatch.
    pub fn bump_version(&mut self, id: u32) -> u64 {
        let loc = self.loc_of(id);
        let c = &mut self.classes[loc.class.0 as usize];
        let v = &mut c.versions[(loc.page * c.per_page + loc.chunk) as usize];
        *v += 1;
        *v
    }

    /// Chunks per page of a class.
    pub fn chunks_per_page(&self, class: ClassId) -> u32 {
        self.classes[class.0 as usize].per_page
    }

    /// Raw bytes of one whole chunk addressed by indices (no chunk id
    /// needed), header included: the server's bypass mirror copies the
    /// bytes below the header.
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
        assert_eq!(s.loc_of(a).class, c1);
        assert_eq!(s.loc_of(b).class, c2);
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
                let got = s.alloc(class).map(|id| s.loc_of(id));
                assert_eq!(got, want, "step {step}");
                live[i].extend(want);
            } else {
                let at = next(live[i].len());
                let loc = live[i].swap_remove(at);
                m.used -= 1;
                m.free.push(loc);
                let id = s.id(class, loc.page, loc.chunk);
                s.free(id);
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
