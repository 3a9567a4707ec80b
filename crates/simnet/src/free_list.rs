//! A bounded LIFO free list: the one pool type behind every buffer or
//! record a layer keeps idle for its next use (DESIGN.md §4.3). It grows as
//! items come back, and what a user makes when it is empty stays the
//! user's.

use std::cell::{Ref, RefCell};
use std::rc::{Rc, Weak};

use crate::lent::Lent;

/// At most `cap` idle items, the one given back last taken first (a copy
/// [`lend`](FreeList::lend)s the most recent one that fits it); one coming
/// back to a full list is dropped. A list of byte buffers also has a keep
/// bound: a buffer comes back emptied, and one grown past the bound is freed.
pub struct FreeList<T> {
    idle: RefCell<Vec<T>>,
    cap: usize,
    keep: usize,
}

impl<T> FreeList<T> {
    /// An empty list that keeps at most `cap` idle items.
    pub fn new(cap: usize) -> FreeList<T> {
        let idle = RefCell::new(Vec::new());
        let keep = usize::MAX;
        FreeList { idle, cap, keep }
    }

    /// The item given back last, if any is idle.
    pub fn take(&self) -> Option<T> {
        self.idle.borrow_mut().pop()
    }

    /// Keeps `item` while fewer than the cap are idle, drops it otherwise.
    pub fn give_back(&self, item: T) {
        let mut idle = self.idle.borrow_mut();
        if idle.len() < self.cap {
            idle.push(item);
        }
    }

    /// Number of idle items.
    pub fn len(&self) -> usize {
        self.idle.borrow().len()
    }

    /// True when no item is idle.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The idle items, the one given back last at the end.
    pub fn idle(&self) -> Ref<'_, [T]> {
        Ref::map(self.idle.borrow(), Vec::as_slice)
    }
}

impl FreeList<Vec<u8>> {
    /// An empty list of at most `cap` idle buffers, none with capacity past
    /// `keep`.
    pub fn of_bytes(cap: usize, keep: usize) -> FreeList<Vec<u8>> {
        FreeList {
            keep,
            ..FreeList::new(cap)
        }
    }

    /// Keeps `buf`, emptied, unless the list is full or its capacity passed
    /// the keep bound.
    pub fn give_back_bytes(&self, mut buf: Vec<u8>) {
        if buf.capacity() <= self.keep {
            buf.clear();
            self.give_back(buf);
        }
    }

    /// A copy of `data` lent out of this list: in the idle buffer that
    /// [`take_fitting`] picks for its length, or else in a fresh buffer of
    /// exactly that length. Empty data takes no buffer.
    pub fn lend(self: &Rc<Self>, data: &[u8]) -> Lent {
        let mut buf = match data.len() {
            0 => Vec::new(),
            len => {
                let idle = take_fitting(&mut self.idle.borrow_mut(), len);
                idle.unwrap_or_else(|| Vec::with_capacity(len))
            }
        };
        buf.extend_from_slice(data);
        let home: Weak<Self> = Rc::downgrade(self);
        Lent::new(buf, home)
    }
}

/// Takes out of `idle` the buffer given back most recently whose capacity
/// is at least `len` and under twice it, so a small payload never pins a
/// large buffer: the search of every byte pool. The last buffer moves into
/// the taken one's place.
pub fn take_fitting(idle: &mut Vec<Vec<u8>>, len: usize) -> Option<Vec<u8>> {
    let fits = len..len.saturating_mul(2);
    let at = idle
        .iter()
        .rposition(|buf| fits.contains(&buf.capacity()))?;
    Some(idle.swap_remove(at))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_list_lends_the_last_item_back_and_keeps_its_cap_and_keep_bound() {
        let list = FreeList::new(2);
        (0..3).for_each(|i| list.give_back(i));
        assert_eq!(*list.idle(), [0, 1], "past the cap, dropped");
        assert_eq!(
            (list.take(), list.take(), list.take()),
            (Some(1), Some(0), None)
        );
        let bytes = FreeList::of_bytes(2, 64);
        bytes.give_back_bytes(Vec::with_capacity(65));
        assert!(bytes.is_empty(), "grown past the keep bound, freed");
        let used = b"used".to_vec();
        let at = used.as_ptr();
        bytes.give_back_bytes(used);
        let reused = bytes.take().expect("kept");
        assert_eq!((reused.as_ptr(), reused.len()), (at, 0), "emptied");
    }

    /// Values of two sizes lent by turns each find the buffer the last one
    /// of their size went back in, though the other size went back since.
    #[test]
    fn alternating_sizes_each_reuse_their_own_buffer() {
        let pool = Rc::new(FreeList::of_bytes(4, usize::MAX));
        let (small, large) = (vec![1u8; 100], vec![2u8; 10_000]);
        let mut seen = Vec::new();
        for _ in 0..50 {
            for data in [&small, &large] {
                let lent = pool.lend(data);
                assert_eq!(&lent[..], &data[..]);
                seen.push(lent.as_ptr());
            }
        }
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 2, "one buffer per size, each reused");
    }
}
