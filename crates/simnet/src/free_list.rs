//! A bounded LIFO free list: the one pool type behind every buffer or
//! record a layer keeps idle for its next use (DESIGN.md §4.3). It grows as
//! items come back, and what a user makes when it is empty stays the
//! user's.

use std::cell::{Ref, RefCell};
use std::rc::{Rc, Weak};

use crate::lent::Lent;

/// At most `cap` idle items, the one given back last lent first; one coming
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

    /// The item given back last, if one is idle and `fits` it; otherwise
    /// the list is left as it was.
    pub fn take_if(&self, fits: impl FnOnce(&T) -> bool) -> Option<T> {
        let mut idle = self.idle.borrow_mut();
        idle.pop_if(|item| fits(item))
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

    /// The idle items, in the order they came back.
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

    /// A copy of `data` lent out of this list: in the idle buffer given
    /// back last if its capacity is at least `data`'s length and under
    /// twice it, so a small copy never pins a large buffer, or else in a
    /// fresh buffer of exactly that length. Empty data takes no buffer.
    pub fn lend(self: &Rc<Self>, data: &[u8]) -> Lent {
        let mut buf = match data.len() {
            0 => Vec::new(),
            len => {
                let fits = len..len.saturating_mul(2);
                let idle = self.take_if(|buf| fits.contains(&buf.capacity()));
                idle.unwrap_or_else(|| Vec::with_capacity(len))
            }
        };
        buf.extend_from_slice(data);
        let home: Weak<Self> = Rc::downgrade(self);
        Lent::new(buf, home)
    }
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
        (0..2).for_each(|i| list.give_back(i));
        assert_eq!(
            list.take_if(|&i| i == 0),
            None,
            "only the last is looked at"
        );
        assert_eq!((list.take_if(|&i| i == 1), list.len()), (Some(1), 1));
        let bytes = FreeList::of_bytes(2, 64);
        bytes.give_back_bytes(Vec::with_capacity(65));
        assert!(bytes.is_empty(), "grown past the keep bound, freed");
        let used = b"used".to_vec();
        let at = used.as_ptr();
        bytes.give_back_bytes(used);
        let reused = bytes.take().expect("kept");
        assert_eq!((reused.as_ptr(), reused.len()), (at, 0), "emptied");
    }
}
