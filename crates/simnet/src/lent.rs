//! Bytes lent out of a pool: the caller reads them as a `&[u8]`, and they
//! go back to the pool they came from when the caller drops them
//! (DESIGN.md §4.3). A UCR payload and a memcached client's value are both
//! this type, so a warm get hands its caller a buffer the last one gave
//! back instead of allocating one.

use std::fmt;
use std::ops::Deref;
use std::rc::Weak;

use crate::free_list::FreeList;

/// A pool that takes back the bytes of a [`Lent`] its holder dropped.
pub trait Lender {
    /// Takes back `bytes`, a dropped loan's buffer with its capacity: to
    /// keep for the next loan, or to free under the pool's own bounds.
    fn take_back(&self, bytes: Vec<u8>);
}

/// A list of byte buffers keeps what comes back under its cap and keep
/// bound.
impl Lender for FreeList<Vec<u8>> {
    fn take_back(&self, bytes: Vec<u8>) {
        self.give_back_bytes(bytes);
    }
}

/// Bytes that belong to a pool while their holder reads them. Dropping them
/// gives the buffer back to its pool, if the pool is still there; a loan
/// that outlives its pool frees its bytes. [`into_vec`](Lent::into_vec)
/// keeps them instead, and a clone is a copy of its own with no pool.
/// Lending holds the pool weakly and allocates nothing; empty bytes hold no
/// buffer and go back to no pool.
#[derive(Default)]
pub struct Lent {
    bytes: Vec<u8>,
    /// The pool the bytes go back to; `None` for bytes of their own.
    home: Option<Weak<dyn Lender>>,
}

impl Lent {
    /// `bytes` lent out of the pool `home` points to.
    pub fn new(bytes: Vec<u8>, home: Weak<dyn Lender>) -> Lent {
        Lent {
            bytes,
            home: Some(home),
        }
    }

    /// Takes the bytes out, for a caller that keeps them: the buffer is the
    /// one lent, and it goes back to no pool.
    pub fn into_vec(mut self) -> Vec<u8> {
        std::mem::take(&mut self.bytes)
    }
}

impl Drop for Lent {
    fn drop(&mut self) {
        if self.bytes.capacity() == 0 {
            return;
        }
        if let Some(home) = self.home.as_ref().and_then(Weak::upgrade) {
            home.take_back(std::mem::take(&mut self.bytes));
        }
    }
}

/// Bytes of their own, lent by no pool.
impl From<Vec<u8>> for Lent {
    fn from(bytes: Vec<u8>) -> Lent {
        Lent { bytes, home: None }
    }
}

impl Deref for Lent {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes
    }
}

impl AsRef<[u8]> for Lent {
    fn as_ref(&self) -> &[u8] {
        &self.bytes
    }
}

/// A copy of the bytes, with no pool to go back to.
impl Clone for Lent {
    fn clone(&self) -> Lent {
        Lent::from(self.bytes.clone())
    }
}

impl fmt::Debug for Lent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.bytes.fmt(f)
    }
}

impl PartialEq for Lent {
    fn eq(&self, other: &Lent) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for Lent {}

/// Compares the bytes with `$other`'s, either way round, whatever pool
/// they came from.
macro_rules! eq_bytes {
    ($($(#[$n:ident])? $other:ty,)*) => {$(
        impl<$(const $n: usize)?> PartialEq<$other> for Lent {
            fn eq(&self, other: &$other) -> bool {
                self.bytes[..] == other[..]
            }
        }

        impl<$(const $n: usize)?> PartialEq<Lent> for $other {
            fn eq(&self, other: &Lent) -> bool {
                self[..] == other.bytes[..]
            }
        }
    )*};
}

eq_bytes! {
    [u8],
    &[u8],
    Vec<u8>,
    #[N] [u8; N],
    #[N] &[u8; N],
}

#[cfg(test)]
mod tests {
    use std::rc::Rc;

    use super::*;

    #[test]
    fn a_dropped_loan_goes_home_and_a_kept_or_cloned_one_does_not() {
        let pool = Rc::new(FreeList::of_bytes(4, 64));
        let lent = pool.lend(b"value");
        let at = lent.as_ptr();
        assert_eq!(lent, *b"value");
        assert_eq!(lent, b"value");
        assert_eq!(lent, b"value".to_vec());
        assert_eq!(lent, &b"value"[..]);
        assert_eq!(b"value".to_vec(), lent);
        assert_eq!(format!("{lent:?}"), format!("{:?}", b"value".to_vec()));
        let copy = lent.clone();
        assert_ne!(copy.as_ptr(), at, "a copy of its own");
        drop(copy);
        assert!(pool.is_empty(), "a clone went back to no pool");
        drop(lent);
        assert_eq!(pool.len(), 1);
        let again = pool.lend(b"other");
        assert_eq!((again.as_ptr(), &again[..]), (at, &b"other"[..]), "reused");
        let kept = again.into_vec();
        assert_eq!((kept.as_ptr(), pool.len()), (at, 0), "kept, not given back");
        drop(pool.lend(b""));
        assert!(pool.is_empty(), "empty bytes hold no buffer");
    }

    /// The pool is held weakly: a loan keeps no pool alive, and one that
    /// outlives its pool is still readable and frees its bytes when dropped
    /// (`tests/alloc_budget.rs` counts them freed).
    #[test]
    fn a_loan_that_outlives_its_pool_keeps_no_pool_alive() {
        let pool = Rc::new(FreeList::of_bytes(4, 64));
        let lent = pool.lend(b"value");
        let home = Rc::downgrade(&pool);
        drop(pool);
        assert_eq!(home.strong_count(), 0, "the loan kept no pool alive");
        assert_eq!(lent, b"value", "still readable");
    }
}
