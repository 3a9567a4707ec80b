//! A generation-checked slab: the one table type behind everything that is
//! created and retired once per event, task or message.
//!
//! The engine keeps its timers and tasks in one; the layers above keep what
//! is in flight — a verbs work request, a socket segment, a staged reply —
//! in one per owner and name the entry in a targeted event's token
//! ([`Sim::schedule_target_at`](crate::Sim::schedule_target_at)). Slots are
//! reused, so a table that has reached its working size never allocates
//! again.

/// Address of a slab entry: the slot, and the slot's generation when the
/// entry was inserted. A key outlives its entry harmlessly — once the entry is
/// removed the generation moves on and the key resolves to nothing, even after
/// the slot is reused.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SlabKey {
    pub(crate) slot: u32,
    pub(crate) generation: u32,
}

impl SlabKey {
    /// The key as one word, to travel as an event token.
    pub fn token(self) -> u64 {
        u64::from(self.slot) << 32 | u64::from(self.generation)
    }

    /// The key [`token`](SlabKey::token) was made from.
    pub fn from_token(token: u64) -> SlabKey {
        SlabKey {
            slot: (token >> 32) as u32,
            generation: token as u32,
        }
    }
}

/// A `Vec` of reusable slots addressed by [`SlabKey`].
pub struct Slab<T> {
    pub(crate) slots: Vec<(u32, Option<T>)>,
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab::new()
    }
}

impl<T> Slab<T> {
    /// An empty slab.
    pub fn new() -> Slab<T> {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Stores `value` and returns the key it lives under.
    pub fn insert(&mut self, value: T) -> SlabKey {
        self.insert_with(|_| value)
    }

    /// Stores the value `make` builds from the key it will live under.
    pub fn insert_with(&mut self, make: impl FnOnce(SlabKey) -> T) -> SlabKey {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push((0, None));
            (self.slots.len() - 1) as u32
        });
        let entry = &mut self.slots[slot as usize];
        let key = SlabKey {
            slot,
            generation: entry.0,
        };
        entry.1 = Some(make(key));
        key
    }

    /// The entry under `key`, if it is still there.
    pub fn get_mut(&mut self, key: SlabKey) -> Option<&mut T> {
        match self.slots.get_mut(key.slot as usize) {
            Some((generation, value)) if *generation == key.generation => value.as_mut(),
            _ => None,
        }
    }

    /// True while the entry inserted under `key` has not been removed.
    pub fn contains(&self, key: SlabKey) -> bool {
        self.slots
            .get(key.slot as usize)
            .is_some_and(|(generation, value)| *generation == key.generation && value.is_some())
    }

    /// Takes the entry out and retires its key.
    pub fn remove(&mut self, key: SlabKey) -> Option<T> {
        let (generation, value) = self.slots.get_mut(key.slot as usize)?;
        if *generation != key.generation {
            return None;
        }
        let value = value.take()?;
        *generation = generation.wrapping_add(1);
        self.free.push(key.slot);
        Some(value)
    }

    /// Takes every live entry out and retires its key, as
    /// [`remove`](Slab::remove) does one at a time.
    pub fn drain(&mut self) -> impl Iterator<Item = T> + '_ {
        let free = &mut self.free;
        let slots = self.slots.iter_mut().enumerate();
        slots.filter_map(move |(slot, (generation, value))| {
            let value = value.take()?;
            *generation = generation.wrapping_add(1);
            free.push(slot as u32);
            Some(value)
        })
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// True when no entry is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_retired_key_resolves_to_nothing_even_after_reuse() {
        let mut slab = Slab::new();
        let old = slab.insert("first");
        assert_eq!(slab.remove(old), Some("first"));
        let new = slab.insert("second");
        assert_eq!(slab.slots.len(), 1, "the slot is reused");
        assert_ne!(old, new);
        assert!(!slab.contains(old) && slab.contains(new));
        assert_eq!(slab.remove(old), None);
        assert_eq!(slab.get_mut(new).copied(), Some("second"));
        assert_eq!(slab.len(), 1);
    }

    #[test]
    fn a_key_survives_the_trip_through_a_token() {
        let mut slab = Slab::new();
        let keys: Vec<SlabKey> = (0..5).map(|i| slab.insert(i)).collect();
        slab.remove(keys[3]);
        let again = slab.insert(9);
        for key in keys.iter().copied().chain([again]) {
            assert_eq!(SlabKey::from_token(key.token()), key);
        }
        assert_eq!((slab.len(), slab.is_empty()), (5, false));
    }

    #[test]
    fn drain_retires_every_key() {
        let mut slab = Slab::new();
        let keys: Vec<SlabKey> = (0..4).map(|i| slab.insert(i)).collect();
        slab.remove(keys[1]);
        let mut drained: Vec<_> = slab.drain().collect();
        drained.sort_unstable();
        assert_eq!((drained, slab.len()), (vec![0, 2, 3], 0));
        let again = slab.insert(9);
        assert_eq!(slab.slots.len(), 4, "the slots are reused");
        assert!(keys.iter().all(|&old| !slab.contains(old) && old != again));
    }
}
