//! Per-slot lists over one pool of fixed-size chunks.
//!
//! Both event wheels — the dense engine's [`WheelQueue`](crate::event) and
//! the packed kernel's per-shard wheel — keep one list of events per tick
//! slot. A buffer per slot would keep the capacity of the largest burst
//! that slot ever held, so a wheel's memory would grow with its history
//! rather than with what it holds. Here every list is a chain of chunks of
//! `CHUNK` items taken from one shared free list, and a chunk goes back to
//! that list as soon as its slot is drained. A slot holds memory only
//! while it holds items, so the chunks a store ever allocates are bounded
//! by its pending high-water mark (see [`SlotStore`]).

use std::mem;

/// No chunk: the end of a chain, or an empty slot.
const NIL: u32 = u32::MAX;

/// A slot's newest chunk and how many items that chunk holds; every older
/// chunk of the slot is full.
#[derive(Clone, Copy)]
struct Top {
    chunk: u32,
    len: u32,
}

/// An empty slot. Its newest chunk counts as full, so a push allocates.
const EMPTY: Top = Top {
    chunk: NIL,
    len: u32::MAX,
};

/// Up to `CHUNK` items in place, and the link to the chunk filled before.
struct Chunk<T, const CHUNK: usize> {
    /// The slot's items in push order: the first `Top::len` of the newest
    /// chunk, all of an older one. The rest are `T::default()`.
    items: [T; CHUNK],
    /// The slot's previous (full) chunk, or the next free chunk.
    next: u32,
}

/// `slots` lists of `T`, built from `CHUNK`-item chunks.
///
/// A slot's chain starts at its newest chunk, and every chunk behind that
/// one is full. A list is only ever consumed whole — drained newest first
/// ([`drain_newest_first`](Self::drain_newest_first)), taken when it holds
/// a single item ([`take_single`](Self::take_single)), or cleared — so a
/// slot of `n` items holds exactly `⌈n / CHUNK⌉` chunks, free chunks are
/// reused before new ones are allocated, and the chunks a store ever
/// allocates never exceed `⌈pending / CHUNK⌉ + occupied slots` at its
/// fullest moment. A vacated place holds `T::default()` (`None` for a
/// store of `Option`s).
pub(crate) struct SlotStore<T, const CHUNK: usize> {
    top: Box<[Top]>,
    /// Every chunk ever allocated.
    chunks: Vec<Chunk<T, CHUNK>>,
    /// Most recently freed chunk (reused first, so it is likely cached).
    free: u32,
    /// Items held, all slots together.
    len: usize,
}

impl<T: Default, const CHUNK: usize> SlotStore<T, CHUNK> {
    /// A store of `slots` empty lists; allocates no chunk yet.
    pub(crate) fn new(slots: usize) -> Self {
        assert!(
            CHUNK > 0 && CHUNK < NIL as usize,
            "a chunk holds at least one item"
        );
        SlotStore {
            top: vec![EMPTY; slots].into_boxed_slice(),
            chunks: Vec::new(),
            free: NIL,
            len: 0,
        }
    }

    /// Appends `item` to the list of `slot`.
    #[inline]
    pub(crate) fn push(&mut self, slot: usize, item: T) {
        let mut top = self.top[slot];
        if top.len as usize >= CHUNK {
            top = Top {
                chunk: self.alloc(top.chunk),
                len: 0,
            };
        }
        self.chunks[top.chunk as usize].items[top.len as usize] = item;
        self.top[slot] = Top {
            chunk: top.chunk,
            len: top.len + 1,
        };
        self.len += 1;
    }

    /// Whether `slot` holds no item.
    #[inline]
    pub(crate) fn is_empty(&self, slot: usize) -> bool {
        self.top[slot].chunk == NIL
    }

    /// Number of slots.
    #[inline]
    pub(crate) fn slot_count(&self) -> usize {
        self.top.len()
    }

    /// Items held, all slots together.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Removes and returns the item of `slot` if it holds exactly one;
    /// otherwise leaves the slot as it is and returns `None`.
    #[inline]
    pub(crate) fn take_single(&mut self, slot: usize) -> Option<T> {
        let top = self.top[slot];
        if top.len != 1 {
            return None;
        }
        let chunk = &mut self.chunks[top.chunk as usize];
        if chunk.next != NIL {
            return None;
        }
        let item = mem::take(&mut chunk.items[0]);
        self.top[slot] = EMPTY;
        self.release(top.chunk);
        self.len -= 1;
        Some(item)
    }

    /// Moves every item of `slot` to the end of `out`, the last pushed
    /// first, and frees the slot's chunks.
    pub(crate) fn drain_newest_first(&mut self, slot: usize, out: &mut Vec<T>) {
        let Top { mut chunk, len } = mem::replace(&mut self.top[slot], EMPTY);
        let mut held = len as usize;
        while chunk != NIL {
            let c = &mut self.chunks[chunk as usize];
            self.len -= held;
            out.extend(c.items[..held].iter_mut().rev().map(mem::take));
            let older = c.next;
            self.release(chunk);
            (chunk, held) = (older, CHUNK);
        }
    }

    /// Drops every item of every slot; the chunks stay for reuse.
    pub(crate) fn clear(&mut self) {
        for slot in 0..self.top.len() {
            let mut c = mem::replace(&mut self.top[slot], EMPTY).chunk;
            while c != NIL {
                let chunk = &mut self.chunks[c as usize];
                chunk.items.iter_mut().for_each(|item| *item = T::default());
                let older = chunk.next;
                self.release(c);
                c = older;
            }
        }
        self.len = 0;
    }

    /// Chunks allocated so far: the store's high-water mark, in chunks.
    #[cfg(test)]
    pub(crate) fn retained_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Bytes the store holds: every chunk, and the per-slot table.
    pub(crate) fn retained_bytes(&self) -> usize {
        self.chunks.len() * size_of::<Chunk<T, CHUNK>>() + self.top.len() * size_of::<Top>()
    }

    /// An empty chunk linked to `older`: the free list's first, or a new
    /// one.
    #[inline]
    fn alloc(&mut self, older: u32) -> u32 {
        let c = self.free;
        if c != NIL {
            self.free = mem::replace(&mut self.chunks[c as usize].next, older);
            return c;
        }
        let c = u32::try_from(self.chunks.len())
            .ok()
            .filter(|&c| c != NIL)
            .expect("fewer than 2^32 - 1 chunks");
        self.chunks.push(Chunk {
            items: std::array::from_fn(|_| T::default()),
            next: older,
        });
        c
    }

    /// Puts chunk `c`, whose items are gone, at the front of the free list.
    #[inline]
    fn release(&mut self, c: u32) {
        self.chunks[c as usize].next = self.free;
        self.free = c;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// A seeded xorshift stream.
    fn stream(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// Random push, drain, take-single and clear operations over `slots`
    /// lists, checked after every step against a `Vec<VecDeque>` model; the
    /// chunks ever allocated never exceed what the fullest moment needs.
    fn matches_the_model<const CHUNK: usize>(seed: u64, slots: usize, steps: usize) {
        let mut next = stream(seed);
        let mut store: SlotStore<u64, CHUNK> = SlotStore::new(slots);
        let mut model: Vec<VecDeque<u64>> = vec![VecDeque::new(); slots];
        let (mut pending_hw, mut occupied_hw) = (0usize, 0usize);
        let mut out = Vec::new();
        for step in 0..steps {
            let slot = (next() % slots as u64) as usize;
            match next() % 100 {
                // Bursts into a few hot slots, as a tick's fan-out does.
                0..=59 => {
                    for _ in 0..1 + next() % 12 {
                        let item = next();
                        store.push(slot, item);
                        model[slot].push_back(item);
                    }
                }
                60..=79 => {
                    out.clear();
                    store.drain_newest_first(slot, &mut out);
                    assert!(
                        out.iter().eq(model[slot].iter().rev()),
                        "seed {seed} step {step}"
                    );
                    model[slot].clear();
                }
                80..=98 => {
                    let want = if model[slot].len() == 1 {
                        model[slot].pop_front()
                    } else {
                        None
                    };
                    assert_eq!(store.take_single(slot), want, "seed {seed} step {step}");
                }
                _ => {
                    store.clear();
                    model.iter_mut().for_each(VecDeque::clear);
                }
            }
            let pending: usize = model.iter().map(VecDeque::len).sum();
            let occupied = model.iter().filter(|l| !l.is_empty()).count();
            pending_hw = pending_hw.max(pending);
            occupied_hw = occupied_hw.max(occupied);
            assert_eq!(store.len(), pending, "seed {seed} step {step}");
            for (s, list) in model.iter().enumerate() {
                assert_eq!(store.is_empty(s), list.is_empty(), "seed {seed} slot {s}");
            }
            assert!(
                store.retained_chunks() <= pending_hw.div_ceil(CHUNK) + occupied_hw,
                "seed {seed} step {step}: {} chunks for a high-water of {pending_hw} items \
                 in {occupied_hw} slots",
                store.retained_chunks()
            );
        }
        for (s, list) in model.iter().enumerate() {
            out.clear();
            store.drain_newest_first(s, &mut out);
            assert!(
                out.iter().eq(list.iter().rev()),
                "seed {seed} final slot {s}"
            );
        }
        assert_eq!(store.len(), 0);
    }

    #[test]
    fn slot_store_matches_a_vec_of_deques() {
        for seed in 1..=16u64 {
            let seed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            matches_the_model::<1>(seed, 7, 2_000);
            matches_the_model::<4>(seed, 33, 4_000);
            matches_the_model::<8>(seed, 64, 4_000);
            matches_the_model::<64>(seed, 5, 2_000);
        }
    }

    #[test]
    fn freed_chunks_are_reused_before_new_ones() {
        let mut store: SlotStore<u32, 4> = SlotStore::new(8);
        let mut out = Vec::new();
        for round in 0..1_000u32 {
            let slot = (round % 8) as usize;
            for i in 0..10 {
                store.push(slot, i);
            }
            out.clear();
            store.drain_newest_first(slot, &mut out);
            assert_eq!(out, (0..10).rev().collect::<Vec<_>>());
            store.push(slot, round);
            assert_eq!(store.take_single(slot), Some(round));
        }
        assert_eq!(
            store.retained_chunks(),
            3,
            "one burst of 10 needs 3 chunks of 4"
        );
    }

    #[test]
    fn items_leave_with_their_slot_or_the_store() {
        use std::rc::Rc;
        let token = Rc::new(());
        let mut store: SlotStore<Option<Rc<()>>, 4> = SlotStore::new(3);
        for slot in 0..3 {
            for _ in 0..6 {
                store.push(slot, Some(token.clone()));
            }
        }
        let mut out = Vec::new();
        store.drain_newest_first(1, &mut out);
        assert_eq!(Rc::strong_count(&token), 1 + 3 * 6);
        drop(out);
        store.clear();
        assert_eq!(Rc::strong_count(&token), 1);
        store.push(2, Some(token.clone()));
        drop(store);
        assert_eq!(Rc::strong_count(&token), 1);
    }
}
