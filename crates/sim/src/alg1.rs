//! Algorithm 1's S1 encoding and the actions that read and write it,
//! written once for every tier that runs the algorithm.
//!
//! §7 bounds a process's state by `log₂(δ) + 6δ + c` bits. The `6δ` are
//! six flags per incident edge, and here they are six bits per *slot*,
//! packed back to back into `u64` words with one pad word past the last
//! ([`words_for`]). A process's slots are its edges in neighbour order.
//! `ekbd-dining`'s `DiningProcess` owns words holding its slots `0..δ`
//! (`BudgetedDiningProcess` wraps one); the packed kernel keeps a shard's
//! processes one after another and hands every call one process's range.
//!
//! Everything of Algorithm 1 that touches the flags is here: the internal
//! guards 2 → 5 → 6 → 9 ([`hungry`], ten slots per load) and the effects
//! of actions 3, 4, 7, 8 and 10. What stays with each tier is what the
//! paper leaves to the model: the header (phase and doorway bit), who is
//! suspected, how and when a send is delivered, and where colours live.
//! The packed kernel is fault-free and answers every suspicion with
//! `false`; the dense processes ask their `SuspicionView`.

use std::ops::Range;

/// `pinged_ij`: a ping to `j` is pending (sent, deferred by `j`, or its
/// ack in flight).
pub const PINGED: u8 = 1 << 0;
/// `ack_ij`: an ack from `j` arrived during the current hungry session,
/// outside the doorway.
pub const ACK: u8 = 1 << 1;
/// `replied_ij`: this hungry session already acked `j` (the ◇2-BW
/// mechanism).
pub const REPLIED: u8 = 1 << 2;
/// `deferred_ij`: a ping from `j` waits until after eating.
pub const DEFERRED: u8 = 1 << 3;
/// `fork_ij`: this side holds the fork shared with `j`.
pub const FORK: u8 = 1 << 4;
/// `token_ij`: this side holds the edge's request token.
pub const TOKEN: u8 = 1 << 5;
/// The six flags of a slot.
pub const ALL: u8 = 0x3f;

/// Slots per guard chunk: ten six-bit fields are the most a `u64` holds.
pub const CHUNK: usize = 10;
/// Bit 0 of each of a chunk's fields, `Σ 1 << 6i`; `REP >> 6k` is the
/// same for a chunk of `CHUNK - k` slots.
pub const REP: u64 = ((1 << (6 * CHUNK)) - 1) / 0x3f;

/// The protocol messages the actions send. The discriminants are the
/// packed kernel's event kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Msg {
    /// Action 2's doorway request.
    Ping = 0,
    /// Actions 3 and 10: a doorway grant.
    Ack = 1,
    /// Action 6: a fork request, which carries the token.
    Request = 2,
    /// Actions 7 and 10: the fork.
    Fork = 3,
}

/// Words that hold `slots` slots, the pad word included. Every access
/// reads the word after the one its slot starts in; the pad keeps that in
/// bounds for the last slot.
pub fn words_for(slots: usize) -> usize {
    (6 * slots).div_ceil(64) + 1
}

/// Flag `f` of every slot in chunk `c`, moved to that slot's `REP` bit.
#[inline]
fn at(c: u64, f: u8) -> u64 {
    c >> f.trailing_zeros()
}

/// Slots `g..g + count` (`count ≤ CHUNK`) in the low `6 · count` bits:
/// one shift across two words.
#[inline]
pub fn load_chunk(words: &[u64], g: usize, count: usize) -> u64 {
    let (w, o) = (g * 6 / 64, (g * 6 % 64) as u32);
    let wide = words[w] as u128 | (words[w + 1] as u128) << 64;
    (wide >> o) as u64 & ((1 << (6 * count)) - 1)
}

/// The six flags of slot `g`.
#[inline]
pub fn flags(words: &[u64], g: usize) -> u8 {
    load_chunk(words, g, 1) as u8
}

/// Whether slot `g` has flag `f`.
#[inline]
pub fn get(words: &[u64], g: usize, f: u8) -> bool {
    flags(words, g) & f != 0
}

/// Sets (`v`) or clears every flag of the mask `f` in slot `g`.
#[inline]
pub fn set(words: &mut [u64], g: usize, f: u8, v: bool) {
    let (w, o) = (g * 6 / 64, (g * 6 % 64) as u32);
    let wide = (f as u128) << o;
    let (low, high) = (wide as u64, (wide >> 64) as u64);
    if v {
        words[w] |= low;
        words[w + 1] |= high;
    } else {
        words[w] &= !low;
        words[w + 1] &= !high;
    }
}

/// Overwrites slot `g` with the low six bits of `f`.
pub fn store(words: &mut [u64], g: usize, f: u8) {
    set(words, g, ALL, false);
    set(words, g, f & ALL, true);
}

/// §3.1's initial placement on slot `g`: the fork at the endpoint with the
/// higher colour, the token at the lower.
pub fn place(words: &mut [u64], g: usize, higher: bool) {
    set(words, g, if higher { FORK } else { TOKEN }, true);
}

/// One pass over `slots`, a chunk per load, on one side of the doorway.
/// Outside: action 2 pings every neighbour neither pinged nor acked, and
/// the result is action 5's guard, every neighbour acked or suspected.
/// Inside: action 6 spends a token on every missing fork, and the result
/// is action 9's guard, every fork held or its holder suspected. `send` is
/// called in slot order, and neither action writes a bit the paired guard
/// reads. `suspected` is asked in slot order, only about slots whose
/// needed bit is clear, and not again once it has said no.
///
/// `hungry` calls it twice with the same closure types; left to the
/// inliner, that one instantiation stays out of line, and `sim-packed`
/// ran ≈ 22 % fewer cycles a second on a 2-core Xeon.
#[inline(always)]
fn pass(
    words: &mut [u64],
    slots: Range<usize>,
    inside: bool,
    mut suspected: impl FnMut(usize) -> bool,
    mut send: impl FnMut(usize, Msg),
) -> bool {
    let (spent, msg, needed) = if inside {
        (TOKEN, Msg::Request, FORK)
    } else {
        (PINGED, Msg::Ping, ACK)
    };
    let (mut g, end) = (slots.start, slots.end);
    let mut every = true;
    while g < end {
        let count = (end - g).min(CHUNK);
        let rep = REP >> (6 * (CHUNK - count));
        let c = load_chunk(words, g, count);
        let mut sending = rep
            & if inside {
                at(c, TOKEN) & !at(c, FORK)
            } else {
                !(at(c, PINGED) | at(c, ACK))
            };
        while sending != 0 {
            let s = g + sending.trailing_zeros() as usize / 6;
            set(words, s, spent, !inside);
            send(s, msg);
            sending &= sending - 1;
        }
        let mut missing = rep & !at(c, needed);
        while every && missing != 0 {
            every = suspected(g + missing.trailing_zeros() as usize / 6);
            missing &= missing - 1;
        }
        g += count;
    }
    every
}

/// The internal guarded commands of a hungry process on `slots`, in
/// enabling order 2 → 5 → 6 → 9. Outside the doorway one pass pings and
/// decides action 5. Entering sets `*inside` and clears `ack` and
/// `replied` on every slot; neither 6 nor 9 reads them, so the process
/// falls through to the inside pass with nothing stale. Returns whether
/// action 9 is enabled: the caller makes the process eat.
#[inline]
pub fn hungry(
    words: &mut [u64],
    slots: Range<usize>,
    inside: &mut bool,
    mut suspected: impl FnMut(usize) -> bool,
    mut send: impl FnMut(usize, Msg),
) -> bool {
    if !*inside {
        if !pass(words, slots.clone(), false, &mut suspected, &mut send) {
            return false;
        }
        *inside = true;
        for g in slots.clone() {
            set(words, g, ACK | REPLIED, false);
        }
    }
    pass(words, slots, true, &mut suspected, &mut send)
}

/// Action 3 (lines 6–10): a ping on slot `g` is deferred inside the
/// doorway or once this session has replied to its sender. Otherwise it is
/// answered and `replied` becomes `reply` (Algorithm 1: "hungry").
/// Returns whether to ack now.
pub fn ping(words: &mut [u64], g: usize, inside: bool, reply: bool) -> bool {
    if inside || get(words, g, REPLIED) {
        set(words, g, DEFERRED, true);
        false
    } else {
        set(words, g, REPLIED, reply);
        true
    }
}

/// Action 4 (lines 11–13): an ack on slot `g` ends the pending ping and is
/// kept only when `useful`, hungry outside the doorway.
pub fn ack(words: &mut [u64], g: usize, useful: bool) {
    set(words, g, ACK, useful);
    set(words, g, PINGED, false);
}

/// Action 7 (lines 21–24): a fork request on slot `g` hands this side the
/// token. The fork goes back at once if it is held and this side is
/// outside the doorway or `outranked` (hungry, with the lower colour).
/// Returns whether to send it.
pub fn request(words: &mut [u64], g: usize, inside: bool, outranked: bool) -> bool {
    set(words, g, TOKEN, true);
    let grant = get(words, g, FORK) && (!inside || outranked);
    if grant {
        set(words, g, FORK, false);
    }
    grant
}

/// Action 8 (lines 25–26): the fork on slot `g` arrives. A duplicate is
/// absorbed: setting a set bit discards it.
pub fn fork(words: &mut [u64], g: usize) {
    set(words, g, FORK, true);
}

/// Action 10's sends (lines 29–35): in slot order, every deferred fork
/// request is granted (token and fork both here: the fork goes) and every
/// deferred ping acked, a slot's fork before its ack.
pub fn exit(words: &mut [u64], slots: Range<usize>, mut send: impl FnMut(usize, Msg)) {
    for g in slots {
        if get(words, g, TOKEN) && get(words, g, FORK) {
            set(words, g, FORK, false);
            send(g, Msg::Fork);
        }
        if get(words, g, DEFERRED) {
            set(words, g, DEFERRED, false);
            send(g, Msg::Ack);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::splitmix;

    /// Bit-at-a-time reads and writes, sharing nothing with `load_chunk`
    /// and `set`.
    fn bit(words: &[u64], g: usize, b: usize) -> bool {
        let i = g * 6 + b;
        words[i / 64] >> (i % 64) & 1 != 0
    }

    fn put_bit(words: &mut [u64], g: usize, b: usize, v: bool) {
        let i = g * 6 + b;
        words[i / 64] &= !(1 << (i % 64));
        words[i / 64] |= (v as u64) << (i % 64);
    }

    fn put_six(words: &mut [u64], g: usize, six: u64) {
        for b in 0..6 {
            put_bit(words, g, b, six >> b & 1 != 0);
        }
    }

    fn seeded(mut rng: u64) -> impl FnMut() -> u64 {
        move || {
            rng = splitmix(rng);
            rng
        }
    }

    #[test]
    fn load_chunk_and_flag_accessors_equal_bitwise_reads_at_every_offset() {
        let slots = 57;
        let mut words = vec![0; words_for(slots)];
        let mut next = seeded(7);
        for g in 0..slots {
            put_six(&mut words, g, next());
        }
        for g in 0..slots {
            for count in 0..=CHUNK.min(slots - g) {
                let mut want = 0u64;
                for i in 0..count {
                    for b in 0..6 {
                        want |= (bit(&words, g + i, b) as u64) << (6 * i + b);
                    }
                }
                assert_eq!(
                    load_chunk(&words, g, count),
                    want,
                    "slot {g}, count {count}"
                );
            }
            let six = (0..6).fold(0u8, |f, b| f | (bit(&words, g, b) as u8) << b);
            assert_eq!(flags(&words, g), six, "slot {g}");
            for f in 1..64u8 {
                let b = f.trailing_zeros() as usize;
                let one = 1 << b;
                assert_eq!(
                    get(&words, g, one),
                    bit(&words, g, b),
                    "slot {g}, flag {one}"
                );
                for v in [false, true] {
                    let before = words.clone();
                    for b in (0..6).filter(|b| f >> b & 1 != 0) {
                        put_bit(&mut words, g, b, v);
                    }
                    let want = std::mem::replace(&mut words, before);
                    set(&mut words, g, f, v);
                    assert_eq!(words, want, "slot {g}, mask {f:#08b}, value {v}");
                }
            }
        }
    }

    const THINKING: u8 = 0;
    const HUNGRY: u8 = 1;
    const EATING: u8 = 2;

    /// One subject: its degree, phase and doorway, and how its random
    /// flags are bent towards what a uniform draw almost never gives at
    /// high degree. Bend bit 0: every neighbour acked; 1: every fork held;
    /// 2: one slot with neither; 3: about a quarter of the neighbours
    /// suspected.
    #[derive(Clone, Copy, Debug)]
    struct Case {
        degree: usize,
        phase: u8,
        inside: bool,
        bend: u64,
    }

    /// What one step of the subject did, slots counted from its first.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        sends: Vec<(usize, Msg)>,
        inside: bool,
        eats: bool,
        flags: Vec<u8>,
    }

    /// Puts the subject's slots after `pad` slots of noise, last in its
    /// words, and runs one step: the internal actions if hungry, action 10
    /// if eating, then one of actions 3, 4, 7 and 8 on every slot. The
    /// noise and the pad word must come out untouched.
    fn step(case: Case, pad: usize) -> Outcome {
        let Case {
            degree,
            phase,
            inside,
            bend,
        } = case;
        let mut words = vec![0; words_for(pad + degree)];
        let mut noise = seeded(pad as u64 ^ 0x0153);
        for g in 0..pad {
            put_six(&mut words, g, noise());
        }
        let quiet = words.clone();
        let mut next =
            seeded((degree as u64) << 8 | (phase as u64) << 5 | (inside as u64) << 4 | bend);
        for j in 0..degree {
            let bent = ((bend & 1) * ACK as u64) | ((bend >> 1 & 1) * FORK as u64);
            put_six(&mut words, pad + j, next() | bent);
        }
        if bend & 4 != 0 && degree > 0 {
            let g = pad + next() as usize % degree;
            set(&mut words, g, ACK | FORK, false);
        }
        let suspects = if bend & 8 != 0 { next() & next() } else { 0 };
        let slots = pad..pad + degree;
        let mut sends = Vec::new();
        let mut now_inside = inside;
        let eats = match phase {
            HUNGRY => hungry(
                &mut words,
                slots.clone(),
                &mut now_inside,
                |g| suspects >> (g - pad) & 1 != 0,
                |g, m| sends.push((g - pad, m)),
            ),
            EATING => {
                exit(&mut words, slots.clone(), |g, m| sends.push((g - pad, m)));
                false
            }
            _ => false,
        };
        let hungry_now = phase == HUNGRY && !eats;
        for g in slots.clone() {
            let answer = match next() % 4 {
                0 => ping(&mut words, g, now_inside, hungry_now).then_some(Msg::Ack),
                1 => {
                    ack(&mut words, g, hungry_now && !now_inside);
                    None
                }
                2 => request(&mut words, g, now_inside, next() & 1 != 0).then_some(Msg::Fork),
                _ => {
                    fork(&mut words, g);
                    None
                }
            };
            sends.extend(answer.map(|m| (g - pad, m)));
        }
        for g in 0..pad {
            let (got, want) = (flags(&words, g), flags(&quiet, g));
            assert_eq!(got, want, "{case:?} at offset {pad}: noise slot {g}");
        }
        assert_eq!(words.last(), Some(&0), "{case:?} at offset {pad}: pad word");
        Outcome {
            sends,
            inside: now_inside,
            eats,
            flags: slots.map(|g| flags(&words, g)).collect(),
        }
    }

    /// The pass and the effects carry no reference copy: the literal
    /// digests and fingerprints pin what they do. What this pins is that
    /// where a process's slots start — which word, which bit, how its
    /// chunks straddle — changes nothing.
    #[test]
    fn every_action_reads_the_same_at_every_bit_offset() {
        let (mut enters, mut eats) = (0, 0);
        for degree in 0..=25 {
            for phase in [THINKING, HUNGRY, EATING] {
                for inside in [false, true] {
                    let bends = if phase == HUNGRY { 16 } else { 1 };
                    for bend in 0..bends {
                        let case = Case {
                            degree,
                            phase,
                            inside,
                            bend,
                        };
                        let want = step(case, 0);
                        for pad in 1..32 {
                            assert_eq!(step(case, pad), want, "{case:?} at offset {pad}");
                        }
                        enters += (phase == HUNGRY && !inside && want.inside) as u32;
                        eats += want.eats as u32;
                    }
                }
            }
        }
        assert!(
            enters > 100 && eats > 100,
            "too few decisions taken: {enters} doorway entries, {eats} eats"
        );
    }
}
