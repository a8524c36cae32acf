//! Packed bit-plane display storage — the word-level state layout behind
//! the hot round loop.
//!
//! A round's displayed symbols are values in `0..d`. Instead of one
//! `usize` per agent, [`PackedDisplays`] stores them across
//! `⌈log₂ d⌉` *bit planes*: plane `p` holds bit `p` of every agent's
//! symbol, 64 agents per `u64` word. For the paper's protocols this is 1
//! plane (SF, binary alphabet) or 2 planes (SSF, `d = 4`) — a 64× (or
//! 32×) density improvement over the scalar vector, and it turns the
//! per-round display histogram into a handful of `popcount`s per 64
//! agents instead of 64 scalar reads.
//!
//! # Layout
//!
//! Words are plane-major: plane `p` occupies
//! `words[p · W .. (p + 1) · W]` where `W = ⌈n / 64⌉`, and agent `i`
//! lives at bit `i % 64` of word `i / 64` in every plane. Bits at
//! positions `≥ n` in the last word of each plane are **always zero** —
//! every mutator maintains this, and the histogram kernels rely on it
//! (symbol 0 is counted by subtraction, so stray tail bits would
//! miscount).
//!
//! # Seams
//!
//! The packed form is the engine's working representation; everything
//! that wants scalar symbols goes through two seams:
//!
//! * [`PackedDisplays::unpack_into`] — materializes the plain
//!   `Vec<usize>` view (the exact channel's literal sampling path, tests,
//!   and any scalar consumer).
//! * [`PackedDisplays::pack_from`] — ingests a scalar display vector
//!   (ports of the round loop that still produce scalar symbols).
//!
//! The snapshot format is untouched by all of this: displays are
//! transient per-round state and were never serialized, so `np-snap/v1`
//! bytes are identical whether the world runs packed or scalar.

use std::ops::Range;

/// Displayed symbols for a whole population, packed across bit planes.
///
/// See the [module docs](self) for the layout and the tail-bit invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedDisplays {
    n: usize,
    d: usize,
    planes: usize,
    /// Plane-major storage, `planes · ⌈n / 64⌉` words.
    words: Vec<u64>,
}

/// Number of bit planes needed for symbols in `0..d`.
fn planes_for(d: usize) -> usize {
    assert!(d >= 1, "alphabet must be nonempty");
    // d symbols need ⌈log₂ d⌉ bits; a 1-symbol alphabet still gets one
    // plane so the chunk machinery has something to split.
    (usize::BITS - (d - 1).max(1).leading_zeros()) as usize
}

impl PackedDisplays {
    /// An all-zero display vector for `n` agents over a `d`-symbol
    /// alphabet.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `d == 0`.
    pub fn new(n: usize, d: usize) -> Self {
        assert!(n > 0, "no agents");
        let planes = planes_for(d);
        let wpp = n.div_ceil(64);
        PackedDisplays {
            n,
            d,
            planes,
            words: vec![0; planes * wpp],
        }
    }

    /// Number of agents.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always `false`: construction rejects `n = 0`.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Alphabet size `d`.
    pub fn alphabet_size(&self) -> usize {
        self.d
    }

    /// Number of bit planes (`⌈log₂ d⌉`, minimum 1).
    pub fn planes(&self) -> usize {
        self.planes
    }

    /// Words per plane (`⌈n / 64⌉`).
    pub fn words_per_plane(&self) -> usize {
        self.n.div_ceil(64)
    }

    /// The displayed symbol of agent `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn get(&self, i: usize) -> usize {
        assert!(i < self.n, "agent {i} out of range {}", self.n);
        let wpp = self.words_per_plane();
        let (w, b) = (i / 64, i % 64);
        let mut sym = 0usize;
        for p in 0..self.planes {
            sym |= (((self.words[p * wpp + w] >> b) & 1) as usize) << p;
        }
        sym
    }

    /// Sets agent `i`'s displayed symbol.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()` or `symbol >= self.alphabet_size()`.
    pub fn set(&mut self, i: usize, symbol: usize) {
        assert!(i < self.n, "agent {i} out of range {}", self.n);
        assert!(symbol < self.d, "symbol {symbol} out of range {}", self.d);
        let wpp = self.words_per_plane();
        let (w, b) = (i / 64, i % 64);
        let bit = 1u64 << b;
        for p in 0..self.planes {
            let word = &mut self.words[p * wpp + w];
            if (symbol >> p) & 1 == 1 {
                *word |= bit;
            } else {
                *word &= !bit;
            }
        }
    }

    /// Zeroes every plane (symbol 0 for everyone).
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Packs a scalar display vector.
    ///
    /// # Panics
    ///
    /// Panics if `displays.len() != self.len()` or any symbol is out of
    /// range.
    pub fn pack_from(&mut self, displays: &[usize]) {
        assert_eq!(displays.len(), self.n, "display vector length mismatch");
        self.clear();
        for (i, &s) in displays.iter().enumerate() {
            self.set(i, s);
        }
    }

    /// Unpacks into a scalar display vector (the seam consumed by the
    /// exact channel's literal sampling path).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.len()`.
    pub fn unpack_into(&self, out: &mut [usize]) {
        assert_eq!(out.len(), self.n, "display vector length mismatch");
        let wpp = self.words_per_plane();
        for (w, chunk) in out.chunks_mut(64).enumerate() {
            for (b, slot) in chunk.iter_mut().enumerate() {
                let mut sym = 0usize;
                for p in 0..self.planes {
                    sym |= (((self.words[p * wpp + w] >> b) & 1) as usize) << p;
                }
                *slot = sym;
            }
        }
    }

    /// The display histogram — `out[σ]` = number of agents displaying
    /// `σ` — computed from plane popcounts: for each nonzero symbol the
    /// planes are AND-combined (complemented where the symbol's bit is
    /// 0) and popcounted; symbol 0 falls out by subtraction, which is
    /// what makes the zero tail-bit invariant load-bearing.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.alphabet_size()`.
    pub fn histogram_into(&self, out: &mut [u64]) {
        assert_eq!(out.len(), self.d, "histogram length mismatch");
        let wpp = self.words_per_plane();
        histogram_words(&self.words, wpp, self.planes, self.n as u64, out);
    }

    /// Splits the population into disjoint word-aligned mutable chunks
    /// (`chunk_len` agents each, the last possibly shorter), pairing the
    /// per-plane word slices that cover each chunk.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len` is zero or not a multiple of 64.
    pub fn chunks_mut(&mut self, chunk_len: usize) -> Vec<PackedChunkMut<'_>> {
        assert!(chunk_len > 0, "empty chunk");
        assert_eq!(chunk_len % 64, 0, "chunk length must be word-aligned");
        let n = self.n;
        let d = self.d;
        let wpc = chunk_len / 64;
        let wpp = self.words_per_plane();
        let num_chunks = n.div_ceil(chunk_len);
        let mut chunks: Vec<PackedChunkMut<'_>> = (0..num_chunks)
            .map(|ci| PackedChunkMut {
                start: ci * chunk_len,
                len: chunk_len.min(n - ci * chunk_len),
                d,
                planes: Vec::with_capacity(self.planes),
            })
            .collect();
        for plane in self.words.chunks_mut(wpp) {
            let mut rest = plane;
            for chunk in chunks.iter_mut() {
                let take = wpc.min(rest.len());
                let (head, tail) = rest.split_at_mut(take);
                chunk.planes.push(head);
                rest = tail;
            }
        }
        chunks
    }
}

/// A disjoint mutable view of one word-aligned agent chunk of a
/// [`PackedDisplays`], safe to hand to a worker thread. Produced by
/// [`PackedDisplays::chunks_mut`]; display kernels [`clear`] it, [`set`]
/// each agent's symbol, then tally their partial histogram with
/// [`histogram_into`] — all without touching any other chunk's words.
///
/// [`clear`]: PackedChunkMut::clear
/// [`set`]: PackedChunkMut::set
/// [`histogram_into`]: PackedChunkMut::histogram_into
#[derive(Debug)]
pub struct PackedChunkMut<'a> {
    start: usize,
    len: usize,
    d: usize,
    /// One word slice per plane, all covering the same agents.
    planes: Vec<&'a mut [u64]>,
}

impl PackedChunkMut<'_> {
    /// Global id of the first agent in this chunk (a multiple of 64).
    pub fn start(&self) -> usize {
        self.start
    }

    /// Alphabet size `d` of the parent [`PackedDisplays`].
    pub fn alphabet_size(&self) -> usize {
        self.d
    }

    /// Number of agents in this chunk.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the chunk covers no agents (never produced by
    /// [`PackedDisplays::chunks_mut`]).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Zeroes the chunk's words in every plane.
    pub fn clear(&mut self) {
        for plane in self.planes.iter_mut() {
            plane.fill(0);
        }
    }

    /// Sets the symbol of the agent at chunk-local index `local`.
    ///
    /// # Panics
    ///
    /// Panics if `local >= self.len()` or the symbol is out of range.
    pub fn set(&mut self, local: usize, symbol: usize) {
        assert!(
            local < self.len,
            "local index {local} out of range {}",
            self.len
        );
        assert!(symbol < self.d, "symbol {symbol} out of range {}", self.d);
        let (w, b) = (local / 64, local % 64);
        let bit = 1u64 << b;
        for (p, plane) in self.planes.iter_mut().enumerate() {
            if (symbol >> p) & 1 == 1 {
                plane[w] |= bit;
            } else {
                plane[w] &= !bit;
            }
        }
    }

    /// Number of 64-bit words per plane in this chunk.
    pub fn words(&self) -> usize {
        self.planes.first().map_or(0, |p| p.len())
    }

    /// Stores one whole word of plane `plane` — the display bits of the
    /// 64 agents at chunk-local indices `word * 64 ..` in one write (the
    /// store behind [`PackedChunkMut::fill_with`]); bits past the
    /// chunk's population (only possible in the final word) are masked
    /// off so the all-tail-zero invariant the popcount histograms rely on
    /// always holds.
    ///
    /// # Panics
    ///
    /// Panics if `plane` or `word` is out of range.
    fn set_plane_word(&mut self, plane: usize, word: usize, bits: u64) {
        assert!(word < self.words(), "word index {word} out of range");
        let valid = self.len - word * 64;
        let mask = if valid >= 64 {
            !0u64
        } else {
            (1u64 << valid) - 1
        };
        self.planes[plane][word] = bits & mask;
    }

    /// Writes the chunk's symbols, one per agent in order, building each
    /// 64-agent word in registers and storing it once per plane — the
    /// display kernel of struct-of-arrays states, which map their lanes
    /// through their record's display rule. Alphabets wider than two
    /// planes fall back to per-agent [`set`].
    ///
    /// [`set`]: PackedChunkMut::set
    ///
    /// # Panics
    ///
    /// Panics (one- and two-plane alphabets) if `symbols` yields fewer
    /// than `self.len()` symbols.
    pub fn fill_with(&mut self, symbols: impl IntoIterator<Item = usize>) {
        let mut symbols = symbols.into_iter();
        match self.planes.len() {
            1 => self.fill_planes::<1>(&mut symbols),
            2 => self.fill_planes::<2>(&mut symbols),
            _ => {
                self.clear();
                for (local, symbol) in symbols.by_ref().take(self.len).enumerate() {
                    self.set(local, symbol);
                }
            }
        }
    }

    fn fill_planes<const P: usize>(&mut self, symbols: &mut impl Iterator<Item = usize>) {
        for w in 0..self.words() {
            let take = (self.len - w * 64).min(64);
            let mut bits = [0u64; P];
            let mut filled = 0;
            for (b, sym) in symbols.by_ref().take(take).enumerate() {
                debug_assert!(sym < self.d, "symbol {sym} out of range {}", self.d);
                for (p, plane) in bits.iter_mut().enumerate() {
                    *plane |= ((sym >> p) as u64 & 1) << b;
                }
                filled += 1;
            }
            assert_eq!(filled, take, "one symbol per agent");
            for (p, &plane) in bits.iter().enumerate() {
                self.set_plane_word(p, w, plane);
            }
        }
    }

    /// The chunk's partial display histogram, **added** into `out` (so
    /// per-worker tallies accumulate without an intermediate buffer).
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the alphabet size.
    pub fn histogram_into(&self, out: &mut [u64]) {
        assert_eq!(out.len(), self.d, "histogram length mismatch");
        let wpp = self.planes.first().map_or(0, |p| p.len());
        // Flatten the plane slices view for the shared word kernel.
        let mut acc = vec![0u64; self.d];
        histogram_planes(&self.planes, wpp, self.len as u64, &mut acc);
        for (slot, c) in out.iter_mut().zip(&acc) {
            *slot += c;
        }
    }
}

/// Word-level histogram kernel over plane-major contiguous storage.
fn histogram_words(words: &[u64], wpp: usize, planes: usize, n: u64, out: &mut [u64]) {
    let views: Vec<&[u64]> = (0..planes)
        .map(|p| &words[p * wpp..(p + 1) * wpp])
        .collect();
    histogram_planes(&views, wpp, n, out);
}

/// The shared popcount tally: counts every nonzero symbol by AND-combining
/// planes (complemented where the symbol's bit is zero) and popcounting,
/// then recovers symbol 0 as `n − Σ`. Correct because tail bits past the
/// population are zero in every plane: any nonzero symbol's combination
/// ANDs in at least one un-complemented plane, zeroing the tail.
fn histogram_planes<W: std::ops::Deref<Target = [u64]>>(
    planes: &[W],
    wpp: usize,
    n: u64,
    out: &mut [u64],
) {
    out.fill(0);
    let d = out.len();
    let mut nonzero_total = 0u64;
    for (sym, slot) in out.iter_mut().enumerate().skip(1) {
        let mut count = 0u64;
        for w in 0..wpp {
            let mut acc = !0u64;
            for (p, plane) in planes.iter().enumerate() {
                let word = plane[w];
                acc &= if (sym >> p) & 1 == 1 { word } else { !word };
            }
            count += u64::from(acc.count_ones());
        }
        *slot = count;
        nonzero_total += count;
    }
    debug_assert!(
        nonzero_total <= n,
        "popcount tally {nonzero_total} exceeds population {n} — tail bits leaked"
    );
    if d > 0 {
        out[0] = n - nonzero_total;
    }
}

/// The world's chunk-sizing rule: word-aligned chunks, roughly four per
/// worker so ragged populations load-balance, never smaller than one
/// word. With one thread the whole population is a single chunk (no
/// scatter overhead on the serial path).
///
/// The single-word floor is load-bearing in the degenerate regime
/// `threads·4 > n/64` (tiny populations, many workers): there
/// `n.div_ceil(threads·4)` rounds up to one 64-agent word, every chunk
/// stays word-aligned, and the surplus workers simply receive no chunk.
/// The floor also covers `n = 0` (e.g. a counts-backend caller probing
/// the rule before populating), where `next_multiple_of(64)` alone would
/// return 0 and violate [`chunk_ranges`]'s non-empty-chunk contract.
pub fn chunk_len_for(n: usize, threads: usize) -> usize {
    if threads <= 1 {
        return n.next_multiple_of(64).max(64);
    }
    n.div_ceil(threads.saturating_mul(4))
        .next_multiple_of(64)
        .max(64)
}

/// Iterator over the word-aligned sub-ranges `chunk_len_for`-style
/// chunking induces on `0..n` — used by callers that need the ranges
/// without holding chunk views.
pub fn chunk_ranges(n: usize, chunk_len: usize) -> impl Iterator<Item = Range<usize>> {
    assert!(chunk_len > 0, "empty chunk");
    (0..n.div_ceil(chunk_len)).map(move |ci| {
        let start = ci * chunk_len;
        start..(start + chunk_len).min(n)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_histogram(displays: &[usize], d: usize) -> Vec<u64> {
        let mut h = vec![0u64; d];
        for &s in displays {
            h[s] += 1;
        }
        h
    }

    #[test]
    fn planes_scale_with_alphabet() {
        assert_eq!(PackedDisplays::new(10, 1).planes(), 1);
        assert_eq!(PackedDisplays::new(10, 2).planes(), 1);
        assert_eq!(PackedDisplays::new(10, 3).planes(), 2);
        assert_eq!(PackedDisplays::new(10, 4).planes(), 2);
        assert_eq!(PackedDisplays::new(10, 5).planes(), 3);
        assert_eq!(PackedDisplays::new(10, 8).planes(), 3);
        assert_eq!(PackedDisplays::new(10, 9).planes(), 4);
    }

    #[test]
    fn get_set_round_trip() {
        let mut p = PackedDisplays::new(130, 4);
        for i in 0..130 {
            p.set(i, i % 4);
        }
        for i in 0..130 {
            assert_eq!(p.get(i), i % 4, "agent {i}");
        }
        // Overwrites fully clear old bits (3 -> 0 must not leave planes
        // dirty).
        p.set(65, 3);
        p.set(65, 0);
        assert_eq!(p.get(65), 0);
    }

    #[test]
    fn pack_unpack_round_trip_with_ragged_tail() {
        // n % 64 != 0 exercises the tail-word invariant.
        let displays: Vec<usize> = (0..197).map(|i| (i * 7) % 4).collect();
        let mut p = PackedDisplays::new(197, 4);
        p.pack_from(&displays);
        let mut back = vec![usize::MAX; 197];
        p.unpack_into(&mut back);
        assert_eq!(back, displays);
    }

    #[test]
    fn histogram_matches_naive_counts() {
        for (n, d) in [
            (64usize, 2usize),
            (100, 2),
            (197, 4),
            (64, 3),
            (1, 4),
            (129, 5),
        ] {
            let displays: Vec<usize> = (0..n).map(|i| (i * 13 + 5) % d).collect();
            let mut p = PackedDisplays::new(n, d);
            p.pack_from(&displays);
            let mut hist = vec![0u64; d];
            p.histogram_into(&mut hist);
            assert_eq!(hist, naive_histogram(&displays, d), "n={n} d={d}");
        }
    }

    #[test]
    fn all_zero_population_counts_in_symbol_zero() {
        let p = PackedDisplays::new(77, 4);
        let mut hist = vec![0u64; 4];
        p.histogram_into(&mut hist);
        assert_eq!(hist, vec![77, 0, 0, 0]);
    }

    #[test]
    fn chunks_cover_population_in_order_and_write_through() {
        let n = 300;
        let mut p = PackedDisplays::new(n, 4);
        let chunks = p.chunks_mut(128);
        let metas: Vec<(usize, usize)> = chunks.iter().map(|c| (c.start(), c.len())).collect();
        assert_eq!(metas, vec![(0, 128), (128, 128), (256, 44)]);
        for mut chunk in chunks {
            let start = chunk.start();
            chunk.clear();
            for local in 0..chunk.len() {
                chunk.set(local, (start + local) % 4);
            }
        }
        for i in 0..n {
            assert_eq!(p.get(i), i % 4, "agent {i}");
        }
    }

    #[test]
    fn fill_with_matches_per_agent_set() {
        // One, two and three planes (the last takes the per-agent
        // fallback), over ragged chunks with dirty planes beforehand.
        for (n, d) in [(197usize, 2usize), (197, 4), (130, 3), (70, 8)] {
            let symbol = |i: usize| (i * 11 + 3) % d;
            let mut want = PackedDisplays::new(n, d);
            let mut got = PackedDisplays::new(n, d);
            for i in 0..n {
                want.set(i, symbol(i));
                got.set(i, d - 1);
            }
            for mut chunk in got.chunks_mut(128) {
                let start = chunk.start();
                chunk.fill_with((start..start + chunk.len()).map(symbol));
            }
            assert_eq!(got, want, "n={n} d={d}");
        }
    }

    #[test]
    fn chunk_histograms_sum_to_global() {
        let n = 197;
        let displays: Vec<usize> = (0..n).map(|i| (i * 3) % 4).collect();
        let mut p = PackedDisplays::new(n, 4);
        p.pack_from(&displays);
        let mut total = vec![0u64; 4];
        for chunk in p.chunks_mut(64) {
            chunk.histogram_into(&mut total); // accumulates
        }
        assert_eq!(total, naive_histogram(&displays, 4));
    }

    #[test]
    #[should_panic(expected = "word-aligned")]
    fn chunks_reject_misaligned_length() {
        let mut p = PackedDisplays::new(100, 2);
        let _ = p.chunks_mut(50);
    }

    #[test]
    #[should_panic(expected = "symbol 2 out of range")]
    fn set_rejects_out_of_alphabet_symbol() {
        let mut p = PackedDisplays::new(10, 2);
        p.set(0, 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn chunk_set_rejects_out_of_alphabet_symbol() {
        let mut p = PackedDisplays::new(64, 2);
        let mut chunks = p.chunks_mut(64);
        chunks[0].set(0, 2);
    }

    #[test]
    fn chunk_len_rule_is_word_aligned_and_covers() {
        for n in [1usize, 63, 64, 65, 4096, 100_000] {
            for threads in [1usize, 2, 4, 7, 16] {
                let c = chunk_len_for(n, threads);
                assert_eq!(c % 64, 0, "n={n} threads={threads}");
                assert!(c > 0);
                let covered: usize = chunk_ranges(n, c).map(|r| r.len()).sum();
                assert_eq!(covered, n, "n={n} threads={threads}");
                let mut expected_start = 0;
                for r in chunk_ranges(n, c) {
                    assert_eq!(r.start, expected_start);
                    expected_start = r.end;
                }
            }
        }
    }

    #[test]
    fn serial_chunking_is_one_chunk() {
        assert_eq!(chunk_len_for(4096, 1), 4096);
        assert_eq!(chunk_ranges(4096, 4096).count(), 1);
    }

    #[test]
    fn chunk_len_degenerate_many_threads_hits_word_floor() {
        // threads·4 > n/64: the rule must bottom out at one 64-agent word,
        // never 0, and surplus workers get no chunk rather than an empty
        // one.
        for n in [1usize, 63, 64, 65, 128, 500] {
            for threads in [8usize, 64, 1024, usize::MAX / 4, usize::MAX] {
                let c = chunk_len_for(n, threads);
                assert_eq!(c, 64, "n={n} threads={threads}");
                let covered: usize = chunk_ranges(n, c).map(|r| r.len()).sum();
                assert_eq!(covered, n);
                assert!(chunk_ranges(n, c).all(|r| !r.is_empty()));
                assert_eq!(chunk_ranges(n, c).count(), n.div_ceil(64));
            }
        }
    }

    #[test]
    fn chunk_len_zero_population_is_safe() {
        // n = 0 must still yield a positive (word-sized) chunk length so
        // `chunk_ranges`'s non-empty-chunk assert cannot trip; the induced
        // range set is simply empty.
        for threads in [1usize, 2, 16] {
            let c = chunk_len_for(0, threads);
            assert_eq!(c, 64, "threads={threads}");
            assert_eq!(chunk_ranges(0, c).count(), 0);
        }
    }
}
