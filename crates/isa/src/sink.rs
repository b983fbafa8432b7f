//! Lazy op-stream generation.
//!
//! Workload kernels are ordinary Rust functions that *emit* operations into
//! a [`Sink`]; the machine layer *consumes* them through a [`ThreadStream`].
//! Generation runs on a dedicated OS thread per simulated processor, handing
//! over one chunk at a time, so multi-million-op streams are never
//! materialized in memory, yet kernels read like the loops they model
//! instead of hand-written state machines.
//!
//! Ops cross a rendezvous channel in chunks of `CHUNK_OPS` and are then read
//! *in place*: [`ThreadStream::pending`] lends the consumer a slice of the
//! very buffer the kernel filled, and [`ThreadStream::consume`] moves a
//! cursor over it, so an op is written once (by the kernel) and never
//! copied on its way to the core that executes it. The channel holds
//! nothing: a full chunk waits in [`Sink`] until the consumer takes it, and
//! the generator fills the next one while the consumer reads (double
//! buffering). A stream therefore holds at most two chunks — the one being
//! read and the one being filled or waiting — which at 16 bytes an [`Op`]
//! is 2 × 128 KiB = 256 KiB, plus the lookahead of
//! [`ThreadStream::peek_at`] while one is buffered.
//!
//! Streams are fully deterministic: a kernel's output depends only on its
//! own parameters, never on simulation timing. This is what lets the
//! workspace uphold the paper's "same binaries on every platform" rule — an
//! integration test asserts identical op counts on all platforms.
//!
//! # Examples
//!
//! ```
//! use flashsim_isa::sink::{spawn_stream, Sink};
//! use flashsim_isa::op::{OpClass, VAddr};
//!
//! let mut stream = spawn_stream(|sink: &mut Sink| {
//!     for i in 0..4u64 {
//!         sink.load(VAddr(i * 8));
//!         sink.alu(1);
//!     }
//! });
//! let ops: Vec<_> = std::iter::from_fn(|| stream.next_op()).collect();
//! assert_eq!(ops.len(), 8);
//! assert_eq!(ops[0].class, OpClass::Load);
//! ```

use crate::op::{Op, OpClass, Reg, VAddr};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;

/// Ops per hand-over. Large enough to amortize channel overhead (1024-op
/// chunks cost every benchmark workload 10–30 %), small enough to bound
/// memory: a stream holds two chunks of 128 KiB, the one being read and
/// the one being filled (queueing two more full chunks was no faster on
/// any benchmark workload and held a third more memory at 64 streams).
const CHUNK_OPS: usize = 8192;

/// First register handed out by the rotating allocator; registers below
/// this are reserved for kernel-managed dependence chains.
const ROTATE_FIRST: u8 = 8;

/// The emit side of a thread's op stream, handed to workload kernels.
#[derive(Debug)]
pub struct Sink {
    tx: Option<SyncSender<Vec<Op>>>,
    buf: Vec<Op>,
    live: bool,
    rotate: u8,
    next_barrier: u32,
}

impl Sink {
    fn new(tx: SyncSender<Vec<Op>>) -> Sink {
        Sink {
            tx: Some(tx),
            buf: Vec::with_capacity(CHUNK_OPS),
            live: true,
            rotate: ROTATE_FIRST,
            next_barrier: 0,
        }
    }

    /// True while the consumer is still attached. Kernels may poll this in
    /// outer loops to cut generation short after the consumer goes away;
    /// emitting into a dead sink is harmless (ops are discarded).
    pub fn is_live(&self) -> bool {
        self.live
    }

    /// Emits a raw [`Op`]. Prefer the typed helpers below.
    pub fn push(&mut self, op: Op) {
        if !self.live {
            return;
        }
        self.buf.push(op);
        if self.buf.len() >= CHUNK_OPS {
            self.flush();
        }
    }

    /// Hands the full chunk over, blocking until the consumer takes it,
    /// then starts the next one.
    fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let chunk = std::mem::take(&mut self.buf);
        match &self.tx {
            Some(tx) if tx.send(chunk).is_ok() => self.buf = Vec::with_capacity(CHUNK_OPS),
            _ => {
                self.live = false;
                self.tx = None;
            }
        }
    }

    /// Hands out the next rotating result register. Consecutive results get
    /// distinct registers, so independent work is visible as ILP to
    /// out-of-order models.
    pub fn next_reg(&mut self) -> Reg {
        rotate(&mut self.rotate)
    }

    /// Emits a load of `addr`; returns the destination register.
    pub fn load(&mut self, addr: VAddr) -> Reg {
        let dst = self.next_reg();
        self.push(Op::load(addr, dst, Reg::ZERO));
        dst
    }

    /// Emits a load whose *address* depends on `base` (pointer chasing,
    /// indexed accesses); returns the destination register.
    pub fn load_dep(&mut self, addr: VAddr, base: Reg) -> Reg {
        let dst = self.next_reg();
        self.push(Op::load(addr, dst, base));
        dst
    }

    /// Emits a store to `addr` of freshly produced data.
    pub fn store(&mut self, addr: VAddr) {
        self.push(Op::store(addr, Reg::ZERO, Reg::ZERO));
    }

    /// Emits a store of the value in `data` to `addr`, with the address
    /// depending on `base`.
    pub fn store_dep(&mut self, addr: VAddr, base: Reg, data: Reg) {
        self.push(Op::store(addr, base, data));
    }

    /// Emits a non-binding prefetch of `addr`.
    pub fn prefetch(&mut self, addr: VAddr) {
        self.push(Op::prefetch(addr));
    }

    /// Emits `n` mutually independent ops of `class` on rotating registers.
    /// The ops are written straight into the chunk, up to its room, then
    /// the chunk is handed over: the ops one [`push`](Sink::push) each
    /// would emit, without its per-op checks.
    pub fn work(&mut self, class: OpClass, n: u64) {
        let mut left = n;
        while left > 0 && self.live {
            let take = left.min((CHUNK_OPS - self.buf.len()) as u64);
            let at = &mut self.rotate;
            let ops = (0..take).map(|_| Op::compute(class, rotate(at), Reg::ZERO, Reg::ZERO));
            self.buf.extend(ops);
            left -= take;
            if self.buf.len() >= CHUNK_OPS {
                self.flush();
            }
        }
    }

    /// Emits a *dependent chain* of `n` ops of `class` starting from `seed`;
    /// returns the register holding the final result. In-order models see no
    /// difference from [`work`](Sink::work); out-of-order models serialize it.
    pub fn chain(&mut self, class: OpClass, n: u64, seed: Reg) -> Reg {
        let mut cur = seed;
        for _ in 0..n {
            let dst = self.next_reg();
            self.push(Op::compute(class, dst, cur, Reg::ZERO));
            cur = dst;
        }
        cur
    }

    /// Emits `n` independent integer-ALU ops.
    pub fn alu(&mut self, n: u64) {
        self.work(OpClass::IntAlu, n);
    }

    /// Emits one integer multiply consuming `a` and `b`.
    pub fn mul(&mut self, a: Reg, b: Reg) -> Reg {
        let dst = self.next_reg();
        self.push(Op::compute(OpClass::IntMul, dst, a, b));
        dst
    }

    /// Emits one integer divide consuming `a` and `b`.
    pub fn div(&mut self, a: Reg, b: Reg) -> Reg {
        let dst = self.next_reg();
        self.push(Op::compute(OpClass::IntDiv, dst, a, b));
        dst
    }

    /// Emits a loop-closing branch at static site `site` (taken, and thus
    /// highly predictable by a 2-bit predictor).
    pub fn loop_branch(&mut self, site: u32) {
        self.push(Op::branch(site, true, Reg::ZERO));
    }

    /// Emits the next global barrier. Every thread of a program must call
    /// `barrier()` the same number of times in the same order; the internal
    /// counter then assigns matching ids on every thread.
    pub fn barrier(&mut self) {
        let id = self.next_barrier;
        self.next_barrier += 1;
        self.push(Op::barrier(id));
    }

    /// Emits a lock acquire on lock `id` at `addr`.
    pub fn lock(&mut self, id: u32, addr: VAddr) {
        self.push(Op::lock_acquire(id, addr));
    }

    /// Emits a lock release on lock `id` at `addr`.
    pub fn unlock(&mut self, id: u32, addr: VAddr) {
        self.push(Op::lock_release(id, addr));
    }
}

/// Hands out the rotating register at `*at` and moves `*at` to the next.
#[inline]
fn rotate(at: &mut u8) -> Reg {
    let r = Reg(*at);
    *at += 1;
    if *at as usize >= Reg::COUNT {
        *at = ROTATE_FIRST;
    }
    r
}

/// The consume side of a thread's op stream.
///
/// Produced by [`spawn_stream`]. The machine layer reads ops in place:
/// [`pending`](ThreadStream::pending) lends the unconsumed ops of the
/// chunk the generator filled, [`consume`](ThreadStream::consume) moves
/// the cursor past the ones executed. The one-op accessors
/// ([`peek_op`](ThreadStream::peek_op), [`advance`](ThreadStream::advance),
/// [`next_op`](ThreadStream::next_op)) are the same two calls at a batch
/// of one.
#[derive(Debug)]
pub struct ThreadStream {
    rx: Option<Receiver<Vec<Op>>>,
    chunk: Vec<Op>,
    cursor: usize,
    handle: Option<JoinHandle<()>>,
    consumed: u64,
}

impl ThreadStream {
    /// The unconsumed ops of the cursor chunk, borrowed from the buffer
    /// the generator filled; empty only when the kernel has finished.
    /// Blocks on the channel for the next chunk when the cursor chunk has
    /// been consumed; otherwise a slice of what is already here.
    #[inline]
    pub fn pending(&mut self) -> &[Op] {
        if self.cursor >= self.chunk.len() {
            self.refill();
        }
        &self.chunk[self.cursor..]
    }

    /// Replaces the consumed cursor chunk with the next non-empty one from
    /// the channel, or with an empty one at the end of the stream. Out of
    /// line: it runs once per `CHUNK_OPS` ops, [`pending`]'s other branch
    /// once per batch.
    ///
    /// [`pending`]: ThreadStream::pending
    #[cold]
    fn refill(&mut self) {
        while self.cursor >= self.chunk.len() {
            let Some(rx) = self.rx.as_ref() else {
                return;
            };
            match rx.recv() {
                Ok(chunk) => {
                    self.chunk = chunk;
                    self.cursor = 0;
                }
                Err(_) => {
                    self.rx = None;
                    self.chunk = Vec::new();
                    self.cursor = 0;
                    self.join_generator();
                }
            }
        }
    }

    /// Consumes the first `n` ops of the slice most recently returned by
    /// [`pending`](ThreadStream::pending). `n` must not exceed that
    /// slice's length; debug builds assert this.
    #[inline]
    pub fn consume(&mut self, n: usize) {
        debug_assert!(self.cursor + n <= self.chunk.len(), "consume past pending");
        self.cursor += n;
        self.consumed += n as u64;
    }

    /// Consumes up to `n` ops without looking at them; returns how many
    /// were there to consume (less than `n` only if the kernel finished
    /// first). (Not `skip`: on an iterator that name is the by-value
    /// adaptor, which method syntax would pick over this one.)
    pub fn skip_ops(&mut self, n: u64) -> u64 {
        let mut left = n;
        while left > 0 {
            let here = self.pending().len();
            if here == 0 {
                break;
            }
            let take = here.min(usize::try_from(left).unwrap_or(usize::MAX));
            self.consume(take);
            left -= take as u64;
        }
        n - left
    }

    /// Pulls the next op, or `None` when the kernel has finished.
    pub fn next_op(&mut self) -> Option<Op> {
        let op = *self.peek_op()?;
        self.consume(1);
        Some(op)
    }

    /// The next op without consuming it, or `None` when the kernel has
    /// finished: the head of [`pending`](ThreadStream::pending).
    #[inline]
    pub fn peek_op(&mut self) -> Option<&Op> {
        self.pending().first()
    }

    /// The op `k` positions past the cursor without consuming anything,
    /// or `None` when the kernel finishes first. `peek_at(0)` sees the
    /// same op as [`peek_op`](ThreadStream::peek_op).
    ///
    /// Lookahead buffers ops: the cursor chunk is extended in place with
    /// received chunks (the consumed prefix is dropped first, so memory
    /// stays bounded by the lookahead depth plus one chunk). Consuming
    /// calls are unaffected — they walk the same buffer through the same
    /// cursor, so interleaving lookahead with
    /// [`next_op`](ThreadStream::next_op)/[`advance`](ThreadStream::advance)
    /// yields exactly the ops a lookahead-free consumer would see.
    pub fn peek_at(&mut self, k: usize) -> Option<&Op> {
        while self.cursor + k >= self.chunk.len() {
            let rx = self.rx.as_ref()?;
            match rx.recv() {
                Ok(more) => {
                    if self.cursor > 0 {
                        self.chunk.drain(..self.cursor);
                        self.cursor = 0;
                    }
                    self.chunk.extend_from_slice(&more);
                }
                Err(_) => {
                    // Keep any ops still buffered past the cursor: the
                    // stream hasn't ended, only the lookahead has.
                    self.rx = None;
                    self.join_generator();
                    return None;
                }
            }
        }
        Some(&self.chunk[self.cursor + k])
    }

    /// Consumes the op most recently returned by
    /// [`peek_op`](ThreadStream::peek_op). Must only be called while a
    /// peeked op is pending; debug builds assert this.
    #[inline]
    pub fn advance(&mut self) {
        self.consume(1);
    }

    /// Ops consumed so far.
    #[inline]
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    fn join_generator(&mut self) {
        if let Some(handle) = self.handle.take() {
            // The generator has already flushed everything (channel closed),
            // so this join is immediate. A panic in the kernel is re-thrown
            // here so tests fail loudly instead of truncating the stream.
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    }
}

impl Iterator for ThreadStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        self.next_op()
    }
}

impl Drop for ThreadStream {
    fn drop(&mut self) {
        // Detach the channel first so a still-running generator unblocks,
        // notices the dead sink, and finishes quickly.
        self.rx = None;
        self.chunk.clear();
        self.cursor = 0;
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Runs `kernel` on a fresh generator thread and returns the stream of ops
/// it emits.
///
/// The kernel receives a [`Sink`]; any ops left in the sink's buffer are
/// flushed automatically when the kernel returns.
pub fn spawn_stream<F>(kernel: F) -> ThreadStream
where
    F: FnOnce(&mut Sink) + Send + 'static,
{
    let (tx, rx) = sync_channel(0);
    let handle = std::thread::Builder::new()
        .name("flashsim-opgen".to_owned())
        .spawn(move || {
            let mut sink = Sink::new(tx);
            kernel(&mut sink);
            sink.flush();
        })
        .expect("spawning an op-generator thread"); // gate: allow
    ThreadStream {
        rx: Some(rx),
        chunk: Vec::new(),
        cursor: 0,
        handle: Some(handle),
        consumed: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_delivers_all_ops_in_order() {
        let mut s = spawn_stream(|sink| {
            for i in 0..20_000u64 {
                sink.load(VAddr(i * 8));
            }
        });
        let mut n = 0u64;
        while let Some(op) = s.next_op() {
            assert_eq!(op.addr, VAddr(n * 8));
            n += 1;
        }
        assert_eq!(n, 20_000);
        assert_eq!(s.consumed(), 20_000);
    }

    #[test]
    fn rotating_registers_differ_consecutively() {
        let s = spawn_stream(|sink| {
            sink.alu(3);
        });
        let ops: Vec<_> = s.collect();
        assert_eq!(ops.len(), 3);
        assert_ne!(ops[0].dst, ops[1].dst);
        assert_ne!(ops[1].dst, ops[2].dst);
    }

    #[test]
    fn work_emits_what_one_push_per_op_emits() {
        // Bursts that fill a chunk exactly, straddle boundaries and start
        // mid-chunk, between single pushes.
        let script = [
            1u64,
            CHUNK_OPS as u64 - 1,
            0,
            3,
            CHUNK_OPS as u64 * 2 + 5,
            7,
        ];
        let bulk = spawn_stream(move |sink| {
            for (k, n) in script.into_iter().enumerate() {
                sink.work(OpClass::FpAdd, n);
                sink.load(VAddr(k as u64 * 8));
            }
        });
        let one = spawn_stream(move |sink| {
            for (k, n) in script.into_iter().enumerate() {
                for _ in 0..n {
                    let dst = sink.next_reg();
                    sink.push(Op::compute(OpClass::FpAdd, dst, Reg::ZERO, Reg::ZERO));
                }
                sink.load(VAddr(k as u64 * 8));
            }
        });
        let (bulk, one): (Vec<_>, Vec<_>) = (bulk.collect(), one.collect());
        assert_eq!(bulk.len() as u64, script.iter().sum::<u64>() + 6);
        assert!(bulk == one, "the bursts emit other ops");
    }

    #[test]
    fn chain_links_dependences() {
        let s = spawn_stream(|sink| {
            let r = sink.load(VAddr(0));
            sink.chain(OpClass::IntAlu, 3, r);
        });
        let ops: Vec<_> = s.collect();
        assert_eq!(ops.len(), 4);
        assert_eq!(ops[1].src_a, ops[0].dst);
        assert_eq!(ops[2].src_a, ops[1].dst);
        assert_eq!(ops[3].src_a, ops[2].dst);
    }

    #[test]
    fn barrier_ids_count_up() {
        let s = spawn_stream(|sink| {
            sink.barrier();
            sink.barrier();
            sink.barrier();
        });
        let ids: Vec<_> = s.map(|op| op.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn dropping_stream_early_does_not_hang() {
        let mut s = spawn_stream(|sink| {
            // Far more than the two chunks a stream holds: the generator
            // is blocked handing one over when the stream drops.
            for i in 0..1_000_000u64 {
                sink.load(VAddr(i));
            }
        });
        let _ = s.next_op();
        drop(s); // must return promptly
    }

    #[test]
    fn a_stream_holds_at_most_two_chunks() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let emitted = Arc::new(AtomicU64::new(0));
        let count = Arc::clone(&emitted);
        let mut s = spawn_stream(move |sink| {
            for i in 0..1_000_000u64 {
                sink.load(VAddr(i));
                count.fetch_add(1, Ordering::Relaxed);
            }
        });
        let _ = s.next_op();
        std::thread::sleep(std::time::Duration::from_millis(50));
        // The chunk being read, and the next one filled and waiting.
        let held = emitted.load(Ordering::Relaxed);
        assert!(
            held <= 2 * CHUNK_OPS as u64,
            "generator ran {held} ops ahead"
        );
    }

    #[test]
    #[should_panic(expected = "kernel boom")]
    fn kernel_panic_propagates_to_consumer() {
        let mut s = spawn_stream(|sink| {
            sink.alu(1);
            panic!("kernel boom");
        });
        while s.next_op().is_some() {}
    }

    #[test]
    fn peek_then_advance_matches_next_op_across_chunk_boundaries() {
        // Spans several CHUNK_OPS boundaries so the cursor refill path and
        // the in-chunk fast path both get exercised.
        let total = (CHUNK_OPS * 3 + 17) as u64;
        let mut s = spawn_stream(move |sink| {
            for i in 0..total {
                sink.load(VAddr(i * 8));
            }
        });
        let mut n = 0u64;
        while let Some(&peeked) = s.peek_op() {
            // Peeking again is idempotent and consumes nothing.
            assert_eq!(s.peek_op(), Some(&peeked));
            assert_eq!(s.consumed(), n);
            if n.is_multiple_of(2) {
                s.advance();
            } else {
                assert_eq!(s.next_op(), Some(peeked));
            }
            assert_eq!(peeked.addr, VAddr(n * 8));
            n += 1;
        }
        assert_eq!(n, total);
        assert_eq!(s.consumed(), total);
        assert_eq!(s.next_op(), None);
    }

    #[test]
    fn peek_at_looks_ahead_without_consuming() {
        let total = (CHUNK_OPS * 2 + 100) as u64;
        let mut s = spawn_stream(move |sink| {
            for i in 0..total {
                sink.load(VAddr(i * 8));
            }
        });
        // Deep lookahead across chunk boundaries, before anything is read.
        for k in [0usize, 1, CHUNK_OPS - 1, CHUNK_OPS, CHUNK_OPS + 5] {
            assert_eq!(
                s.peek_at(k).copied().map(|op| op.addr),
                Some(VAddr(k as u64 * 8))
            );
        }
        assert_eq!(s.consumed(), 0);
        // Interleave consumption with lookahead: both views stay aligned.
        let mut n = 0u64;
        while let Some(&op) = s.peek_op() {
            assert_eq!(op.addr, VAddr(n * 8));
            if n.is_multiple_of(97) {
                let ahead = s.peek_at(13).copied();
                if n + 13 < total {
                    assert_eq!(ahead.map(|o| o.addr), Some(VAddr((n + 13) * 8)));
                } else {
                    assert_eq!(ahead, None);
                }
            }
            s.advance();
            n += 1;
        }
        assert_eq!(n, total);
        assert_eq!(s.consumed(), total);
    }

    #[test]
    fn peek_at_past_end_preserves_buffered_tail() {
        let mut s = spawn_stream(|sink| {
            sink.alu(5);
        });
        assert_eq!(s.peek_at(100), None, "lookahead past the end");
        // The five buffered ops are still all consumable.
        assert_eq!(s.by_ref().count(), 5);
    }

    #[test]
    fn empty_generator_yields_no_ops() {
        let mut s = spawn_stream(|_sink| {});
        assert_eq!(s.peek_op(), None);
        assert_eq!(s.next_op(), None);
        // Repeated polls after exhaustion stay None and don't panic.
        assert_eq!(s.peek_op(), None);
        assert_eq!(s.consumed(), 0);
    }

    #[test]
    fn exact_chunk_multiple_ends_cleanly() {
        let total = (CHUNK_OPS * 2) as u64;
        let mut s = spawn_stream(move |sink| {
            sink.alu(total);
        });
        let mut n = 0u64;
        while s.next_op().is_some() {
            n += 1;
        }
        assert_eq!(n, total);
        assert_eq!(s.peek_op(), None);
    }

    /// A stream of `total` loads whose addresses count up, so a reader can
    /// check both order and position.
    fn counting(total: u64) -> ThreadStream {
        spawn_stream(move |sink| {
            for i in 0..total {
                sink.load(VAddr(i * 8));
            }
        })
    }

    #[test]
    fn pending_and_consume_yield_next_ops_sequence() {
        // More than three chunk boundaries, consumed in ragged bites that
        // straddle them, with the one-op accessors and lookahead mixed in:
        // every read must land on the op `next_op` would have returned.
        let total = (CHUNK_OPS * 3 + 1000) as u64;
        let mut s = counting(total);
        let mut oracle = counting(total);
        let mut n = 0u64;
        let mut round = 0usize;
        loop {
            let ops = s.pending();
            if ops.is_empty() {
                break;
            }
            let bite = ops.len().min([1, 4099, 0, 8192, 2741][round % 5]);
            for (k, op) in ops[..bite].iter().enumerate() {
                assert_eq!(op.addr, VAddr((n + k as u64) * 8));
                assert_eq!(oracle.next_op(), Some(*op));
            }
            s.consume(bite);
            n += bite as u64;
            assert_eq!(s.consumed(), n);
            // The one-op accessors walk the same cursor.
            if let Some(&op) = s.peek_op() {
                assert_eq!(op.addr, VAddr(n * 8));
                assert_eq!(s.pending().first(), Some(&op));
                if round.is_multiple_of(2) {
                    s.advance();
                } else {
                    assert_eq!(s.next_op(), Some(op));
                }
                assert_eq!(oracle.next_op(), Some(op));
                n += 1;
            }
            // Lookahead extends the cursor chunk in place; what `pending`
            // lends afterwards starts at the same op.
            if round.is_multiple_of(3) && n + 9000 < total {
                assert_eq!(s.peek_at(9000).map(|o| o.addr), Some(VAddr((n + 9000) * 8)));
                assert_eq!(s.pending().first().map(|o| o.addr), Some(VAddr(n * 8)));
                assert!(s.pending().len() > 9000);
            }
            round += 1;
        }
        assert_eq!(n, total);
        assert_eq!(s.consumed(), total);
        assert_eq!(oracle.next_op(), None);
        // Exhaustion is sticky.
        assert!(s.pending().is_empty());
        assert!(s.pending().is_empty());
        assert_eq!(s.peek_op(), None);
    }

    #[test]
    fn pending_on_exact_chunk_multiple_and_empty_streams() {
        let mut s = spawn_stream(|sink| sink.alu((CHUNK_OPS * 2) as u64));
        for _ in 0..2 {
            assert_eq!(s.pending().len(), CHUNK_OPS);
            s.consume(CHUNK_OPS);
        }
        assert!(s.pending().is_empty());
        assert!(s.pending().is_empty());
        assert_eq!(s.consumed(), (CHUNK_OPS * 2) as u64);

        let mut empty = spawn_stream(|_sink| {});
        assert!(empty.pending().is_empty());
        assert!(empty.pending().is_empty());
        empty.consume(0);
        assert_eq!(empty.skip_ops(5), 0);
        assert_eq!(empty.consumed(), 0);
    }

    #[test]
    fn skip_fast_forwards_and_reports_a_short_count() {
        let total = (CHUNK_OPS * 3 + 17) as u64;
        let mut s = counting(total);
        assert_eq!(s.skip_ops(0), 0);
        assert_eq!(s.skip_ops(5), 5);
        // Across two chunk boundaries, landing mid-chunk.
        let far = (CHUNK_OPS * 2 + 100) as u64;
        assert_eq!(s.skip_ops(far), far);
        assert_eq!(s.consumed(), far + 5);
        assert_eq!(s.next_op().map(|op| op.addr), Some(VAddr((far + 5) * 8)));
        // Past the end: only what was left.
        let left = total - far - 6;
        assert_eq!(s.skip_ops(left + 1000), left);
        assert_eq!(s.consumed(), total);
        assert_eq!(s.skip_ops(1), 0);
        assert_eq!(s.next_op(), None);
    }

    #[test]
    #[should_panic(expected = "kernel boom")]
    fn kernel_panic_propagates_through_pending() {
        let mut s = spawn_stream(|sink| {
            sink.alu(1);
            panic!("kernel boom");
        });
        loop {
            let n = s.pending().len();
            if n == 0 {
                break;
            }
            s.consume(n);
        }
    }

    #[test]
    fn rotating_allocator_skips_reserved_regs() {
        let s = spawn_stream(|sink| {
            sink.alu(200);
        });
        for op in s {
            assert!(
                op.dst.0 >= 8,
                "rotating reg {} dipped into reserved range",
                op.dst
            );
        }
    }
}
