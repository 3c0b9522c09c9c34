//! Distributed-memory numerical execution: Algorithm 1 with a *real wire* —
//! packed byte payloads, rank-level messages, and tree broadcasts.
//!
//! The shared-memory factorization ([`crate::factorize`]) models the kernel
//! arithmetic but not the communications. Here tiles are owned by ranks of
//! a 2D block-cyclic [`Grid2d`] (owner-computes), and every dependency that
//! crosses ranks travels as an actual [`crate::wire`] message. The engine
//! walks [`build_dag`]'s task order, a right-looking topological order, and
//! hand-codes no communication pattern: each task runs on the rank of its
//! output tile, reads its [`CholeskyTask::inputs`], and a POTRF/TRSM output
//! ships to the ranks of its [`CholeskyTask::readers`].
//!
//! * **Fused convert-and-pack** — the owner streams each broadcast tile
//!   straight into a little-endian byte buffer at its wire precision
//!   (lower-triangle-packed for factored diagonal tiles); the receiver's
//!   fused unpack materializes its copy in one pass. No intermediate
//!   narrowed `Tile` is ever allocated, and `DistStats.wire_bytes` is the
//!   literal buffer length of every transmission.
//! * **STC dedup + panel coalescing** — each panel tile is packed once and
//!   shipped once per *destination rank*, however many SYRK/GEMM tasks on
//!   that rank consume it; and all frames crossing the same link in a
//!   factorization step ride one header-framed multi-tile message.
//! * **Binomial broadcast trees** — a payload with `D` destination ranks
//!   crosses `D` links in `⌈log₂(D+1)⌉` rounds
//!   ([`crate::wire::broadcast_hops`]) instead of `D` serialized sends from
//!   the owner; [`DistStats`] reports the modeled NIC time both ways.
//!
//! Wire precisions come from [`crate::ConversionPlan::wire`]:
//!
//! * [`WirePolicy::Ttc`] — ship storage precision: cross-rank payloads are
//!   bit-identical to the owner's tile (storage quantization is the
//!   identity on stored data), so the distributed result equals the
//!   shared-memory result *exactly*.
//! * [`WirePolicy::Auto`] — Algorithm 2's plan: STC tiles ship at the
//!   planned (lower) precision; the FP64 diagonal consumers of those tiles
//!   see slightly degraded panels.
//! * [`WirePolicy::AlwaysLowest`] — the strawman the paper argues against
//!   in §VI ("consistently downgrading to the lowest precision could
//!   further reduce GPU data transfer, but it might also unnecessarily
//!   compromise the accuracy"): every payload ships FP16.
//!
//! The kernels run sequentially on the engine's one [`Workspace`]. The
//! `ext_stc_accuracy` binary quantifies the three policies against each
//! other; `bench_wire` measures the engine itself.

use crate::conversion::{plan_conversions, WirePolicy};
use crate::factorize::{build_dag, CholeskyTask};
use crate::precision_map::PrecisionMap;
use crate::wire::{
    begin_message, broadcast_hops, broadcast_rounds, framed_tile_bytes, packed_bytes, push_frame,
    seal_message, unpack_message, FrameMeta, Packing, FRAME_HEADER_BYTES, MSG_HEADER_BYTES,
};
use mixedp_fp::{comm_of_storage, StoragePrecision};
use mixedp_gpusim::model::link_time_s;
use mixedp_gpusim::NodeSpec;
use mixedp_kernels::{
    blas::NotSpd, gemm_tile_ws, potrf_tile_ws, syrk_tile_ws, tile_is_finite, trsm_tile_ws,
    Workspace,
};
use mixedp_obs as obs;
use mixedp_runtime::{FaultPlan, RetryPolicy, WireFault};
use mixedp_tile::{Grid2d, SymmTileMatrix, Tile};
use std::collections::{BTreeMap, HashMap};

/// Communication statistics of a distributed numerical run. Byte counts
/// are *measured buffer lengths* of the packed messages, not arithmetic
/// models.
#[derive(Debug, Clone, Default)]
pub struct DistStats {
    /// Cross-rank messages sent — one per *transmission* over a link
    /// (relay hops of a broadcast tree included), so retransmitted
    /// payloads count every attempt.
    pub messages: u64,
    /// Total framed buffer bytes shipped across ranks (message + frame
    /// headers + packed payloads, including retransmissions).
    pub wire_bytes: u64,
    /// Packed element bytes shipped (framing excluded, retransmissions
    /// included).
    pub payload_bytes: u64,
    /// Tile frames shipped (retransmissions included).
    pub frames: u64,
    /// Logical broadcast events (one per communicated tile version).
    pub broadcasts: u64,
    /// Payload bytes a storage-precision (TTC) wire would have shipped,
    /// counted once per `(tile, destination rank)` — the fault-free
    /// rank-deduplicated baseline.
    pub ttc_bytes: u64,
    /// Framed bytes a per-consumer-task TTC wire would have shipped: every
    /// cross-rank input of every TRSM/SYRK/GEMM fetched as its own
    /// storage-precision message. The naive baseline the engine's dedup +
    /// coalescing is measured against.
    pub consumer_ttc_bytes: u64,
    /// Cross-rank fetches that per-consumer wire would have performed (its
    /// message count).
    pub consumer_fetches: u64,
    /// Modeled NIC seconds if every broadcast were root-serialized
    /// (`D` sends per payload), using the Summit NIC link model.
    pub link_time_flat_s: f64,
    /// Modeled NIC seconds for the binomial trees actually used
    /// (`⌈log₂(D+1)⌉` rounds per payload).
    pub link_time_tree_s: f64,
    /// Payloads the (simulated) wire dropped outright.
    pub dropped: u64,
    /// Payloads delivered garbled and rejected by the receiver's decode +
    /// finite-ness integrity check.
    pub garbled: u64,
    /// Retransmissions performed (`dropped + garbled` that were retried).
    pub retransmits: u64,
    /// Simulated jittered-backoff nanoseconds accumulated before
    /// retransmissions (deterministic; no real sleeping in the model).
    pub backoff_ns: u64,
}

impl DistStats {
    /// Add this run's wire counters to the metrics registry (`wire.*`).
    pub fn publish_metrics(&self) {
        static MESSAGES: obs::LazyCounter = obs::LazyCounter::new("wire.messages");
        static WIRE_BYTES: obs::LazyCounter = obs::LazyCounter::new("wire.bytes");
        static PAYLOAD_BYTES: obs::LazyCounter = obs::LazyCounter::new("wire.payload_bytes");
        static FRAMES: obs::LazyCounter = obs::LazyCounter::new("wire.frames");
        static BROADCASTS: obs::LazyCounter = obs::LazyCounter::new("wire.broadcasts");
        static DROPPED: obs::LazyCounter = obs::LazyCounter::new("wire.dropped");
        static GARBLED: obs::LazyCounter = obs::LazyCounter::new("wire.garbled");
        static RETRANSMITS: obs::LazyCounter = obs::LazyCounter::new("wire.retransmits");
        MESSAGES.add(self.messages);
        WIRE_BYTES.add(self.wire_bytes);
        PAYLOAD_BYTES.add(self.payload_bytes);
        FRAMES.add(self.frames);
        BROADCASTS.add(self.broadcasts);
        DROPPED.add(self.dropped);
        GARBLED.add(self.garbled);
        RETRANSMITS.add(self.retransmits);
    }

    /// The measured data-motion totals in the shape the energy accountant
    /// consumes (conversion volume comes from `FactorStats` when the run
    /// had one; distributed-only runs report wire motion alone).
    pub fn motion_inputs(&self) -> obs::MotionInputs {
        obs::MotionInputs {
            wire_bytes: self.wire_bytes,
            wire_messages: self.messages,
            convert_count: 0,
            convert_bytes: 0,
        }
    }
}

/// Typed failure modes of the fault-tolerant distributed factorization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistError {
    /// POTRF hit a non-positive pivot (same meaning as shared memory).
    NotSpd(NotSpd),
    /// A cross-rank message failed through the whole retransmit budget.
    WireFailed {
        /// Source coordinates of the message's first tile frame.
        i: usize,
        j: usize,
        /// Receiving rank that never got it.
        rank: usize,
        attempts: u32,
    },
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::NotSpd(e) => {
                write!(f, "matrix is not positive definite at column {}", e.column)
            }
            DistError::WireFailed {
                i,
                j,
                rank,
                attempts,
            } => write!(
                f,
                "payload of tile ({i},{j}) to rank {rank} failed {attempts} transmission attempt(s)"
            ),
        }
    }
}

impl std::error::Error for DistError {}

/// One finalized tile awaiting its broadcast.
#[derive(Debug, Clone, Copy)]
struct Bcast {
    i: usize,
    j: usize,
    /// Destination ranks (sorted, owner excluded): a range of a shared
    /// dest arena.
    first_dest: usize,
    ndests: usize,
}

/// Distributed mixed-precision factorization over `grid`. Serial,
/// deterministic execution in [`build_dag`]'s task order (a right-looking
/// topological order of the Algorithm 1 DAG); cross-rank reads are
/// wire-quantized per `policy`.
///
/// Thin fault-free wrapper over [`factorize_mp_distributed_ft`].
pub fn factorize_mp_distributed(
    a: &mut SymmTileMatrix,
    pmap: &PrecisionMap,
    grid: &Grid2d,
    policy: WirePolicy,
) -> Result<DistStats, NotSpd> {
    match factorize_mp_distributed_ft(
        a,
        pmap,
        grid,
        policy,
        &FaultPlan::none(),
        &RetryPolicy::no_retry(),
    ) {
        Ok(s) => Ok(s),
        Err(DistError::NotSpd(e)) => Err(e),
        Err(e @ DistError::WireFailed { .. }) => {
            unreachable!("a fault-free wire cannot fail: {e}")
        }
    }
}

/// [`factorize_mp_distributed`] with simulated wire faults and bounded
/// retransmission.
///
/// Every link transmission (tree hops included) is probed against `faults`
/// (deterministically, from the message sequence number and the link's
/// endpoint ranks, plus the attempt number):
///
/// * [`WireFault::Drop`] — the message never arrives; the receiver waits a
///   jittered exponential backoff (accounted in [`DistStats::backoff_ns`],
///   never actually slept — this is a simulation) and requests a
///   retransmit.
/// * [`WireFault::Garble`] — the message arrives corrupted; the receiver's
///   integrity check (typed wire decode + [`tile_is_finite`] on every
///   frame) rejects it and requests a retransmit.
///
/// Each retransmission is a real message (counted in `messages` /
/// `wire_bytes`), so fault recovery shows up as communication overhead.
/// When a message fails `retry.max_attempts` consecutive transmissions the
/// run aborts with [`DistError::WireFailed`] naming the payload and the
/// starved rank. Because rate faults hash the attempt number, retransmits
/// of a dropped message usually succeed — and a recovered run's numerical
/// result is **bit-identical** to the fault-free run, since retransmission
/// resends the same deterministic packed payload.
pub fn factorize_mp_distributed_ft(
    a: &mut SymmTileMatrix,
    pmap: &PrecisionMap,
    grid: &Grid2d,
    policy: WirePolicy,
    faults: &FaultPlan,
    retry: &RetryPolicy,
) -> Result<DistStats, DistError> {
    let nt = a.nt();
    assert_eq!(pmap.nt(), nt);
    let nb = a.nb();
    let plan = plan_conversions(pmap);
    let wire = |i: usize, j: usize| plan.wire(pmap, policy, i, j);
    let nranks = grid.nranks();
    let idx = |i: usize, j: usize| i * (i + 1) / 2 + j;

    let mut tiles: Vec<Tile> = Vec::with_capacity(nt * (nt + 1) / 2);
    for i in 0..nt {
        for j in 0..=i {
            tiles.push(a.tile(i, j).clone());
        }
    }
    // Received copies: (consumer_rank, tile_index) → wire-degraded tile.
    // Only POTRF and TRSM outputs are communicated, and both are final
    // once written, so no invalidation is needed.
    let mut inbox: HashMap<(usize, usize), Tile> = HashMap::new();
    let mut stats = DistStats::default();
    // Per-run workspace: kernel staging plus the packed-message byte
    // scratch, reused by every task and message (allocation-free once warm).
    let mut ws = Workspace::new();
    let mut msg_seq: u64 = 0;
    // NIC link model for the flat-vs-tree time accounting.
    let nic = NodeSpec::summit();
    let link = |bytes: u64| link_time_s(bytes, nic.nic_gbs, nic.nic_latency_s);

    // Ship one group of finalized tiles: binomial tree routing per tile and
    // link-level coalescing (all frames crossing the same link ride one
    // message).
    let mut run_broadcasts = |stats: &mut DistStats,
                              inbox: &mut HashMap<(usize, usize), Tile>,
                              ws: &mut Workspace,
                              tiles: &[Tile],
                              bcasts: &[Bcast],
                              dest_arena: &[usize]|
     -> Result<(), DistError> {
        // Bucket hops by link; BTreeMap iteration keeps the transmission
        // order (and thus the fault history) deterministic.
        let mut links: BTreeMap<(usize, usize), Vec<&Bcast>> = BTreeMap::new();
        for b in bcasts {
            let dests = &dest_arena[b.first_dest..b.first_dest + b.ndests];
            let t = &tiles[idx(b.i, b.j)];
            let packing = Packing::of_tile(b.i, b.j);
            stats.broadcasts += 1;
            // Rank-deduplicated TTC baseline: storage-precision payload,
            // same packing, once per destination rank.
            let ttc_wire = comm_of_storage(pmap.storage(b.i, b.j));
            stats.ttc_bytes +=
                (packed_bytes(t.rows(), t.cols(), ttc_wire, packing) * dests.len()) as u64;
            // Modeled NIC time for this payload, flat vs tree.
            let fb = framed_tile_bytes(t.rows(), t.cols(), wire(b.i, b.j), packing) as u64;
            stats.link_time_flat_s += dests.len() as f64 * link(fb);
            stats.link_time_tree_s += broadcast_rounds(dests.len() + 1) as f64 * link(fb);
            let owner = grid.rank_of(b.i, b.j);
            for hop in broadcast_hops(owner, dests) {
                links.entry((hop.from, hop.to)).or_default().push(b);
            }
        }
        for ((from, to), frames) in links {
            // Pack every frame crossing this link into one coalesced
            // message, straight from the tile buffers (fused
            // convert-and-pack), in reusable byte scratch.
            let mut payload = 0u64;
            let buf: &[u8] = ws.wire.load(|v| {
                begin_message(v);
                for b in &frames {
                    let t = &tiles[idx(b.i, b.j)];
                    let (w, packing) = (wire(b.i, b.j), Packing::of_tile(b.i, b.j));
                    payload += packed_bytes(t.rows(), t.cols(), w, packing) as u64;
                    push_frame(v, b.i, b.j, t, w, packing);
                }
                seal_message(v);
            });
            let first_elem_bytes = wire(frames[0].i, frames[0].j).bytes();

            // Receiver side: typed decode + finite-ness integrity check;
            // only a fully valid message is accepted into the inbox.
            let deliver = |bytes: &[u8]| -> Result<Vec<(FrameMeta, Tile)>, ()> {
                let decoded =
                    unpack_message(bytes, |i, j| tiles[idx(i, j)].storage()).map_err(|_| ())?;
                if decoded.iter().all(|(_, t)| tile_is_finite(t)) {
                    Ok(decoded)
                } else {
                    Err(())
                }
            };

            let site = (msg_seq << 16) | ((to as u64) << 8) | from as u64;
            msg_seq += 1;
            let mut attempt = 0u32;
            let received = loop {
                attempt += 1;
                stats.messages += 1;
                stats.wire_bytes += buf.len() as u64;
                stats.payload_bytes += payload;
                stats.frames += frames.len() as u64;
                obs::instant(obs::EventKind::WireSend, buf.len() as u64);
                let accepted = match faults.inject_wire(site, attempt) {
                    Some(WireFault::Drop) => {
                        stats.dropped += 1;
                        None
                    }
                    Some(WireFault::Garble) => {
                        // Damaged in flight: poison the first payload
                        // element (all-ones bit pattern decodes to NaN in
                        // every wire format) and let the receiver's
                        // integrity check reject it.
                        let mut bad = buf.to_vec();
                        let off = MSG_HEADER_BYTES + FRAME_HEADER_BYTES;
                        for b in &mut bad[off..off + first_elem_bytes] {
                            *b = 0xFF;
                        }
                        match deliver(&bad) {
                            Ok(_) => unreachable!("poisoned payload must fail integrity"),
                            Err(()) => {
                                stats.garbled += 1;
                                None
                            }
                        }
                    }
                    None => match deliver(buf) {
                        Ok(decoded) => Some(decoded),
                        Err(()) => {
                            stats.garbled += 1;
                            None
                        }
                    },
                };
                if let Some(decoded) = accepted {
                    break Some(decoded);
                }
                if attempt >= retry.max_attempts {
                    break None;
                }
                stats.retransmits += 1;
                stats.backoff_ns += retry.backoff_ns(faults, site, attempt);
            };
            match received {
                Some(decoded) => {
                    for (meta, t) in decoded {
                        inbox.insert((to, idx(meta.i, meta.j)), t);
                    }
                }
                None => {
                    return Err(DistError::WireFailed {
                        i: frames[0].i,
                        j: frames[0].j,
                        rank: to,
                        attempts: attempt,
                    });
                }
            }
        }
        Ok(())
    };

    // Finalized tiles not yet shipped. They go out as one group just
    // before the first task that reads one of them: a POTRF's diagonal
    // block alone, then the panel of the step's TRSMs together.
    let mut pending: Vec<Bcast> = Vec::new();
    let mut dest_arena: Vec<usize> = Vec::new();
    let mut need = vec![false; nranks];
    for t in &build_dag(nt).tasks {
        if t.inputs().any(|x| pending.iter().any(|b| (b.i, b.j) == x)) {
            run_broadcasts(
                &mut stats,
                &mut inbox,
                &mut ws,
                &tiles,
                &pending,
                &dest_arena,
            )?;
            pending.clear();
            dest_arena.clear();
        }

        // Owner-computes: the task runs on its output tile's rank and reads
        // each input locally or from the copy the wire delivered there.
        let (oi, oj) = t.output_tile();
        let rank = grid.rank_of(oi, oj);
        for (i, j) in t.inputs().filter(|&(i, j)| grid.rank_of(i, j) != rank) {
            // Per-consumer-task TTC baseline: what a wire with no rank
            // dedup and no coalescing would ship for this read.
            let s = &tiles[idx(i, j)];
            let ttc_wire = comm_of_storage(pmap.storage(i, j));
            stats.consumer_fetches += 1;
            stats.consumer_ttc_bytes +=
                framed_tile_bytes(s.rows(), s.cols(), ttc_wire, Packing::of_tile(i, j)) as u64;
        }
        let mut c = std::mem::replace(
            &mut tiles[idx(oi, oj)],
            Tile::zeros(0, 0, StoragePrecision::F64),
        );
        let mut ins = t.inputs().map(|(i, j)| {
            if grid.rank_of(i, j) == rank {
                &tiles[idx(i, j)]
            } else {
                inbox
                    .get(&(rank, idx(i, j)))
                    .expect("broadcast must have delivered every consumed tile")
            }
        });
        let mut input = || ins.next().expect("kernel operand");
        match *t {
            CholeskyTask::Potrf { k } => {
                if potrf_tile_ws(&mut c, &mut ws, false).is_err() {
                    return Err(DistError::NotSpd(NotSpd { column: k * nb }));
                }
            }
            CholeskyTask::Trsm { m, k } => {
                trsm_tile_ws(pmap.kernel(m, k), input(), &mut c, &mut ws, false)
            }
            CholeskyTask::Syrk { .. } => syrk_tile_ws(input(), &mut c, &mut ws, false),
            CholeskyTask::Gemm { m, n, .. } => {
                gemm_tile_ws(pmap.kernel(m, n), input(), input(), &mut c, &mut ws, false)
            }
        }
        tiles[idx(oi, oj)] = c;

        // Destination dedup: a finalized tile ships once per rank owning
        // any of its readers, never once per reading task.
        need.fill(false);
        for r in t.readers(nt) {
            let (i, j) = r.output_tile();
            need[grid.rank_of(i, j)] = true;
        }
        need[rank] = false;
        let first_dest = dest_arena.len();
        dest_arena.extend((0..nranks).filter(|&r| need[r]));
        if dest_arena.len() > first_dest {
            pending.push(Bcast {
                i: oi,
                j: oj,
                first_dest,
                ndests: dest_arena.len() - first_dest,
            });
        }
    }
    debug_assert!(pending.is_empty(), "every broadcast has a reader");

    let mut it = tiles.into_iter();
    for i in 0..nt {
        for j in 0..=i {
            *a.tile_mut(i, j) = it.next().unwrap().converted_to(pmap.storage(i, j));
        }
    }
    stats.publish_metrics();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factorize::factorize_mp;
    use crate::precision_map::uniform_map;
    use mixedp_fp::{Precision, StoragePrecision};
    use mixedp_kernels::reconstruction_error;
    use mixedp_tile::tile_fro_norms;

    fn spd_matrix(n: usize, nb: usize) -> SymmTileMatrix {
        SymmTileMatrix::from_fn(
            n,
            nb,
            |i, j| {
                let d = (i as f64 - j as f64).abs();
                (-0.1 * d).exp() + if i == j { 0.6 } else { 0.0 }
            },
            |_, _| StoragePrecision::F64,
        )
    }

    #[test]
    fn single_rank_matches_shared_memory_exactly() {
        let a0 = spd_matrix(64, 16);
        let m = uniform_map(a0.nt(), Precision::Fp16x32);
        let mut shared = a0.clone();
        factorize_mp(&mut shared, &m, 1).unwrap();
        let mut dist = a0.clone();
        let stats =
            factorize_mp_distributed(&mut dist, &m, &Grid2d::new(1, 1), WirePolicy::Auto).unwrap();
        assert_eq!(stats.messages, 0, "single rank sends nothing");
        assert_eq!(stats.wire_bytes, 0);
        for i in 0..64 {
            for j in 0..=i {
                assert_eq!(shared.get(i, j), dist.get(i, j), "({i},{j})");
            }
        }
    }

    #[test]
    fn ttc_wire_is_lossless() {
        // storage-precision payloads are bit-identical to the owner's tile,
        // so distributed-TTC ≡ shared-memory on any grid
        let a0 = spd_matrix(80, 16);
        let m = uniform_map(a0.nt(), Precision::Fp16);
        let mut shared = a0.clone();
        factorize_mp(&mut shared, &m, 1).unwrap();
        let mut dist = a0.clone();
        let stats =
            factorize_mp_distributed(&mut dist, &m, &Grid2d::new(2, 3), WirePolicy::Ttc).unwrap();
        assert!(stats.messages > 0);
        // under TTC the packed payloads are exactly the rank-deduplicated
        // storage-precision baseline; framing is the only overhead
        assert_eq!(stats.payload_bytes, stats.ttc_bytes);
        assert!(stats.wire_bytes > stats.payload_bytes, "framing is real");
        for i in 0..80 {
            for j in 0..=i {
                assert_eq!(shared.get(i, j), dist.get(i, j), "({i},{j})");
            }
        }
    }

    #[test]
    fn auto_ships_fewer_bytes_with_bounded_accuracy_cost() {
        let a0 = spd_matrix(96, 16);
        let dense = a0.to_dense_symmetric();
        let norms = tile_fro_norms(&a0);
        let m = PrecisionMap::from_norms(&norms, 1e-6, &Precision::ADAPTIVE_SET);
        let grid = Grid2d::new(2, 2);

        let run = |policy: WirePolicy| {
            let mut a = a0.clone();
            let s = factorize_mp_distributed(&mut a, &m, &grid, policy).unwrap();
            (reconstruction_error(&dense, &a.to_dense_lower()), s)
        };
        let (err_ttc, s_ttc) = run(WirePolicy::Ttc);
        let (err_auto, s_auto) = run(WirePolicy::Auto);
        let (err_low, s_low) = run(WirePolicy::AlwaysLowest);

        // bytes: lowest ≤ auto ≤ ttc
        assert!(s_auto.wire_bytes <= s_ttc.wire_bytes);
        assert!(s_low.wire_bytes <= s_auto.wire_bytes);
        // accuracy: auto stays within a small factor of TTC...
        assert!(
            err_auto <= err_ttc * 10.0 + 1e-12,
            "auto {err_auto:e} vs ttc {err_ttc:e}"
        );
        // ...while the always-lowest strawman is measurably worse than auto
        assert!(
            err_low >= err_auto,
            "always-lowest {err_low:e} should not beat auto {err_auto:e}"
        );
    }

    #[test]
    fn always_lowest_degrades_fp64_configuration_badly() {
        // under a full-FP64 map, AUTO ships (nearly) full precision, but
        // AlwaysLowest crushes every payload to FP16 — the §VI warning.
        let a0 = spd_matrix(64, 16);
        let dense = a0.to_dense_symmetric();
        let m = uniform_map(a0.nt(), Precision::Fp64);
        let grid = Grid2d::new(2, 2);
        let run = |policy: WirePolicy| {
            let mut a = a0.clone();
            factorize_mp_distributed(&mut a, &m, &grid, policy).unwrap();
            reconstruction_error(&dense, &a.to_dense_lower())
        };
        let err_auto = run(WirePolicy::Auto);
        let err_low = run(WirePolicy::AlwaysLowest);
        assert!(err_auto < 1e-10, "auto on FP64 map: {err_auto:e}");
        assert!(
            err_low > err_auto * 100.0,
            "always-lowest must be much worse: {err_low:e} vs {err_auto:e}"
        );
    }

    #[test]
    fn coalesced_auto_cuts_bytes_vs_per_consumer_ttc() {
        // The engine's headline: rank dedup + STC narrowing + coalescing
        // put the measured (framed) wire bytes of the automated plan far
        // below the per-consumer-task TTC baseline, with far fewer
        // messages — at the acceptance scale (nt = 16, 2×2 grid).
        let a0 = spd_matrix(16 * 8, 8);
        assert_eq!(a0.nt(), 16);
        let m = uniform_map(16, Precision::Fp16x32);
        let grid = Grid2d::new(2, 2);
        let mut a = a0.clone();
        let s = factorize_mp_distributed(&mut a, &m, &grid, WirePolicy::Auto).unwrap();
        assert!(
            (s.wire_bytes as f64) <= 0.7 * s.consumer_ttc_bytes as f64,
            "measured {} vs per-consumer baseline {}",
            s.wire_bytes,
            s.consumer_ttc_bytes
        );
        assert!(
            s.messages < s.consumer_fetches,
            "coalescing must cut messages: {} vs {}",
            s.messages,
            s.consumer_fetches
        );
        // on 4 ranks a destination set has ≤ 3 ranks, so the tree can only
        // tie flat sends; the strict win needs wider grids (below)
        assert!(s.link_time_tree_s <= s.link_time_flat_s);
        assert!(s.frames >= s.broadcasts, "a broadcast ships ≥ 1 frame");

        // wider grid: destination sets reach 5–7 ranks, where ⌈log₂(D+1)⌉
        // rounds strictly beat D root-serialized sends
        let mut a8 = a0.clone();
        let s8 =
            factorize_mp_distributed(&mut a8, &m, &Grid2d::new(2, 4), WirePolicy::Auto).unwrap();
        assert!(
            s8.link_time_tree_s < s8.link_time_flat_s,
            "tree broadcasts must beat root-serialized sends on 8 ranks: {} vs {}",
            s8.link_time_tree_s,
            s8.link_time_flat_s
        );
    }

    #[test]
    fn wire_faults_recovered_by_retransmit_are_invisible_in_the_result() {
        // Drops and garbles force retransmissions, but a retransmitted
        // message is the same deterministic packed payload — so the factor
        // matches the fault-free run bit for bit, and the faults show up
        // only as communication overhead in the stats.
        let a0 = spd_matrix(80, 16);
        let m = uniform_map(a0.nt(), Precision::Fp32);
        let grid = Grid2d::new(2, 3);

        let mut clean = a0.clone();
        let s_clean = factorize_mp_distributed(&mut clean, &m, &grid, WirePolicy::Ttc).unwrap();

        let faults = FaultPlan::seeded(42)
            .with_wire_drop_rate(0.25)
            .with_wire_garble_rate(0.15);
        let retry = RetryPolicy::default()
            .with_max_attempts(10)
            .with_backoff_base_ns(1_000);
        let mut faulty = a0.clone();
        let s =
            factorize_mp_distributed_ft(&mut faulty, &m, &grid, WirePolicy::Ttc, &faults, &retry)
                .unwrap();

        assert!(s.dropped > 0, "plan must actually drop payloads");
        assert!(s.garbled > 0, "plan must actually garble payloads");
        assert_eq!(s.retransmits, s.dropped + s.garbled, "every fault retried");
        assert!(s.backoff_ns > 0, "retransmits accrue simulated backoff");
        assert!(
            s.messages > s_clean.messages && s.wire_bytes > s_clean.wire_bytes,
            "retransmissions are real traffic"
        );
        assert_eq!(
            s.ttc_bytes, s_clean.ttc_bytes,
            "baseline counts logical payloads"
        );
        assert_eq!(
            s.consumer_ttc_bytes, s_clean.consumer_ttc_bytes,
            "per-consumer baseline is fault-independent"
        );
        for i in 0..80 {
            for j in 0..=i {
                assert_eq!(clean.get(i, j), faulty.get(i, j), "({i},{j})");
            }
        }
    }

    #[test]
    fn wire_fault_stats_replay_exactly_from_the_seed() {
        let a0 = spd_matrix(64, 16);
        let m = uniform_map(a0.nt(), Precision::Fp32);
        let grid = Grid2d::new(2, 2);
        let retry = RetryPolicy::default()
            .with_max_attempts(8)
            .with_backoff_base_ns(500);
        let run = |seed: u64| {
            let faults = FaultPlan::seeded(seed).with_wire_drop_rate(0.3);
            let mut a = a0.clone();
            let s =
                factorize_mp_distributed_ft(&mut a, &m, &grid, WirePolicy::Ttc, &faults, &retry)
                    .unwrap();
            (s.messages, s.dropped, s.retransmits, s.backoff_ns)
        };
        assert_eq!(run(7), run(7), "same seed, same fault history");
        assert_ne!(run(7), run(8), "different seed, different fault history");
    }

    #[test]
    fn exhausted_retransmit_budget_is_a_typed_error() {
        // Drop rate 1.0: every transmission of every message is lost, so
        // the first cross-rank broadcast burns its whole budget and the run
        // reports which payload starved which rank — instead of hanging or
        // factoring garbage.
        let a0 = spd_matrix(64, 16);
        let m = uniform_map(a0.nt(), Precision::Fp32);
        let faults = FaultPlan::seeded(1).with_wire_drop_rate(1.0);
        let retry = RetryPolicy::default().with_max_attempts(3);
        let mut a = a0.clone();
        let err = factorize_mp_distributed_ft(
            &mut a,
            &m,
            &Grid2d::new(2, 2),
            WirePolicy::Ttc,
            &faults,
            &retry,
        )
        .unwrap_err();
        match err {
            DistError::WireFailed { attempts, .. } => assert_eq!(attempts, 3),
            e => panic!("expected WireFailed, got {e:?}"),
        }
        let msg = format!("{err}");
        assert!(msg.contains("transmission attempt"), "{msg}");
    }

    #[test]
    fn grid_shape_does_not_change_ttc_result() {
        let a0 = spd_matrix(60, 12);
        let m = uniform_map(a0.nt(), Precision::Fp32);
        let mut r1 = a0.clone();
        factorize_mp_distributed(&mut r1, &m, &Grid2d::new(1, 4), WirePolicy::Ttc).unwrap();
        let mut r2 = a0.clone();
        factorize_mp_distributed(&mut r2, &m, &Grid2d::new(2, 2), WirePolicy::Ttc).unwrap();
        for i in 0..60 {
            for j in 0..=i {
                assert_eq!(r1.get(i, j), r2.get(i, j));
            }
        }
    }
}
