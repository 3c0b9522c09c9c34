//! The discrete-event engine: replays a precision-annotated task DAG on a
//! simulated GPU cluster.
//!
//! Modeled resources per GPU: one compute stream (kernels and datatype
//! conversions serialize on it, as cuBLAS-style workloads do), one H2D and
//! one D2H DMA engine, and an LRU-managed device memory that acts as a cache
//! over host-resident tiles (how PaRSEC stages out-of-core matrices).
//! Per node: NIC-in / NIC-out links. Execution is greedy list scheduling in
//! (ready-time, priority) order — deterministic, and faithful to the
//! asynchronous dependency-driven execution of the runtime: compute overlaps
//! transfers, tasks fire when their inputs arrive.
//!
//! The payload of every dependency is precision-tagged (`wire_bytes`, what a
//! peer or network transfer moves to the consumer), and datatype
//! conversions are charged to the sender's stream (STC, once) or each
//! receiver's stream (TTC, per consuming task) — the mechanism whose effect
//! Figs 8, 11, 12 measure.

use crate::machine::ClusterSpec;
use crate::model::{self, SimKernel};
use crate::power::{kernel_power_watts, PowerTrace};
use mixedp_fp::Precision;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// One data dependency payload of a task.
#[derive(Debug, Clone, Copy)]
pub struct SimInput {
    /// Tile identity (position in the matrix, encoded by the caller).
    pub tile: u32,
    /// Payload size on the wire / in the consumer's device cache.
    pub wire_bytes: u64,
    /// Receiver-side conversion: elements to convert before the kernel can
    /// run (0 = none). TTC charges this on every consuming task.
    pub recv_convert_elems: u64,
    pub recv_convert_from: usize,
    pub recv_convert_to: usize,
}

impl SimInput {
    /// A plain payload with no receiver conversion.
    pub fn plain(tile: u32, wire_bytes: u64) -> Self {
        SimInput {
            tile,
            wire_bytes,
            recv_convert_elems: 0,
            recv_convert_from: 0,
            recv_convert_to: 0,
        }
    }
}

/// One task of the simulated DAG.
#[derive(Debug, Clone)]
pub struct SimTask {
    pub deps: Vec<u32>,
    /// Executing GPU (global index; owner-computes on the output tile).
    pub gpu: u32,
    pub kind: SimKernel,
    pub precision: Precision,
    /// Tile dimension (square tiles).
    pub nb: usize,
    pub inputs: Vec<SimInput>,
    /// Output tile (written in place; becomes a new version).
    pub out_tile: u32,
    /// Device-resident size of the output (storage precision).
    pub out_bytes: u64,
    /// Sender-side conversion (STC): elements converted once after the
    /// kernel, before any communication (0 = none).
    pub send_convert_elems: u64,
    pub send_convert_from: usize,
    pub send_convert_to: usize,
    pub priority: i64,
}

/// Engine configuration knobs.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Fraction of device memory usable for tiles (the rest is workspace).
    pub mem_fraction: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig { mem_fraction: 0.9 }
    }
}

/// Aggregated results of one simulation.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Wall-clock makespan, seconds.
    pub makespan_s: f64,
    /// Total flops executed.
    pub flops: f64,
    /// Host→device bytes (staging + refetch).
    pub h2d_bytes: u64,
    /// Device→host bytes (evictions of dirty tiles).
    pub d2h_bytes: u64,
    /// Intra-node GPU↔GPU bytes.
    pub p2p_bytes: u64,
    /// Inter-node network bytes.
    pub nic_bytes: u64,
    /// Datatype conversions executed / total time spent in them.
    pub conversions: u64,
    pub conversion_s: f64,
    /// Per-GPU busy seconds.
    pub busy_s: Vec<f64>,
    /// Per-GPU power traces (for Fig 10).
    pub power: Vec<PowerTrace>,
    /// Per-GPU busy intervals `(start_s, end_s)` (for Fig 9 occupancy).
    pub busy_intervals: Vec<Vec<(f64, f64)>>,
}

impl SimReport {
    /// Achieved rate in Tflop/s.
    pub fn tflops(&self) -> f64 {
        self.flops / self.makespan_s / 1e12
    }

    /// Mean GPU occupancy over the makespan.
    pub fn occupancy(&self) -> f64 {
        let total: f64 = self.busy_s.iter().sum();
        total / (self.makespan_s * self.busy_s.len() as f64)
    }

    /// Occupancy of GPU `g` sampled over `bins` intervals (Fig 9).
    pub fn occupancy_series(&self, g: usize, bins: usize) -> Vec<f64> {
        let w = self.makespan_s / bins as f64;
        let mut busy = vec![0.0f64; bins];
        for &(a, b) in &self.busy_intervals[g] {
            let first = ((a / w) as usize).min(bins - 1);
            let last = ((b / w) as usize).min(bins - 1);
            for (bin, slot) in busy.iter_mut().enumerate().take(last + 1).skip(first) {
                let lo = bin as f64 * w;
                let hi = lo + w;
                *slot += (b.min(hi) - a.max(lo)).max(0.0);
            }
        }
        busy.iter().map(|&t| (t / w).min(1.0)).collect()
    }

    /// Total energy over all GPUs, joules (idle draw outside busy intervals
    /// included up to the makespan).
    pub fn energy_joules(&self) -> f64 {
        self.power
            .iter()
            .map(|p| p.energy_joules(self.makespan_s))
            .sum()
    }

    /// Energy efficiency in Gflop/s per watt.
    pub fn gflops_per_watt(&self) -> f64 {
        let avg_watts = self.energy_joules() / self.makespan_s;
        self.flops / self.makespan_s / 1e9 / avg_watts
    }
}

/// State of one tile's latest version.
#[derive(Debug, Default, Clone)]
struct TileState {
    version: u32,
    /// GPUs holding a device copy of the latest version → copy size.
    device_copies: HashMap<u32, u64>,
    /// Host copies of the latest version per node (a tile that arrived at
    /// a node over the network is staged in host memory there, so peer GPUs
    /// of that node fetch it via H2D instead of re-crossing the fabric).
    host_copies: HashMap<u32, u64>,
    /// Time at which the latest version became available.
    ready_s: f64,
}

#[derive(Debug, Clone, Copy)]
struct CacheEntry {
    version: u32,
    bytes: u64,
    dirty: bool,
    last_use: u64,
}

struct GpuState {
    /// One timeline per execution-unit class (FP64 / FP32 / tensor):
    /// kernels serialize within a class and overlap across classes.
    compute_free: [f64; 3],
    h2d_free: f64,
    d2h_free: f64,
    cache: HashMap<u32, CacheEntry>,
    cache_bytes: u64,
    capacity: u64,
    lru: BinaryHeap<Reverse<(u64, u32)>>, // (last_use, tile), lazy deletion
    use_seq: u64,
    busy: Vec<(f64, f64)>,
    power: PowerTrace,
}

/// The simulator. Construct once per run, call [`Simulator::run`].
pub struct Simulator {
    cluster: ClusterSpec,
    cfg: SimConfig,
}

impl Simulator {
    pub fn new(cluster: ClusterSpec, cfg: SimConfig) -> Self {
        Simulator { cluster, cfg }
    }

    /// Seed the initial host-resident tiles (the generated matrix): each
    /// `(tile, node, bytes)` is version 0 on that node's host.
    pub fn run(&self, tasks: &[SimTask], initial_host_tiles: &[(u32, u32, u64)]) -> SimReport {
        let ngpus = self.cluster.total_gpus();
        let nnodes = self.cluster.nodes;
        let node_spec = self.cluster.node;
        let gspec = node_spec.gpu;

        let mut gpus: Vec<GpuState> = (0..ngpus)
            .map(|_| GpuState {
                compute_free: [0.0; 3],
                h2d_free: 0.0,
                d2h_free: 0.0,
                cache: HashMap::new(),
                cache_bytes: 0,
                capacity: (gspec.mem_bytes as f64 * self.cfg.mem_fraction) as u64,
                lru: BinaryHeap::new(),
                use_seq: 0,
                busy: Vec::new(),
                power: PowerTrace::new(gspec.idle_watts),
            })
            .collect();
        let mut nic_in = vec![0.0f64; nnodes];

        let mut tiles: HashMap<u32, TileState> = HashMap::new();
        for &(tile, node, bytes) in initial_host_tiles {
            tiles.insert(
                tile,
                TileState {
                    version: 0,
                    device_copies: HashMap::new(),
                    host_copies: HashMap::from([(node, bytes)]),
                    ready_s: 0.0,
                },
            );
        }

        // Dependency bookkeeping.
        let n = tasks.len();
        let mut dep_count: Vec<u32> = tasks.iter().map(|t| t.deps.len() as u32).collect();
        let mut dependents: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (id, t) in tasks.iter().enumerate() {
            for &d in &t.deps {
                dependents[d as usize].push(id as u32);
            }
        }
        let mut finish = vec![0.0f64; n];

        // Ready heap keyed by (ready_ns, -priority, id).
        let mut heap: BinaryHeap<Reverse<(u64, i64, u32)>> = BinaryHeap::new();
        for (id, t) in tasks.iter().enumerate() {
            if t.deps.is_empty() {
                heap.push(Reverse((0, -t.priority, id as u32)));
            }
        }

        let mut h2d_bytes = 0u64;
        let mut d2h_bytes = 0u64;
        let mut p2p_bytes = 0u64;
        let mut nic_bytes = 0u64;
        let mut conversions = 0u64;
        let mut conversion_s = 0.0f64;
        let mut total_flops = 0.0f64;
        let mut done = 0usize;

        while let Some(Reverse((ready_ns, _negprio, id))) = heap.pop() {
            let t = &tasks[id as usize];
            let g = t.gpu as usize;
            let my_node = self.cluster.node_of(g) as u32;
            let dep_ready = ready_ns as f64 * 1e-9;

            // --- stage inputs onto device g ---
            let mut inputs_arrival = 0.0f64;
            for inp in &t.inputs {
                let ts = tiles.entry(inp.tile).or_default();
                let avail = ts.ready_s;
                // Already cached on this GPU (latest version)?
                if let Some(e) = gpus[g].cache.get(&inp.tile) {
                    if e.version == ts.version {
                        let seq = {
                            let gs = &mut gpus[g];
                            gs.use_seq += 1;
                            gs.use_seq
                        };
                        gpus[g].cache.get_mut(&inp.tile).unwrap().last_use = seq;
                        gpus[g].lru.push(Reverse((seq, inp.tile)));
                        inputs_arrival = inputs_arrival.max(avail);
                        continue;
                    }
                }
                // Choose a source for the latest version.
                let arrival;
                if let Some(&bytes) = ts.host_copies.get(&my_node) {
                    // Host of my node → H2D.
                    let dur = model::xfer_time_s(&gspec, bytes);
                    let s = gpus[g].h2d_free.max(avail);
                    gpus[g].h2d_free = s + dur;
                    h2d_bytes += bytes;
                    arrival = s + dur;
                } else {
                    // A device copy somewhere? Prefer same node; break ties
                    // on the GPU id — `min_by_key` over a HashMap otherwise
                    // resolves them by hash-iteration order, which differs
                    // per map instance and made the makespan nondeterministic.
                    let src = ts
                        .device_copies
                        .iter()
                        .min_by_key(|(&sg, _)| {
                            (
                                (self.cluster.node_of(sg as usize) as u32 != my_node) as u32,
                                sg,
                            )
                        })
                        .map(|(&sg, _)| sg);
                    // Peer and network transfers move the consumer's
                    // payload (`wire_bytes`), whatever the size of the copy
                    // they relay from.
                    let bytes = inp.wire_bytes;
                    match src {
                        Some(sg) if self.cluster.node_of(sg as usize) as u32 == my_node => {
                            // Intra-node peer transfer.
                            let dur = model::link_time_s(bytes, node_spec.p2p_gbs, 5e-6);
                            let s = gpus[g].h2d_free.max(avail);
                            gpus[g].h2d_free = s + dur;
                            p2p_bytes += bytes;
                            arrival = s + dur;
                        }
                        Some(sg) => {
                            // Remote node: src D2H, then across the fabric
                            // (non-blocking sends — RDMA/fat-tree; ingestion
                            // serializes on the receiver's NIC), then H2D.
                            // The payload is staged in the receiving node's
                            // host memory so peer GPUs reuse it.
                            let d2h = model::xfer_time_s(&gspec, bytes);
                            let s1 = gpus[sg as usize].d2h_free.max(avail);
                            gpus[sg as usize].d2h_free = s1 + d2h;
                            d2h_bytes += bytes;
                            let net = model::link_time_s(
                                bytes,
                                node_spec.nic_gbs,
                                node_spec.nic_latency_s,
                            );
                            let s3 = nic_in[my_node as usize].max(s1 + d2h);
                            nic_in[my_node as usize] = s3 + net;
                            nic_bytes += bytes;
                            ts.host_copies.insert(my_node, bytes);
                            let h2d = model::xfer_time_s(&gspec, bytes);
                            let s4 = gpus[g].h2d_free.max(s3 + net);
                            gpus[g].h2d_free = s4 + h2d;
                            h2d_bytes += bytes;
                            arrival = s4 + h2d;
                        }
                        None => {
                            // Host copy on a remote node: fabric then H2D.
                            // lowest node id, not `.next()`: hash order is
                            // not deterministic across map instances
                            let (_src_node, bytes) = ts
                                .host_copies
                                .iter()
                                .min_by_key(|(&nd, _)| nd)
                                .map(|(&nd, &b)| (nd, b))
                                .expect("input tile has no copy anywhere — DAG/versioning bug");
                            let net = model::link_time_s(
                                bytes,
                                node_spec.nic_gbs,
                                node_spec.nic_latency_s,
                            );
                            let s3 = nic_in[my_node as usize].max(avail);
                            nic_in[my_node as usize] = s3 + net;
                            nic_bytes += bytes;
                            ts.host_copies.insert(my_node, bytes);
                            let h2d = model::xfer_time_s(&gspec, bytes);
                            let s4 = gpus[g].h2d_free.max(s3 + net);
                            gpus[g].h2d_free = s4 + h2d;
                            h2d_bytes += bytes;
                            arrival = s4 + h2d;
                        }
                    }
                }
                // Insert into g's cache at the wire size, evicting as needed.
                let version = ts.version;
                Self::insert_with_eviction(
                    &mut gpus,
                    g,
                    inp.tile,
                    version,
                    inp.wire_bytes,
                    false,
                    &gspec,
                    &mut d2h_bytes,
                    &mut tiles,
                    my_node,
                );
                tiles
                    .get_mut(&inp.tile)
                    .unwrap()
                    .device_copies
                    .insert(t.gpu, inp.wire_bytes);
                inputs_arrival = inputs_arrival.max(arrival);
            }

            // --- execute on the compute stream ---
            let mut conv_s = 0.0;
            for inp in &t.inputs {
                if inp.recv_convert_elems > 0 {
                    conv_s += model::convert_time_s(
                        &gspec,
                        inp.recv_convert_elems,
                        inp.recv_convert_from,
                        inp.recv_convert_to,
                    );
                    conversions += 1;
                }
            }
            let kern_s = model::kernel_time_s(&gspec, t.kind, t.precision, t.nb);
            let mut send_s = 0.0;
            if t.send_convert_elems > 0 {
                send_s = model::convert_time_s(
                    &gspec,
                    t.send_convert_elems,
                    t.send_convert_from,
                    t.send_convert_to,
                );
                conversions += 1;
            }
            conversion_s += conv_s + send_s;
            total_flops += t.kind.flops(t.nb);

            // The kernel occupies its precision's execution-unit class;
            // other classes of the same GPU keep running concurrently.
            let class = gspec.unit_class(t.precision);
            let start = dep_ready
                .max(inputs_arrival)
                .max(gpus[g].compute_free[class]);
            let end = start + conv_s + kern_s + send_s;
            gpus[g].compute_free[class] = end;
            gpus[g].busy.push((start, end));
            let watts = kernel_power_watts(&gspec, t.kind, t.precision);
            gpus[g].power.push(start, end, watts);
            finish[id as usize] = end;

            // --- publish the output as the tile's new version ---
            let ts = tiles.entry(t.out_tile).or_default();
            ts.version += 1;
            ts.device_copies.clear();
            ts.host_copies.clear();
            ts.ready_s = end;
            let version = ts.version;
            ts.device_copies.insert(t.gpu, t.out_bytes);
            Self::insert_with_eviction(
                &mut gpus,
                g,
                t.out_tile,
                version,
                t.out_bytes,
                true,
                &gspec,
                &mut d2h_bytes,
                &mut tiles,
                my_node,
            );

            // --- release dependents ---
            done += 1;
            for &dep in &dependents[id as usize] {
                dep_count[dep as usize] -= 1;
                if dep_count[dep as usize] == 0 {
                    let mut r = 0.0f64;
                    for &d in &tasks[dep as usize].deps {
                        r = r.max(finish[d as usize]);
                    }
                    heap.push(Reverse((
                        (r * 1e9) as u64,
                        -tasks[dep as usize].priority,
                        dep,
                    )));
                }
            }
        }
        assert_eq!(done, n, "simulation did not execute every task (cycle?)");

        let makespan = finish.iter().copied().fold(0.0, f64::max);
        // Streams overlap: occupancy and busy time are the *union* coverage
        // of each GPU's intervals.
        let busy_unions: Vec<Vec<(f64, f64)>> = gpus
            .iter()
            .map(|g| Self::merge_intervals(&g.busy))
            .collect();
        SimReport {
            makespan_s: makespan,
            flops: total_flops,
            h2d_bytes,
            d2h_bytes,
            p2p_bytes,
            nic_bytes,
            conversions,
            conversion_s,
            busy_s: busy_unions
                .iter()
                .map(|iv| iv.iter().map(|(a, b)| b - a).sum())
                .collect(),
            power: gpus.iter().map(|g| g.power.clone()).collect(),
            busy_intervals: busy_unions,
        }
    }

    /// Merge possibly-overlapping intervals into their union.
    fn merge_intervals(iv: &[(f64, f64)]) -> Vec<(f64, f64)> {
        let mut v: Vec<(f64, f64)> = iv.to_vec();
        v.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let mut out: Vec<(f64, f64)> = Vec::with_capacity(v.len());
        for (a, b) in v {
            match out.last_mut() {
                Some(last) if a <= last.1 => last.1 = last.1.max(b),
                _ => out.push((a, b)),
            }
        }
        out
    }

    /// Insert a cache entry on GPU `g`, evicting LRU entries (writing dirty
    /// ones back to the node's host) until it fits.
    #[allow(clippy::too_many_arguments)]
    fn insert_with_eviction(
        gpus: &mut [GpuState],
        g: usize,
        tile: u32,
        version: u32,
        bytes: u64,
        dirty: bool,
        gspec: &crate::specs::GpuSpec,
        d2h_bytes: &mut u64,
        tiles: &mut HashMap<u32, TileState>,
        my_node: u32,
    ) {
        let gs = &mut gpus[g];
        // Replace an existing entry for this tile.
        if let Some(old) = gs.cache.remove(&tile) {
            gs.cache_bytes -= old.bytes;
        }
        // Evict until it fits.
        while gs.cache_bytes + bytes > gs.capacity {
            let Some(Reverse((seq, victim))) = gs.lru.pop() else {
                break; // nothing evictable; allow overflow rather than deadlock
            };
            match gs.cache.get(&victim) {
                Some(e) if e.last_use == seq && victim != tile => {
                    let e = *e;
                    gs.cache.remove(&victim);
                    gs.cache_bytes -= e.bytes;
                    if e.dirty {
                        // Write back to host.
                        let dur = model::xfer_time_s(gspec, e.bytes);
                        gs.d2h_free += dur;
                        *d2h_bytes += e.bytes;
                        if let Some(ts) = tiles.get_mut(&victim) {
                            if ts.version == e.version {
                                ts.host_copies.insert(my_node, e.bytes);
                            }
                        }
                    }
                    if let Some(ts) = tiles.get_mut(&victim) {
                        if ts.version == e.version {
                            ts.device_copies.remove(&(g as u32));
                        }
                    }
                }
                _ => {} // stale LRU entry
            }
        }
        gs.use_seq += 1;
        let seq = gs.use_seq;
        gs.cache.insert(
            tile,
            CacheEntry {
                version,
                bytes,
                dirty,
                last_use: seq,
            },
        );
        gs.cache_bytes += bytes;
        gs.lru.push(Reverse((seq, tile)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::NodeSpec;

    fn one_gpu() -> Simulator {
        Simulator::new(
            ClusterSpec::new(NodeSpec::summit().single_gpu(), 1),
            SimConfig::default(),
        )
    }

    fn gemm_task(deps: Vec<u32>, out_tile: u32, inputs: Vec<SimInput>, nb: usize) -> SimTask {
        SimTask {
            deps,
            gpu: 0,
            kind: SimKernel::Gemm,
            precision: Precision::Fp64,
            nb,
            inputs,
            out_tile,
            out_bytes: (nb * nb * 8) as u64,
            send_convert_elems: 0,
            send_convert_from: 0,
            send_convert_to: 0,
            priority: 0,
        }
    }

    #[test]
    fn single_task_time_is_fetch_plus_kernel() {
        let sim = one_gpu();
        let nb = 2048usize;
        let bytes = (nb * nb * 8) as u64;
        let tasks = vec![gemm_task(vec![], 0, vec![SimInput::plain(1, bytes)], nb)];
        let rep = sim.run(&tasks, &[(0, 0, bytes), (1, 0, bytes)]);
        let expect = model::xfer_time_s(&NodeSpec::summit().gpu, bytes)
            + model::kernel_time_s(
                &NodeSpec::summit().gpu,
                SimKernel::Gemm,
                Precision::Fp64,
                nb,
            );
        assert!(
            (rep.makespan_s - expect).abs() < 1e-9,
            "{} vs {}",
            rep.makespan_s,
            expect
        );
        assert_eq!(rep.h2d_bytes, bytes);
        assert_eq!(rep.conversions, 0);
    }

    #[test]
    fn cached_input_is_not_refetched() {
        let sim = one_gpu();
        let nb = 1024usize;
        let bytes = (nb * nb * 8) as u64;
        // two sequential tasks reading the same input tile
        let t0 = gemm_task(vec![], 0, vec![SimInput::plain(1, bytes)], nb);
        let t1 = gemm_task(vec![0], 0, vec![SimInput::plain(1, bytes)], nb);
        let rep = sim.run(&[t0, t1], &[(0, 0, bytes), (1, 0, bytes)]);
        assert_eq!(rep.h2d_bytes, bytes, "second read must hit the cache");
    }

    #[test]
    fn independent_tasks_overlap_transfer_and_compute() {
        let sim = one_gpu();
        let nb = 2048usize;
        let bytes = (nb * nb * 8) as u64;
        // 8 independent GEMMs, each fetching a distinct input tile
        let tasks: Vec<SimTask> = (0..8)
            .map(|i| gemm_task(vec![], i, vec![SimInput::plain(100 + i, bytes)], nb))
            .collect();
        let seed: Vec<(u32, u32, u64)> = (0..8)
            .map(|i| (100 + i, 0, bytes))
            .chain((0..8).map(|i| (i, 0, bytes)))
            .collect();
        let rep = sim.run(&tasks, &seed);
        let spec = NodeSpec::summit().gpu;
        let kern = model::kernel_time_s(&spec, SimKernel::Gemm, Precision::Fp64, nb);
        let xfer = model::xfer_time_s(&spec, bytes);
        // compute-bound: transfers hide behind kernels after the first
        let lower = 8.0 * kern;
        let upper = 8.0 * kern + 2.0 * xfer;
        assert!(
            rep.makespan_s >= lower - 1e-9 && rep.makespan_s <= upper,
            "{} not in [{lower}, {upper}]",
            rep.makespan_s
        );
    }

    #[test]
    fn ttc_conversions_charge_each_consumer() {
        let sim = one_gpu();
        let nb = 1024usize;
        let bytes = (nb * nb * 4) as u64;
        let conv = |tile| SimInput {
            tile,
            wire_bytes: bytes,
            recv_convert_elems: (nb * nb) as u64,
            recv_convert_from: 4,
            recv_convert_to: 2,
        };
        let t0 = gemm_task(vec![], 0, vec![conv(9)], nb);
        let t1 = gemm_task(vec![0], 1, vec![conv(9)], nb);
        let rep = sim.run(&[t0, t1], &[(0, 0, bytes), (1, 0, bytes), (9, 0, bytes)]);
        assert_eq!(rep.conversions, 2, "TTC converts per consumer");
        assert!(rep.conversion_s > 0.0);
    }

    #[test]
    fn stc_converts_once_at_producer() {
        let sim = one_gpu();
        let nb = 1024usize;
        let bytes = (nb * nb * 4) as u64;
        let mut producer = gemm_task(vec![], 9, vec![], nb);
        producer.send_convert_elems = (nb * nb) as u64;
        producer.send_convert_from = 4;
        producer.send_convert_to = 2;
        let half = (nb * nb * 2) as u64;
        let c0 = gemm_task(vec![0], 0, vec![SimInput::plain(9, half)], nb);
        let c1 = gemm_task(vec![0], 1, vec![SimInput::plain(9, half)], nb);
        let rep = sim.run(
            &[producer, c0, c1],
            &[(0, 0, bytes), (1, 0, bytes), (9, 0, bytes)],
        );
        assert_eq!(rep.conversions, 1, "STC converts once");
    }

    #[test]
    fn eviction_causes_refetch_under_memory_pressure() {
        // a tiny device memory forces tile eviction and re-fetch
        let mut node = NodeSpec::summit().single_gpu();
        node.gpu.mem_bytes = 64 * 1024 * 1024; // 64 MB
        let sim = Simulator::new(ClusterSpec::new(node, 1), SimConfig::default());
        let nb = 1024usize;
        let bytes = (nb * nb * 8) as u64; // 8 MB per tile
                                          // touch 12 distinct inputs (96 MB > capacity), then re-read the first
        let mut tasks: Vec<SimTask> = (0..12)
            .map(|i| {
                gemm_task(
                    if i == 0 { vec![] } else { vec![i - 1] },
                    200 + i,
                    vec![SimInput::plain(50 + i, bytes)],
                    nb,
                )
            })
            .collect();
        tasks.push(gemm_task(
            vec![11],
            300,
            vec![SimInput::plain(50, bytes)],
            nb,
        ));
        let seed: Vec<(u32, u32, u64)> = (0..12)
            .map(|i| (50 + i as u32, 0, bytes))
            .chain((0..13).map(|i| (if i < 12 { 200 + i as u32 } else { 300 }, 0, bytes)))
            .collect();
        let rep = sim.run(&tasks, &seed);
        assert!(
            rep.h2d_bytes > 12 * bytes,
            "expected a refetch: {} vs {}",
            rep.h2d_bytes,
            12 * bytes
        );
        assert!(rep.d2h_bytes > 0, "dirty evictions must write back");
    }

    #[test]
    fn multi_gpu_distributes_and_communicates() {
        // two GPUs on one node: producer on gpu 0, consumer on gpu 1
        let mut node = NodeSpec::summit();
        node.gpus = 2;
        let sim = Simulator::new(ClusterSpec::new(node, 1), SimConfig::default());
        let nb = 1024usize;
        let bytes = (nb * nb * 8) as u64;
        let prod = gemm_task(vec![], 7, vec![], nb);
        let mut cons = gemm_task(vec![0], 8, vec![SimInput::plain(7, bytes)], nb);
        cons.gpu = 1;
        let rep = sim.run(&[prod, cons], &[(7, 0, bytes), (8, 0, bytes)]);
        assert_eq!(rep.p2p_bytes, bytes, "same-node transfer is peer-to-peer");
        assert_eq!(rep.nic_bytes, 0);
    }

    #[test]
    fn cross_node_goes_through_nic() {
        let sim = Simulator::new(ClusterSpec::summit(2), SimConfig::default());
        let nb = 1024usize;
        let bytes = (nb * nb * 8) as u64;
        let prod = gemm_task(vec![], 7, vec![], nb);
        let mut cons = gemm_task(vec![0], 8, vec![SimInput::plain(7, bytes)], nb);
        cons.gpu = 6; // first GPU of node 1
        let rep = sim.run(&[prod, cons], &[(7, 0, bytes), (8, 1, bytes)]);
        assert_eq!(rep.nic_bytes, bytes);
    }

    #[test]
    fn smaller_wire_bytes_speed_up_transfer_bound_runs() {
        // STC's core claim: shipping FP16 instead of FP64 wins when
        // transfer-bound. Build a chain of cheap kernels each fetching a
        // fresh big tile.
        let run = |wire: u64| {
            let sim = one_gpu();
            let nb = 4096usize;
            let tasks: Vec<SimTask> = (0..16)
                .map(|i| {
                    let mut t = gemm_task(
                        if i == 0 { vec![] } else { vec![i - 1] },
                        400 + i,
                        vec![SimInput::plain(20 + i, wire)],
                        256, // tiny kernel: transfer-dominated
                    );
                    t.out_bytes = 256 * 256 * 8;
                    let _ = nb;
                    t
                })
                .collect();
            let seed: Vec<(u32, u32, u64)> = (0..16)
                .map(|i| (20 + i as u32, 0, wire))
                .chain((0..16).map(|i| (400 + i as u32, 0, 256 * 256 * 8)))
                .collect();
            sim.run(&tasks, &seed).makespan_s
        };
        let t64 = run(4096 * 4096 * 8);
        let t16 = run(4096 * 4096 * 2);
        assert!(t16 < t64 * 0.5, "{t16} vs {t64}");
    }
}
