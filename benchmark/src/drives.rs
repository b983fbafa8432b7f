//! Per-layer drives: each hot structure of each layer crate, driven in
//! isolation through its public type.
//!
//! Every drive asserts a checksum or counter, so it cannot silently
//! measure the wrong path, and reports host nanoseconds per call unless
//! its name says otherwise: the fastest batch of calls within the drive's
//! time budget. The machine-level drives run once (the contract's time
//! cap leaves no room for repeats). Per-layer metrics carry no bound;
//! they explain the end-to-end ones.

use crate::cells::STORM_ACCESSES;
use crate::check::sim_digest;
use crate::report::{median, Report};
use crate::storm::{ShareStorm, StormVariant};
use flashsim_core::platform::{MemModel, Sim, Study};
use flashsim_core::runner::{run_matrix, MatrixCell};
use flashsim_cpu::FixedEnv;
use flashsim_engine::pool::{Job, WorkerLane, WorkerPool};
use flashsim_engine::{
    EventQueue, HostPhase, HostReport, LaggardHeap, Resource, Rng, SpanPlan, Time, TimeDelta,
};
use flashsim_flashlite::FlashLiteParams;
use flashsim_isa::{spawn_stream, Op, OpClass, Program, Reg, VAddr};
use flashsim_machine::{
    CpuModel, Machine, MachineConfig, MachineGeometry, MemSysKind, RunResult, SchedPolicy,
};
use flashsim_mem::{
    AccessKind, AllocPolicy, CacheHierarchy, FrameAllocator, HierProbe, LineAddr, MemRequest,
    PAddr, PageTable, Tlb,
};
use flashsim_net::{Network, NetworkParams, Topology};
use flashsim_numa::NumaParams;
use flashsim_proto::Directory;
use flashsim_workloads::{Fft, FftBlocking, Lu, Ocean, ProblemScale, Radix};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SCALE: ProblemScale = ProblemScale::Scaled;
const MIPSY: Sim = Sim::SimosMipsy(150);
const LINE: u64 = 128;
const PAGE: u64 = 4096;

/// Host worker threads the `Parallel` drives ask for: `min(nproc, 4)`.
fn parallel_workers() -> usize {
    WorkerPool::host_parallelism().min(4)
}

/// Runs every drive and adds its metric to `report`. `seconds` is the
/// run's `--seconds`: each isolated drive measures for `seconds / 240`
/// (0.05 s at the contract's 12). `calibrate_s` is what set-up measured.
pub fn run_all(report: &mut Report, seconds: u32, calibrate_s: f64) {
    let budget = Duration::from_secs_f64(f64::from(seconds) / 240.0);
    let study = Study::scaled();
    let g = study.geometry;
    let workers = parallel_workers();
    let mut add = |name: &str, value: f64| report.metric(name, value, "");

    add("isa.stream.ns_per_op", isa_stream(budget));
    let storm = ShareStorm::new(StormVariant::ReadWrite, 16, STORM_ACCESSES, 1);
    let generators: [(&str, &dyn Program); 5] = [
        ("fft", &Fft::sized(SCALE, 1, FftBlocking::Tlb)),
        ("radix", &Radix::tuned(SCALE, 1)),
        ("lu", &Lu::sized(SCALE, 1)),
        ("ocean", &Ocean::sized(SCALE, 1)),
        ("storm", &storm),
    ];
    for (key, program) in generators {
        add(&format!("workloads.gen.{key}.ns_per_op"), generate(program));
    }
    let mipsy = CpuModel::Mipsy {
        mhz: 150,
        model_int_latencies: false,
        l2_iface: None,
    };
    add("cpu.mipsy.ns_per_op", cpu(mipsy, budget));
    add("cpu.mxs.ns_per_op", cpu(CpuModel::Mxs, budget));
    add("cpu.r10000.ns_per_op", cpu(CpuModel::R10000, budget));
    add("mem.hier.probe_hit.ns", hier_probe_hit(g, budget));
    add("mem.hier.miss_fill.ns", hier_miss_fill(g, budget));
    add("mem.tlb.hit.ns", tlb_hit(g, budget));
    add("mem.tlb.miss_insert.ns", tlb_miss_insert(g, budget));
    add("mem.page.translate.ns", page_translate(budget));
    add("mem.page.alloc.ns", page_alloc(g, budget));
    add("proto.dir.read.ns", dir_read(budget));
    add("proto.dir.rdex.ns", dir_rdex(budget));
    add("proto.dir.pool_reclaim.ns", dir_pool_reclaim(budget));
    add("net.deliver.n16.ns", net_deliver(16, false, budget));
    add("net.deliver.n64.ns", net_deliver(64, false, budget));
    add("net.deliver.hot.n16.ns", net_deliver(16, true, budget));
    let flashlite = MemSysKind::FlashLite(FlashLiteParams::hardware());
    let numa = MemSysKind::Numa(NumaParams::matched());
    for (model, kind) in [("flashlite", flashlite), ("numa", numa)] {
        for variant in StormVariant::ALL {
            let shape = variant.key().trim_start_matches("storm-");
            add(
                &format!("{model}.access.{shape}.ns"),
                memsys_access(kind, g, variant, budget),
            );
        }
    }
    add("engine.laggard.n16.ns", laggard(16, budget));
    add("engine.laggard.n64.ns", laggard(64, budget));
    add("engine.eventq.ns", event_queue(budget));
    add("engine.resource.acquire.ns", resource_acquire(budget));
    add("engine.pool.forkjoin.w1.ns", pool_forkjoin(1, budget));
    add("engine.pool.forkjoin.wN.ns", pool_forkjoin(workers, budget));
    add("core.calibrate.s", calibrate_s);

    machine_new(report, &study);
    machine_sched(report, &study, workers);
    machine_observe(report, &study);
    core_matrix(report, &study);
}

/// Seconds `f` took.
fn timed(f: impl FnOnce()) -> Duration {
    let started = Instant::now();
    f();
    started.elapsed()
}

/// Calls `batch` — which makes `calls` calls and returns how long they
/// took, leaving any preparation untimed — until `budget` of wall-clock
/// is spent. Returns nanoseconds per call in the fastest batch (host
/// interference only ever adds time) and the batches made.
fn ns_per_call(budget: Duration, calls: u64, mut batch: impl FnMut() -> Duration) -> (f64, u64) {
    let started = Instant::now();
    let mut fastest = Duration::MAX;
    let mut batches = 0u64;
    while batches == 0 || started.elapsed() < budget {
        fastest = fastest.min(batch());
        batches += 1;
    }
    (fastest.as_nanos() as f64 / calls as f64, batches)
}

/// `spawn_stream` + `peek_op`/`advance`: op delivery from a generator
/// thread that does nothing but emit.
fn isa_stream(budget: Duration) -> f64 {
    const BATCH: u64 = 8192;
    let mut stream = spawn_stream(|sink| {
        let mut i = 0u64;
        while sink.is_live() {
            for _ in 0..1024 {
                sink.load(VAddr(i * 8));
                sink.alu(1);
                i += 1;
            }
        }
    });
    let mut addr_sum = 0u64;
    let (ns, batches) = ns_per_call(budget, BATCH, || {
        timed(|| {
            for _ in 0..BATCH {
                let op = stream.peek_op().expect("the kernel emits until dropped");
                addr_sum = addr_sum.wrapping_add(op.addr.get());
                stream.advance();
            }
        })
    });
    let loads = batches * BATCH / 2;
    assert_eq!(stream.consumed(), batches * BATCH);
    assert_eq!(
        addr_sum,
        8 * (loads * (loads - 1) / 2),
        "ops arrived out of order"
    );
    ns
}

/// Drains every thread's `Program::stream` with no machine attached:
/// what generating the ops alone costs, in ns per op.
pub fn generate(program: &dyn Program) -> f64 {
    let mut ops = 0u64;
    let mut memory = 0u64;
    let took = timed(|| {
        for tid in 0..program.num_threads() {
            for op in program.stream(tid) {
                ops += 1;
                memory += u64::from(op.class.is_memory());
            }
        }
    });
    assert!(
        memory > 0 && memory < ops,
        "{}: {memory} memory ops of {ops}",
        program.name()
    );
    took.as_nanos() as f64 / ops as f64
}

/// `Core::execute` on a fixed alu/load/fpmul/store mix against an
/// environment where every access hits.
fn cpu(model: CpuModel, budget: Duration) -> f64 {
    const OPS: u64 = 1024;
    let ops: Vec<Op> = (0..OPS)
        .map(|i| {
            let dst = Reg(8 + (i % 48) as u8);
            let prev = Reg(8 + ((i + 47) % 48) as u8);
            let addr = VAddr(0x1000 + (i % 64) * 8);
            match i % 4 {
                0 => Op::compute(OpClass::IntAlu, dst, Reg::ZERO, Reg::ZERO),
                1 => Op::load(addr, dst, Reg::ZERO),
                2 => Op::compute(OpClass::FpMul, dst, prev, Reg::ZERO),
                _ => Op::store(addr, Reg::ZERO, prev),
            }
        })
        .collect();
    let mut core = model.build();
    let mut env = FixedEnv::all_hits();
    let (ns, batches) = ns_per_call(budget, OPS, || {
        timed(|| {
            for op in &ops {
                core.execute(op, &mut env);
            }
        })
    });
    assert_eq!(env.calls, batches * OPS / 2, "{}", core.model_name());
    assert!(core.now() > Time::ZERO);
    ns
}

/// Brings `paddr` into `hier` the way the machine's miss path does.
fn touch(hier: &mut CacheHierarchy, paddr: PAddr) -> HierProbe {
    let probe = hier.probe(paddr, false);
    match probe {
        HierProbe::L1Hit => {}
        HierProbe::L2Hit => hier.fill_l1_from_l2(paddr, false),
        HierProbe::L2Upgrade => hier.complete_upgrade(paddr),
        HierProbe::L2Miss => {
            black_box(hier.fill_from_memory(paddr, false, true));
        }
    }
    probe
}

/// `CacheHierarchy::probe` on a working set that fits the L1.
fn hier_probe_hit(g: MachineGeometry, budget: Duration) -> f64 {
    let mut hier = CacheHierarchy::new(g.l1, g.l2);
    let set: Vec<PAddr> = (0..g.l1.bytes / 2 / g.l1.line_bytes)
        .map(|i| PAddr(0x10_0000 + i * g.l1.line_bytes))
        .collect();
    for &paddr in &set {
        touch(&mut hier, paddr);
    }
    let mut hits = 0u64;
    let (ns, batches) = ns_per_call(budget, set.len() as u64, || {
        timed(|| {
            for &paddr in &set {
                hits += u64::from(hier.probe(paddr, false) == HierProbe::L1Hit);
            }
        })
    });
    assert_eq!(hits, batches * set.len() as u64);
    ns
}

/// `probe` + `fill_from_memory` with eviction, cycling over four times
/// the L2: every access misses both levels and displaces a line.
fn hier_miss_fill(g: MachineGeometry, budget: Duration) -> f64 {
    let mut hier = CacheHierarchy::new(g.l1, g.l2);
    let set: Vec<PAddr> = (0..4 * g.l2.bytes / g.l2.line_bytes)
        .map(|i| PAddr(0x100_0000 + i * g.l2.line_bytes))
        .collect();
    for &paddr in &set {
        touch(&mut hier, paddr);
    }
    let mut misses = 0u64;
    let (ns, batches) = ns_per_call(budget, set.len() as u64, || {
        timed(|| {
            for &paddr in &set {
                misses += u64::from(touch(&mut hier, paddr) == HierProbe::L2Miss);
            }
        })
    });
    assert_eq!(misses, batches * set.len() as u64);
    assert!(hier.l2().evictions() >= misses);
    ns
}

/// `Tlb::translate` over exactly as many pages as the TLB holds.
fn tlb_hit(g: MachineGeometry, budget: Duration) -> f64 {
    let mut tlb = Tlb::new(g.tlb_entries, g.page_bytes);
    let pages = g.tlb_entries as u64;
    for vpn in 0..pages {
        tlb.insert(vpn, vpn + 100);
    }
    const CALLS: u64 = 4096;
    let mut pfn_sum = 0u64;
    let (ns, batches) = ns_per_call(budget, CALLS, || {
        timed(|| {
            for i in 0..CALLS {
                let pfn = tlb.translate(VAddr((i % pages) * PAGE + 8));
                pfn_sum += pfn.expect("resident page");
            }
        })
    });
    assert_eq!(tlb.hits(), batches * CALLS);
    assert!(pfn_sum > 0);
    ns
}

/// `translate` miss + `insert` with LRU eviction, cycling over four
/// times the TLB's reach.
fn tlb_miss_insert(g: MachineGeometry, budget: Duration) -> f64 {
    let mut tlb = Tlb::new(g.tlb_entries, g.page_bytes);
    let pages = 4 * g.tlb_entries as u64;
    const CALLS: u64 = 4096;
    let (ns, batches) = ns_per_call(budget, CALLS, || {
        timed(|| {
            for i in 0..CALLS {
                let vpn = i % pages;
                if tlb.translate(VAddr(vpn * PAGE)).is_none() {
                    tlb.insert(vpn, vpn + 100);
                }
            }
        })
    });
    assert_eq!(tlb.misses(), batches * CALLS);
    ns
}

/// `PageTable::translate` over 2048 mapped pages.
fn page_translate(budget: Duration) -> f64 {
    const PAGES: u64 = 2048;
    let mut table = PageTable::new();
    for vpn in 0..PAGES {
        table.map(0x1_0000 + vpn, vpn);
    }
    let mut sum = 0u64;
    let (ns, _) = ns_per_call(budget, PAGES, || {
        timed(|| {
            for i in 0..PAGES {
                let vaddr = VAddr((0x1_0000 + (i * 37) % PAGES) * PAGE + 8);
                sum += table.translate(vaddr, PAGE).expect("mapped page").get();
            }
        })
    });
    assert!(sum > 0);
    ns
}

/// `FrameAllocator::alloc`, colour-hashed, a quarter of each node's
/// frames per freshly built allocator.
fn page_alloc(g: MachineGeometry, budget: Duration) -> f64 {
    const NODES: u32 = 16;
    let per_node = g.frames_per_node() / 4;
    let calls = u64::from(NODES) * per_node;
    let (ns, _) = ns_per_call(budget, calls, || {
        let mut allocator = FrameAllocator::new(
            AllocPolicy::ColorHashed,
            NODES,
            g.frames_per_node(),
            g.page_bytes,
            g.colors(),
        );
        let took = timed(|| {
            for vpn in 0..per_node {
                for node in 0..NODES {
                    black_box(allocator.alloc(node, vpn * 7 + u64::from(node)));
                }
            }
        });
        assert_eq!(allocator.allocated(), calls);
        took
    });
    ns
}

const DIR_LINES: u64 = 4096;

fn dir_line(i: u64) -> LineAddr {
    LineAddr(i * LINE)
}

/// `Directory::read` walking each line from uncached through owned to
/// sixteen sharers.
fn dir_read(budget: Duration) -> f64 {
    const NODES: u32 = 16;
    let (ns, _) = ns_per_call(budget, u64::from(NODES) * DIR_LINES, || {
        let mut dir = Directory::new(1 << 20);
        let took = timed(|| {
            for node in 0..NODES {
                for i in 0..DIR_LINES {
                    black_box(dir.read(dir_line(i), node));
                }
            }
        });
        // Sixteen sharers: the head inline, fifteen chained pointers.
        assert_eq!(u64::from(dir.pool_used()), 15 * DIR_LINES);
        took
    });
    ns
}

/// `Directory::read_exclusive` on lines three nodes share.
fn dir_rdex(budget: Duration) -> f64 {
    let (ns, _) = ns_per_call(budget, DIR_LINES, || {
        let mut dir = Directory::new(1 << 20);
        for node in 0..3 {
            for i in 0..DIR_LINES {
                dir.read(dir_line(i), node);
            }
        }
        let mut invalidated = 0u64;
        let took = timed(|| {
            for i in 0..DIR_LINES {
                invalidated += dir.read_exclusive(dir_line(i), 5).invalidate.len() as u64;
            }
        });
        assert_eq!(invalidated, 3 * DIR_LINES);
        took
    });
    ns
}

/// `Directory::read` with a 64-slot pointer pool under pressure: nearly
/// every read reclaims a pointer by invalidating a sharer.
fn dir_pool_reclaim(budget: Duration) -> f64 {
    const NODES: u32 = 16;
    const LINES: u64 = 1024;
    let mut dir = Directory::new(64);
    let calls = u64::from(NODES) * LINES;
    let (ns, batches) = ns_per_call(budget, calls, || {
        timed(|| {
            for node in 0..NODES {
                for i in 0..LINES {
                    black_box(dir.read(dir_line(i), node));
                }
            }
        })
    });
    assert!(
        dir.reclaims() * 10 >= batches * calls * 8,
        "{} reclaims in {} reads",
        dir.reclaims(),
        batches * calls
    );
    ns
}

/// `Network::deliver` on a FLASH hypercube, alternating header and data
/// messages; `hot` sends everything to node 0.
fn net_deliver(nodes: u32, hot: bool, budget: Duration) -> f64 {
    const CALLS: u64 = 4096;
    let topology = Topology::hypercube(nodes).expect("power-of-two node count");
    let mut net = Network::new(topology, NetworkParams::flash());
    let sizes = FlashLiteParams::hardware();
    let mut rng = Rng::seeded(u64::from(nodes));
    let pairs: Vec<(u32, u32)> = (0..CALLS)
        .map(|i| {
            if hot {
                (1 + (i % u64::from(nodes - 1)) as u32, 0)
            } else {
                let from = rng.gen_range(u64::from(nodes));
                let to = (from + 1 + rng.gen_range(u64::from(nodes - 1))) % u64::from(nodes);
                (from as u32, to as u32)
            }
        })
        .collect();
    let mut now = Time::ZERO;
    let (ns, batches) = ns_per_call(budget, CALLS, || {
        timed(|| {
            for (i, &(from, to)) in pairs.iter().enumerate() {
                let bytes = sizes.header_bytes + (i as u64 % 2) * sizes.line_bytes;
                black_box(net.deliver(from, to, bytes, now));
                now += TimeDelta::from_ns(50);
            }
        })
    });
    let stats = net.stats();
    assert_eq!(stats.get_or_zero("net.messages"), (batches * CALLS) as f64);
    assert!(stats.get_or_zero("net.hops") >= (batches * CALLS) as f64);
    ns
}

/// `MemorySystem::access` through `MemSysKind::build(16, …)` on a seeded
/// request stream shaped like the storm variant: sixteen requesters, each
/// issuing its next miss a little after its last one completed.
fn memsys_access(
    kind: MemSysKind,
    g: MachineGeometry,
    variant: StormVariant,
    budget: Duration,
) -> f64 {
    const NODES: u32 = 16;
    const CALLS: u64 = 4096;
    const LINES_PER_HOME: u64 = 4096;
    let mut memsys = kind.build(NODES, g.node_mem_bytes);
    let mut rng = Rng::seeded(0x5707 + variant as u64);
    let requests: Vec<(u32, LineAddr, AccessKind)> = (0..CALLS)
        .map(|i| {
            let home = match variant {
                StormVariant::Hot => 0,
                StormVariant::Read | StormVariant::ReadWrite => rng.gen_range(u64::from(NODES)),
            };
            let line = LineAddr(home * g.node_mem_bytes + rng.gen_range(LINES_PER_HOME) * LINE);
            let write = variant != StormVariant::Read && rng.gen_range(100) < 30;
            let kind = if write {
                AccessKind::ReadExclusive
            } else {
                AccessKind::ReadShared
            };
            ((i % u64::from(NODES)) as u32, line, kind)
        })
        .collect();
    let mut ready = [Time::ZERO; NODES as usize];
    let (ns, batches) = ns_per_call(budget, CALLS, || {
        timed(|| {
            for &(node, line, kind) in &requests {
                let outcome = memsys.access(MemRequest {
                    node,
                    line,
                    kind,
                    now: ready[node as usize],
                });
                ready[node as usize] = outcome.done_at + TimeDelta::from_ns(200);
            }
        })
    });
    let stats = memsys.stats();
    let transactions: f64 = stats
        .iter()
        .filter(|(key, _)| key.starts_with("proto.") && key.ends_with(".count"))
        .map(|(_, count)| count)
        .sum();
    assert_eq!(
        transactions,
        (batches * CALLS) as f64,
        "{}",
        memsys.model_name()
    );
    ns
}

/// `LaggardHeap` pop + insert: one scheduling decision.
fn laggard(nodes: u32, budget: Duration) -> f64 {
    const CALLS: u64 = 4096;
    let mut heap = LaggardHeap::new(nodes as usize);
    for node in 0..nodes {
        heap.insert(node, Time::from_ns(u64::from(node)));
    }
    let mut last = Time::ZERO;
    let mut ordered = true;
    let (ns, _) = ns_per_call(budget, CALLS, || {
        timed(|| {
            for _ in 0..CALLS {
                let (node, at) = heap.pop().expect("every node is queued");
                ordered &= at >= last;
                last = at;
                heap.insert(node, at + TimeDelta::from_ns(100 + 7 * u64::from(node)));
            }
        })
    });
    assert!(ordered, "laggards popped out of time order");
    assert_eq!(heap.len(), nodes as usize);
    ns
}

/// `EventQueue` pop + push with 64 events pending.
fn event_queue(budget: Duration) -> f64 {
    const CALLS: u64 = 4096;
    let mut queue = EventQueue::new();
    for k in 0..64u64 {
        queue.push(Time::from_ns(k), k);
    }
    let mut last = Time::ZERO;
    let mut ordered = true;
    let (ns, _) = ns_per_call(budget, CALLS, || {
        timed(|| {
            for _ in 0..CALLS {
                let (at, k) = queue.pop().expect("64 events pending");
                ordered &= at >= last;
                last = at;
                queue.push(at + TimeDelta::from_ns(1000 + 13 * k), k);
            }
        })
    });
    assert!(ordered, "events popped out of time order");
    assert_eq!(queue.len(), 64);
    ns
}

/// `Resource::acquire` with arrivals that sometimes queue.
fn resource_acquire(budget: Duration) -> f64 {
    const CALLS: u64 = 4096;
    let mut resource = Resource::new("drive");
    let mut now = Time::ZERO;
    let (ns, batches) = ns_per_call(budget, CALLS, || {
        timed(|| {
            for i in 0..CALLS {
                now += TimeDelta::from_ns(100);
                black_box(resource.acquire(now, TimeDelta::from_ns(60 + 90 * (i % 2))));
            }
        })
    });
    assert_eq!(resource.grants(), batches * CALLS);
    assert!(resource.contended_grants() > 0);
    ns
}

/// One `WorkerPool::run_all` round of one empty job per worker.
fn pool_forkjoin(workers: usize, budget: Duration) -> f64 {
    const ROUNDS: u64 = 64;
    let pool = WorkerPool::new(workers);
    let (ns, batches) = ns_per_call(budget, ROUNDS, || {
        timed(|| {
            for _ in 0..ROUNDS {
                pool.run_all(
                    (0..workers)
                        .map(|_| Box::new(|_: usize| {}) as Job)
                        .collect(),
                );
            }
        })
    });
    let jobs: u64 = pool.lanes().iter().map(|lane| lane.jobs).sum();
    assert_eq!(jobs, batches * ROUNDS * workers as u64);
    ns
}

fn sim_config(study: &Study, nodes: u32) -> MachineConfig {
    study.sim(MIPSY, nodes, MemModel::FlashLite)
}

/// Builds and runs one machine; returns its result and ops per host
/// second over `Machine::new` + `Machine::run`.
fn machine_rate(cfg: MachineConfig, program: &dyn Program) -> (RunResult, f64) {
    let started = Instant::now();
    let result = Machine::new(cfg, program)
        .expect("drive configuration is valid")
        .run()
        .expect("drive program completes");
    let rate = result.total_ops() as f64 / started.elapsed().as_secs_f64();
    (result, rate)
}

/// `machine.new.s`: median of five 64-node constructions (which spawn the
/// op-generator threads); tearing the machine down is not timed.
fn machine_new(report: &mut Report, study: &Study) {
    let program = Ocean::sized(SCALE, 64);
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            let machine = Machine::new(sim_config(study, 64), &program);
            let took = started.elapsed().as_secs_f64();
            assert!(machine.is_ok());
            took
        })
        .collect();
    report.metric("machine.new.s", median(&samples), "nodes=64 n=5");
}

/// `machine.sched.*`: one Ocean sweep at 16 and 64 nodes on
/// simos-mipsy-150/flashlite with only the scheduling policy swapped.
/// The four results must be identical — that is the drive's checksum.
/// No workload cell runs `Parallel`, so its internals are read here: the
/// 64-node `parallel_wN` run carries `hostprof`, whose fork-admission
/// tallies and worker lanes become `machine.fork.*` and
/// `engine.pool.*.frac`.
fn machine_sched(report: &mut Report, study: &Study, workers: usize) {
    let policies = [
        ("reference", SchedPolicy::Reference),
        ("batched", SchedPolicy::Batched),
        ("parallel_w1", SchedPolicy::Parallel { workers: 1 }),
        ("parallel_wN", SchedPolicy::Parallel { workers }),
    ];
    for nodes in [16u32, 64] {
        // One sweep, not the scaled problem's two: half the time, the
        // same loop.
        let program = Ocean::new(256, 1, nodes as usize);
        let mut digests = Vec::new();
        for (key, sched) in policies {
            let mut cfg = sim_config(study, nodes);
            cfg.sched = sched;
            cfg.hostprof = nodes == 64 && key == "parallel_wN";
            let (result, rate) = machine_rate(cfg, &program);
            digests.push(sim_digest(&result));
            report.metric(
                &format!("machine.sched.ocean{nodes}.{key}.ops_per_s"),
                rate,
                &format!("workers={workers}"),
            );
            if let Some(profile) = &result.hostprof {
                parallel_internals(report, profile);
            }
        }
        assert!(
            digests.windows(2).all(|w| w[0] == w[1]),
            "policies disagree at {nodes} nodes: {digests:x?}"
        );
    }
}

/// Fork-admission outcomes and worker-lane shares of one `Parallel` run.
fn parallel_internals(report: &mut Report, profile: &HostReport) {
    let admission = profile.admission;
    assert!(admission.rounds > 0, "a Parallel run made no fork round");
    report.metric("machine.fork.rounds", admission.rounds as f64, "");
    report.metric(
        "machine.fork.admitted_ops",
        admission.admitted_ops as f64,
        "",
    );
    report.metric(
        "machine.fork.rejected_horizon",
        admission.rejected_horizon as f64,
        "",
    );
    report.metric(
        "machine.fork.rejected_shared",
        admission.rejected_shared as f64,
        "",
    );
    let lane = |pick: fn(&WorkerLane) -> u64| profile.workers.iter().map(pick).sum::<u64>() as f64;
    let (execute, steal, idle) = (
        lane(|l| l.execute_ns),
        lane(|l| l.steal_ns),
        lane(|l| l.idle_ns),
    );
    let all = execute + steal + idle;
    let rounds_frac = HostPhase::ALL[1..4]
        .iter()
        .map(|phase| profile.fraction(*phase))
        .sum::<f64>();
    report.metric("engine.pool.execute.frac", execute / all, "");
    report.metric("engine.pool.steal.frac", steal / all, "");
    report.metric(
        "engine.pool.idle.frac",
        idle / all,
        &format!("host_scan_fork_commit_frac={rounds_frac}"),
    );
}

/// `machine.observe.*`: lu at 16 nodes with no observer, with telemetry
/// and the profiler, and with the `mp16-observed` set.
fn machine_observe(report: &mut Report, study: &Study) {
    let program = Lu::sized(SCALE, 16);
    let detached = sim_config(study, 16);
    let mut telemetry_profile = detached.clone();
    telemetry_profile.telemetry = Some(TimeDelta::from_us(50));
    telemetry_profile.profile = true;
    let mut all = telemetry_profile.clone();
    all.spans = Some(SpanPlan::sampled(1, 64));

    let (plain, detached_rate) = machine_rate(detached, &program);
    assert!(plain.accounting.is_none() && plain.telemetry.is_none() && plain.spans.is_none());
    let (profiled, profiled_rate) = machine_rate(telemetry_profile, &program);
    assert!(profiled.accounting.is_some() && profiled.telemetry.is_some());
    let (observed, all_rate) = machine_rate(all, &program);
    assert!(observed.spans.is_some_and(|s| !s.txns.is_empty()));

    report.metric("machine.observe.detached.ops_per_s", detached_rate, "");
    report.metric(
        "machine.observe.telemetry_profile.ops_per_s",
        profiled_rate,
        "",
    );
    report.metric("machine.observe.all.ops_per_s", all_rate, "");
    report.metric(
        "machine.observe.all.overhead_frac",
        detached_rate / all_rate - 1.0,
        "",
    );
}

/// `core.matrix.speedup`: one 16-node Ocean sweep on four platforms
/// through `run_matrix`, against the same cells run one after another.
fn core_matrix(report: &mut Report, study: &Study) {
    let program: Arc<dyn Program> = Arc::new(Ocean::new(256, 1, 16));
    let cells: Vec<MatrixCell> = [
        study.hardware(16),
        sim_config(study, 16),
        study.sim(MIPSY, 16, MemModel::Numa),
        study.sim(Sim::SoloMipsy(150), 16, MemModel::FlashLite),
    ]
    .into_iter()
    .map(|cfg| (cfg, Arc::clone(&program)))
    .collect();
    let mut serial_times = Vec::new();
    let serial = timed(|| {
        for (cfg, program) in &cells {
            let (result, _) = machine_rate(cfg.clone(), program.as_ref());
            serial_times.push(result.parallel_time);
        }
    });
    let mut outcomes = Vec::new();
    let matrix = timed(|| outcomes = run_matrix(cells, None));
    let matrix_times: Vec<_> = outcomes.iter().filter_map(|o| o.parallel_time()).collect();
    assert_eq!(serial_times, matrix_times, "run_matrix changed a result");
    report.metric(
        "core.matrix.speedup",
        serial.as_secs_f64() / matrix.as_secs_f64(),
        &format!(
            "cells={} nproc={}",
            serial_times.len(),
            WorkerPool::host_parallelism()
        ),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every isolated drive runs (with its assertions) on a tiny budget.
    #[test]
    fn isolated_drives_pass_their_own_checks() {
        let tiny = Duration::from_millis(2);
        let g = MachineGeometry::scaled();
        assert!(isa_stream(tiny) > 0.0);
        assert!(cpu(CpuModel::Mxs, tiny) > 0.0);
        assert!(hier_probe_hit(g, tiny) > 0.0);
        assert!(hier_miss_fill(g, tiny) > 0.0);
        assert!(tlb_hit(g, tiny) > 0.0);
        assert!(tlb_miss_insert(g, tiny) > 0.0);
        assert!(page_translate(tiny) > 0.0);
        assert!(page_alloc(g, tiny) > 0.0);
        assert!(dir_read(tiny) > 0.0);
        assert!(dir_rdex(tiny) > 0.0);
        assert!(dir_pool_reclaim(tiny) > 0.0);
        assert!(net_deliver(16, false, tiny) > 0.0);
        assert!(net_deliver(16, true, tiny) > 0.0);
        for kind in [
            MemSysKind::FlashLite(FlashLiteParams::hardware()),
            MemSysKind::Numa(NumaParams::matched()),
        ] {
            for variant in StormVariant::ALL {
                assert!(memsys_access(kind, g, variant, tiny) > 0.0);
            }
        }
        assert!(laggard(64, tiny) > 0.0);
        assert!(event_queue(tiny) > 0.0);
        assert!(resource_acquire(tiny) > 0.0);
        assert!(pool_forkjoin(2, tiny) > 0.0);
    }
}
