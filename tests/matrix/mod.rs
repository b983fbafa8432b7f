//! The one digest matrix: every determinism and equivalence contract of
//! the simulator as one table of cells. A cell's *class* is a platform, a
//! program at a node count, an observer set and a fault plan; the cell
//! adds a scheduling policy, the host profiler on or off, a checkpoint
//! sink on or off, and a restore point. Each cell runs once, its outputs
//! are digested with `ckpt::provenance_hash`, and every cell of a class
//! must reproduce the class's one recorded row: that carries `Reference`
//! ≡ `Batched` ≡ `Parallel`, host profiler attached ≡ detached, sink
//! attached ≡ straight, straight ≡ restored, and this run ≡ the recorded
//! one.
//!
//! Row fields, each where some cell of the class produces it: `run`, the
//! `flashsim-artifacts-v1` rendering (times, per-node ops, barrier
//! releases, stats, accounting and telemetry; spans left out); `acct`,
//! the whole `Accounting`; `tel` and `spans`, the two exports; `ckpt`,
//! every checkpoint's state body; `err`, a failure's `SimError` `Debug`
//! text. Two are the `Batched` cells' alone: `series`, the whole
//! `TelemetrySeries` of an unrestored run with its policy-shaped
//! `sched.*` metrics, and `texts`, the checkpoint files whole (their
//! provenance line names the policy).
//!
//! The table names, for each cell, the suite that runs it: a test file
//! `tests/<suite>_*.rs` that includes this module. Its tests read the
//! classes they check through [`ran`] and [`class`], which run this
//! suite's cells of a class once per test binary, spread over the host's
//! cores, and share them between the suite's tests. A moved digest fails
//! with the recomputed row, ready to paste once the move is explained.
//! `tests/digest_matrix.rs` checks the table itself.

#![allow(dead_code)] // each suite reads part of it

mod scope;

use flashsim::engine::ckpt;
use flashsim::engine::{
    span, telemetry, Accounting, FaultPlan, SpanPlan, SpanSet, StatSet, TelemetrySeries, Time,
    TimeDelta,
};
use flashsim::journal::render_artifacts;
use flashsim::machine::{Machine, MachineConfig, RunResult, SchedPolicy, SimError};
use flashsim::platform::{MemModel, Sim, Study};
use flashsim::runner::CellOutcome;

use flashsim::workloads::{Fft, FftBlocking, ProblemScale, SnCase, Snbench, SyncStorm};
use flashsim_isa::{Placement, Program, Segment, Sink, VAddr};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, OnceLock};
pub use Fault::{Budget, Clean, Mixed, Stall, Tick};

/// The table. Each line is a [`program`], an observer set ([`observe`]),
/// a [`Fault`] plan and the [`platforms`] it runs on — one class per
/// platform — then the cells of each class (see [`Cell::parse`]), listed
/// after the suite that runs them.
#[rustfmt::skip]
pub const TABLE: &[(&str, &str, Fault, &str, &str)] = &[
    // The 2-node FFT bare; profiled; under every observer, restored from
    // every barrier under `Batched` and from the middle one under
    // `Parallel` (a checkpoint cut with the host profiler, restored
    // without it); under a fault plan, restored likewise; and with
    // sampled spans.
    ("fft2", "none", Clean, "every", "sched: R B+host P+host; ckpt: B+sink"),
    ("fft2", "profile", Clean, "every", "account: R; sched: B P"),
    ("fft2", "all", Clean, "every",
        "telemetry: R B; ckpt: B+sink B@every; hostprof: R+host P+host+sink P@mid"),
    ("fft2", "profile", Mixed, "every", "sched: R B P"),
    ("fft2", "all", Mixed, "one", "ckpt: R B+sink B@every; sched: P+sink P@mid"),
    ("fft2", "sampled", Clean, "mipsy", "span: R B P"),
    // Four nodes, where fork/join rounds fork several nodes at once.
    ("fft4", "all", Clean, "every", "sched: R B+host+sink P+host+sink"),
    // Lock hand-off chains and per-round barriers; node 0 chasing pointers
    // alone between barriers; a stalled node starving the machine; and 64
    // nodes whose sync ops mostly park their node.
    ("storm", "profile", Clean, "every", "sched: R B P"),
    ("snbench", "none", Clean, "pair", "sched: R B P"),
    // Node 1 dirtying the chase region alone, 180 ALU ops after every
    // store: local runs of 180 ops that the timer ticks every 100 µs cut,
    // and a watchdog budget that expires in the middle of one.
    ("snbench-dirty", "none", Tick(100), "pair", "sched: R B P"),
    ("snbench-dirty", "none", Budget(SN_BUDGET), "pair", "sched: R B"),
    // The same runs ended at a stall 90 ALU ops into one of them, and
    // marked by the profiler, whose phase buckets they cross.
    ("snbench-dirty", "none", Stall(11, 1, SN_STALL), "pair", "sched: R B P"),
    ("snbench-dirty", "profile", Clean, "pair", "sched: R B P"),
    ("storm2", "none", Stall(7, 1, 120), "one", "sched: R B P"),
    ("grid64", "profile", Clean, "pair", "sched: R B P:1 P:2 P:host"),
    // The same 64 nodes with node 37 stalled mid-run, and with a watchdog
    // budget expiring mid-run: the stall sweep's and the budget stop's
    // 64-node paths through the reference oracle's clock vector. The
    // budget row has no `B` cell: `Batched` runs node-private ops ahead
    // of the reference order inside its lookahead window, so a budget
    // that expires in a contested phase stops it with a different
    // per-node split of the same 40 000 ops (ROADMAP item 6).
    ("grid64", "none", Stall(5, 37, 500), "one", "sched: R B"),
    ("grid64", "none", Budget(40_000), "one", "sched: R"),
    // [`EpochEdges`] (3432 ops, 1533 on node 0, 900 of them alone); failing
    // mid-batch (stalls in the solo run, the contested phase and the lock
    // ping-pong; budgets inside the solo batch, the last on the barrier
    // ending it); and a long contested phase of more than 8192
    // scheduling decisions, with the host profiler on `Batched` and
    // `Parallel`.
    ("edges", "profile", Clean, "every", "sched: R B P"),
    ("edges", "none", Stall(3, 0, 1083), "pair", "sched: R B P"),
    ("edges", "none", Stall(3, 2, 350), "pair", "sched: R B P"),
    ("edges", "none", Stall(3, 1, 12), "pair", "sched: R B P"),
    ("edges", "none", Budget(2982), "pair", "sched: R B P"),
    ("edges", "none", Budget(3430), "pair", "sched: R B P"),
    ("edges", "none", Budget(3431), "pair", "sched: R B P"),
    ("edges-long", "all", Clean, "pair", "sched: R B P; hostprof: B+host P+host"),
    // A small-scope program, as `tests/small_scope.rs` prints one it finds
    // the policies disagreeing on: node 1 stalled two ops into a 50-op
    // local run, profiled.
    ("scope-sAl-AsA", "profile", Stall(0, 1, 2), "hardware", "sched: R B"),
];

/// The budget of the `snbench-dirty` row: nodes 0, 2 and 3 each dispatch
/// their first barrier, and node 1 stops after 300 store-and-ALU groups
/// of 181 ops and the store and 90 ALU ops of the next.
pub const SN_BUDGET: u64 = 3 + 300 * 181 + 91;

/// The stall point of the `snbench-dirty` stall row: node 1's ops at the
/// budget stop above, 300 groups of 181 ops and then the store and 90 of
/// the 180 ALU ops of the next, so the stall cuts a local run in half.
pub const SN_STALL: u64 = SN_BUDGET - 3;

/// Every recorded row: a class name, then `field:digest`. The `tel`,
/// `spans` and `texts` of `fft2/all/*` and `fft2/all/faults/*` predate the
/// last rewrites of the export walks and the checkpoint walk.
pub const RECORDED: &[&str] = &[
    "fft2/none/hardware run:30951d9eb95125e4 ckpt:cc67a06f61b3c590 texts:e156c3e070e011c6",
    "fft2/none/simos-mipsy-150/flashlite run:eb34218618c55ef2 ckpt:13f3ba0ed8499b72 texts:1e975ae3e42ae892",
    "fft2/none/simos-mipsy-150/numa run:82150d84aa0ba572 ckpt:989f9c84c082dc4c texts:bb816cf812278265",
    "fft2/none/solo-mipsy-150/flashlite run:3a2899ead76fcfd5 ckpt:fbd952ec210907ee texts:291279fbd5a22b31",
    "fft2/none/solo-mipsy-150/numa run:f2654eab139642d8 ckpt:5cff1fa14b213d0d texts:b845204542b4a53a",
    "fft2/none/simos-mxs/flashlite run:ef26a4f98718eca3 ckpt:b94b7123243fd9a4 texts:ee52d9394ee1dee7",
    "fft2/none/simos-mxs/numa run:18505671c54a1840 ckpt:79209f94af558fbf texts:f0cadd1e5648d081",
    "fft2/profile/hardware run:883497f8db628a88 acct:1ba343c801e9952d",
    "fft2/profile/simos-mipsy-150/flashlite run:6f03d9fd41f1121e acct:7b24e6ae43a946dc",
    "fft2/profile/simos-mipsy-150/numa run:9aaa4e4bdfb1841b acct:90ce591e7eb81f84",
    "fft2/profile/solo-mipsy-150/flashlite run:727f8ec01f18bf29 acct:95aec1b2beb8f61c",
    "fft2/profile/solo-mipsy-150/numa run:5ab0e11150247b14 acct:ac3b1148dea6602e",
    "fft2/profile/simos-mxs/flashlite run:8a190a281ea50af2 acct:763a0cd0a5e396d4",
    "fft2/profile/simos-mxs/numa run:04227e6000133238 acct:8ff55d2e9a8a07bf",
    "fft2/all/hardware run:d5372d1b24755d14 acct:1ba343c801e9952d tel:1e67de6e2e95f108 spans:f02435e1ae1a88d4 ckpt:cbf78ec2d1bc9666 series:373c20da213df483 texts:9c17981c045f3f68",
    "fft2/all/simos-mipsy-150/flashlite run:865fe25d5d3c3eaf acct:7b24e6ae43a946dc tel:764826b491f1a5d0 spans:06ba570fab9a0e9f ckpt:cc6a0d0399cf9462 series:1badebd86bcbae81 texts:0083e173f8667e7b",
    "fft2/all/simos-mipsy-150/numa run:6d3a3781c78b79a4 acct:90ce591e7eb81f84 tel:29883ac53f608192 spans:ca1357536527cdb0 ckpt:f6e844f352468dd7 series:1faa614c1a4e2051 texts:9ed12f96c5f2401d",
    "fft2/all/solo-mipsy-150/flashlite run:d1fda94de8f6eeaa acct:95aec1b2beb8f61c tel:cd79d6566c6cd443 spans:2829152523a2d4fd ckpt:ddbd76cdf0c62c85 series:b2da143546d4234c texts:1a247f531155f394",
    "fft2/all/solo-mipsy-150/numa run:c68d7255dceceb92 acct:ac3b1148dea6602e tel:3858d7ea01066f27 spans:872e075726ebf7c6 ckpt:a1a6743410b1d7a9 series:cbc50944aff1797d texts:e125e35d08493637",
    "fft2/all/simos-mxs/flashlite run:2a6eb6e55f00750b acct:763a0cd0a5e396d4 tel:bd47c6bdcc357097 spans:7a7328de813d848f ckpt:a436dfcb5bc846e5 series:d9a0b93ac925ee5a texts:fcf68ee54c94abc9",
    "fft2/all/simos-mxs/numa run:3cfb776bf231f75d acct:8ff55d2e9a8a07bf tel:8d686568867ac051 spans:302dd1d8fd47ea34 ckpt:19424f19d8637172 series:4ed12989f169e242 texts:8270d0d1cc376c92",
    "fft2/profile/faults/hardware run:266e18df36c44104 acct:a93621816900dfbc",
    "fft2/profile/faults/simos-mipsy-150/flashlite run:ccb8b70d303c645a acct:c8ecff2dc0a46f2b",
    "fft2/profile/faults/simos-mipsy-150/numa run:4d2dd1ecbf0f3813 acct:97108b6cb60c54a0",
    "fft2/profile/faults/solo-mipsy-150/flashlite run:d12bf89d4ed1a696 acct:b16de4d3b272a72f",
    "fft2/profile/faults/solo-mipsy-150/numa run:ab4e73c504930384 acct:5eb2e6e7dd522fd1",
    "fft2/profile/faults/simos-mxs/flashlite run:59adf30ceb683317 acct:804747cd945bee61",
    "fft2/profile/faults/simos-mxs/numa run:b0bdb07cdb8436eb acct:aeade962b6f360af",
    "fft2/all/faults/simos-mipsy-150/flashlite run:c03cfc88a0704f74 acct:c8ecff2dc0a46f2b tel:b41e6521b04ed039 spans:81a0a62e291370d5 ckpt:5f3a0f01d4a61931 series:bac5b8a90bed13aa texts:a6af9a22c3b5d0d5",
    "fft2/sampled/simos-mipsy-150/flashlite run:eb34218618c55ef2 spans:81d89e35473361c2",
    "fft2/sampled/simos-mipsy-150/numa run:82150d84aa0ba572 spans:a3f5a46923b9483f",
    "fft4/all/hardware run:8332d3e5b9100ca0 acct:6a4a7b44f634e445 tel:f80cafc86eef410e spans:d2c6cc26ef98fba5 ckpt:0f910309ac2deb9f series:eb4493e59a5c4f37 texts:51417e94687b9a43",
    "fft4/all/simos-mipsy-150/flashlite run:676dddd1538029f2 acct:60a514fc0eacbdd2 tel:3b88d74ae50d9601 spans:de172e43130ddc83 ckpt:f7a014577eb8931f series:ddfa65dea1e7ac8d texts:3f150f9eb5249685",
    "fft4/all/simos-mipsy-150/numa run:672718b02999ec2f acct:2bc870fa2c88bff8 tel:f07d514794d6c3b6 spans:4cfa2da19255491a ckpt:72b70f489f7f90e2 series:03b52ab3facf08b8 texts:8ca24b956e5fc3c4",
    "fft4/all/solo-mipsy-150/flashlite run:cf0c7c4d754733c0 acct:3eece572e9fadcd5 tel:57aaf2e38f97d736 spans:b852a42496c4a968 ckpt:5c3c29691a2f1f82 series:1fc5f794bc7047e0 texts:6bcf73a3b44cdc53",
    "fft4/all/solo-mipsy-150/numa run:14b114b002014769 acct:c5de6d5149975864 tel:a5449d7ef2aa3ee9 spans:3170820b0a256fd0 ckpt:6027be457f280533 series:d6e11a17ca7fc477 texts:076b4ef6d8bbfff1",
    "fft4/all/simos-mxs/flashlite run:bd892bdeb6c16b85 acct:0f9e4ec3546261b6 tel:ec0f9c098fa07bf8 spans:431da31930e3a7fe ckpt:b8a2f5071fd37151 series:5cf490f4e7efa909 texts:064491e3eafd8f61",
    "fft4/all/simos-mxs/numa run:64a08ddf86819f42 acct:0a50551e07e60ee8 tel:7208d316f7a0d7f6 spans:7ca529b224416ed1 ckpt:77b59000917bca2e series:2c7607d33daadf02 texts:b6ae9a4ce773628e",
    "storm/profile/hardware run:ab42fcfb536bc25a acct:8e18a846aa9c2461",
    "storm/profile/simos-mipsy-150/flashlite run:ccfabe9f42d40765 acct:d59d809231538a1d",
    "storm/profile/simos-mipsy-150/numa run:b700753929253af0 acct:7d0bdf879b7ac6b5",
    "storm/profile/solo-mipsy-150/flashlite run:e43273776cfc8497 acct:04949cf2e0240750",
    "storm/profile/solo-mipsy-150/numa run:9818af2bff5c639c acct:0bd807afab40dc2a",
    "storm/profile/simos-mxs/flashlite run:6a819cf86f2cb95c acct:95cc2b9b57553d12",
    "storm/profile/simos-mxs/numa run:4af947756c7f5f04 acct:f32fd0d9e546529f",
    "snbench/none/hardware run:bb073e1f8818b6b3",
    "snbench/none/simos-mipsy-150/flashlite run:8a2f68a240751558",
    "snbench-dirty/none/tick100us/hardware run:b4490816620a7f8f",
    "snbench-dirty/none/tick100us/simos-mipsy-150/flashlite run:6206b336c2262a3b",
    "snbench-dirty/none/budget54394/hardware err:ea48c7c7838a6b29",
    "snbench-dirty/none/budget54394/simos-mipsy-150/flashlite err:ad2a06b49ea7037c",
    "snbench-dirty/none/stall1@54391/hardware err:441033f244cd8d37",
    "snbench-dirty/none/stall1@54391/simos-mipsy-150/flashlite err:e586fb70c1459a35",
    "snbench-dirty/profile/hardware run:b2796dee0b97f158 acct:57a463c965198b87",
    "snbench-dirty/profile/simos-mipsy-150/flashlite run:bf8650c91ee02a28 acct:28847ab6f13745a2",
    "storm2/none/stall1@120/simos-mipsy-150/flashlite err:ea28516b335cbd07",
    "grid64/profile/hardware run:3ec07a6496a96b26 acct:72b97c23a1146288",
    "grid64/profile/simos-mipsy-150/flashlite run:362a20c2561b6396 acct:ced4a40f0b0550a6",
    "grid64/none/stall37@500/simos-mipsy-150/flashlite err:8d4d9bce1ee575b5",
    "grid64/none/budget40000/simos-mipsy-150/flashlite err:b406d7b4fe753905",
    "edges/profile/hardware run:64011e2f61a9a99d acct:07724a3ae63f4241",
    "edges/profile/simos-mipsy-150/flashlite run:1b53775551626de5 acct:b1e5819bce84d59a",
    "edges/profile/simos-mipsy-150/numa run:ec4be3db293cebfd acct:eb1d9be7ed06c840",
    "edges/profile/solo-mipsy-150/flashlite run:9c9b827b8c15e1f3 acct:789b2c7f51ca88d2",
    "edges/profile/solo-mipsy-150/numa run:d701476e35e9c873 acct:08f4c812135b95f8",
    "edges/profile/simos-mxs/flashlite run:6a1fc67efbca1478 acct:e705f8eff24016f0",
    "edges/profile/simos-mxs/numa run:e43543a2d1b17eaa acct:d99ae7da341a29ce",
    "edges/none/stall0@1083/hardware err:9e44c3bcd5f686bc",
    "edges/none/stall0@1083/simos-mipsy-150/flashlite err:39cec3fe88ccba9e",
    "edges/none/stall2@350/hardware err:c44ea7a2471f4307",
    "edges/none/stall2@350/simos-mipsy-150/flashlite err:6118d4520c7f19fa",
    "edges/none/stall1@12/hardware err:590f7ff74f0713ed",
    "edges/none/stall1@12/simos-mipsy-150/flashlite err:b452f89f3e5e7c88",
    "edges/none/budget2982/hardware err:73a5243f70ee63a2",
    "edges/none/budget2982/simos-mipsy-150/flashlite err:6eaa44e1e91614fd",
    "edges/none/budget3430/hardware err:270549395abff0a4",
    "edges/none/budget3430/simos-mipsy-150/flashlite err:8010a4fc297b92de",
    "edges/none/budget3431/hardware err:4d7e693d3986c356",
    "edges/none/budget3431/simos-mipsy-150/flashlite err:1a58340eb638f25d",
    "edges-long/all/hardware run:6a706b90e999e064 acct:7bbb010a745eb0d9 tel:ac48a7782b2e87cc spans:372f7bf08e9c78dc series:087872a4c2c19191",
    "edges-long/all/simos-mipsy-150/flashlite run:00136faf184e39df acct:e65938b25c448479 tel:963caefdfea14042 spans:5f6302ca8e8c5911 series:0127b8ac63c67e8f",
    "scope-sAl-AsA/profile/stall1@2/hardware err:2886d5633db5aa41",
];

/// The table's programs, by name; a `scope-` name is a small-scope
/// program ([`scope::Scope`]).
fn program(name: &str, study: &Study) -> Box<dyn Program> {
    let fft = |n| Box::new(Fft::sized(ProblemScale::Tiny, n, FftBlocking::Cache));
    let edges = |grind, solo| Box::new(EpochEdges { grind, solo });
    match name {
        "fft2" => fft(2),
        "fft4" => fft(4),
        "storm" => Box::new(SyncStorm::new(4, 6, 5)),
        "snbench" => Box::new(Snbench::new(SnCase::all()[2], study.geometry.l2.bytes)),
        "snbench-dirty" => Box::new(Snbench::new(SnCase::all()[1], study.geometry.l2.bytes)),
        "storm2" => Box::new(SyncStorm::new(2, 4, 3)),
        "grid64" => Box::new(SyncGrid { rounds: 6 }),
        "edges" => edges(600, 900),
        "edges-long" => edges(9000, 50),
        _ => Box::new(scope::Scope::parse(name).unwrap_or_else(|| panic!("no program {name}"))),
    }
}

/// The table's observer sets: none, the profiler, everything (profiler,
/// telemetry at 500 ns, every span), or sampled spans alone.
fn observe(obs: &str, mut cfg: MachineConfig) -> MachineConfig {
    if obs == "profile" || obs == "all" {
        // The profiler is switched on in the config, so its checkpoints
        // restore into a machine with a ledger to load.
        cfg.profile = true;
    }
    if obs == "all" {
        cfg.telemetry = Some(TimeDelta::from_ns(500));
        cfg.spans = Some(SpanPlan::all(7));
    }
    if obs == "sampled" {
        cfg.spans = Some(SpanPlan::sampled(7, 8));
    }
    cfg
}

/// Fault plans: none; latency perturbation (shared RNG draws on every
/// memory transaction, which any reordering scrambles), dropped and
/// delayed messages, a clamped directory pointer pool and MAGIC queue; a
/// node stalled after some ops (seed, node, ops); a watchdog budget; or
/// the OS timer ticking every so many microseconds instead of 10 ms.
#[derive(Clone, Copy)]
pub enum Fault {
    Clean,
    Mixed,
    Stall(u64, u32, u64),
    Budget(u64),
    Tick(u64),
}

impl Fault {
    /// Applies the plan to `cfg` and names it for the class.
    fn apply(self, cfg: &mut MachineConfig) -> String {
        let stall = |seed, node, ops| FaultPlan {
            seed,
            stall_node: Some(node),
            stall_after_ops: ops,
            ..FaultPlan::none()
        };
        match self {
            Clean => String::new(),
            Mixed => {
                cfg.faults = Some(FaultPlan {
                    seed: 0xB17E5,
                    latency_prob: 0.3,
                    latency_spread: 1.0,
                    drop_prob: 0.02,
                    drop_timeout: TimeDelta::from_ns(1_000),
                    delay_prob: 0.1,
                    delay: TimeDelta::from_ns(500),
                    dir_pool_cap: Some(2),
                    magic_queue_ns: Some(20),
                    ..FaultPlan::none()
                });
                "/faults".to_owned()
            }
            Stall(seed, node, ops) => {
                cfg.faults = Some(stall(seed, node, ops));
                format!("/stall{node}@{ops}")
            }
            Budget(ops) => {
                cfg.max_ops = Some(ops);
                format!("/budget{ops}")
            }
            Tick(us) => {
                assert!(cfg.os.timer_interval.is_some(), "a platform with a timer");
                cfg.os.timer_interval = Some(TimeDelta::from_us(us));
                format!("/tick{us}us")
            }
        }
    }
}

/// The platforms of the study (the hardware plus each simulator × memory
/// system) that `on` names: `every` one, the `pair` the paper validates
/// first (hardware, SimOS-Mipsy on FlashLite), SimOS-Mipsy on both memory
/// systems (`mipsy`) or on FlashLite alone (`one`), or the `hardware`
/// alone (the small scope's platform, `tests/small_scope.rs`).
fn platforms(study: &Study, nodes: u32, on: &str) -> Vec<(String, MachineConfig)> {
    let mut out = vec![("hardware".to_owned(), study.hardware(nodes))];
    for sim in [Sim::SimosMipsy(150), Sim::SoloMipsy(150), Sim::SimosMxs] {
        for mem in [MemModel::FlashLite, MemModel::Numa] {
            let cfg = study.sim(sim, nodes, mem);
            out.push((cfg.label(), cfg));
        }
    }
    let one = "simos-mipsy-150/flashlite";
    out.retain(|(label, _)| match on {
        "pair" => label == one || label == "hardware",
        "mipsy" => label.starts_with("simos-mipsy"),
        "one" => label == one,
        "hardware" => label == "hardware",
        _ => true,
    });
    out
}

/// What every cell of a class shares, and its cells as `(suite, token)`.
pub struct Class {
    /// `{row}/{platform}`.
    pub name: String,
    /// `{program}/{observers}{fault}`, the table line's part of the name.
    pub row: String,
    pub cfg: MachineConfig,
    pub prog: Box<dyn Program>,
    pub cells: Vec<(&'static str, &'static str)>,
}

/// Every class of the table, in table order.
pub fn classes() -> Vec<Class> {
    let study = Study::scaled();
    let mut out = Vec::new();
    for &(prog, obs, fault, on, cells) in TABLE {
        let cells: Vec<(&str, &str)> = cells
            .split(';')
            .map(|part| part.split_once(':').expect("suite: cells"))
            .flat_map(|(suite, tokens)| tokens.split_whitespace().map(move |t| (suite.trim(), t)))
            .collect();
        let nodes = program(prog, &study).num_threads() as u32;
        for (label, cfg) in platforms(&study, nodes, on) {
            let mut cfg = observe(obs, cfg);
            let row = format!("{prog}/{obs}{}", fault.apply(&mut cfg));
            out.push(Class {
                name: format!("{row}/{label}"),
                row,
                cfg,
                prog: program(prog, &study),
                cells: cells.clone(),
            });
        }
    }
    out
}

/// Worker count of the `P` cells, read from `FLASHSIM_EQ_WORKERS` (which
/// `scripts/check.sh` sweeps) and 2 when it is unset.
fn eq_workers() -> usize {
    std::env::var_os("FLASHSIM_EQ_WORKERS").map_or(2, |v| {
        let v = v.to_string_lossy();
        v.parse()
            .unwrap_or_else(|_| panic!("FLASHSIM_EQ_WORKERS={v:?} is not a worker count"))
    })
}

/// One cell of a class, parsed from a token such as `P+host+sink` or
/// `B@every`: `R`, `B` and `P` are `Reference`, `Batched` and `Parallel`
/// at [`eq_workers`] (`P:N` and `P:host` fix the count), `+host` attaches
/// the host profiler alone, `+sink` a checkpoint sink, and
/// `@every`/`@mid` restores from every checkpoint of the first sink cell
/// its suite runs of the class under the same policy, or from its middle
/// one.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Cell {
    pub letter: char,
    pub policy: SchedPolicy,
    pub host: bool,
    pub sink: bool,
    pub restore: Option<&'static str>,
}

impl Cell {
    pub fn parse(token: &'static str) -> Cell {
        let (head, restore) = match token.split_once('@') {
            Some((head, at)) => (head, Some(at)),
            None => (token, None),
        };
        let mut parts = head.split('+');
        let policy = match parts.next().expect("a policy") {
            "R" => SchedPolicy::Reference,
            "B" => SchedPolicy::Batched,
            p => SchedPolicy::Parallel {
                workers: match p {
                    "P" => eq_workers(),
                    "P:host" => std::thread::available_parallelism().map_or(1, |n| n.get()),
                    n if n.starts_with("P:") => n[2..].parse().expect(token),
                    _ => panic!("{token}: no such policy"),
                },
            },
        };
        let flags: Vec<&str> = parts.collect();
        let known = ["host", "sink"];
        assert!(flags.iter().all(|f| known.contains(f)), "{token}");
        assert!(matches!(restore, None | Some("every" | "mid")), "{token}");
        Cell {
            letter: token.chars().next().expect("a policy"),
            policy,
            host: flags.contains(&"host"),
            sink: flags.contains(&"sink"),
            restore,
        }
    }
}

/// What one cell left behind: its result, every checkpoint it cut, and
/// their digests, one per row field it produces.
pub struct Ran {
    pub label: String,
    pub cell: Cell,
    pub result: Result<RunResult, SimError>,
    pub ckpts: Vec<String>,
    pub row: Vec<(&'static str, String)>,
}

impl Ran {
    pub fn ok(&self) -> &RunResult {
        self.result.as_ref().expect("the cell completed")
    }

    /// Whether the cell produced `field` (and so matched the recorded row
    /// on it).
    pub fn has(&self, field: &str) -> bool {
        self.row.iter().any(|(k, _)| *k == field)
    }
}

const FIELDS: &str = "run acct tel spans ckpt series texts err";

/// Runs one cell and digests what it left behind. `spans` holds the span
/// sets already digested in this class: rendering the span export is the
/// costliest digest, and a set equal to one of them exports its bytes.
fn run_cell(
    class: &Class,
    cell: Cell,
    label: String,
    from: Option<&str>,
    spans: &mut Vec<(SpanSet, String)>,
) -> Ran {
    let mut cfg = class.cfg.clone();
    cfg.sched = cell.policy;
    cfg.hostprof = cell.host;
    let mut m = match from {
        None => Machine::new(cfg, &*class.prog).expect("machine builds"),
        Some(text) => Machine::restore(cfg, &*class.prog, text)
            .unwrap_or_else(|e| panic!("{label}: restore: {e}")),
    };
    let (sink, cut) = mpsc::channel();
    if cell.sink {
        m.attach_ckpt_sink(Box::new(move |_seq, _at: Time, text: &str| {
            sink.send(text.to_owned()).expect("the cell is running");
        }));
    }
    let result = m.run();
    let ckpts: Vec<String> = cut.try_iter().collect();
    let h = |text: &str| ckpt::provenance_hash(text);
    let mut row = Vec::new();
    match &result {
        Err(e) => row.push(("err", h(&format!("{e:?}")))),
        Ok(r) => {
            // The span export has a field of its own.
            let mut bare = r.clone();
            bare.spans = None;
            let outcome = CellOutcome::Completed(Box::new(bare));
            row.push(("run", h(&render_artifacts(&outcome))));
            if let Some(a) = &r.accounting {
                row.push(("acct", h(&format!("{a:?}"))));
            }
            if let Some(t) = &r.telemetry {
                row.push(("tel", h(&t.to_jsonl())));
                if cell.letter == 'B' && from.is_none() {
                    row.push(("series", h(&format!("{t:?}"))));
                }
            }
            if let Some(set) = &r.spans {
                if !spans.iter().any(|(seen, _)| seen == set) {
                    spans.push((set.clone(), h(&set.to_jsonl())));
                }
                let seen = spans.iter().find(|(seen, _)| seen == set);
                row.push(("spans", seen.expect("digested").1.clone()));
            }
        }
    }
    if cell.sink {
        let states: String = ckpts.iter().map(|t| ckpt_state(t)).collect();
        row.push(("ckpt", h(&states)));
        if cell.letter == 'B' {
            row.push(("texts", h(&ckpts.concat())));
        }
    }
    Ran {
        label,
        cell,
        result,
        ckpts,
        row,
    }
}

/// A checkpoint's state: everything after the three header lines (the
/// provenance names the scheduling policy) and before the checksum.
fn ckpt_state(text: &str) -> &str {
    let body = text.splitn(4, '\n').nth(3).expect("a header");
    &body[..body.rfind("checksum=").expect("a trailer")]
}

pub fn recorded(class: &str) -> Option<&'static str> {
    RECORDED
        .iter()
        .find_map(|row| row.strip_prefix(class)?.strip_prefix(' '))
}

/// The suite this module is compiled into: the first word of its test
/// file's name (`sched` for `tests/sched_equivalence.rs`).
pub fn suite() -> &'static str {
    let name = env!("CARGO_CRATE_NAME");
    name.split('_').next().expect("a crate name")
}

/// What running a class's cells left: the cells, or the report of the
/// digests that moved.
type Outcome = Result<Vec<Ran>, String>;

/// This suite's classes — those with a cell it runs — each with its
/// cells' outcome once they have run.
fn suite_classes() -> &'static [(Class, OnceLock<Outcome>)] {
    static CLASSES: OnceLock<Vec<(Class, OnceLock<Outcome>)>> = OnceLock::new();
    CLASSES.get_or_init(|| {
        let ours = |c: &Class| c.cells.iter().any(|(s, _)| *s == suite());
        let all = classes().into_iter().filter(ours);
        all.map(|c| (c, OnceLock::new())).collect()
    })
}

/// The classes of the table line named `row` (`fft2/all/faults`) that
/// this suite has cells of, each with those cells run and checked.
pub fn ran(row: &str) -> Vec<(&'static Class, &'static [Ran])> {
    ran_if(|c| c.row == row, row)
}

/// One class by name (`fft2/all/hardware`), its cells run and checked.
pub fn class(name: &str) -> (&'static Class, &'static [Ran]) {
    ran_if(|c| c.name == name, name)[0]
}

/// The classes `choose` picks of this suite's, each with its cells run —
/// those not yet run in this test binary on one thread per host core; a
/// class another test is running is waited for, not run again — and
/// checked. `what` names the choice in the panic if there is none. Every
/// class whose digests moved is reported, each with its recomputed row.
pub fn ran_if(
    choose: impl Fn(&Class) -> bool,
    what: &str,
) -> Vec<(&'static Class, &'static [Ran])> {
    let todo: Vec<_> = suite_classes().iter().filter(|(c, _)| choose(c)).collect();
    assert!(!todo.is_empty(), "suite {} runs no cell of {what}", suite());
    let next = AtomicUsize::new(0);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::thread::scope(|s| {
        for _ in 0..cores.min(todo.len()) {
            s.spawn(|| {
                while let Some((class, ran)) = todo.get(next.fetch_add(1, Ordering::Relaxed)) {
                    ran.get_or_init(|| run_class(class));
                }
            });
        }
    });
    let done: Vec<_> = todo
        .iter()
        .map(|(c, ran)| (c, ran.get().expect("ran")))
        .collect();
    let moved: Vec<&str> = done
        .iter()
        .filter_map(|(_, r)| r.as_ref().err())
        .map(|e| e.as_str())
        .collect();
    assert!(moved.is_empty(), "{}", moved.join("\n"));
    done.into_iter()
        .map(|(c, r)| (c, r.as_ref().expect("no digest moved").as_slice()))
        .collect()
}

/// The policy letters of a class's unrestored cells, in table order.
pub fn letters(ran: &[Ran]) -> String {
    let straight = ran.iter().filter(|r| r.cell.restore.is_none());
    straight.map(|r| r.cell.letter).collect()
}

/// Runs this suite's cells of one class, checks them, and holds each to
/// the class's recorded row.
fn run_class(class: &Class) -> Outcome {
    let mut ran: Vec<Ran> = Vec::new();
    let mut spans = Vec::new();
    for &(_, token) in class.cells.iter().filter(|(s, _)| *s == suite()) {
        let cell = Cell::parse(token);
        if ran.iter().any(|r| r.cell == cell) {
            continue;
        }
        let label = format!("{} [{token}]", class.name);
        let Some(restore) = cell.restore else {
            ran.push(run_cell(class, cell, label, None, &mut spans));
            continue;
        };
        let sink = ran
            .iter()
            .find(|r| r.cell.sink && r.cell.policy == cell.policy);
        let ckpts = &sink.expect("a sink cell under the policy runs first").ckpts;
        let points = match restore {
            "every" => ckpts.clone(),
            _ => vec![ckpts[ckpts.len() / 2].clone()],
        };
        for (i, text) in points.iter().enumerate() {
            let label = format!("{label} #{i}");
            ran.push(run_cell(class, cell, label, Some(text), &mut spans));
        }
    }
    check_class(class, &ran);
    if let Some(report) = compare(class, &ran) {
        return Err(report);
    }
    // Every transaction's spans are megabytes a cell, and nothing reads
    // them once digested and checked.
    for r in &mut ran {
        if let Ok(r) = &mut r.result {
            r.spans = None;
        }
    }
    Ok(ran)
}

/// Checks every cell of one class against the recorded row; if any
/// differs, the report, with the recomputed row.
fn compare(class: &Class, ran: &[Ran]) -> Option<String> {
    let recorded: Vec<(&str, &str)> = recorded(&class.name)
        .unwrap_or_default()
        .split_whitespace()
        .map(|f| f.split_once(':').expect("field:digest"))
        .collect();
    // The first recomputed digest of each field that moved.
    let mut fresh: Vec<(&str, &str)> = Vec::new();
    let mut moved = Vec::new();
    for r in ran {
        for (k, v) in &r.row {
            if !recorded.contains(&(k, v)) {
                moved.push(format!("{}: {k} {v}", r.label));
                if fresh.iter().all(|f| f.0 != *k) {
                    fresh.push((k, v));
                }
            }
        }
    }
    if moved.is_empty() {
        return None;
    }
    let kept = recorded.iter().filter(|f| fresh.iter().all(|g| g.0 != f.0));
    let mut row: Vec<_> = kept.chain(&fresh).collect();
    row.sort_by_key(|(k, _)| FIELDS.split(' ').position(|n| n == *k));
    let fields: Vec<String> = row.iter().map(|(k, v)| format!("{k}:{v}")).collect();
    let (name, moved, row) = (&class.name, moved.join("\n  "), fields.join(" "));
    Some(format!("{name}:\n  {moved}\n    \"{name} {row}\","))
}

/// The checks a class's cells carry beyond their digests. Its cells export
/// the same bytes, so each export is validated once; the span validator
/// runs where spans are sampled (an export of every transaction is
/// megabytes, and the validator is the same).
fn check_class(class: &Class, ran: &[Ran]) {
    ran.iter().for_each(check_cell);
    let first = ran.iter().find_map(|r| r.result.as_ref().ok());
    if let Some(series) = first.and_then(|r| r.telemetry.as_ref()) {
        telemetry::validate_jsonl(&series.to_jsonl())
            .unwrap_or_else(|e| panic!("{}: telemetry export invalid: {e}", class.name));
    }
    let sampled = class.name.contains("/sampled/");
    if let Some(set) = first.and_then(|r| r.spans.as_ref()).filter(|_| sampled) {
        span::validate_jsonl(&set.to_jsonl())
            .unwrap_or_else(|e| panic!("{}: span export invalid: {e}", class.name));
        for r in ran {
            let plan = r.ok().manifest.spans.as_deref();
            assert_eq!(plan, Some("seed=7 period=8 max_txns=4096"), "{}", r.label);
        }
    }
}

/// The checks each cell carries beyond its digests.
fn check_cell(ran: &Ran) {
    let label = &ran.label;
    if ran.cell.sink {
        assert!(ran.ckpts.len() >= 2, "{label}: cuts several checkpoints");
    }
    let Ok(r) = &ran.result else { return };
    if let Some(acc) = &r.accounting {
        check_accounting(label, acc);
    }
    if let Some(series) = &r.telemetry {
        check_telemetry(label, series, &r.stats);
    }
    let sampled = r.spans.as_ref().is_none_or(|set| !set.txns.is_empty());
    assert!(sampled, "{label}: no transaction sampled");
    assert_eq!(r.hostprof.is_some(), ran.cell.host, "{label}: host report");
    if let Some(report) = &r.hostprof {
        let phases = report.phase_ns.iter().sum::<u64>();
        assert_eq!(phases, report.total_ns, "{label}: phases tile the window");
        // Every core model publishes a transparent scan profile, so a
        // parallel run must really have forked — admitted ops through the
        // fork-side environment and met its shared-op stop.
        let a = report.admission;
        let forked = a.rounds > 0 && a.admitted_ops > 0 && a.rejected_shared > 0;
        let whole = ran.cell.letter == 'P' && ran.cell.restore.is_none();
        assert!(forked || !whole, "{label}: forking never happened: {a:?}");
    }
}

/// Every simulated cycle is attributed to exactly one stall class.
pub fn check_accounting(label: &str, acc: &Accounting) {
    assert!(acc.conserved(), "{label}: accounting not conserved");
    for node in &acc.nodes {
        let sum = node.classes.iter().sum::<u64>();
        assert_eq!(sum, node.total_ps, "{label}: node {} class sums", node.node);
    }
    assert!(acc.total_ps() > 0, "{label}: nothing accounted");
}

/// Every metric's buckets sum to its total, and the per-op observer
/// writes, folded in per-node windows and published once per bucket, are
/// none of them lost across forks and checkpoint cuts. (The miss counters
/// also count upgrades, which the caches' own statistics do not.)
pub fn check_telemetry(label: &str, series: &TelemetrySeries, stats: &StatSet) {
    assert!(series.conserved(), "{label}: bucket sums != totals");
    assert!(!series.metrics.is_empty(), "{label}: no metrics registered");
    for (metric, stat) in [("mem.l1_hits", "l1.hits"), ("mem.l2_hits", "l2.hits")] {
        let metric = series.get(metric).expect("registered");
        let (total, sum) = (metric.total, metric.buckets.iter().sum::<u64>());
        assert_eq!(total as f64, stats.get_or_zero(stat), "{label}: {stat}");
        assert_eq!(sum, total, "{label}: {stat}");
    }
}

/// A program made of the places where the optimized schedulers' serial
/// epoch has to end or the laggard has to leave the heap, on 4 threads:
/// every thread's first op is a barrier, barriers come back to back, a
/// lock ping-pongs with zero to two ops between acquire and release, a
/// contested phase long enough for thousands of scheduling decisions, and
/// a solo phase in which only thread 0 is runnable (one unbounded batch).
#[derive(Debug, Clone, Copy)]
struct EpochEdges {
    /// Ops per thread in the contested phase.
    grind: u64,
    /// Ops thread 0 runs alone while the others wait at the last barrier.
    solo: u64,
}

const EDGE_LOCK: u64 = 0x10000;
const EDGE_DATA: u64 = 0x100000;
const EDGE_BYTES: u64 = 32 * 1024;

/// Each thread's data region, and the lock's page on node 0.
fn edge_segments(threads: usize) -> Vec<Segment> {
    let data = EDGE_BYTES * threads as u64;
    vec![
        Segment::new("data", VAddr(EDGE_DATA), data, Placement::Blocked),
        Segment::new("lock", VAddr(EDGE_LOCK), 4096, Placement::Node(0)),
    ]
}

/// Loads, stores and ALU ops over the thread's own region, at a pace that
/// differs per thread so the laggard keeps changing.
fn edge_work(sink: &mut Sink, tid: usize, ops: u64) {
    let base = EDGE_DATA + tid as u64 * EDGE_BYTES;
    for k in 0..ops {
        match (k + tid as u64) % 4 {
            0 => {
                sink.load(VAddr(base + (k * 72) % EDGE_BYTES));
            }
            1 => sink.store(VAddr(base + (k * 40) % EDGE_BYTES)),
            _ => sink.alu(1),
        }
    }
}

impl Program for EpochEdges {
    fn name(&self) -> String {
        "epoch-edges".into()
    }

    fn num_threads(&self) -> usize {
        4
    }

    fn segments(&self) -> Vec<Segment> {
        edge_segments(4)
    }

    fn thread_body(&self, tid: usize) -> Box<dyn FnOnce(&mut Sink) + Send + 'static> {
        let prog = *self;
        Box::new(move |sink| {
            sink.barrier();
            sink.barrier();
            for round in 0..9 {
                sink.lock(1, VAddr(EDGE_LOCK));
                for _ in 0..(round + tid) % 3 {
                    sink.store(VAddr(EDGE_LOCK + 0x80));
                }
                sink.unlock(1, VAddr(EDGE_LOCK));
            }
            sink.barrier();
            edge_work(sink, tid, prog.grind);
            sink.barrier();
            sink.barrier();
            if tid == 0 {
                edge_work(sink, tid, prog.solo);
            }
            sink.barrier();
        })
    }

    fn timing_barrier(&self) -> Option<u32> {
        Some(1)
    }
}

/// Sixty-four threads that meet at a barrier every few hundred ops and,
/// in between, queue on one lock: most sync ops only park their node (a
/// barrier arrival that does not release, an acquire that queues), which
/// the production schedule handles by popping that node off the heap
/// instead of rebuilding it.
#[derive(Debug, Clone, Copy)]
struct SyncGrid {
    rounds: u64,
}

impl Program for SyncGrid {
    fn name(&self) -> String {
        "sync-grid".into()
    }

    fn num_threads(&self) -> usize {
        64
    }

    fn segments(&self) -> Vec<Segment> {
        edge_segments(64)
    }

    fn thread_body(&self, tid: usize) -> Box<dyn FnOnce(&mut Sink) + Send + 'static> {
        let prog = *self;
        Box::new(move |sink| {
            sink.barrier();
            for round in 0..prog.rounds {
                // Uneven paces, so arrivals and lock requests interleave.
                edge_work(sink, tid, 150 + 5 * ((tid as u64 + round) % 29));
                if (tid as u64 + round).is_multiple_of(3) {
                    sink.lock(1, VAddr(EDGE_LOCK));
                    sink.store(VAddr(EDGE_LOCK + 0x80));
                    sink.unlock(1, VAddr(EDGE_LOCK));
                }
                sink.barrier();
            }
        })
    }

    fn timing_barrier(&self) -> Option<u32> {
        Some(0)
    }
}
